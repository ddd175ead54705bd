"""Spinor calculus: orthonormal frames, spin connection, gamma algebra,
and three operator constructions (standard Dirac, the operator attached to
a Killing vector, and the Dirac-type operator attached to a Killing-Yano
two-form), with numeric verification of their (anti)commutation identities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .exprkit import ONE, ZERO, function, identically_equal, symbol
from .killing import ResidualReport, _default_points, _max_abs, _report
from .manifold import (GeometryError, Manifold, TensorField, _covariant, _inverse,
                       _product, trees)


class FrameError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# frames

@dataclass
class Frame:
    """Orthonormal coframe e^a_mu with e^a_mu e^b_nu eta_ab = g_{mu nu}."""

    vierbein: np.ndarray          # e[a, mu], object array of trees
    eta: tuple[int, ...]          # frame metric diagonal

    def __post_init__(self):
        self.vierbein = trees(self.vierbein)


def orthonormal_frame(M: Manifold) -> Frame:
    """The diagonal frame e^a_mu = sqrt(|g_aa|) delta^a_mu of a diagonal metric."""
    n = M.dim
    for i in range(n):
        for j in range(n):
            if i != j and not identically_equal(M.metric[i, j], ZERO):
                raise FrameError(
                    "metric is not diagonal; supply an explicit frame")
    comp = np.zeros((n, n), dtype=object)
    for i in range(n):
        comp[i, i] = function("sqrt", M.signature[i] * M.metric[i, i])
    return Frame(comp, tuple(M.signature))


def frame_residual(F: Frame, M: Manifold, points=None, seed=0,
                   tol=1e-10) -> ResidualReport:
    """e^a_mu e^b_nu eta_ab - g_{mu nu} at sampled points."""
    pts = _default_points(M, points, seed)
    e = M.evaluate(F.vierbein, pts)
    g = M.evaluate(M.metric, pts)
    eta = np.diag(F.eta).astype(float)
    return _report("frame-orthonormality", pts,
                   _max_abs(np.swapaxes(e, 1, 2) @ eta @ e - g), _max_abs(g), tol)


# ---------------------------------------------------------------------------
# gamma matrices

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def canonical_gamma(eta: tuple[int, ...]) -> np.ndarray:
    """One fixed representation for dimensions 2, 3 and 4, shape (n, s, s),
    with {gamma^a, gamma^b} = 2 eta^{ab} Id.  Its entries are 0, +-1 and +-i,
    so every product of gamma matrices is exact."""
    n = len(eta)
    if n in (2, 3):
        base = _SIGMA[:n]
    elif n == 4:
        base = [np.kron(s, _SIGMA[0]) for s in _SIGMA] + [np.kron(np.eye(2), _SIGMA[1])]
    else:
        raise GeometryError(f"gamma representations provided for dimensions 2-4, not {n}")
    return np.array([g if e == 1 else 1j * g for e, g in zip(eta, base)], dtype=complex)


# ---------------------------------------------------------------------------
# operators
#
# An operator is the 1-jet of its coefficient matrices at a batch of points,
# formed once from the jets Manifold.evaluate gives; operators act
# on the jets of spinor fields and compose by the Leibniz rule in numpy.

SpinorField = np.ndarray      # object array of trees, length = spinor size
_QUARTER_SIGN = -1            # X_k's quarter term: -1 makes [D_s, X_k] = 0


@dataclass
class OperatorSpec:
    """kind in {standard-dirac, killing-op, dirac-type}; payload is the
    Killing vector (contravariant) or the Killing-Yano two-form (covariant),
    a payload of another variance a GeometryError."""

    kind: str
    payload: TensorField | None = None

    def __post_init__(self):
        if self.kind not in ("standard-dirac", "killing-op", "dirac-type"):
            raise GeometryError(f"unknown operator kind {self.kind!r}")
        if self.kind != "standard-dirac" and self.payload is None:
            raise GeometryError(f"{self.kind} needs a payload")
        if self.kind == "killing-op" and self.payload.variance != "u":
            raise GeometryError("killing-op payload must be a vector field")
        if self.kind == "dirac-type" and self.payload.variance != "dd":
            raise GeometryError("dirac-type payload must be a covariant two-form")


class SpinContext:
    """The frame and gamma matrices: from the 2-jet of the vierbein and the
    manifold's metric and Christoffel jets all three operators are formed
    numerically."""

    def __init__(self, M: Manifold, F: Frame):
        self.M = M
        self.F = F
        self._gamma = canonical_gamma(F.eta)
        # (1/4) eta^{aa} eta^{bb} gamma^a gamma^b; eta^{aa} = eta_{aa} for +-1
        eta = np.array(F.eta, dtype=float)
        self._quarter = 0.25 * np.einsum("a,b,ast,btu->absu", eta, eta,
                                         self._gamma, self._gamma)

    def connection(self, points) -> tuple[np.ndarray, np.ndarray]:
        """1-jets of the inverse frame einv[mu, a] = e_a^mu, shape
        (P, n + 1, n, n), and of the spin connection omega[mu, a, b] =
        omega_{mu a b}, shape (P, n + 1, n, n, n).  omega is fixed by the
        vanishing of the total derivative of the vierbein:
        omega_{mu a b} = -eta_a (d_mu e^a_nu - Gamma^lam_{mu nu} e^a_lam) e_b^nu."""
        e2 = self.M.evaluate(self.F.vierbein, points, order=2)
        einv = _inverse(e2[:, :, -1])
        nabla_e = _covariant(e2, self.M.christoffel(points), "d")
        eta = np.array(self.F.eta, dtype=float)[:, None]
        return einv, -eta * _product("man,nb->mab", nabla_e, einv)

    def frame_jets(self, points) -> tuple[np.ndarray, np.ndarray]:
        """1-jets of gamma^mu = e_a^mu gamma^a and of the connection matrices
        (1/4) omega_{mu a b} gamma^a gamma^b, each of shape (P, n + 1, n, s, s)."""
        einv, omega = self.connection(points)
        return (np.einsum("pjma,ast->pjmst", einv, self._gamma),
                np.einsum("pjmab,abst->pjmst", omega, self._quarter))


class LinearOperator:
    """First-order operator sum_k K[k] d_k + K[n] with matrix coefficients,
    held as the 1-jet of K at a batch of points, shape (P, n + 1, n + 1, s, s):
    the jet axis first, then k."""

    def __init__(self, K: np.ndarray):
        self.K = K

    def apply(self, jet: np.ndarray) -> np.ndarray:
        """The operator applied to the jet of spinor fields at its points, one
        order shorter: a 2-jet has shape (P, n + 1, n + 1, fields, s), and
        values (P, fields, s).  The jet's last jet axis pairs with k, and a
        2-jet's other axis takes the Leibniz rule with the partials of K."""
        if jet.ndim == 5:
            return _product("ktu,kbu->bt", self.K, jet)
        return np.einsum("pktu,pkbu->pbt", self.K[:, -1], jet)

    def compose(self, other: "LinearOperator") -> "SecondOrderOperator":
        """self applied after other."""
        return SecondOrderOperator(self, other)


class SecondOrderOperator:
    """first applied after second; it maps a spinor 2-jet to values."""

    def __init__(self, first: LinearOperator, second: LinearOperator):
        self.first = first
        self.second = second

    def apply(self, jet: np.ndarray) -> np.ndarray:
        return self.first.apply(self.second.apply(jet))


def _coefficient_jet(c1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """K with K[k] = c1[k] for k < n and K[n] = c0, jet axis kept first."""
    return np.concatenate([c1, c0[:, :, None]], axis=2)


def build_operator(spec: OperatorSpec, ctx: SpinContext, points, frames) -> LinearOperator:
    """D_s, X_k, or D_f on the given spin context at the points, its coefficient
    jet formed from the 2-jet of the payload and frames = ctx.frame_jets(points)."""
    M = ctx.M
    gam, conn = frames

    if spec.kind == "standard-dirac":
        # D_s = i gamma^mu grad_mu
        return LinearOperator(1j * _coefficient_jet(gam, _product("mst,mtu->su", gam, conn)))

    if spec.kind == "killing-op":
        # X_k = -i (R^mu grad_mu + _QUARTER_SIGN/4 gamma^mu gamma^nu R_{mu;nu})
        r2 = M.evaluate(spec.payload.components, points, order=2)
        r = r2[:, :, -1]
        # dr[nu, mu] = R_{mu;nu} = g_{mu lam} grad_nu R^lam
        dr = _product("ml,nl->nm", M.metric_jet(points)[:, :, -1],
                      _covariant(r2, M.christoffel(points), "u"))
        c0 = (_product("m,mst->st", r, conn)
              + _QUARTER_SIGN / 4 * _product("mst,ntu,nm->su", gam, gam, dr))
        eye = np.eye(ctx._gamma.shape[1])
        return LinearOperator(-1j * _coefficient_jet(np.einsum("pjm,st->pjmst", r, eye), c0))

    # dirac-type: D_f = i gamma^mu (f_mu^nu grad_nu - (1/6) gamma^nu gamma^rho f_{mu nu;rho})
    f2 = M.evaluate(spec.payload.components, points, order=2)
    fm = _product("ml,ln->mn", f2[:, :, -1], M.inverse_metric_jet(points))   # f_mu{}^nu
    df = _covariant(f2, M.christoffel(points), "dd")          # df[rho, mu, nu] = f_{mu nu;rho}
    c0 = (_product("mn,mst,ntu->su", fm, gam, conn)
          - _product("rmn,mst,ntu,ruv->sv", df, gam, gam, gam) / 6)
    return LinearOperator(1j * _coefficient_jet(_product("mn,mst->nst", fm, gam), c0))


# ---------------------------------------------------------------------------
# test-spinor bank and residual reports

def spinor_bank(M: Manifold, count: int = 5, seed: int = 0) -> list[SpinorField]:
    """Deterministic bank: degree-<=2 polynomials in the coordinates times
    {1, sin(theta_1), cos(theta_1)} where theta_1 is the first coordinate."""
    rng = random.Random(seed)
    xs = [symbol(c) for c in M.chart.coords]
    size = 2 ** (M.dim // 2)
    trig = [ONE, function("sin", xs[min(1, M.dim - 1)]), function("cos", xs[min(1, M.dim - 1)])]
    monomials = [ONE] + xs + [xs[i] * xs[j] for i in range(M.dim) for j in range(i, M.dim)]
    bank = []
    for _ in range(count):
        comp = np.empty(size, dtype=object)
        for s in range(size):
            poly = sum(rng.randint(-2, 2) * m for m in rng.sample(monomials, 3))
            comp[s] = poly * rng.choice(trig)
        bank.append(comp)
    return bank


def _bilinear_report(check, specs, terms, ctx, bank, points, seed, tol) -> ResidualReport:
    """The report of the bank spinor with the worst relative residual
    |sum c X Y psi| over the terms (c, i, j), X = specs[i] and Y = specs[j],
    scaled by the largest |X Y psi| and 1.  Each spec is built once, on shared frame jets."""
    M = ctx.M
    pts = _default_points(M, points, seed)
    jet = M.evaluate(list(bank), pts, order=2)
    frames = ctx.frame_jets(pts)
    ops = [build_operator(spec, ctx, pts, frames) for spec in specs]
    # values[t][p, k] = (X Y psi_k)(p) for the term t = (c, i, j)
    values = [ops[i].compose(ops[j]).apply(jet) for _, i, j in terms]
    residual = np.max(np.abs(sum(c * v for (c, _, _), v in zip(terms, values))), axis=2)
    scale = np.maximum(np.max([np.max(np.abs(v), axis=2) for v in values], axis=0), 1.0)
    reports = [_report(check, pts, residual[:, k], scale[:, k], tol)
               for k in range(len(bank))]
    # a non-finite report ranks above every finite one
    worst = max(reports, key=lambda r: (not math.isfinite(r.max_rel_residual),
                                        r.max_rel_residual))
    worst.extra["bank_size"] = len(bank)
    return worst


def anticommutator_residual(specA: OperatorSpec, specB: OperatorSpec,
                            ctx: SpinContext, bank, points=None, seed=0,
                            tol=1e-8) -> ResidualReport:
    """Residual of (AB + BA) psi over the bank, relative to |ABpsi|, |BApsi|."""
    return _bilinear_report("anticommutator", [specA, specB], [(1, 0, 1), (1, 1, 0)],
                            ctx, bank, points, seed, tol)


def commutator_residual(specA: OperatorSpec, specB: OperatorSpec,
                        ctx: SpinContext, bank, points=None, seed=0,
                        tol=1e-8) -> ResidualReport:
    """Residual of (AB - BA) psi over the bank."""
    return _bilinear_report("commutator", [specA, specB], [(1, 0, 1), (-1, 1, 0)],
                            ctx, bank, points, seed, tol)


def square_compare(spec_f: OperatorSpec, ctx: SpinContext, bank,
                   points=None, seed=0, tol=1e-8) -> ResidualReport:
    """Residual of (D_f^2 - D_s^2) psi over the bank."""
    if spec_f.kind != "dirac-type":
        raise GeometryError("square_compare expects a dirac-type operator")
    return _bilinear_report("square-compare", [spec_f, OperatorSpec("standard-dirac")],
                            [(1, 0, 0), (-1, 1, 1)], ctx, bank, points, seed, tol)
