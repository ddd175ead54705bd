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
import sympy as sp

from .killing import ResidualReport, _default_points, _max_abs, _report
from .manifold import GeometryError, Manifold, TensorField, covariant_derivative, lower_index

# Sign of the quarter term in the Killing operator
#   X_k = -i (R^mu grad_mu + QUARTER_SIGN * (1/4) gamma^mu gamma^nu R_{mu;nu}).
# Fixed so that [D_s, X_k] = 0 holds on every verified Killing payload.
QUARTER_SIGN = -1


class FrameError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# frames

@dataclass
class Frame:
    """Orthonormal coframe e^a_mu with e^a_mu e^b_nu eta_ab = g_{mu nu}."""

    vierbein: np.ndarray          # e[a, mu], object array of expressions
    eta: tuple[int, ...]          # frame metric diagonal

    def __post_init__(self):
        self.vierbein = np.array(self.vierbein, dtype=object)
        for idx in np.ndindex(self.vierbein.shape):
            self.vierbein[idx] = sp.sympify(self.vierbein[idx])
        self._inverse = None

    @property
    def dim(self) -> int:
        return self.vierbein.shape[0]

    def inverse(self) -> np.ndarray:
        """e_a^mu with e_a^mu e^a_nu = delta^mu_nu (rows indexed by a)."""
        if self._inverse is None:
            matrix = sp.Matrix(self.dim, self.dim,
                               lambda a, mu: self.vierbein[a, mu])
            inv = matrix.inv()
            self._inverse = np.array(
                [[sp.cancel(sp.together(inv[mu, a])) for mu in range(self.dim)]
                 for a in range(self.dim)], dtype=object)
        return self._inverse


def orthonormal_frame(M: Manifold, vierbein=None,
                      eta: tuple[int, ...] | None = None) -> Frame:
    """Build a frame from a diagonal metric, or wrap a supplied one."""
    n = M.dim
    if vierbein is not None:
        return Frame(np.array(vierbein, dtype=object),
                     tuple(eta) if eta else tuple(M.signature))
    for i in range(n):
        for j in range(n):
            if i != j and sp.simplify(M.metric[i, j]) != 0:
                raise FrameError(
                    "metric is not diagonal; supply an explicit frame")
    comp = np.zeros((n, n), dtype=object)
    eta_out = []
    for i in range(n):
        gii = M.metric[i, i]
        sign = M.signature[i]
        comp[i, i] = sp.sqrt(sp.simplify(sign * gii))
        eta_out.append(sign)
    return Frame(comp, tuple(eta_out))


def frame_residual(F: Frame, M: Manifold, points=None, seed=0,
                   tol=1e-10) -> ResidualReport:
    """e^a_mu e^b_nu eta_ab - g_{mu nu} at sampled points."""
    pts = _default_points(M, points, seed)
    e = M.evaluate(F.vierbein, pts)
    g = M.evaluate(M.metric, pts)
    eta = np.diag(F.eta).astype(float)
    return _report("frame-orthonormality", pts,
                   _max_abs(np.swapaxes(e, 1, 2) @ eta @ e - g), _max_abs(g), tol)


def spin_connection(F: Frame, M: Manifold) -> np.ndarray:
    """omega[mu, a, b] = omega_{mu a b}, both frame indices lowered.

    Determined by the vanishing of the total derivative of the vierbein:
    omega_mu{}^a{}_b = -(d_mu e^a_nu - Gamma^lam_{mu nu} e^a_lam) e_b^nu.
    """
    n = M.dim
    e = F.vierbein
    einv = F.inverse()
    gamma = M.christoffel()
    xs = M.coord_symbols
    omega = np.zeros((n, n, n), dtype=object)
    for mu in range(n):
        for a in range(n):
            for b in range(n):
                total = sp.Integer(0)
                for nu in range(n):
                    de = sp.diff(e[a, nu], xs[mu])
                    corr = sum(gamma[lam, mu, nu] * e[a, lam] for lam in range(n))
                    total += -(de - corr) * einv[b, nu]
                # lower the first frame index with eta
                omega[mu, a, b] = sp.cancel(sp.together(F.eta[a] * total))
    return omega


def spin_connection_antisymmetry(omega, M: Manifold, points=None, seed=0,
                                 tol=1e-10) -> ResidualReport:
    pts = _default_points(M, points, seed)
    w = M.evaluate(omega, pts)
    return _report("spin-connection-antisymmetry", pts,
                   _max_abs(w + np.swapaxes(w, 2, 3)), np.maximum(1.0, _max_abs(w)), tol)


# ---------------------------------------------------------------------------
# gamma matrices

_SIGMA = [sp.Matrix([[0, 1], [1, 0]]),
          sp.Matrix([[0, -sp.I], [sp.I, 0]]),
          sp.Matrix([[1, 0], [0, -1]])]


@dataclass
class GammaRep:
    """Exact-entry gamma matrices with {gamma^a, gamma^b} = 2 eta^{ab} Id."""

    eta: tuple[int, ...]
    matrices: list[sp.Matrix]

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def spinor_size(self) -> int:
        return self.matrices[0].shape[0]

    def clifford_defect(self) -> int:
        worst = 0
        size = self.spinor_size
        for a in range(self.dim):
            for b in range(self.dim):
                lhs = (self.matrices[a] * self.matrices[b]
                       + self.matrices[b] * self.matrices[a]
                       - 2 * self.eta[a] * (1 if a == b else 0) * sp.eye(size))
                if lhs != sp.zeros(size, size):
                    worst = 1
        return worst

    def conjugate(self, U: sp.Matrix) -> "GammaRep":
        Uinv = U.H
        if sp.simplify(U * Uinv) != sp.eye(U.shape[0]):
            raise ValueError("conjugation matrix must be unitary")
        return GammaRep(self.eta, [sp.expand(U * g * Uinv) for g in self.matrices])


def canonical_gamma(eta: tuple[int, ...]) -> GammaRep:
    """One fixed exact representation for dimensions 2, 3, and 4."""
    n = len(eta)
    if n == 2:
        base = [_SIGMA[0], _SIGMA[1]]
    elif n == 3:
        base = list(_SIGMA)
    elif n == 4:
        one = sp.eye(2)
        base = [sp.Matrix(np.kron(_SIGMA[a], _SIGMA[0])) for a in range(3)]
        base.append(sp.Matrix(np.kron(one, _SIGMA[1])))
    else:
        raise ValueError("gamma representations provided for dimensions 2-4")
    mats = []
    for a, g in enumerate(base):
        mats.append(g if eta[a] == 1 else sp.I * g)
    return GammaRep(tuple(eta), mats)


def standard_unitary(size: int) -> sp.Matrix:
    """A fixed exact unitary used for the representation-independence test."""
    u2 = sp.Rational(1, 2) * sp.Matrix([[1 + sp.I, 1 - sp.I], [1 - sp.I, 1 + sp.I]])
    U = u2
    while U.shape[0] < size:
        U = sp.Matrix(np.kron(U, u2))
    if U.shape[0] != size:
        raise ValueError("size must be a power of 2")
    return U


# ---------------------------------------------------------------------------
# jets and operators
#
# Numerically, a field is handled through its jet at a batch of points: one
# jet axis of length n + 1 per order, holding the partials d_0 .. d_{n-1}
# and, last, the undifferentiated value.  Operators are the 1-jets of their
# coefficients, composed by the Leibniz rule in numpy.

SpinorField = np.ndarray      # object array of expressions, length = spinor size


def _tangent(arr, xs) -> np.ndarray:
    """Symbolic 1-jet of an object array: a new leading jet axis."""
    arr = np.asarray(arr, dtype=object)
    diff = np.frompyfunc(sp.diff, 2, 1)
    return np.stack([diff(arr, x) for x in xs] + [arr])


def _product(subscripts: str, *jets) -> np.ndarray:
    """Leibniz rule: the 1-jet of an einsum product of 1-jets of shape
    (P, n + 1, ...); the subscripts name the axes after the jet axis and
    must not use p or j."""
    ins, out = subscripts.split("->")
    ins = ins.split(",")
    values = [jet[:, -1] for jet in jets]
    value = np.einsum(",".join("p" + s for s in ins) + "->p" + out, *values)
    partials = sum(
        np.einsum(",".join(("pj" if i == t else "p") + s for i, s in enumerate(ins))
                  + "->pj" + out,
                  *(jet[:, :-1] if i == t else values[i] for i, jet in enumerate(jets)))
        for t in range(len(jets)))
    return np.concatenate([partials, value[:, None]], axis=1)


@dataclass
class SpinorJet:
    """Jet of a list of spinor fields at a batch of points: values has
    shape (P, n + 1, ..., n + 1, fields, spinor size), one jet axis per order."""

    points: list
    values: np.ndarray


def spinor_jet(M: Manifold, spinors, points) -> SpinorJet:
    """The 2-jet of the spinor fields at the points, from one evaluation."""
    xs = M.coord_symbols
    sym2 = _tangent(_tangent(np.array(list(spinors), dtype=object), xs), xs)
    return SpinorJet(points, M.evaluate(sym2, points, dtype=complex))


@dataclass
class OperatorSpec:
    """kind in {standard-dirac, killing-op, dirac-type}; payload is the
    Killing vector (contravariant) or the Killing-Yano two-form (covariant)."""

    kind: str
    payload: TensorField | None = None

    def __post_init__(self):
        if self.kind not in ("standard-dirac", "killing-op", "dirac-type"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind != "standard-dirac" and self.payload is None:
            raise ValueError(f"{self.kind} needs a payload")


class SpinContext:
    """Caches the frame-dependent ingredients of all three operators."""

    def __init__(self, M: Manifold, F: Frame, rep: GammaRep | None = None):
        if rep is None:
            rep = canonical_gamma(F.eta)
        if tuple(rep.eta) != tuple(F.eta):
            raise ValueError("gamma signature must match the frame signature")
        self.M = M
        self.F = F
        self.rep = rep
        self._op_cache = {}
        self.omega = spin_connection(F, M)
        xs = M.coord_symbols
        self._einv_jet = _tangent(F.inverse(), xs)
        self._omega_jet = _tangent(self.omega, xs)
        self._gamma = np.array([np.array(g.tolist(), dtype=complex) for g in rep.matrices])
        # (1/4) eta^{aa} eta^{bb} gamma^a gamma^b; eta^{aa} = eta_{aa} for +-1
        eta = np.array(F.eta, dtype=float)
        self._quarter = 0.25 * np.einsum("a,b,ast,btu->absu", eta, eta,
                                         self._gamma, self._gamma)

    def frame_jets(self, points) -> tuple[np.ndarray, np.ndarray]:
        """1-jets of gamma^mu = e_a^mu gamma^a and of the connection matrices
        (1/4) omega_{mu a b} gamma^a gamma^b, each of shape (P, n + 1, n, s, s)."""
        einv = self.M.evaluate(self._einv_jet, points)
        omega = self.M.evaluate(self._omega_jet, points)
        return (np.einsum("pjam,ast->pjmst", einv, self._gamma),
                np.einsum("pjmab,abst->pjmst", omega, self._quarter))

    def operator(self, spec: OperatorSpec) -> "LinearOperator":
        """The operator of spec, built once per context."""
        key = _spec_key(spec)
        if key not in self._op_cache:
            self._op_cache[key] = build_operator(spec, self)
        return self._op_cache[key]

    def composed(self, first: OperatorSpec, second: OperatorSpec) -> "SecondOrderOperator":
        """The operator of first applied after that of second."""
        return self.operator(first).compose(self.operator(second))


class LinearOperator:
    """First-order operator sum_k K[k] d_k + K[n] with matrix coefficients.

    coefficients(points) is the 1-jet of K, shape (P, n + 1, n + 1, s, s):
    the jet axis first, then k."""

    def __init__(self, coefficients):
        self.coefficients = coefficients

    def apply(self, jet: SpinorJet) -> SpinorJet:
        """The operator applied to a spinor jet, one order shorter: the jet's
        last jet axis pairs with k, and a 2-jet's other axis takes the
        Leibniz rule with the coefficients' partials."""
        K = self.coefficients(jet.points)
        if jet.values.ndim == 5:      # (P, n + 1, n + 1, fields, s)
            return SpinorJet(jet.points, _product("ktu,kbu->bt", K, jet.values))
        return SpinorJet(jet.points, np.einsum("pktu,pkbu->pbt", K[:, -1], jet.values))

    def compose(self, other: "LinearOperator") -> "SecondOrderOperator":
        """self applied after other."""
        return SecondOrderOperator(self, other)


class SecondOrderOperator:
    """first applied after second; it maps a spinor 2-jet to values."""

    def __init__(self, first: LinearOperator, second: LinearOperator):
        self.first = first
        self.second = second

    def apply(self, jet: SpinorJet) -> SpinorJet:
        return self.first.apply(self.second.apply(jet))


def _coefficient_jet(c1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """K with K[k] = c1[k] for k < n and K[n] = c0, jet axis kept first."""
    return np.concatenate([c1, c0[:, :, None]], axis=2)


def build_operator(spec: OperatorSpec, ctx: SpinContext) -> LinearOperator:
    """Coefficient jets of D_s, X_k, or D_f on the given spin context."""
    M = ctx.M

    def jet(arr):
        sym1 = _tangent(arr, M.coord_symbols)
        return lambda points: M.evaluate(sym1, points)

    if spec.kind == "standard-dirac":
        # D_s = i gamma^mu grad_mu
        def coefficients(points):
            gam, conn = ctx.frame_jets(points)
            return 1j * _coefficient_jet(gam, _product("mst,mtu->su", gam, conn))
        return LinearOperator(coefficients)

    if spec.kind == "killing-op":
        # X_k = -i (R^mu grad_mu + QUARTER_SIGN/4 gamma^mu gamma^nu R_{mu;nu})
        R = spec.payload
        if R.variance != "u":
            raise ValueError("killing-op payload must be a vector field")
        Rlow = lower_index(R, M, 0)
        R_jet = jet(R.components)
        dR_jet = jet(covariant_derivative(Rlow, M).components)   # dR[nu, mu] = R_{mu;nu}
        quarter = QUARTER_SIGN / 4
        eye = np.eye(ctx.rep.spinor_size)

        def coefficients(points):
            gam, conn = ctx.frame_jets(points)
            r, dr = R_jet(points), dR_jet(points)
            c0 = (_product("m,mst->st", r, conn)
                  + quarter * _product("mst,ntu,nm->su", gam, gam, dr))
            return -1j * _coefficient_jet(np.einsum("pjm,st->pjmst", r, eye), c0)
        return LinearOperator(coefficients)

    # dirac-type: D_f = i gamma^mu (f_mu^nu grad_nu - (1/6) gamma^nu gamma^rho f_{mu nu;rho})
    f = spec.payload
    if f.variance != "dd":
        raise ValueError("dirac-type payload must be a covariant two-form")
    n = M.dim
    ginv = M.inverse_metric_matrix()
    fmix = np.empty((n, n), dtype=object)                # f_mu{}^nu
    for mu in range(n):
        for nu in range(n):
            fmix[mu, nu] = sp.cancel(sp.together(
                sum(f.components[mu, lam] * ginv[lam, nu] for lam in range(n))))
    F_jet = jet(fmix)
    dF_jet = jet(covariant_derivative(f, M).components)   # df[rho, mu, nu] = f_{mu nu;rho}

    def coefficients(points):
        gam, conn = ctx.frame_jets(points)
        fm, df = F_jet(points), dF_jet(points)
        c0 = (_product("mn,mst,ntu->su", fm, gam, conn)
              - _product("rmn,mst,ntu,ruv->sv", df, gam, gam, gam) / 6)
        return 1j * _coefficient_jet(_product("mn,mst->nst", fm, gam), c0)
    return LinearOperator(coefficients)


def _spec_key(spec: OperatorSpec) -> tuple:
    # Content-based key: payload objects are often temporaries, so keying on
    # object identity can alias distinct payloads once one is collected.
    if spec.payload is None:
        return (spec.kind,)
    t = spec.payload
    comps = tuple(sp.srepr(t.components[idx]) for idx in np.ndindex(t.components.shape))
    return (spec.kind, t.variance, t.components.shape, comps)


# ---------------------------------------------------------------------------
# test-spinor bank and residual reports

def spinor_bank(M: Manifold, count: int = 5, seed: int = 0,
                size: int | None = None) -> list[SpinorField]:
    """Deterministic bank: degree-<=2 polynomials in the coordinates times
    {1, sin(theta_1), cos(theta_1)} where theta_1 is the first coordinate."""
    rng = random.Random(seed)
    xs = [sp.Symbol(c) for c in M.chart.coords]
    if size is None:
        size = 2 ** (M.dim // 2)
    trig = [sp.Integer(1), sp.sin(xs[min(1, M.dim - 1)]), sp.cos(xs[min(1, M.dim - 1)])]
    monomials = [sp.Integer(1)] + xs + [xs[i] * xs[j] for i in range(M.dim)
                                        for j in range(i, M.dim)]
    bank = []
    for _ in range(count):
        comp = np.empty(size, dtype=object)
        for s in range(size):
            poly = sum(sp.Integer(rng.randint(-2, 2)) * m
                       for m in rng.sample(monomials, 3))
            comp[s] = sp.expand(poly * rng.choice(trig))
        bank.append(comp)
    return bank


def _bilinear_report(check, specA, specB, ctx, bank, points, seed, tol,
                     combine, squares=False) -> ResidualReport:
    """The report of the bank spinor with the worst relative residual."""
    M = ctx.M
    pts = _default_points(M, points, seed)
    if bank is None:
        bank = spinor_bank(M, 5, seed)
    if squares:
        ab_op, ba_op = ctx.composed(specA, specA), ctx.composed(specB, specB)
    else:
        ab_op, ba_op = ctx.composed(specA, specB), ctx.composed(specB, specA)
    jet = spinor_jet(M, bank, pts)
    # va[p, k] = (AB psi_k)(p), vb[p, k] = (BA psi_k)(p)
    va, vb = ab_op.apply(jet).values, ba_op.apply(jet).values
    residual = np.max(np.abs(combine(va, vb)), axis=2)
    scale = np.maximum(np.maximum(np.max(np.abs(va), axis=2), np.max(np.abs(vb), axis=2)),
                       1.0)
    reports = [_report(check, pts, residual[:, k], scale[:, k], tol)
               for k in range(len(bank))]
    # a non-finite report ranks above every finite one
    worst = max(reports, key=lambda r: (not math.isfinite(r.max_rel_residual),
                                        r.max_rel_residual))
    worst.extra["bank_size"] = len(bank)
    return worst


def anticommutator_residual(specA: OperatorSpec, specB: OperatorSpec,
                            ctx: SpinContext, bank=None, points=None, seed=0,
                            tol=1e-8) -> ResidualReport:
    """Residual of (AB + BA) psi over the bank, relative to |ABpsi|, |BApsi|."""
    return _bilinear_report("anticommutator", specA, specB, ctx, bank, points,
                            seed, tol, lambda a, b: a + b)


def commutator_residual(specA: OperatorSpec, specB: OperatorSpec,
                        ctx: SpinContext, bank=None, points=None, seed=0,
                        tol=1e-8) -> ResidualReport:
    """Residual of (AB - BA) psi over the bank."""
    return _bilinear_report("commutator", specA, specB, ctx, bank, points,
                            seed, tol, lambda a, b: a - b)


def square_compare(spec_f: OperatorSpec, ctx: SpinContext, bank=None,
                   points=None, seed=0, tol=1e-8) -> ResidualReport:
    """Residual of (D_f^2 - D_s^2) psi over the bank."""
    if spec_f.kind != "dirac-type":
        raise ValueError("square_compare expects a dirac-type operator")
    return _bilinear_report("square-compare", spec_f,
                            OperatorSpec("standard-dirac"), ctx, bank, points,
                            seed, tol, lambda ff, ss: ff - ss, squares=True)
