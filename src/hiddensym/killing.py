"""Residual checkers and constructors for hidden-symmetry objects.

Every check evaluates a defining identity's left-minus-right side at
seeded sample points and reports the worst absolute and relative
residual.  Relative means scaled by the maximum input component
magnitude at the worst point (floored at 1 so exact-zero inputs do not
blow up the quotient).  A check passes only when every residual and
scale is finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .manifold import (Manifold, TensorField, antisymmetrize, covariant_derivative,
                       exterior_derivative, codifferential, raise_index, lower_index,
                       sample_points, symmetrize, GeometryError)

DEFAULT_TOL = 1e-9
DEFAULT_POINTS = 20

EPSILON3 = np.zeros((3, 3, 3))
for _i, _j, _k in itertools.permutations(range(3)):
    EPSILON3[_i, _j, _k] = ((_j - _i) * (_k - _i) * (_k - _j)) / 2


def finite_or_null(obj):
    """obj with every non-finite float, also nested in dicts and lists,
    replaced by None, so that it serializes as strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [finite_or_null(v) for v in obj]
    return obj


@dataclass
class ResidualReport:
    check: str
    tolerance: float
    points: int
    max_abs_residual: float
    max_rel_residual: float
    passed: bool
    worst_point: dict[str, float]
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return finite_or_null({
            "check": self.check,
            "tolerance": self.tolerance,
            "points": self.points,
            "max_residual": self.max_abs_residual,
            "max_relative_residual": self.max_rel_residual,
            "pass": bool(self.passed),
            "worst_point": self.worst_point,
            "extra": self.extra,
        })


def _default_points(M: Manifold, points, seed):
    if points is None:
        return sample_points(M.chart, DEFAULT_POINTS, seed)
    if isinstance(points, int):
        return sample_points(M.chart, points, seed)
    if not len(points):
        raise GeometryError("empty point set")
    return points


def _report(check: str, points, residual, scale, tol: float,
            extra: dict | None = None) -> ResidualReport:
    """residual, scale: one value per point.  A non-finite residual or scale
    fails the check and becomes the worst point."""
    res = np.asarray(residual, dtype=float)
    scale = np.asarray(scale, dtype=float)
    rel = res / np.maximum(1.0, scale)
    bad = ~(np.isfinite(res) & np.isfinite(scale))
    extra = extra or {}
    if bad.any():
        extra["non_finite_points"] = int(bad.sum())
        worst = int(np.argmax(bad))
    else:
        worst = int(np.argmax(rel))
    worst_rel = float(np.max(rel))
    return ResidualReport(check, tol, len(points), float(np.max(res)), worst_rel,
                          bool(not bad.any() and worst_rel < tol),
                          dict(points[worst]), extra)


def _max_abs(arr: np.ndarray) -> np.ndarray:
    """Largest component magnitude at each point of a (P, ...) array."""
    flat = np.abs(arr).reshape(len(arr), -1)
    return flat.max(axis=1) if flat.shape[1] else np.zeros(len(arr))


# ---------------------------------------------------------------------------
# Killing vectors

def killing_vector_residual(X: TensorField, M: Manifold, points=None, seed=0,
                            tol=DEFAULT_TOL) -> ResidualReport:
    """(L_X g)_{mu nu} = grad_mu X_nu + grad_nu X_mu at sampled points."""
    pts = _default_points(M, points, seed)
    Xd = lower_index(X, M, 0)
    dX = M.evaluate(covariant_derivative(Xd, M).components, pts)
    return _report("killing-vector", pts, _max_abs(dX + np.swapaxes(dX, 1, 2)),
                   _max_abs(dX), tol)


def conformal_killing_factor(X: TensorField, M: Manifold, points=None, seed=0,
                             tol=DEFAULT_TOL):
    """Per-point least-squares factor f with L_X g ~ f g; returns (factors, report)."""
    pts = _default_points(M, points, seed)
    Xd = lower_index(X, M, 0)
    dX = M.evaluate(covariant_derivative(Xd, M).components, pts)
    L = dX + np.swapaxes(dX, 1, 2)
    g = M.evaluate(M.metric, pts)
    f = np.sum(L * g, axis=(1, 2)) / np.sum(g * g, axis=(1, 2))
    report = _report("conformal-killing", pts, _max_abs(L - f[:, None, None] * g),
                     np.maximum(_max_abs(L), _max_abs(g)), tol,
                     extra={"factor_max_abs": float(np.max(np.abs(f)))})
    return f.tolist(), report


# ---------------------------------------------------------------------------
# Staeckel-Killing / Killing-Yano / conformal Killing-Yano

def _is_symmetric(T: TensorField) -> bool:
    comp = T.components
    for idx in np.ndindex(comp.shape):
        sidx = tuple(sorted(idx))
        if idx != sidx and sp.simplify(comp[idx] - comp[sidx]) != 0:
            return False
    return True


def _is_antisymmetric_at(T: TensorField, M: Manifold, pts, tol=1e-12) -> bool:
    vals = M.evaluate(T.components, pts[:3])
    alt = np.array([antisymmetrize(v) for v in vals])
    return not np.any(_max_abs(vals - alt) > tol * np.maximum(1.0, _max_abs(vals)))


def sk_residual(K: TensorField, M: Manifold, points=None, seed=0,
                tol=DEFAULT_TOL) -> ResidualReport:
    """Fully symmetrized covariant derivative of a symmetric tensor."""
    if not _is_symmetric(K):
        raise GeometryError("sk_residual requires a symmetric tensor")
    pts = _default_points(M, points, seed)
    nabla = covariant_derivative(K, M).components
    return _report("staeckel-killing", pts,
                   _max_abs(M.evaluate(symmetrize(nabla), pts)),
                   _max_abs(M.evaluate(nabla, pts)), tol)


def ky_residual(f: TensorField, M: Manifold, points=None, seed=0,
                tol=DEFAULT_TOL) -> ResidualReport:
    """Symmetric part of grad f, and deviation of grad f from its alternation."""
    pts = _default_points(M, points, seed)
    if not _is_antisymmetric_at(f, M, pts):
        raise GeometryError("ky_residual requires an antisymmetric form")
    comp = covariant_derivative(f, M).components
    # symmetrize over the derivative slot and the form's first slot
    sym_pair = (comp + np.swapaxes(comp, 0, 1)) / 2
    residual = np.maximum(_max_abs(M.evaluate(sym_pair, pts)),
                          _max_abs(M.evaluate(comp - antisymmetrize(comp), pts)))
    return _report("killing-yano", pts, residual, _max_abs(M.evaluate(comp, pts)), tol)


def cky_residual(f: TensorField, M: Manifold, points=None, seed=0,
                 tol=DEFAULT_TOL) -> ResidualReport:
    """Conformal Killing-Yano identity with X over the coordinate basis.

    residual_mu = grad_mu f - 1/(p+1) (df)_{mu .} + 1/(n-p+1) ((dx_mu)* wedge d*f).
    """
    n = M.dim
    p = f.rank
    if not 1 <= p <= n - 1:
        raise GeometryError("cky_residual needs 1 <= p <= n-1")
    pts = _default_points(M, points, seed)
    if not _is_antisymmetric_at(f, M, pts):
        raise GeometryError("cky_residual requires an antisymmetric form")
    nabla = covariant_derivative(f, M)
    df = exterior_derivative(f, M)
    codf = codifferential(f, M) if p >= 1 else None
    g = M.metric
    # (X* wedge d*f) for X = coordinate basis vector mu: X*_nu = g_{mu nu}
    wedge = np.zeros((n,) + (n,) * p, dtype=object)
    if p == 1:
        for mu in range(n):
            for a in range(n):
                wedge[mu, a] = g[mu, a] * codf.components[()]
    else:
        cod = codf.components
        for mu in range(n):
            for idx in np.ndindex((n,) * p):
                total = sp.Integer(0)
                for pos in range(p):
                    rest = idx[:pos] + idx[pos + 1:]
                    total += (-1) ** pos * g[mu, idx[pos]] * cod[rest]
                wedge[(mu,) + idx] = total
    res_comp = np.empty(nabla.components.shape, dtype=object)
    for idx in np.ndindex(res_comp.shape):
        res_comp[idx] = (nabla.components[idx]
                         - sp.Rational(1, p + 1) * df.components[idx]
                         + sp.Rational(1, n - p + 1) * wedge[idx])
    scale = np.maximum(_max_abs(M.evaluate(nabla.components, pts)),
                       _max_abs(M.evaluate(df.components, pts)))
    return _report("conformal-killing-yano", pts, _max_abs(M.evaluate(res_comp, pts)),
                   scale, tol)


def covariant_constancy_residual(T: TensorField, M: Manifold, points=None, seed=0,
                                 tol=DEFAULT_TOL) -> ResidualReport:
    pts = _default_points(M, points, seed)
    worst = _max_abs(M.evaluate(covariant_derivative(T, M).components, pts))
    return _report("covariant-constancy", pts, worst,
                   _max_abs(M.evaluate(T.components, pts)), tol,
                   extra={"max_abs_per_point": worst.tolist()})


def associated_sk(f: TensorField, M: Manifold) -> TensorField:
    """K_{mu nu} = f_{mu a2..ap} f^{a2..ap}_{nu}: the S-K square of a K-Y form."""
    p = f.rank
    n = M.dim
    ginv = M.inverse_metric_matrix()
    comp = f.components
    out = np.empty((n, n), dtype=object)
    inner_shape = (n,) * (p - 1)
    for mu in range(n):
        for nu in range(n):
            total = sp.Integer(0)
            for a_idx in np.ndindex(inner_shape):
                for b_idx in np.ndindex(inner_shape):
                    factor = sp.Integer(1)
                    for a, b in zip(a_idx, b_idx):
                        factor *= ginv[a, b]
                    if factor == 0:
                        continue
                    total += comp[(mu,) + a_idx] * factor * comp[b_idx + (nu,)]
            out[mu, nu] = sp.cancel(sp.together(total))
    return TensorField(out, "dd", "symmetric")


def unit_root_check(f: TensorField, M: Manifold, points=None, seed=0,
                    tol=DEFAULT_TOL) -> ResidualReport:
    """f^mu_a f_{mu b} vs g_{ab}, both strict (c=1) and with fitted scale c."""
    if f.rank != 2:
        raise GeometryError("unit_root_check needs a 2-form")
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    ginv = M.inverse_metric_values(pts)
    F = M.evaluate(f.components, pts)
    singular = np.abs(np.linalg.det(F)) < 1e-12
    if singular.any():
        raise GeometryError(f"singular 2-form at {pts[np.argmax(singular)]}")
    A = ginv @ F                       # A[mu, a] = f^mu_a
    Msq = np.swapaxes(A, 1, 2) @ F     # f^mu_a f_{mu b}
    c = np.sum(Msq * g, axis=(1, 2)) / np.sum(g * g, axis=(1, 2))
    scale = _max_abs(Msq)
    strict_worst = float(np.max(_max_abs(Msq - g) / np.maximum(1.0, scale)))
    return _report("unit-root", pts, _max_abs(Msq - c[:, None, None] * g), scale, tol,
                   extra={"fitted_scale": float(np.mean(c)),
                          "scale_spread": float(np.max(c) - np.min(c)),
                          "strict_rel_residual": strict_worst,
                          "strict_pass": bool(strict_worst < tol)})


def quaternion_relations_check(f1: TensorField, f2: TensorField, f3: TensorField,
                               M: Manifold, points=None, seed=0,
                               tol=DEFAULT_TOL) -> ResidualReport:
    """f^i f^j + f^j f^i = -2 delta_ij, f^i f^j - f^j f^i = -2 eps_ijk f^k."""
    pts = _default_points(M, points, seed)
    ginv = M.inverse_metric_values(pts)
    E = [ginv @ M.evaluate(f.components, pts) for f in (f1, f2, f3)]  # (f^i)^mu_nu
    ident = np.eye(M.dim)
    terms = []
    for i in range(3):
        for j in range(3):
            anti = E[i] @ E[j] + E[j] @ E[i] + 2 * (i == j) * ident
            comm = E[i] @ E[j] - E[j] @ E[i]
            for k in range(3):
                if EPSILON3[i, j, k]:
                    comm += 2 * EPSILON3[i, j, k] * E[k]
            terms += [_max_abs(anti), _max_abs(comm)]
    return _report("quaternion-relations", pts, np.max(terms, axis=0),
                   np.max([_max_abs(e) for e in E], axis=0), tol)
