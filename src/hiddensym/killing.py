"""Residual checkers and constructors for hidden-symmetry objects.

Every check evaluates a defining identity's left-minus-right side at
seeded sample points and reports the worst absolute and relative
residual.  Relative means scaled by the maximum input component
magnitude at the worst point (floored at 1 so exact-zero inputs do not
blow up the quotient).  A check passes only when every residual and
scale is finite.

A checker evaluates the 1-jet of its tensor once over the batch of points
and takes the tensor's values and its covariant derivative from it; the
lowerings, exterior derivatives, wedges and (anti)symmetrizations of an
identity are array code on (P, ...) values.  Only associated_sk_symbolic,
the text of `construct assoc-sk --emit-components`, imports sympy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import (Manifold, TensorField, _covariant, _inverse, _pointwise,
                       _product, _symbolic, antisymmetrize, covariant_derivative,
                       sample_points, symmetrize, GeometryError)

DEFAULT_TOL = 1e-9
DEFAULT_POINTS = 20
# silences floating-point warnings in a check: its report counts and fails
# non-finite values
_quiet = np.errstate(invalid="ignore", over="ignore")

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

def _nabla_flat(X: TensorField, M: Manifold, pts, g: np.ndarray) -> np.ndarray:
    """grad_mu X_nu = grad_mu X^lam g_{lam nu} of a vector field at the points,
    shape (P, n, n), with g the metric's values there."""
    if X.variance != "u":
        raise GeometryError("a Killing vector check needs a vector field")
    return covariant_derivative(X, M, pts).components @ g


def _killing_terms(dX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Killing residual and scale at each point from the evaluated grad_mu X_nu."""
    return _max_abs(dX + np.swapaxes(dX, 1, 2)), _max_abs(dX)


def killing_vector_residual(X: TensorField, M: Manifold, points=None, seed=0,
                            tol=DEFAULT_TOL) -> ResidualReport:
    """(L_X g)_{mu nu} = grad_mu X_nu + grad_nu X_mu at sampled points."""
    pts = _default_points(M, points, seed)
    dX = _nabla_flat(X, M, pts, M.evaluate(M.metric, pts))
    return _report("killing-vector", pts, *_killing_terms(dX), tol)


def conformal_killing_factor(X: TensorField, M: Manifold, points=None, seed=0,
                             tol=DEFAULT_TOL):
    """Per-point least-squares factor f with L_X g ~ f g; returns (factors, report)."""
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    dX = _nabla_flat(X, M, pts, g)
    L = dX + np.swapaxes(dX, 1, 2)
    f = np.sum(L * g, axis=(1, 2)) / np.sum(g * g, axis=(1, 2))
    report = _report("conformal-killing", pts, _max_abs(L - f[:, None, None] * g),
                     np.maximum(_max_abs(L), _max_abs(g)), tol,
                     extra={"factor_max_abs": float(np.max(np.abs(f)))})
    return f.tolist(), report


# ---------------------------------------------------------------------------
# Staeckel-Killing / Killing-Yano / conformal Killing-Yano

def _require_covariant(T, what: str) -> None:
    """GeometryError unless every slot of T is covariant."""
    if set(T.variance) - {"d"}:
        raise GeometryError(f"{what} needs covariant slots, not variance {T.variance!r}")


def _guard(T, vals: np.ndarray, project, check: str, shape: str) -> None:
    """A GeometryError unless T is covariant and has the shape: project(vals, 1),
    a batched projector, fixes T's values vals, (P, ...), at every point to
    1e-12 relative.  Overflowed values pass the guard and fail the report."""
    _require_covariant(T, check)
    with np.errstate(invalid="ignore", over="ignore"):
        if np.any(_max_abs(vals - project(vals, 1)) > 1e-12 * np.maximum(1.0, _max_abs(vals))):
            raise GeometryError(f"{check} requires {shape}")


def _guarded_nabla(T, M: Manifold, pts, project, check: str, shape: str) -> np.ndarray:
    """grad T from T.jet and Gamma's values for the named check, T passing _guard."""
    jet = T.jet(M, pts, 1)
    _guard(T, jet[:, -1], project, check, shape)
    return _covariant(jet, M.christoffel(pts)[:, -1], T.variance)


def sk_residual(K: TensorField, M: Manifold, points=None, seed=0,
                tol=DEFAULT_TOL) -> ResidualReport:
    """Fully symmetrized covariant derivative of a symmetric tensor or S-K square."""
    pts = _default_points(M, points, seed)
    nabla = _guarded_nabla(K, M, pts, symmetrize, "sk_residual", "a symmetric tensor")
    return _report("staeckel-killing", pts, _max_abs(symmetrize(nabla, 1)),
                   _max_abs(nabla), tol)


def _ky_report(nabla: np.ndarray, pts, tol: float) -> ResidualReport:
    """The Killing-Yano report from the evaluated grad f, the derivative slot
    first: the symmetric part of grad f, and its deviation from its alternation."""
    # symmetrize over the derivative slot and the form's first slot
    sym_pair = (nabla + np.swapaxes(nabla, 1, 2)) / 2
    residual = np.maximum(_max_abs(sym_pair), _max_abs(nabla - antisymmetrize(nabla, 1)))
    return _report("killing-yano", pts, residual, _max_abs(nabla), tol)


def ky_residual(f: TensorField, M: Manifold, points=None, seed=0,
                tol=DEFAULT_TOL) -> ResidualReport:
    """Symmetric part of grad f, and deviation of grad f from its alternation."""
    pts = _default_points(M, points, seed)
    return _ky_report(_guarded_nabla(f, M, pts, antisymmetrize,
                                     "ky_residual", "an antisymmetric form"),
                      pts, tol)


def cky_residual(f: TensorField, M: Manifold, points=None, seed=0,
                 tol=DEFAULT_TOL) -> ResidualReport:
    """Conformal Killing-Yano identity with X over the coordinate basis.

    residual_mu = grad_mu f - 1/(p+1) (df)_{mu .} + 1/(n-p+1) ((dx_mu)* wedge d*f),
    with the codifferential (d*f)_{mu2..mup} = -g^{lam mu} grad_lam f_{mu mu2..mup}.
    """
    n = M.dim
    p = f.rank
    if not 1 <= p <= n - 1:
        raise GeometryError("cky_residual needs 1 <= p <= n-1")
    pts = _default_points(M, points, seed)
    nabla = _guarded_nabla(f, M, pts, antisymmetrize,
                           "cky_residual", "an antisymmetric form")
    df = (p + 1) * antisymmetrize(nabla, 1)     # the connection is torsion-free
    g = M.evaluate(M.metric, pts)
    codf = -np.einsum("plm,plm...->p...", M.inverse_metric_jet(pts)[:, -1], nabla)
    # (X* wedge d*f) for X = coordinate basis vector mu, X*_nu = g_{mu nu}: a
    # signed sum over the p positions the factor g_{mu .} can take
    outer = np.einsum("pma,p...->pma...", g, codf)
    wedge = sum((-1) ** pos * np.moveaxis(outer, 2, 2 + pos) for pos in range(p))
    residual = nabla - df / (p + 1) + wedge / (n - p + 1)
    return _report("conformal-killing-yano", pts, _max_abs(residual),
                   np.maximum(_max_abs(nabla), _max_abs(df)), tol)


def covariant_constancy_residual(T: TensorField, M: Manifold, points=None, seed=0,
                                 tol=DEFAULT_TOL) -> ResidualReport:
    pts = _default_points(M, points, seed)
    nabla = covariant_derivative(T, M, pts)
    worst = _max_abs(nabla.components)
    return _report("covariant-constancy", pts, worst, _max_abs(nabla.values), tol,
                   extra={"max_abs_per_point": worst.tolist()})


@dataclass(frozen=True)
class SKSquare:
    """K_{mu nu} = f_{mu A} g^{AB} f_{B nu}, one g^-1 per inner slot of the
    p-form f: the S-K square of a K-Y form, held as f.  Its numbers are numpy
    on f's jet and the metric's; associated_sk_symbolic gives its expressions."""

    form: TensorField
    variance = "dd"
    rank = 2

    def __post_init__(self):
        _require_covariant(self.form, "the S-K square")

    @property
    def subscripts(self) -> str:
        """K's einsum subscripts, for the numbers and the symbolic square alike."""
        inner, outer = "abcdef"[:self.form.rank - 1], "qrstuv"[:self.form.rank - 1]
        return ",".join([f"m{inner}", *map("".join, zip(inner, outer)), f"{outer}n"]) + "->mn"

    def jet(self, M: Manifold, points, order: int = 0) -> np.ndarray:
        """Values (order 0) or 1-jet (order 1) of K at the points: the
        symmetrized product of f's jet and g^-1's (Leibniz at order 1).  The
        values invert the metric's values here, since per_batch does not key
        a trajectory's positions array."""
        if order:
            ginv, product = M.inverse_metric_jet(points), _product
        else:
            ginv, product = _inverse(M.evaluate(M.metric, points)[:, None])[:, -1], _pointwise
        f = self.form.jet(M, points, order)
        K = product(self.subscripts, f, *[ginv] * (self.form.rank - 1), f)
        return (K + np.swapaxes(K, -1, -2)) / 2


def associated_sk(f: TensorField, M: Manifold) -> SKSquare:
    """The S-K square of the K-Y form f on M; sk_residual and the geodesic
    monitors take its jets on M."""
    return SKSquare(f)


def associated_sk_symbolic(f: TensorField, M: Manifold) -> TensorField:
    """associated_sk(f, M) as expressions in rational normal form over the
    symbolic g^-1 (exact 0 where sin^2 + cos^2 = 1 alone cancels), for
    `construct assoc-sk --emit-components` and the tests: the numbers'
    einsum on sympy object arrays."""
    import sympy as sp
    ginv = np.array(M.inverse_metric_matrix(), dtype=object)
    comp = _symbolic(f.components)
    K = np.einsum(associated_sk(f, M).subscripts, comp, *[ginv] * (f.rank - 1), comp)
    # K is symmetric: take the upper triangle and mirror it
    for mu, nu in zip(*np.triu_indices(M.dim)):
        e = sp.cancel(sp.together(K[mu, nu]))
        # zero by sin^2 + cos^2 = 1 alone, which cancel does not use: exact 0
        K[mu, nu] = K[nu, mu] = 0 if e != 0 and sp.expand(e.rewrite(sp.exp)) == 0 else e
    return TensorField(K, "dd")


@_quiet
def unit_root_check(f: TensorField, M: Manifold, points=None, seed=0,
                    tol=DEFAULT_TOL) -> ResidualReport:
    """f^mu_a f_{mu b} vs g_{ab}, both strict (c=1) and with fitted scale c."""
    if f.rank != 2:
        raise GeometryError("unit_root_check needs a 2-form")
    _require_covariant(f, "unit_root_check")
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    ginv = M.inverse_metric_jet(pts)[:, -1]
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


@_quiet
def quaternion_relations_check(f1: TensorField, f2: TensorField, f3: TensorField,
                               M: Manifold, points=None, seed=0,
                               tol=DEFAULT_TOL) -> ResidualReport:
    """f^i f^j + f^j f^i = -2 delta_ij, f^i f^j - f^j f^i = -2 eps_ijk f^k."""
    for f in (f1, f2, f3):
        _require_covariant(f, "quaternion_relations_check")
    pts = _default_points(M, points, seed)
    ginv = M.inverse_metric_jet(pts)[:, -1]
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
