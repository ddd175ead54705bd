"""Mixed 3-structures: identity suites and cone construction.

The checks are exercised on the pseudo-sphere fixture of the catalog
(catalog.pseudo_sphere_fixture), whose cone is the ambient flat space
itself, so every cone-level check has an independent closed-form answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exprkit import symbol
from .killing import (ResidualReport, _default_points, _killing_terms, _ky_report,
                      _max_abs, _quiet, _report, conformal_killing_factor, DEFAULT_TOL)
from .manifold import (Chart, GeometryError, Manifold, TensorField, TensorValues,
                       _covariant, _pointwise, _product, antisymmetrize,
                       covariant_derivative)

EPS = (1, -1, -1)
_EVEN = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
RADIAL = "r"                    # the cone's radial coordinate
RADIAL_BOX = (0.5, 3.0)         # its sampling interval
DEGENERACY_GUARD = 1e-6         # |denominator| of a plane taken as degenerate
WITNESS_THRESHOLD = 1e-6        # |(grad_X phi) X| that counts as nonzero


@dataclass
class MixedThreeStructure:
    """Three endomorphisms phi_a, vectors xi_a, one-forms eta_a with
    signs (1, -1, -1) on a base of dimension 4n+3."""

    manifold: Manifold
    phi: list[TensorField]          # variance "ud": phi[a][i, j] = (phi_a)^i_j
    xi: list[TensorField]
    eta: list[TensorField]

    def __post_init__(self):
        n = self.manifold.dim
        if n % 4 != 3:
            raise GeometryError("mixed 3-structure needs dimension 4n+3")
        if not (len(self.phi) == len(self.xi) == len(self.eta) == 3):
            raise GeometryError("need exactly three structure triples")

    @property
    def sasakian_rank(self) -> int:
        return (self.manifold.dim - 3) // 4


@dataclass
class ConeManifold:
    base: MixedThreeStructure
    manifold: Manifold              # chart = base chart + radial coordinate
    J: list[TensorField]            # variance "ud" on the cone chart


# ---------------------------------------------------------------------------
# identity suites
#
# Numeric values carry the sample point as their first axis: a matrix field
# is (P, n, n), a vector field (P, n), and residuals are (P,).

def _values(fields, M: Manifold, pts) -> list[np.ndarray]:
    return [M.evaluate(T.components, pts) for T in fields]


def _mv(A, x):
    """Matrix times vector at each point."""
    return np.einsum("pij,pj->pi", A, x)


def _dot(x, y):
    return np.einsum("pi,pi->p", x, y)


def _outer(x, y):
    return np.einsum("pi,pj->pij", x, y)


def _form(A, g, B):
    """A^T g B at each point."""
    return np.swapaxes(A, 1, 2) @ g @ B


def _bracket(X: TensorValues, Y: TensorValues) -> np.ndarray:
    """[X, Y] = grad_X Y - grad_Y X at each point: the connection is torsion-free."""
    return (np.einsum("pm,pmi->pi", X.values, Y.components)
            - np.einsum("pm,pmi->pi", Y.values, X.components))


@_quiet
def structure_identity_suite(S: MixedThreeStructure, points=None, seed=0,
                             tol=DEFAULT_TOL) -> ResidualReport:
    """All algebraic axioms of a metric mixed 3-structure at sampled points."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    phi, xi, eta = (_values(T, M, pts) for T in (S.phi, S.xi, S.eta))
    ident = np.eye(M.dim)
    terms = []
    for a in range(3):
        # phi^2 = -eps Id + xi (x) eta,  eta(xi) = eps
        terms.append(_max_abs(phi[a] @ phi[a] + EPS[a] * ident - _outer(xi[a], eta[a])))
        terms.append(np.abs(_dot(eta[a], xi[a]) - EPS[a]))
        # compatibility and metric duality
        terms.append(_max_abs(_form(phi[a], g, phi[a]) - EPS[a] * g
                              + _outer(eta[a], eta[a])))
        terms.append(_max_abs(_mv(g, xi[a]) - eta[a]))
        for b in range(3):
            if a != b:
                terms.append(np.abs(_dot(eta[a], xi[b])))
    for a, b, c in _EVEN:
        terms.append(_max_abs(_mv(phi[a], xi[b]) - EPS[c] * xi[c]))
        terms.append(_max_abs(_mv(phi[b], xi[a]) + EPS[c] * xi[c]))
        terms.append(_max_abs(np.einsum("pi,pij->pj", eta[a], phi[b]) - EPS[c] * eta[c]))
        terms.append(_max_abs(np.einsum("pi,pij->pj", eta[b], phi[a]) + EPS[c] * eta[c]))
        terms.append(_max_abs(phi[a] @ phi[b] - _outer(xi[a], eta[b]) - EPS[c] * phi[c]))
        terms.append(_max_abs(-phi[b] @ phi[a] + _outer(xi[b], eta[a]) - EPS[c] * phi[c]))
    scale = np.maximum(np.max([_max_abs(m) for m in phi], axis=0), 1.0)
    return _report("mixed-structure-identities", pts, np.max(terms, axis=0), scale, tol)


@_quiet
def sasakian_residuals(S: MixedThreeStructure, points=None, seed=0,
                       tol=DEFAULT_TOL) -> ResidualReport:
    """Sasakian law for alpha=1, LP-Sasakian laws for alpha=2,3.

    Orientation convention: all three members satisfy grad_X xi = phi X,
    the unique choice compatible with the algebraic cross-relations (a
    structure obeying those with the opposite slope in the alpha=1 sector
    cannot exist: the cross-relations force phi_1 xi_2 = -phi_2 xi_1,
    while grad xi = -phi_1 on a cone model forces phi_1 xi_2 = +phi_2 xi_1).
    The alpha=1 law therefore reads (grad_X phi_1) Y = -g(X,Y) xi_1 + eta_1(Y) X.
    """
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    xi, eta = (_values(T, M, pts) for T in (S.xi, S.eta))
    nabla = [covariant_derivative(phi_a, M, pts) for phi_a in S.phi]
    # dphi[a][p, lam, i, j] = (grad_lam phi_a)^i_j
    dphi, phi = [d.components for d in nabla], [d.values for d in nabla]
    terms = []
    for a in range(3):
        if a == 0:
            # (grad_X phi1) Y = -g(X,Y) xi1 + eta1(Y) X
            target = (-np.einsum("plj,pi->plij", g, xi[a])
                      + np.einsum("pj,li->plij", eta[a], np.eye(M.dim)))
        else:
            # (grad_X phi) Y = g(phiX, phiY) xi + eta(Y) phi^2 X
            target = (np.einsum("plj,pi->plij", _form(phi[a], g, phi[a]), xi[a])
                      + np.einsum("pj,pil->plij", eta[a], phi[a] @ phi[a]))
        terms.append(_max_abs(dphi[a] - target))
    scale = np.maximum(np.max([_max_abs(d) for d in dphi], axis=0), 1.0)
    return _report("sasakian-laws", pts, np.max(terms, axis=0), scale, tol)


def killing_triple_check(S: MixedThreeStructure, points=None, seed=0,
                         tol=DEFAULT_TOL) -> ResidualReport:
    """Killing property, causal characters, orthogonality, bracket
    relations [xi_a, xi_b] = -2 eps_c xi_c, and phi_a X = grad_X xi_a
    (same orientation convention as sasakian_residuals)."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    nabla = [covariant_derivative(xi, M, pts) for xi in S.xi]
    # dxi[a][p, mu, i] = grad_mu xi_a^i; lowered, grad_mu (xi_a)_nu
    dxi, xi = [d.components for d in nabla], [d.values for d in nabla]
    # the relative Killing residual of each xi_a at each point
    killing = [res / np.maximum(1.0, scale)
               for res, scale in (_killing_terms(d @ g) for d in dxi)]
    sub = {f"killing_xi{a+1}": float(np.max(k)) for a, k in enumerate(killing)}
    phi = _values(S.phi, M, pts)
    terms = [np.max(killing, axis=0)]
    for a in range(3):
        terms.append(np.abs(_dot(xi[a], _mv(g, xi[a])) - EPS[a]))
        for b in range(a + 1, 3):
            terms.append(np.abs(_dot(xi[a], _mv(g, xi[b]))))
    for a, b, c in _EVEN:
        terms.append(_max_abs(_bracket(nabla[a], nabla[b]) + 2 * EPS[c] * xi[c]))
    for a in range(3):
        # phi_a X = grad_X xi_a: (phi_a)^i_mu = grad_mu xi_a^i
        terms.append(_max_abs(phi[a] - np.swapaxes(dxi[a], 1, 2)))
    return _report("killing-triple", pts, np.max(terms, axis=0), np.ones(len(pts)),
                   tol, extra=sub)


def curvature_characterization(S: MixedThreeStructure, points=None, seed=0,
                               tol=DEFAULT_TOL) -> ResidualReport:
    """R(X, xi_a)Y = g(xi_a, Y) X - g(X, Y) xi_a over the coordinate basis."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    R = M.riemann(pts)   # R[p, rho, sig, mu, nu] : R(e_mu, e_nu) e_sig
    terms = []
    for xi in _values(S.xi, M, pts):
        # R(X, xi)Y with X = e_mu, Y = e_sig
        lhs = np.einsum("prsmn,pn->prsm", R, xi)
        target = (np.einsum("ps,rm->prsm", _mv(g, xi), np.eye(M.dim))
                  - np.einsum("pms,pr->prsm", g, xi))
        terms.append(_max_abs(lhs - target))
    return _report("curvature-characterization", pts, np.max(terms, axis=0),
                   np.maximum(1.0, _max_abs(R)), tol)


def sectional_curvature_check(S: MixedThreeStructure, points=None, seed=0,
                              tol=DEFAULT_TOL) -> ResidualReport:
    """Sectional curvature of nondegenerate planes containing xi_a equals 1."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    R = M.riemann(pts)
    Rlow = np.einsum("pra,pasmn->prsmn", g, R)   # R_{rho sig mu nu}
    terms = [np.zeros(len(pts))]
    skipped = 0
    for xi in _values(S.xi, M, pts):
        gxi = _mv(g, xi)
        for mu in range(M.dim):
            # plane spanned by xi and X = e_mu
            denom = _dot(xi, gxi) * g[:, mu, mu] - gxi[:, mu] ** 2
            skip = np.abs(denom) <= DEGENERACY_GUARD
            skipped += int(skip.sum())
            # K = g(R(xi, X) X, xi) / denom = R_{rho sig mu nu} xi^rho X^sig xi^mu X^nu / denom
            num = np.einsum("prm,pr,pm->p", Rlow[:, :, mu, :, mu], xi, xi)
            terms.append(np.where(skip, 0.0, np.abs(num / np.where(skip, 1.0, denom) - 1.0)))
    return _report("sectional-curvature", pts, np.max(terms, axis=0), np.ones(len(pts)),
                   tol, extra={"skipped_planes": skipped})


def einstein_check(M: Manifold, lam: float, points=None, seed=0,
                   tol=DEFAULT_TOL) -> ResidualReport:
    """Residual of Ric - lam * g at sampled points."""
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    res = M.ricci(pts) - lam * g
    return _report("einstein", pts, _max_abs(res), np.maximum(1.0, _max_abs(g)), tol,
                   extra={"einstein_constant": lam})


# ---------------------------------------------------------------------------
# cone construction

def build_cone(S: MixedThreeStructure) -> ConeManifold:
    """Metric cone dr^2 + r^2 g with the induced endomorphism triple."""
    M = S.manifold
    if RADIAL in M.chart.coords:
        raise GeometryError(f"radial name {RADIAL!r} clashes with base coordinates")
    r = symbol(RADIAL)
    n = M.dim
    chart = Chart(M.chart.coords + (RADIAL,), {**M.chart.box, RADIAL: RADIAL_BOX})
    metric = np.zeros((n + 1, n + 1), dtype=object)
    metric[:n, :n], metric[n, n] = r ** 2 * M.metric, 1
    cone = Manifold(chart, metric, params=M.params,
                    signature=tuple(list(M.signature) + [1]),
                    name=(M.name + "-cone") if M.name else "cone")
    Js = []
    for phi, xi, eta in zip(S.phi, S.xi, S.eta):
        comp = np.zeros((n + 1, n + 1), dtype=object)
        comp[:n, :n] = phi.components
        comp[n, :n] = -eta.components * r     # J X has Euler-direction part -eta(X) r
        comp[:n, n] = xi.components / r       # J(d_r) = xi / r
        Js.append(TensorField(comp, "ud"))
    return ConeManifold(S, cone, Js)


@_quiet
def para_hyperkahler_check(C: ConeManifold, points=None, seed=0,
                           tol=DEFAULT_TOL) -> ResidualReport:
    """J1 J2 J3 = -Id, eps-hermiticity, and parallelism of each J."""
    M = C.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    nabla = [covariant_derivative(Ja, M, pts) for Ja in C.J]
    J = [d.values for d in nabla]
    terms = [_max_abs(J[0] @ J[1] @ J[2] + np.eye(M.dim))]
    for a in range(3):
        terms.append(_max_abs(_form(J[a], g, J[a]) - EPS[a] * g))
        terms.append(_max_abs(nabla[a].components))
    scale = np.maximum(1.0, np.max([_max_abs(Ja) for Ja in J], axis=0))
    return _report("para-hyperkahler", pts, np.max(terms, axis=0), scale, tol)


@_quiet
def reverse_cone(C: ConeManifold, pts) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Recover (phi_a, xi_a, eta_a) at base points from J_a at the points lifted
    to r = 1, as phi_a's values, xi_a's values and eta_a's 1-jet: xi_a = J_a(d_r),
    eta_a = g xi_a and phi^i_mu = g^{i nu} (d eta_a)_{mu nu} / 2, xi_a being
    Killing on a Sasakian base.  A singular base metric gives NaN."""
    base = C.base.manifold
    n, g1, ginv = base.dim, base.metric_jet(pts)[:, :, -1], base.inverse_metric_jet(pts)[:, -1]
    lifted = [{**p, RADIAL: 1.0} for p in pts]
    out = []
    for Ja in C.J:
        # J_a(d_r)'s 1-jet, its radial partial dropped
        xi = np.delete(C.manifold.evaluate(Ja.components, lifted, order=1)[..., :n, n], n, 1)
        eta = _product("ab,b->a", g1, xi)
        deta = eta[:, :-1] - np.swapaxes(eta[:, :-1], 1, 2)
        out.append((_pointwise("in,mn->im", ginv, deta) / 2, xi[:, -1], eta))
    return out


@_quiet
def cone_roundtrip_residual(S: MixedThreeStructure, C: ConeManifold,
                            points=None, seed=0, tol=DEFAULT_TOL) -> ResidualReport:
    """Compare the structure recovered from the cone with the original."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    residual, scale = [np.zeros(len(pts))], [np.zeros(len(pts))]
    for a, (phi, xi, eta) in enumerate(reverse_cone(C, pts)):
        for orig, back in ((S.phi[a], phi), (S.xi[a], xi), (S.eta[a], eta[:, -1])):
            o = M.evaluate(orig.components, pts)
            residual.append(_max_abs(o - back))
            scale.append(_max_abs(o))
    return _report("cone-roundtrip", pts, np.max(residual, axis=0),
                   np.max(scale, axis=0), tol)


# ---------------------------------------------------------------------------
# corollaries

def phi_not_killing_witness(S: MixedThreeStructure, points=None,
                            seed=0) -> ResidualReport:
    """Find non-lightlike X orthogonal to xi_a with (grad_X phi_a) X != 0.

    For each alpha the witness is the first hit in point order, then in
    coordinate-direction order."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    n = M.dim
    witnesses = []
    min_val = np.inf
    worst_point = {}
    for a in range(3):
        xi = M.evaluate(S.xi[a].components, pts)
        dphi = covariant_derivative(S.phi[a], M, pts).components
        gxi = _mv(g, xi)
        hits = np.zeros((len(pts), n), dtype=bool)
        vals = np.zeros((len(pts), n))
        for mu in range(n):
            # project X = e_mu g-orthogonally to xi_a (xi_a is non-null)
            X = np.eye(n)[mu] - (gxi[:, mu] / _dot(xi, gxi))[:, None] * xi
            # lightlike directions are excluded by the proposition
            lightlike = np.abs(_dot(X, _mv(g, X))) < 1e-8
            vals[:, mu] = _max_abs(np.einsum("plij,pl,pj->pi", dphi, X, X))
            hits[:, mu] = ~lightlike & (vals[:, mu] > WITNESS_THRESHOLD)
        if hits.any():
            p, mu = np.unravel_index(np.argmax(hits), hits.shape)
            witnesses.append({"alpha": a + 1, "point": dict(pts[p]),
                              "direction": int(mu), "magnitude": float(vals[p, mu])})
            min_val = min(min_val, witnesses[-1]["magnitude"])
        else:
            min_val = 0.0
            worst_point = dict(pts[0])
    passed = len(witnesses) == 3
    return ResidualReport("phi-not-killing-witness", WITNESS_THRESHOLD, len(pts),
                          float(min_val if passed else 0.0),
                          float(min_val if passed else 0.0),
                          passed, worst_point, extra={"witnesses": witnesses})


def conformal_to_killing_check(S: MixedThreeStructure, X: TensorField,
                               points=None, seed=0, tol=DEFAULT_TOL) -> ResidualReport:
    """On a verified structure, any conformal Killing field must be Killing."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    factors, rep = conformal_killing_factor(X, M, pts, tol=tol)
    is_ckv = rep.passed
    factor_max = float(np.max(np.abs(factors)))
    passed = is_ckv and factor_max < tol
    status = "killing" if passed else ("not-ckv" if not is_ckv else "ckv-not-killing")
    return ResidualReport("conformal-to-killing", tol, len(pts),
                          factor_max, factor_max, passed, rep.worst_point,
                          extra={"status": status,
                                 "ckv_residual": rep.max_rel_residual})


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1-jet of a ^ b = C(p+q, p) Alt(a (x) b) from the 1-jets (P, n + 1, ...)
    of a p-form and a q-form."""
    p, q = a.ndim - 2, b.ndim - 2
    slots = "abcdefghik"
    outer = _product(f"{slots[:p]},{slots[p:p + q]}->{slots[:p + q]}", a, b)
    return math.comb(p + q, p) * antisymmetrize(outer, 2)


def _odd_rank_tower(S: MixedThreeStructure, alpha: int, k: int, pts) -> np.ndarray:
    """1-jet of eta_a ^ (d eta_a)^k at the points from the one 2-jet of eta_a,
    whose partials give (d eta)_{lam mu} = d_lam eta_mu - d_mu eta_lam."""
    e2 = S.manifold.evaluate(S.eta[alpha].components, pts, order=2)
    deta = e2[:, :, :-1] - np.swapaxes(e2[:, :, :-1], 2, 3)
    return functools.reduce(_wedge, [deta] * k, e2[:, -1])


def ky_odd_rank_check(S: MixedThreeStructure, k: int, alpha: int = 0,
                      points=None, seed=0, tol=DEFAULT_TOL) -> ResidualReport:
    """Killing-Yano report of the rank-(2k+1) form eta_a ^ (d eta_a)^k."""
    if not 0 <= k <= 2 * S.sasakian_rank + 1:
        raise GeometryError("k out of range for this structure")
    pts = _default_points(S.manifold, points, seed)
    jet = _odd_rank_tower(S, alpha, k, pts)
    if np.all(_max_abs(jet[:3, -1]) < 1e-14):
        raise GeometryError("degenerate (zero) candidate form")
    christoffel = S.manifold.christoffel(pts)[:, -1]
    rep = _ky_report(_covariant(jet, christoffel, "d" * (2 * k + 1)), pts, tol)
    rep.extra.update(rank=2 * k + 1, alpha=alpha + 1)
    return rep
