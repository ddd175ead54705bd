"""Mixed 3-structures: identity suites, cone construction, and the
pseudo-sphere fixture.

The fixture is the unit pseudo-sphere {x1^2+x2^2-x3^2-x4^2 = 1} inside
flat R^{2,2}, carrying the structure induced by one constant complex
structure and two constant para-complex structures of the ambient space.
Its cone is the ambient flat space itself, so every cone-level check has
an independent closed-form answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .killing import (ResidualReport, _default_points, _max_abs, _report,
                      killing_vector_residual, conformal_killing_factor,
                      ky_residual, DEFAULT_TOL)
from .manifold import (Chart, GeometryError, Manifold, TensorField,
                       antisymmetrize, covariant_derivative, exterior_derivative,
                       lie_bracket, lower_index, sample_points, vector, one_form)

EPS = (1, -1, -1)
_EVEN = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


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
    radial: str = "r"

    def euler_field(self) -> TensorField:
        n = self.manifold.dim
        comp = [0] * n
        comp[n - 1] = sp.Symbol(self.radial)
        return vector(comp)


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


def _nabla_phi(S: MixedThreeStructure, a: int) -> TensorField:
    return covariant_derivative(S.phi[a], S.manifold)


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
    phi, xi, eta = (_values(T, M, pts) for T in (S.phi, S.xi, S.eta))
    # dphi[a][p, lam, i, j] = (grad_lam phi_a)^i_j
    dphi = _values([_nabla_phi(S, a) for a in range(3)], M, pts)
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
    sub = {}
    for a in range(3):
        rep = killing_vector_residual(S.xi[a], M, pts, tol=tol)
        sub[f"killing_xi{a+1}"] = rep.max_rel_residual
    g = M.evaluate(M.metric, pts)
    ginv = M.inverse_metric_values(pts)
    xi, phi = _values(S.xi, M, pts), _values(S.phi, M, pts)
    terms = [np.full(len(pts), max(sub.values()))]
    for a in range(3):
        terms.append(np.abs(_dot(xi[a], _mv(g, xi[a])) - EPS[a]))
        for b in range(a + 1, 3):
            terms.append(np.abs(_dot(xi[a], _mv(g, xi[b]))))
    for a, b, c in _EVEN:
        br = M.evaluate(lie_bracket(S.xi[a], S.xi[b], M).components, pts)
        terms.append(_max_abs(br + 2 * EPS[c] * xi[c]))
    for a in range(3):
        # phi_a X = grad_X xi_a; nxi[p, mu, nu] = grad_mu (xi_a)_nu
        nxi = M.evaluate(covariant_derivative(lower_index(S.xi[a], M, 0), M).components,
                         pts)
        grad = ginv @ np.swapaxes(nxi, 1, 2)   # (grad_mu xi^i) as [i, mu]
        terms.append(_max_abs(phi[a] - grad))
    return _report("killing-triple", pts, np.max(terms, axis=0), np.ones(len(pts)),
                   tol, extra=sub)


def curvature_characterization(S: MixedThreeStructure, points=None, seed=0,
                               tol=DEFAULT_TOL) -> ResidualReport:
    """R(X, xi_a)Y = g(xi_a, Y) X - g(X, Y) xi_a over the coordinate basis."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    R = M.evaluate(M.riemann(), pts)   # R[p, rho, sig, mu, nu] : R(e_mu, e_nu) e_sig
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
                              tol=DEFAULT_TOL, degeneracy_guard=1e-6) -> ResidualReport:
    """Sectional curvature of nondegenerate planes containing xi_a equals 1."""
    M = S.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    R = M.evaluate(M.riemann(), pts)
    Rlow = np.einsum("pra,pasmn->prsmn", g, R)   # R_{rho sig mu nu}
    terms = [np.zeros(len(pts))]
    skipped = 0
    for xi in _values(S.xi, M, pts):
        gxi = _mv(g, xi)
        for mu in range(M.dim):
            # plane spanned by xi and X = e_mu
            denom = _dot(xi, gxi) * g[:, mu, mu] - gxi[:, mu] ** 2
            skip = np.abs(denom) <= degeneracy_guard
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
    res = M.evaluate(M.ricci().components, pts) - lam * g
    return _report("einstein", pts, _max_abs(res), np.maximum(1.0, _max_abs(g)), tol,
                   extra={"einstein_constant": lam})


# ---------------------------------------------------------------------------
# cone construction

def build_cone(S: MixedThreeStructure, radial: str = "r",
               r_box: tuple[float, float] = (0.5, 3.0)) -> ConeManifold:
    """Metric cone dr^2 + r^2 g with the induced endomorphism triple."""
    M = S.manifold
    if radial in M.chart.coords:
        raise GeometryError(f"radial name {radial!r} clashes with base coordinates")
    r = sp.Symbol(radial)
    n = M.dim
    coords = M.chart.coords + (radial,)
    box = dict(M.chart.box)
    box[radial] = r_box
    chart = Chart(coords, box)
    gc = [[sp.Integer(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            gc[i][j] = r ** 2 * M.metric[i, j]
    gc[n][n] = sp.Integer(1)
    cone = Manifold(chart, gc, params=M.params,
                    signature=tuple(list(M.signature) + [1]),
                    name=(M.name + "-cone") if M.name else "cone")
    Js = []
    for a in range(3):
        comp = np.zeros((n + 1, n + 1), dtype=object)
        phi = S.phi[a].components
        xi = S.xi[a].components
        eta = S.eta[a].components
        for i in range(n):
            for j in range(n):
                comp[i, j] = phi[i, j]
            comp[n, i] = -eta[i] * r          # J X has Euler-direction part -eta(X) r
            comp[i, n] = xi[i] / r            # J(d_r) = xi / r
        comp[n, n] = sp.Integer(0)
        Js.append(TensorField(comp, "ud"))
    return ConeManifold(S, cone, Js, radial)


def para_hyperkahler_check(C: ConeManifold, points=None, seed=0,
                           tol=DEFAULT_TOL) -> ResidualReport:
    """J1 J2 J3 = -Id, eps-hermiticity, and parallelism of each J."""
    M = C.manifold
    pts = _default_points(M, points, seed)
    g = M.evaluate(M.metric, pts)
    J = _values(C.J, M, pts)
    terms = [_max_abs(J[0] @ J[1] @ J[2] + np.eye(M.dim))]
    for a in range(3):
        terms.append(_max_abs(_form(J[a], g, J[a]) - EPS[a] * g))
        terms.append(_max_abs(M.evaluate(covariant_derivative(C.J[a], M).components, pts)))
    scale = np.maximum(1.0, np.max([_max_abs(Ja) for Ja in J], axis=0))
    return _report("para-hyperkahler", pts, np.max(terms, axis=0), scale, tol)


def reverse_cone(C: ConeManifold) -> MixedThreeStructure:
    """Recover (phi, xi, eta) on the r=1 slice from the cone structure."""
    M = C.manifold
    n = M.dim - 1
    r = sp.Symbol(C.radial)
    base = C.base.manifold
    nJ_xi = []
    for a in range(3):
        # xi_a = J_a(d_r), restricted to r = 1
        comp = [sp.simplify(C.J[a].components[i, n].subs(r, 1)) for i in range(n)]
        nJ_xi.append(vector(comp))
    phis, etas = [], []
    for a in range(3):
        eta_comp = [sp.simplify(sum(base.metric[i, j] * nJ_xi[a].components[j]
                                    for j in range(n))) for i in range(n)]
        etas.append(one_form(eta_comp))
        nxi = covariant_derivative(lower_index(nJ_xi[a], base, 0), base)
        ginv = base.inverse_metric_matrix()
        comp = np.empty((n, n), dtype=object)
        for i in range(n):
            for mu in range(n):
                # phi^i_mu = g^{i nu} grad_mu (xi_a)_nu
                comp[i, mu] = sp.simplify(
                    sum(ginv[i, nu] * nxi.components[mu, nu]
                        for nu in range(n)))
        phis.append(TensorField(comp, "ud"))
    return MixedThreeStructure(base, phis, nJ_xi, etas)


def cone_roundtrip_residual(S: MixedThreeStructure, C: ConeManifold,
                            points=None, seed=0, tol=DEFAULT_TOL) -> ResidualReport:
    """Compare the structure recovered from the cone with the original."""
    R = reverse_cone(C)
    M = S.manifold
    pts = _default_points(M, points, seed)
    residual, scale = [np.zeros(len(pts))], [np.zeros(len(pts))]
    for a in range(3):
        for orig, back in ((S.phi[a], R.phi[a]), (S.xi[a], R.xi[a]),
                           (S.eta[a], R.eta[a])):
            o, b = _values((orig, back), M, pts)
            residual.append(_max_abs(o - b))
            scale.append(_max_abs(o))
    return _report("cone-roundtrip", pts, np.max(residual, axis=0),
                   np.max(scale, axis=0), tol)


# ---------------------------------------------------------------------------
# corollaries

def phi_not_killing_witness(S: MixedThreeStructure, points=None, seed=0,
                            threshold=1e-6) -> ResidualReport:
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
        dphi = M.evaluate(_nabla_phi(S, a).components, pts)
        gxi = _mv(g, xi)
        hits = np.zeros((len(pts), n), dtype=bool)
        vals = np.zeros((len(pts), n))
        for mu in range(n):
            # project X = e_mu g-orthogonally to xi_a (xi_a is non-null)
            X = np.eye(n)[mu] - (gxi[:, mu] / _dot(xi, gxi))[:, None] * xi
            # lightlike directions are excluded by the proposition
            lightlike = np.abs(_dot(X, _mv(g, X))) < 1e-8
            vals[:, mu] = _max_abs(np.einsum("plij,pl,pj->pi", dphi, X, X))
            hits[:, mu] = ~lightlike & (vals[:, mu] > threshold)
        if hits.any():
            p, mu = np.unravel_index(np.argmax(hits), hits.shape)
            witnesses.append({"alpha": a + 1, "point": dict(pts[p]),
                              "direction": int(mu), "magnitude": float(vals[p, mu])})
            min_val = min(min_val, witnesses[-1]["magnitude"])
        else:
            min_val = 0.0
            worst_point = dict(pts[0])
    passed = len(witnesses) == 3
    return ResidualReport("phi-not-killing-witness", threshold, len(pts),
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


def wedge_forms(a: TensorField, b: TensorField) -> TensorField:
    """Wedge product with unit-weight alternation: a ^ b = C(p+q,p) Alt(a (x) b)."""
    p, q = a.rank, b.rank
    outer = np.multiply.outer(a.components, b.components)
    factor = sp.binomial(p + q, p)
    comp = factor * antisymmetrize(outer)
    return TensorField(comp, "d" * (p + q), "antisymmetric")


def ky_odd_rank_candidate(S: MixedThreeStructure, alpha: int, k: int) -> TensorField:
    """eta_a wedge (d eta_a)^k, the documented rank-(2k+1) candidate."""
    M = S.manifold
    if not 0 <= k <= 2 * S.sasakian_rank + 1:
        raise GeometryError("k out of range for this structure")
    eta = S.eta[alpha]
    form = eta
    if k:
        deta = exterior_derivative(eta, M)
        for _ in range(k):
            form = wedge_forms(form, deta)
    form = form.map(sp.expand)
    return form


def ky_odd_rank_check(S: MixedThreeStructure, k: int, alpha: int = 0,
                      points=None, seed=0, tol=DEFAULT_TOL) -> ResidualReport:
    form = ky_odd_rank_candidate(S, alpha, k)
    pts = _default_points(S.manifold, points, seed)
    if np.all(_max_abs(S.manifold.evaluate(form.components, pts[:3])) < 1e-14):
        raise GeometryError("degenerate (zero) candidate form")
    rep = ky_residual(form, S.manifold, pts, tol=tol)
    rep.extra["rank"] = 2 * k + 1
    rep.extra["alpha"] = alpha + 1
    return rep


# ---------------------------------------------------------------------------
# the pseudo-sphere fixture

def _pseudo_sphere_structure_tensors():
    rho, t, psi = sp.symbols("rho t psi")
    ch, sh = sp.cosh(rho), sp.sinh(rho)
    X = sp.Matrix([ch * sp.cos(t), ch * sp.sin(t), sh * sp.cos(psi), sh * sp.sin(psi)])
    coords = [rho, t, psi]
    E = X.jacobian(coords)
    G = sp.diag(1, 1, -1, -1)
    g = sp.Matrix(3, 3, lambda i, j: sp.trigsimp(sp.expand((E.T * G * E)[i, j])))
    ginv = g.inv()
    J1 = sp.Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    J2 = sp.Matrix([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]])
    J3 = -J1 * J2
    Js = [J1, J2, J3]

    def project(v):
        w = ginv * E.T * G * v
        return [sp.trigsimp(sp.expand(c)) for c in w]

    xis, etas, phis = [], [], []
    for J in Js:
        xi = project(J * X)
        eta = [sp.trigsimp(sp.expand(sum(g[i, j] * xi[j] for j in range(3))))
               for i in range(3)]
        phi = sp.zeros(3)
        for i in range(3):
            col = project(J * E[:, i] + eta[i] * X)
            for a in range(3):
                phi[a, i] = col[a]
        xis.append(xi)
        etas.append(eta)
        phis.append(phi)
    return g, phis, xis, etas


def build_pseudo_sphere_structure():
    """Catalog entry for the signature-(1,2) unit pseudo-sphere fixture."""
    from .catalog import CatalogEntry

    g, phis, xis, etas = _pseudo_sphere_structure_tensors()
    pi = float(np.pi)
    chart = Chart(("rho", "t", "psi"),
                  {"rho": (0.3, 1.5), "t": (0.1, 2 * pi - 0.1), "psi": (0.1, 2 * pi - 0.1)})
    M = Manifold(chart, g.tolist(), signature=(-1, 1, -1), name="pseudo-sphere")
    S = MixedThreeStructure(
        M,
        [TensorField(np.array(p.tolist(), dtype=object), "ud") for p in phis],
        [vector(x) for x in xis],
        [one_form(e) for e in etas],
    )
    entry = CatalogEntry(name="pseudo-sphere", manifold=M, structure=S)
    for a in range(3):
        entry.vectors[f"xi{a+1}"] = S.xi[a]
        entry.forms[f"eta{a+1}"] = S.eta[a]
    entry.metadata = {
        "einstein_constant": 2,
        "embedding": "unit pseudo-sphere x1^2+x2^2-x3^2-x4^2=1 in R^{2,2}",
    }
    entry.manifest = [
        {"check": "killing-vector", "target": "xi1", "expect_pass": True},
        {"check": "killing-vector", "target": "xi2", "expect_pass": True},
        {"check": "killing-vector", "target": "xi3", "expect_pass": True},
        {"check": "cky", "target": "eta1", "expect_pass": True},
        {"check": "cky", "target": "eta2", "expect_pass": True},
        {"check": "cky", "target": "eta3", "expect_pass": True},
    ]
    return entry
