import dataclasses
import warnings

import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog, manifold, sasaki
from hiddensym.exprkit import parse, symbol
from hiddensym.manifold import (Chart, GeometryError, Manifold, TensorField, one_form,
                                sample_points, vector)
from hiddensym.sasaki import (EPS, RADIAL, MixedThreeStructure, _wedge,
                              build_cone, cone_roundtrip_residual, einstein_check,
                              killing_triple_check, ky_odd_rank_check,
                              para_hyperkahler_check, sasakian_residuals,
                              sectional_curvature_check, structure_identity_suite)
import symbolic_geometry
from symbolic_geometry import reverse_cone_symbolic


@pytest.fixture(scope="module")
def S(ps):
    return ps.structure


class TestStructureValidation:
    def test_dimension_must_be_4n_plus_3(self):
        chart = Chart(("x", "y"), {"x": (0, 1), "y": (0, 1)})
        M = Manifold(chart, [[1, 0], [0, 1]])
        zero = TensorField(np.zeros((2, 2), dtype=object), "ud")
        with pytest.raises(GeometryError):
            MixedThreeStructure(M, [zero] * 3, [vector([0, 0])] * 3,
                                [vector([0, 0])] * 3)

    def test_needs_three_triples(self, S):
        with pytest.raises(GeometryError):
            MixedThreeStructure(S.manifold, S.phi[:2], S.xi[:2], S.eta[:2])

    def test_rank(self, S):
        assert S.sasakian_rank == 0

    def test_signs(self):
        assert EPS == (1, -1, -1)


class TestFixtureSuites:
    """Full residual suites run in acceptance; spot-check components here."""

    def test_identities(self, S):
        assert structure_identity_suite(S, points=5).passed

    def test_sectional_curvature_one(self, S):
        rep = sectional_curvature_check(S, points=5)
        assert rep.passed

    def test_einstein_constant_two(self, S):
        assert einstein_check(S.manifold, 2.0, points=5).passed

    def test_wrong_einstein_constant_fails(self, S):
        assert not einstein_check(S.manifold, 3.0, points=5).passed

    def test_xi_causal_characters(self, S):
        """One timelike and two spacelike unit structure fields."""
        M = S.manifold
        p = {"rho": 0.7, "t": 1.0, "psi": 2.0}
        g = M.evaluate(M.metric, [p])[0]
        xi = [M.evaluate(S.xi[a].components, [p])[0] for a in range(3)]
        norms = [float(xi[a] @ g @ xi[a]) for a in range(3)]
        assert abs(norms[0] - 1) < 1e-12       # eps_1 = +1
        assert abs(norms[1] + 1) < 1e-12
        assert abs(norms[2] + 1) < 1e-12


def embedding_oracle(points):
    """g, xi_a, eta_a and phi_a of the unit pseudo-sphere at the points,
    projected in numpy from R^{2,2} = (R^4, G) through the embedding
    X = (cosh rho cos t, cosh rho sin t, sinh rho cos psi, sinh rho sin psi):
    g = E^T G E with E the Jacobian of X, xi_a = g^-1 E^T G J_a X,
    eta_a = g xi_a, and column i of phi_a is g^-1 E^T G (J_a E_i + eta_a,i X)."""
    rho, t, psi = (np.array([p[c] for p in points]) for c in ("rho", "t", "psi"))
    ch, sh, zero = np.cosh(rho), np.sinh(rho), np.zeros_like(rho)
    X = np.stack([ch * np.cos(t), ch * np.sin(t), sh * np.cos(psi), sh * np.sin(psi)], -1)
    columns = ([sh * np.cos(t), sh * np.sin(t), ch * np.cos(psi), ch * np.sin(psi)],
               [-ch * np.sin(t), ch * np.cos(t), zero, zero],
               [zero, zero, -sh * np.sin(psi), sh * np.cos(psi)])
    E = np.stack([np.stack(col, -1) for col in columns], -1)     # (P, 4, 3)
    G = np.diag([1.0, 1.0, -1.0, -1.0])
    g = np.einsum("pai,ab,pbj->pij", E, G, E)
    proj = np.linalg.solve(g, np.einsum("pai,ab->pib", E, G))     # g^-1 E^T G
    J1 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    J2 = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]])
    xis, etas, phis = [], [], []
    for J in (J1, J2, -J1 @ J2):
        xi = np.einsum("pia,ab,pb->pi", proj, J, X)
        eta = np.einsum("pij,pj->pi", g, xi)
        phis.append(proj @ (J @ E + X[:, :, None] * eta[:, None, :]))
        xis.append(xi)
        etas.append(eta)
    return g, xis, etas, phis


def embedding_mismatch(M, xi, eta, phi, count=20, seed=0):
    """Largest absolute difference between the fixture's g and the
    component arrays xi, eta, phi, evaluated at seeded points, and the
    embedding oracle."""
    points = sample_points(M.chart, count, seed)
    g, xis, etas, phis = embedding_oracle(points)
    got = [M.evaluate(c, points) for c in (M.metric, *xi, *eta, *phi)]
    return max(float(np.max(np.abs(a - b)))
               for a, b in zip(got, [g, *xis, *etas, *phis], strict=True))


class TestEmbeddingOracle:
    """The closed-form fixture against the projection of the ambient structures."""

    @staticmethod
    def parts(S):
        return ([x.components for x in S.xi], [e.components for e in S.eta],
                [p.components for p in S.phi])

    def test_fixture_matches_embedding(self, S):
        assert embedding_mismatch(S.manifold, *self.parts(S)) < 1e-12

    def test_oracle_sees_coth_for_tanh_in_phi1(self, S):
        xi, eta, phi = self.parts(S)
        phi[0] = phi[0].copy()
        assert phi[0][1, 0] is parse("(exp(rho) - exp(-rho))/(exp(rho) + exp(-rho))")   # tanh
        phi[0][1, 0] = 1 / phi[0][1, 0]
        assert embedding_mismatch(S.manifold, xi, eta, phi) > 1e-3

    def test_oracle_sees_sign_flip_of_xi2(self, S):
        xi, eta, phi = self.parts(S)
        xi[1] = -xi[1]
        assert embedding_mismatch(S.manifold, xi, eta, phi) > 1e-3


class TestCone:
    def test_radial_name_clash_rejected(self):
        """A base chart with a coordinate named like the cone's radial one."""
        coords = (RADIAL, "y", "z")
        M = Manifold(Chart(coords, {c: (0.5, 1.0) for c in coords}), sp.eye(3).tolist())
        zero = TensorField(np.zeros((3, 3), dtype=object), "ud")
        S = MixedThreeStructure(M, [zero] * 3, [vector([0, 0, 0])] * 3,
                                [one_form([0, 0, 0])] * 3)
        with pytest.raises(GeometryError, match="clashes"):
            build_cone(S)

    def test_cone_metric_block_structure(self, S):
        C = build_cone(S)
        g = C.manifold.metric
        n = S.manifold.dim
        assert g[n, n] == 1
        assert g[0, 0] is symbol("r") ** 2 * S.manifold.metric[0, 0]

    def test_para_hyperkahler(self, S):
        C = build_cone(S)
        assert para_hyperkahler_check(C, points=5).passed

    def test_round_trip(self, S):
        C = build_cone(S)
        assert cone_roundtrip_residual(S, C, points=5).passed

    def test_reverse_cone_returns_structure(self, S):
        R = reverse_cone_symbolic(build_cone(S))
        assert isinstance(R, MixedThreeStructure)
        assert structure_identity_suite(R, points=3).passed


def recovery_mismatch(C, R, points):
    """Largest relative difference between the numeric reverse cone of C and
    the symbolic one R, evaluated at the points: phi's and xi's values, and
    eta's 1-jet."""
    M = R.manifold
    pairs = []
    for a, (phi, xi, eta) in enumerate(sasaki.reverse_cone(C, points)):
        want = [M.evaluate(T.components, points, order=1)
                for T in (R.phi[a], R.xi[a], R.eta[a])]
        pairs += [(phi, want[0][:, -1]), (xi, want[1][:, -1]), (eta, want[2])]
    return max(float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))))
               for got, ref in pairs)


class TestReverseConeOracle:
    """The numeric reverse cone against the symbolic one, at 20 seeded points."""

    @pytest.fixture(scope="class")
    def setup(self, S):
        C = build_cone(S)
        return C, reverse_cone_symbolic(C), sample_points(S.manifold.chart, 20, seed=0)

    def test_matches_symbolic_recovery(self, setup):
        assert recovery_mismatch(*setup) < 1e-12

    @pytest.mark.parametrize("factor, residual", [(2.0, 1.0), (-1.0, 2.0)],
                             ids=["phi-without-half", "d-eta-sign-flipped"])
    def test_planted_error_fails_oracle_and_round_trip(self, S, setup, monkeypatch,
                                                       factor, residual):
        """phi scaled by 2 (the 1/2 dropped) or by -1 (d eta's sign flipped)."""
        numeric = sasaki.reverse_cone

        def planted(C, points):
            return [(factor * phi, xi, eta) for phi, xi, eta in numeric(C, points)]
        monkeypatch.setattr(sasaki, "reverse_cone", planted)
        C, R, points = setup
        assert recovery_mismatch(C, R, points) > 0.5
        rep = cone_roundtrip_residual(S, C, points)
        assert not rep.passed
        assert rep.max_rel_residual == pytest.approx(residual, rel=1e-9)


def test_round_trip_compiles_nothing_and_runs_no_symbolic_algebra(monkeypatch):
    """Once the structure and cone checks have run on the points, the round
    trip reuses their compiled functions and jets: no lambdify call, no
    symbolic inverse, derivative or index lowering."""
    S = catalog.pseudo_sphere_fixture().structure
    C = build_cone(S)
    points = sample_points(S.manifold.chart, 20, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic tensor algebra on the round trip")
    monkeypatch.setattr(Manifold, "inverse_metric_matrix", refuse)
    monkeypatch.setattr(manifold, "exterior_derivative", refuse)
    monkeypatch.setattr(symbolic_geometry, "lower_index", refuse)
    monkeypatch.setattr(sp, "diff", refuse)
    assert structure_identity_suite(S, points).passed
    assert para_hyperkahler_check(C, [{**p, RADIAL: 1.0} for p in points]).passed
    calls, lambdify = [], sp.lambdify
    monkeypatch.setattr(sp, "lambdify", lambda *a, **k: calls.append(a) or lambdify(*a, **k))
    assert cone_roundtrip_residual(S, C, points).passed
    assert calls == []


SINGULAR = {"rho": 0.0, "t": 1.0, "psi": 2.0}     # sinh(rho)^2 = 0: g is singular
REGULAR = {"rho": 0.7, "t": 1.0, "psi": 2.0}


class TestSingularPoint:
    """A point where the base metric is singular fails each report there,
    whatever the point order, without a floating-point warning."""

    @pytest.mark.parametrize("order", [(SINGULAR, REGULAR), (REGULAR, SINGULAR)],
                             ids=["singular-first", "singular-last"])
    def test_killing_triple_fails_at_the_singular_point_only(self, S, order):
        rep = killing_triple_check(S, list(order))
        assert not rep.passed
        assert rep.extra["non_finite_points"] == 1
        assert rep.worst_point == SINGULAR

    @pytest.mark.parametrize("check", ["structure", "sasakian", "para-hyperkahler",
                                       "round-trip"])
    def test_fails_closed_without_warning(self, S, check):
        C = build_cone(S)
        points = [SINGULAR, REGULAR]
        run = {"structure": lambda: structure_identity_suite(S, points),
               "sasakian": lambda: sasakian_residuals(S, points),
               "para-hyperkahler": lambda: para_hyperkahler_check(
                   C, [{**p, RADIAL: 1.0} for p in points]),
               "round-trip": lambda: cone_roundtrip_residual(S, C, points)}[check]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run()
        assert not rep.passed
        assert rep.extra["non_finite_points"] >= 1


class TestOddRankTowers:
    def test_eta_is_rank_one_ky(self, S):
        assert ky_odd_rank_check(S, k=0, alpha=0, points=5).passed

    def test_eta_wedge_deta_is_rank_three_ky(self, S):
        assert ky_odd_rank_check(S, k=1, alpha=0, points=5).passed

    def test_candidate_rank(self, S):
        assert ky_odd_rank_check(S, k=1, alpha=0, points=5).extra["rank"] == 3

    def test_rank_exceeding_dimension_rejected(self, S):
        with pytest.raises(GeometryError):
            ky_odd_rank_check(S, k=2, alpha=0, points=5)

    def test_rescaled_eta_tower_fails(self, S):
        """cosh(rho) eta_1 ^ d(cosh(rho) eta_1) = cosh(rho)^2 eta_1 ^ d eta_1, a
        non-parallel top form, is not Killing-Yano."""
        scaled = one_form(parse("exp(rho)/2 + exp(-rho)/2") * S.eta[0].components)
        control = dataclasses.replace(S, eta=[scaled, *S.eta[1:]])
        assert not ky_odd_rank_check(control, k=1, alpha=0, points=5).passed


class TestWedge:
    """The wedge of 1-jets, on the 1-jets of eta_1, eta_2 and d eta_1."""

    @pytest.fixture(scope="class")
    def jets(self, S):
        M = S.manifold
        pts = sample_points(M.chart, 5, seed=0)
        a, b = (M.evaluate(S.eta[i].components, pts, order=1) for i in (0, 1))
        partials = M.evaluate(S.eta[0].components, pts, order=2)[:, :, :-1]
        return a, b, partials - np.swapaxes(partials, 2, 3)

    def test_wedge_antisymmetry(self, jets):
        a, b, deta = jets
        assert np.allclose(_wedge(a, b), -_wedge(b, a), rtol=0, atol=1e-13)
        assert np.allclose(_wedge(a, deta), _wedge(deta, a), rtol=0, atol=1e-13)

    def test_wedge_of_one_forms_components(self, jets):
        a, b, _ = jets
        w = _wedge(a, b)[:, :, 0, 1]
        value = a[:, -1, 0] * b[:, -1, 1] - a[:, -1, 1] * b[:, -1, 0]
        partials = (a[:, :-1, 0] * b[:, -1, None, 1] + a[:, -1, None, 0] * b[:, :-1, 1]
                    - a[:, :-1, 1] * b[:, -1, None, 0] - a[:, -1, None, 1] * b[:, :-1, 0])
        assert np.allclose(w[:, -1], value, rtol=0, atol=1e-13)
        assert np.allclose(w[:, :-1], partials, rtol=0, atol=1e-13)
