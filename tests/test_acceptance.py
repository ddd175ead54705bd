"""End-to-end acceptance suite: ten criteria at stated tolerances.

Default sampling is 20 seeded points per chart at 1e-9 relative tolerance
unless a criterion states otherwise.
"""

import hashlib
import json

import numpy as np
import pytest
import sympy as sp

from hiddensym import algebra, catalog, sasaki, spin
from hiddensym.geodesic import (GeodesicState, IntegratorConfig, energy_report,
                                integrate, monitor_invariant)
from hiddensym.killing import (associated_sk, cky_residual,
                               covariant_constancy_residual,
                               killing_vector_residual, ky_residual,
                               quaternion_relations_check, sk_residual,
                               unit_root_check)
from hiddensym.manifold import lie_bracket, sample_points
from hiddensym.spin import OperatorSpec

TOL = 1e-9


# ---------------------------------------------------------------------------
# 1. Taub-NUT symmetry manifest

class TestCriterion1TaubNutKillingVectors:
    def test_all_four_killing_vectors_pass(self, tn):
        for name in ("kchi", "k1", "k2", "k3"):
            rep = killing_vector_residual(tn.vectors[name], tn.manifold)
            assert rep.passed, name
            assert rep.max_rel_residual < TOL

    def test_su2_brackets_close_with_epsilon(self, tn):
        M = tn.manifold
        ks = [tn.vectors["k1"], tn.vectors["k2"], tn.vectors["k3"]]
        pts = sample_points(M.chart, 20, 0)
        eps = lambda i, j, k: (j - i) * (k - i) * (k - j) / 2
        for i in range(3):
            for j in range(3):
                br = lie_bracket(ks[i], ks[j], M)
                expect = sum(eps(i, j, k) * ks[k].components for k in range(3))
                for p in pts:
                    got = M.evaluate(br.components, [p])[0]
                    want = np.array([float(sp.sympify(e).subs(
                        {sp.Symbol(c): v for c, v in p.items()})) for e in expect])
                    scale = max(1.0, float(np.max(np.abs(want))))
                    assert np.max(np.abs(got - want)) / scale < TOL

    def test_chi_translation_commutes_with_rotations(self, tn):
        M = tn.manifold
        pts = sample_points(M.chart, 20, 0)
        for name in ("k1", "k2", "k3"):
            br = lie_bracket(tn.vectors["kchi"], tn.vectors[name], M)
            for p in pts:
                assert np.max(np.abs(M.evaluate(br.components, [p])[0])) < TOL


# ---------------------------------------------------------------------------
# 2. the three parallel two-forms

class TestCriterion2ParallelForms:
    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_ky(self, tn, name):
        rep = ky_residual(tn.forms[name], tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL

    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_covariantly_constant(self, tn, name):
        rep = covariant_constancy_residual(tn.forms[name], tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL

    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_unit_root_strict(self, tn, name):
        rep = unit_root_check(tn.forms[name], tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_quaternion_relations(self, tn):
        rep = quaternion_relations_check(tn.forms["f1"], tn.forms["f2"],
                                         tn.forms["f3"], tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL


# ---------------------------------------------------------------------------
# 3. the fourth two-form

class TestCriterion3FourthForm:
    def test_ky(self, tn):
        rep = ky_residual(tn.forms["fY"], tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_not_parallel_with_predicted_worst_component(self, tn):
        M = tn.manifold
        pts = sample_points(M.chart, 20, 0)
        rep = covariant_constancy_residual(tn.forms["fY"], M, points=pts)
        assert not rep.passed
        m = M.params["m"]
        for p, worst in zip(pts, rep.extra["max_abs_per_point"]):
            predicted = 2 * (1 + p["r"] / (4 * m)) * p["r"] * np.sin(p["theta"])
            assert abs(worst - predicted) / max(1.0, predicted) < TOL


# ---------------------------------------------------------------------------
# 4. associated rank-two tensor and geodesic conservation

_ORBIT = (GeodesicState({"r": 2.0, "theta": 1.5, "phi": 0.5, "chi": 6.0},
                        {"r": -0.5, "theta": 0.02, "phi": 0.2, "chi": 0.1}))


@pytest.fixture(scope="module")
def K(tn):
    return associated_sk(tn.forms["fY"], tn.manifold)


class TestCriterion4GeodesicConservation:
    def test_associated_tensor_is_stackel_killing(self, tn, K):
        rep = sk_residual(K, tn.manifold)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_drifts_on_reference_orbit(self, tn, K):
        M = tn.manifold
        cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 10.0), stride=10)
        traj = integrate(M, _ORBIT, cfg)
        assert not traj.exited_domain
        assert monitor_invariant(traj, K, M, tol=1e-6).passed
        assert energy_report(traj, M, tol=1e-8).passed

    def test_step_halving_improves_energy_drift(self, tn):
        # the truncation error is resolvable above roundoff at these steps
        M = tn.manifold
        drifts = []
        for step in (0.04, 0.02):
            cfg = IntegratorConfig(step=step, t_span=(0.0, 10.0), stride=1)
            traj = integrate(M, _ORBIT, cfg)
            drifts.append(energy_report(traj, M, tol=1.0).max_drift)
        assert drifts[0] / drifts[1] >= 8.0


# ---------------------------------------------------------------------------
# 5. spinor operator identities

@pytest.fixture(scope="module")
def bank(tn):
    return spin.spinor_bank(tn.manifold, 5, seed=0)


class TestCriterion5SpinIdentities:
    POINTS = 10
    STOL = 1e-8

    def test_anticommutators_vanish(self, tn, tn_ctx, bank):
        Ds = OperatorSpec("standard-dirac")
        for name in ("f1", "f2", "f3"):
            spec = OperatorSpec("dirac-type", tn.forms[name])
            rep = spin.anticommutator_residual(Ds, spec, tn_ctx, bank=bank,
                                               points=self.POINTS, tol=self.STOL)
            assert rep.passed, name

    def test_commutators_with_killing_operators_vanish(self, tn, tn_ctx, bank):
        Ds = OperatorSpec("standard-dirac")
        for name in ("kchi", "k1", "k2", "k3"):
            spec = OperatorSpec("killing-op", tn.vectors[name])
            rep = spin.commutator_residual(Ds, spec, tn_ctx, bank=bank,
                                           points=self.POINTS, tol=self.STOL)
            assert rep.passed, name

    def test_unit_root_squares_match(self, tn, tn_ctx, bank):
        for name in ("f1", "f2", "f3"):
            spec = OperatorSpec("dirac-type", tn.forms[name])
            rep = spin.square_compare(spec, tn_ctx, bank=bank,
                                      points=self.POINTS, tol=self.STOL)
            assert rep.passed, name

    def test_non_unit_root_square_differs(self, tn, tn_ctx, bank):
        spec = OperatorSpec("dirac-type", tn.forms["fY"])
        rep = spin.square_compare(spec, tn_ctx, bank=bank,
                                  points=self.POINTS, tol=self.STOL)
        assert not rep.passed
        assert rep.max_rel_residual > 1e-3   # recorded separation


# ---------------------------------------------------------------------------
# 6. exact algebra

def _digest(obj) -> str:
    """First 16 hex digits of the sha256 of the compact sorted JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestCriterion6Algebra:
    def test_quaternion_table_exact(self):
        rep = algebra.quaternion_table_check()
        assert rep.passed and rep.failures == []

    def test_grade_absorption_to_cutoff_ten(self):
        rep = algebra.grade_absorb(10)
        assert rep.passed and rep.failures == []
        assert rep.cases == 3969
        assert _digest(rep.to_json()) == "c62f2790982b19db"

    def test_jacobi_exact_to_cutoff_ten(self):
        rep = algebra.jacobi_check(10)
        assert rep.passed and rep.failures == []
        assert rep.cases == 7531
        assert _digest(rep.to_json()) == "ffbd72ef1704c6af"


# ---------------------------------------------------------------------------
# 7. mixed 3-structure base suites

class TestCriterion7MixedStructure:
    def test_identity_suite(self, ps):
        rep = sasaki.structure_identity_suite(ps.structure)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_structure_laws(self, ps):
        rep = sasaki.sasakian_residuals(ps.structure)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_killing_triple(self, ps):
        rep = sasaki.killing_triple_check(ps.structure)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_curvature_characterization(self, ps):
        rep = sasaki.curvature_characterization(ps.structure)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_sectional_curvature_one(self, ps):
        rep = sasaki.sectional_curvature_check(ps.structure)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_einstein_constant(self, ps):
        rep = sasaki.einstein_check(ps.manifold, 2.0)
        assert rep.passed and rep.max_rel_residual < TOL


# ---------------------------------------------------------------------------
# 8. cone geometry

@pytest.fixture(scope="module")
def cone(ps):
    return sasaki.build_cone(ps.structure)


class TestCriterion8Cone:
    def test_para_hyperkahler(self, ps, cone):
        rep = sasaki.para_hyperkahler_check(cone)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_ricci_flat(self, cone):
        rep = sasaki.einstein_check(cone.manifold, 0.0)
        assert rep.passed and rep.max_rel_residual < TOL

    def test_round_trip(self, ps, cone):
        rep = sasaki.cone_roundtrip_residual(ps.structure, cone)
        assert rep.passed and rep.max_rel_residual < TOL


# ---------------------------------------------------------------------------
# 9. corollaries

class TestCriterion9Corollaries:
    def test_eta_are_rank_one_conformal_ky(self, ps):
        M = ps.manifold
        for a in range(3):
            rep = cky_residual(ps.structure.eta[a], M)
            assert rep.passed and rep.max_rel_residual < TOL, a

    def test_deta_are_rank_two_conformal_ky(self, ps):
        from hiddensym.manifold import exterior_derivative
        M = ps.manifold
        for a in range(3):
            deta = exterior_derivative(ps.structure.eta[a], M)
            rep = cky_residual(deta, M)
            assert rep.passed and rep.max_rel_residual < TOL, a

    def test_phi_not_killing_witnesses(self, ps):
        rep = sasaki.phi_not_killing_witness(ps.structure)
        assert rep.passed
        assert len(rep.extra["witnesses"]) == 3

    def test_conformal_killing_implies_killing(self, ps):
        for a in range(3):
            rep = sasaki.conformal_to_killing_check(ps.structure,
                                                    ps.structure.xi[a])
            assert rep.passed
            assert rep.max_rel_residual < TOL     # the conformal factor


# ---------------------------------------------------------------------------
# 10. finite-difference oracles

def _fd_christoffel(M, p, h=1e-5):
    coords = M.chart.coords
    n = M.dim

    def gat(shift):
        q = dict(p)
        for c, d in shift.items():
            q[c] += d
        return M.evaluate(M.metric, [q])[0]

    dg = np.empty((n, n, n))
    for l, c in enumerate(coords):
        dg[l] = (gat({c: h}) - gat({c: -h})) / (2 * h)
    ginv = np.linalg.inv(M.evaluate(M.metric, [p])[0])
    gamma = np.empty((n, n, n))
    for r in range(n):
        for mu in range(n):
            for nu in range(n):
                gamma[r, mu, nu] = 0.5 * sum(
                    ginv[r, l] * (dg[mu, l, nu] + dg[nu, l, mu] - dg[l, mu, nu])
                    for l in range(n))
    return gamma


def _fd_riemann(M, p, h=1e-5):
    coords = M.chart.coords
    n = M.dim

    def gammat(shift):
        q = dict(p)
        for c, d in shift.items():
            q[c] += d
        return M.christoffel([q])[0, -1]

    dgamma = np.empty((n, n, n, n))
    for l, c in enumerate(coords):
        dgamma[l] = (gammat({c: h}) - gammat({c: -h})) / (2 * h)
    gam = M.christoffel([p])[0, -1]
    riem = np.empty((n, n, n, n))
    for r in range(n):
        for s in range(n):
            for mu in range(n):
                for nu in range(n):
                    riem[r, s, mu, nu] = (
                        dgamma[mu, r, nu, s] - dgamma[nu, r, mu, s]
                        + sum(gam[r, mu, l] * gam[l, nu, s]
                              - gam[r, nu, l] * gam[l, mu, s]
                              for l in range(n)))
    return riem


class TestCriterion10FiniteDifferenceOracles:
    FD_TOL = 1e-6

    def _points(self, M):
        pts = sample_points(M.chart, 5, seed=1)
        # keep clear of the box edge so central stencils stay inside
        out = []
        for p in pts:
            q = {}
            for c, v in p.items():
                lo, hi = M.chart.box[c]
                q[c] = min(max(v, lo + 1e-3), hi - 1e-3)
            out.append(q)
        return out

    def _manifolds(self, tn, ps):
        return [catalog.flat(3).manifold, catalog.sphere2().manifold,
                tn.manifold, ps.manifold]

    def test_christoffels_match_fd(self, tn, ps):
        for M in self._manifolds(tn, ps):
            for p in self._points(M):
                got = M.christoffel([p])[0, -1]
                fd = _fd_christoffel(M, p)
                scale = max(1.0, float(np.max(np.abs(got))))
                assert np.max(np.abs(got - fd)) / scale < self.FD_TOL, M.name

    def test_curvatures_match_fd(self, tn, ps):
        for M in self._manifolds(tn, ps):
            points = self._points(M)
            for p, got in zip(points, M.riemann(points)):
                fd = _fd_riemann(M, p)
                scale = max(1.0, float(np.max(np.abs(got))))
                assert np.max(np.abs(got - fd)) / scale < self.FD_TOL, M.name
