import csv
import os

import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog
from hiddensym.geodesic import (GeodesicState, IntegratorConfig, Trajectory,
                                energy_report, export_csv, integrate,
                                invariant_values, monitor_invariant)
from hiddensym.manifold import Chart, Manifold, sample_points, vector

from array_rk4 import integrate_arrays
from test_acceptance import _ORBIT


@pytest.fixture(scope="module")
def sphere():
    return catalog.sphere2().manifold


@pytest.fixture(scope="module")
def flat3():
    return catalog.flat(3).manifold


class TestConfig:
    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    @pytest.mark.parametrize("t_span", [(0.0, 0.0), (0.0, -0.5), (1.0, 0.5)])
    def test_empty_or_reversed_span_rejected(self, t_span):
        with pytest.raises(ValueError):
            IntegratorConfig(t_span=t_span)


class TestSpray:
    def test_spray_is_minus_gamma_of_v_v(self, entry):
        """The compiled spray against -Gamma^r_{mn} v^m v^n from the numeric
        Christoffel values, at seeded positions and velocities."""
        M = entry.manifold
        pts = sample_points(M.chart, 5, seed=4)
        v = np.random.default_rng(4).normal(size=(5, M.dim))
        want = -np.einsum("prmn,pm,pn->pr", M.christoffel(pts)[:, -1], v, v)
        spray = M.spray()
        got = np.array([spray(*(p[c] for c in M.chart.coords), *vp)
                        for p, vp in zip(pts, v)], dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_spray_returns_python_floats(self, entry):
        """Every component is a built-in float, zero components too: a numpy
        scalar would turn the RK4 arithmetic that follows into slow numpy-scalar
        arithmetic."""
        M = entry.manifold
        spray = M.spray()
        for p in sample_points(M.chart, 3, seed=1):
            out = spray(*(p[c] for c in M.chart.coords), *[0.3] * M.dim)
            assert [type(c) for c in out] == [float] * M.dim


class TestFlatGeodesics:
    def test_straight_line(self, flat3):
        s0 = GeodesicState({"x1": 0.0, "x2": 0.0, "x3": 0.0},
                           {"x1": 0.1, "x2": 0.05, "x3": -0.02})
        cfg = IntegratorConfig(step=0.01, t_span=(0.0, 5.0), stride=50)
        traj = integrate(flat3, s0, cfg)
        for t, state in zip(traj.times, traj.states):
            assert abs(state.position["x1"] - 0.1 * t) < 1e-12
            assert abs(state.position["x2"] - 0.05 * t) < 1e-12

    def test_initial_point_outside_box_rejected(self, flat3):
        s0 = GeodesicState({"x1": 99.0, "x2": 0.0, "x3": 0.0},
                           {"x1": 1.0, "x2": 0.0, "x3": 0.0})
        with pytest.raises(ValueError):
            integrate(flat3, s0, IntegratorConfig())

    def test_domain_exit_flagged(self, flat3):
        s0 = GeodesicState({"x1": 1.9, "x2": 0.0, "x3": 0.0},
                           {"x1": 1.0, "x2": 0.0, "x3": 0.0})
        traj = integrate(flat3, s0, IntegratorConfig(step=0.01, t_span=(0, 5)))
        assert traj.exited_domain
        assert traj.states[-1].position["x1"] <= 2.0 + 1e-9

    def test_start_on_a_singular_point_exits(self):
        """ds^2 = dx^2 + x^2 dy^2 degenerates at x = 0: an orbit started there
        leaves the chart at once instead of raising."""
        chart = Chart(("x", "y"), {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        M = Manifold(chart, [[1, 0], [0, sp.Symbol("x") ** 2]])
        s0 = GeodesicState({"x": 0.0, "y": 0.0}, {"x": 0.1, "y": 0.1})
        traj = integrate(M, s0, IntegratorConfig(step=0.01, t_span=(0, 1)))
        assert traj.exited_domain and len(traj) == 1

    def test_math_domain_error_exits(self):
        """ds^2 = dx^2 + log(x)^2 dy^2 has no real spray at x < 0, where math.log
        raises: the orbit leaves the chart at once instead of raising."""
        chart = Chart(("x", "y"), {"x": (-1.0, 1.0), "y": (-1.0, 1.0)})
        M = Manifold(chart, [[1, 0], [0, sp.log(sp.Symbol("x")) ** 2]])
        s0 = GeodesicState({"x": -0.5, "y": 0.0}, {"x": 0.1, "y": 0.1})
        traj = integrate(M, s0, IntegratorConfig(step=0.01, t_span=(0, 1)))
        assert traj.exited_domain and len(traj) == 1


class TestArrayReference:
    """The Python-float RK4 against the numpy-array RK4 with a numpy-compiled
    spray (tests/array_rk4.py): the same times and states within 1e-13
    relative, on the criterion-4 Taub-NUT orbit and on orbits from the chart
    centre of sphere2 and the pseudo-sphere."""

    TOL = 1e-13

    @pytest.fixture(params=["taub-nut", "sphere2", "pseudo-sphere"])
    def case(self, request):
        if request.param == "taub-nut":
            return (request.getfixturevalue("tn").manifold, _ORBIT,
                    IntegratorConfig(step=1e-3, t_span=(0.0, 10.0), stride=10))
        M = (request.getfixturevalue("ps") if request.param == "pseudo-sphere"
             else catalog.sphere2()).manifold
        centre = {c: (lo + hi) / 2 for c, (lo, hi) in M.chart.box.items()}
        velocity = {c: 0.1 * (i + 1) for i, c in enumerate(M.chart.coords)}
        return M, GeodesicState(centre, velocity), IntegratorConfig(
            step=1e-3, t_span=(0.0, 3.0), stride=1)

    @staticmethod
    def _mismatch(traj, ref, M):
        """Largest relative difference of the states, inf unless the times and
        the exit flags are equal."""
        if traj.times != ref.times or traj.exited_domain != ref.exited_domain:
            return np.inf

        def rows(t):
            return np.array([[s.position[c] for c in M.chart.coords]
                             + [s.velocity[c] for c in M.chart.coords] for s in t.states])
        a, b = rows(traj), rows(ref)
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

    def test_matches_array_reference(self, case):
        M, s0, cfg = case
        traj = integrate(M, s0, cfg)
        assert not traj.exited_domain and len(traj) > 1000
        assert self._mismatch(traj, integrate_arrays(M, s0, cfg), M) <= self.TOL

    def test_planted_k2_weight_fails(self, case):
        """The reference with RK4's k2 weight 2 -> 1 must fail the comparison."""
        M, s0, cfg = case
        planted = integrate_arrays(M, s0, cfg, k2_weight=1)
        assert not self._mismatch(integrate(M, s0, cfg), planted, M) <= self.TOL


class TestSphereGeodesics:
    def _equator(self, sphere, step, t1=6.0):
        s0 = GeodesicState({"theta": np.pi / 2, "phi": 0.2},
                           {"theta": 0.0, "phi": 0.7})
        cfg = IntegratorConfig(step=step, t_span=(0.0, t1), stride=10)
        return integrate(sphere, s0, cfg)

    def test_equator_is_geodesic(self, sphere):
        traj = self._equator(sphere, 0.01)
        for state in traj.states:
            assert abs(state.position["theta"] - np.pi / 2) < 1e-10

    def test_energy_conserved(self, sphere):
        traj = self._equator(sphere, 0.01)
        rep = energy_report(traj, sphere, tol=1e-8)
        assert rep.passed

    def test_rk4_fourth_order_convergence(self, sphere):
        # tilted orbit so the energy error is not identically zero
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.3, "phi": 0.7})
        drifts = []
        for step in (0.08, 0.04):
            cfg = IntegratorConfig(step=step, t_span=(0.0, 4.0), stride=1)
            traj = integrate(sphere, s0, cfg)
            drifts.append(energy_report(traj, sphere, tol=1.0).max_drift)
        assert drifts[0] / drifts[1] >= 8.0

    def test_rk45_matches_rk4(self, sphere):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.3, "phi": 0.7})
        end = []
        for method, step in (("rk4", 0.001), ("rk45", 0.001)):
            cfg = IntegratorConfig(method=method, step=step,
                                   t_span=(0.0, 2.0), stride=10**9)
            traj = integrate(sphere, s0, cfg)
            end.append([traj.states[-1].position[c] for c in ("theta", "phi")])
        assert np.allclose(end[0], end[1], atol=1e-7)


class TestInvariants:
    def test_killing_momentum_conserved(self, sphere):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.3, "phi": 0.7})
        cfg = IntegratorConfig(step=0.005, t_span=(0.0, 4.0), stride=10)
        traj = integrate(sphere, s0, cfg)
        # quadratic invariant from the metric itself
        rep = monitor_invariant(traj, sphere.metric_field(), sphere,
                                name="energy-sk", tol=1e-8)
        assert rep.passed

    def test_invariant_values_length(self, sphere):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.0, "phi": 0.5})
        traj = integrate(sphere, s0,
                         IntegratorConfig(step=0.01, t_span=(0, 1), stride=10))
        vals = invariant_values(traj, sphere.metric_field(), sphere)
        assert len(vals) == len(traj)


class TestExport:
    def test_csv_written(self, sphere, tmp_path):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.1, "phi": 0.5})
        traj = integrate(sphere, s0,
                         IntegratorConfig(step=0.01, t_span=(0, 1), stride=10))
        path = os.fspath(tmp_path / "traj.csv")
        export_csv(traj, sphere, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "theta", "phi", "dtheta", "dphi"]
        assert len(rows) == len(traj) + 1
        for row, t, st in zip(rows[1:], traj.times, traj.states):
            assert [float(v) for v in row] == [t, st.position["theta"], st.position["phi"],
                                               st.velocity["theta"], st.velocity["phi"]]
