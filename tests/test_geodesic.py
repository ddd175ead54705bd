import ast
import csv
import json
import math
import os
import random
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from hiddensym import catalog, exprkit, geodesic, sasaki
from hiddensym.cli import ingest, main
from hiddensym.geodesic import (GeodesicState, IntegratorConfig, Trajectory,
                                energy_report, export_csv, integrate,
                                invariant_values, monitor_invariant)
from hiddensym.killing import associated_sk
from hiddensym.manifold import (Chart, GeometryError, Manifold, TensorField, sample_points,
                                vector)

from array_rk4 import integrate_arrays, integrate_lists, sympy_spray
from catalog_oracle import names
from lambdify_reference import lambdified_jet
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

    @pytest.mark.parametrize("t_span", [(0.0, float("inf")), (float("-inf"), 1.0),
                                        (0.0, float("nan"))])
    def test_non_finite_span_rejected(self, flat3, t_span):
        """An infinite end once raised OverflowError inside integrate."""
        with pytest.raises(ValueError, match="t_span must be finite"):
            cfg = IntegratorConfig(t_span=t_span)
            integrate(flat3, GeodesicState({c: 0.0 for c in flat3.chart.coords},
                                           {c: 0.1 for c in flat3.chart.coords}), cfg)

    @pytest.mark.parametrize("step, t_span", [(1e-320, (0.0, 10.0)), (1e-300, (0.0, 1e300)),
                                              (1.0, (-1e308, 1e308))])
    def test_step_count_must_be_finite(self, flat3, step, t_span):
        """A step this small once constructed, and integrate then raised
        OverflowError converting an infinite step count to an int."""
        with pytest.raises(ValueError, match="not a finite number of steps"):
            cfg = IntegratorConfig(step=step, t_span=t_span)
            integrate(flat3, GeodesicState({c: 0.0 for c in flat3.chart.coords},
                                           {c: 0.1 for c in flat3.chart.coords}), cfg)

    @pytest.mark.parametrize("stride", [0, -1, 2.0, 0.5, True, "10", None])
    def test_stride_must_be_a_positive_integer(self, stride):
        """stride=0 once raised ZeroDivisionError inside integrate, and
        stride=-1 kept every step."""
        with pytest.raises(ValueError, match="stride"):
            IntegratorConfig(stride=stride)

    @pytest.mark.parametrize("stride", [1, 7, np.int64(3), 10**9])
    def test_integer_strides_accepted(self, stride):
        assert IntegratorConfig(stride=stride).stride == stride


class TestSpray:
    def test_spray_is_minus_gamma_of_v_v(self, entry):
        """The compiled spray against -Gamma^r_{mn} v^m v^n from the numeric
        Christoffel values, at seeded positions and velocities."""
        M = entry.manifold
        pts = sample_points(M.chart, 5, seed=4)
        v = np.random.default_rng(4).normal(size=(5, M.dim))
        want = -np.einsum("prmn,pm,pn->pr", M.christoffel(pts)[:, -1], v, v)
        spray = geodesic.spray(M)
        got = np.array([spray(*(p[c] for c in M.chart.coords), *vp)
                        for p, vp in zip(pts, v)], dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_spray_returns_python_floats(self, entry):
        """Every component is a built-in float, zero components too: a numpy
        scalar would turn the RK4 arithmetic that follows into slow numpy-scalar
        arithmetic."""
        M = entry.manifold
        spray = geodesic.spray(M)
        for p in sample_points(M.chart, 3, seed=1):
            out = spray(*(p[c] for c in M.chart.coords), *[0.3] * M.dim)
            assert [type(c) for c in out] == [float] * M.dim


def _dense_metric():
    """A four-dimensional metric with every entry a seeded linear function of
    the coordinates: no zero entry drops a term of the spray."""
    names = ("a", "b", "c", "d")
    xs, rng = sp.symbols(names), random.Random(0)
    g = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            term = sp.Rational(rng.randint(1, 5), 10) * xs[rng.randrange(4)]
            g[i][j] = g[j][i] = 4 + term if i == j else term
    return Manifold(Chart(names, {c: (-1.0, 1.0) for c in names}), g)


class TestSympyReference:
    """The spray derived on trees against the sympy derivation it replaced
    (tests/array_rk4.py sympy_spray): within 1e-13 relative at 20 seeded
    positions and velocities, on every catalog entry, the pseudo-sphere's
    metric cone and a dense four-dimensional metric."""

    TOL = 1e-13
    CURVED = ["taub-nut", "sphere2", "pseudo-sphere", "cone", "dense"]

    @staticmethod
    def _manifold(request, name):
        if name == "cone":
            return sasaki.build_cone(request.getfixturevalue("ps").structure).manifold
        if name == "dense":
            return _dense_metric()
        shared = {"taub-nut": "tn", "pseudo-sphere": "ps"}.get(name)
        return (request.getfixturevalue(shared) if shared else catalog.get(name)).manifold

    @staticmethod
    def _mismatch(M, reference):
        """Largest difference over the pairs, each relative to max(1, the
        reference's largest component)."""
        spray = geodesic.spray(M)
        velocities = np.random.default_rng(5).normal(size=(20, M.dim))
        worst = 0.0
        for p, v in zip(sample_points(M.chart, 20, seed=5), velocities):
            x = [p[c] for c in M.chart.coords]
            got, want = np.array(spray(*x, *v)), np.array(reference(*x, *v))
            worst = max(worst, np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))
        return worst

    @pytest.mark.parametrize("name", [*names(), "cone", "dense"])
    def test_matches_sympy_spray(self, name, request):
        M = self._manifold(request, name)
        assert self._mismatch(M, sympy_spray(M)) <= self.TOL

    @pytest.mark.parametrize("name", CURVED)
    def test_planted_half_fails(self, name, request):
        """The reference without the 1/2 on d_lam g_{mu nu} must fail the
        comparison (on a curved metric, where the derivatives are not zero)."""
        M = self._manifold(request, name)
        assert not self._mismatch(M, sympy_spray(M, half=1)) <= self.TOL

    def test_zero_entries_drop_their_terms(self, tn):
        """Taub-NUT's metric depends on neither phi nor chi, so those partials
        fold to ZERO, and its spray is derived block by block."""
        M = tn.manifold
        for e in M.metric.flat:
            for c in ("phi", "chi"):
                assert exprkit.derivative(e, c) is exprkit.ZERO
        assert geodesic._blocks(M.metric) == [(0,), (1,), (2, 3)]

    def test_metric_nested_to_the_parse_limit(self, capsys, tmp_path):
        """g_xx = 2 + sin(...sin(x)...) as deep as parse() allows: the spray's
        derivatives, sums and quotients nest deeper, which once made the
        derivation refuse it (ParseError, exit 2).  Its orbit runs and its
        spray matches the sympy one."""
        entry = "2 + " + "sin(" * (exprkit.MAX_DEPTH - 2) + "x" + ")" * (exprkit.MAX_DEPTH - 2)
        assert exprkit.parse(entry).depth == exprkit.MAX_DEPTH
        doc = {"name": "nested", "dimension": 2, "coordinates": ["x", "y"],
               "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}, "signature": [1, 1],
               "parameters": {}, "metric": [[entry, "0"], ["0", "1"]]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["geodesic", "run", "--manifold", str(path), "--position", "x=0.1,y=0",
                     "--velocity", "x=0.3,y=0.2", "--t1", "1", "--step", "0.01"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["pass"]
        M = ingest(doc).manifold
        assert self._mismatch(M, sympy_spray(M)) <= self.TOL


class TestFlatGeodesics:
    def test_straight_line(self, flat3):
        s0 = GeodesicState({"x1": 0.0, "x2": 0.0, "x3": 0.0},
                           {"x1": 0.1, "x2": 0.05, "x3": -0.02})
        cfg = IntegratorConfig(step=0.01, t_span=(0.0, 5.0), stride=50)
        traj = integrate(flat3, s0, cfg)
        assert np.all(np.abs(traj.positions[:, 0] - 0.1 * traj.times) < 1e-12)
        assert np.all(np.abs(traj.positions[:, 1] - 0.05 * traj.times) < 1e-12)

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
        assert traj.positions[-1, 0] <= 2.0 + 1e-9

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

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_non_integer_power_of_a_negative_base_exits(self, method):
        """ds^2 = (2 + x^(5/2)) dx^2 + dy^2 has no real spray at x < 0: the
        spray's x^(3/2) raises ValueError there, where ** would give a complex
        number, and the orbit heading for x < 0 leaves the chart."""
        chart = Chart(("x", "y"), {"x": (-2.0, 2.0), "y": (-2.0, 2.0)})
        M = Manifold(chart, [["2 + x^(5/2)", 0], [0, 1]])
        with pytest.raises(ValueError):
            geodesic.spray(M)(-0.5, 0.0, 1.0, 0.0)
        s0 = GeodesicState({"x": 0.5, "y": 0.0}, {"x": -1.0, "y": 0.3})
        traj = integrate(M, s0, IntegratorConfig(method=method, step=0.01, t_span=(0, 2)))
        assert traj.exited_domain and 1 < len(traj) < 10
        assert np.all(traj.positions[:, 0] >= 0)


class TestArrayReference:
    """The Python-float RK4 against the numpy-array RK4 with a numpy-compiled
    spray (tests/array_rk4.py): the same times and states within 1e-13
    relative, on the criterion-4 Taub-NUT orbit and on orbits from the chart
    centre of every other catalog entry and of the file with negative
    parameters."""

    TOL = 1e-13

    @pytest.fixture(params=[*names(), "negative-parameters"])
    def case(self, request):
        if request.param == "taub-nut":
            return (request.getfixturevalue("tn").manifold, _ORBIT,
                    IntegratorConfig(step=1e-3, t_span=(0.0, 10.0), stride=10))
        M = (request.getfixturevalue("ps") if request.param == "pseudo-sphere"
             else _negative_entry() if request.param == "negative-parameters"
             else catalog.get(request.param)).manifold
        centre = {c: (lo + hi) / 2 for c, (lo, hi) in M.chart.box.items()}
        velocity = {c: 0.1 * (i + 1) for i, c in enumerate(M.chart.coords)}
        return M, GeodesicState(centre, velocity), IntegratorConfig(
            step=1e-3, t_span=(0.0, 3.0), stride=1)

    @staticmethod
    def _mismatch(traj, ref):
        """Largest relative difference of the states, inf unless the times and
        the exit flags are equal."""
        if not np.array_equal(traj.times, ref.times) or traj.exited_domain != ref.exited_domain:
            return np.inf
        a, b = (np.hstack([t.positions, t.velocities]) for t in (traj, ref))
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

    def test_matches_array_reference(self, case):
        M, s0, cfg = case
        traj = integrate(M, s0, cfg)
        assert not traj.exited_domain and len(traj) > 1000
        assert self._mismatch(traj, integrate_arrays(M, s0, cfg)) <= self.TOL

    def test_planted_k2_weight_fails(self, case):
        """The reference with RK4's k2 weight 2 -> 1 must fail the comparison."""
        M, s0, cfg = case
        planted = integrate_arrays(M, s0, cfg, k2_weight=1)
        assert not self._mismatch(integrate(M, s0, cfg), planted) <= self.TOL


def _bits(traj):
    """The exit flag, and each kept time and state as the hex text of its
    floats: equal bits, not just equal values."""
    rows = np.column_stack([traj.times, traj.positions, traj.velocities]).tolist()
    return traj.exited_domain, [[x.hex() for x in row] for row in rows]


def _perturbed_orbits(seed):
    """The geodesic-orbits workload's ensemble: the criterion-4 orbit with its
    position moved by up to 0.05 and its velocity by up to 0.02 per
    coordinate, three copies drawn from random.Random(seed)."""
    position, velocity = _ORBIT.position, _ORBIT.velocity
    rng = random.Random(seed)
    return [GeodesicState({c: v + rng.uniform(-0.05, 0.05) for c, v in position.items()},
                          {c: v + rng.uniform(-0.02, 0.02) for c, v in velocity.items()})
            for _ in range(3)]


def _centre_orbit(M):
    centre = {c: (lo + hi) / 2 for c, (lo, hi) in M.chart.box.items()}
    return GeodesicState(centre, {c: 0.1 * (i + 1) for i, c in enumerate(M.chart.coords)})


FINE = IntegratorConfig(step=1e-3, t_span=(0.0, 10.0), stride=10)
LIST_CASES = (["criterion-4", "halving-0.04", "halving-0.02"]
              + [f"perturbed-seed{seed}-{i}" for seed in (0, 3) for i in range(3)]
              + [f"centre-{name}" for name in names()])


class TestListReference:
    """The generated RK4 loop against the list-stage loop it replaced
    (tests/array_rk4.py integrate_lists): equal times, states and exit flag,
    bit for bit, on criterion 4's orbit, its 0.04/0.02 step-halving orbits,
    the geodesic-orbits workload's perturbed orbits at seeds 0 and 3, and
    3000-step orbits from the chart centre of every catalog entry."""

    @pytest.fixture(params=LIST_CASES)
    def case(self, request):
        name = request.param
        if name.startswith("centre-"):
            entry, shared = name[len("centre-"):], {"taub-nut": "tn", "pseudo-sphere": "ps"}
            M = (request.getfixturevalue(shared[entry]) if entry in shared
                 else catalog.get(entry)).manifold
            return M, _centre_orbit(M), IntegratorConfig(step=1e-3, t_span=(0.0, 3.0), stride=1)
        M = request.getfixturevalue("tn").manifold
        if name.startswith("halving-"):
            return M, _ORBIT, IntegratorConfig(step=float(name[len("halving-"):]),
                                               t_span=(0.0, 10.0), stride=1)
        if name.startswith("perturbed-"):
            seed, i = name[len("perturbed-seed"):].split("-")
            return M, _perturbed_orbits(int(seed))[int(i)], FINE
        return M, _ORBIT, FINE

    def test_matches_list_reference(self, case):
        M, s0, cfg = case
        traj = integrate(M, s0, cfg)
        assert not traj.exited_domain and len(traj) > 250
        assert _bits(traj) == _bits(integrate_lists(M, s0, cfg))

    @staticmethod
    def _planted_case(name):
        """A fresh manifold, so that the loop a planted error builds is
        cached on it alone, with its orbit and configuration."""
        if name == "criterion-4":
            return catalog.taub_nut().manifold, _ORBIT, FINE
        M = catalog.sphere2().manifold
        return M, _centre_orbit(M), IntegratorConfig(step=1e-3, t_span=(0.0, 3.0), stride=1)

    @pytest.mark.parametrize("name", ["criterion-4", "centre-sphere2"])
    def test_planted_k3_weight_fails(self, name, monkeypatch):
        """The manifold's loop with RK4's k3 weight 2 -> 1 must fail the
        comparison."""
        M, s0, cfg = self._planted_case(name)
        text = geodesic._rk4_text

        def planted(M):
            plain = text(M)
            mutated = plain.replace("2.0 * v3_", "1.0 * v3_").replace("2.0 * a3_", "1.0 * a3_")
            assert mutated.count("1.0 * v3_") == mutated.count("1.0 * a3_") == M.dim
            return mutated
        monkeypatch.setattr(geodesic, "_rk4_text", planted)
        assert _bits(integrate(M, s0, cfg)) != _bits(integrate_lists(M, s0, cfg))

    @pytest.mark.parametrize("name", ["criterion-4", "centre-sphere2"])
    def test_planted_stage_position_fails(self, name, monkeypatch):
        """The manifold's loop with stage 3's inlined spray evaluated at
        stage 2's position must fail the comparison."""
        M, s0, cfg = self._planted_case(name)
        statements, renamed = exprkit.statements, []

        def planted(roots, names, local):
            if local == "s3_":
                names = {k: v.replace("x3_", "x2_") for k, v in names.items()}
                renamed.extend(v for v in names.values() if v.startswith("x2_"))
            return statements(roots, names, local)
        monkeypatch.setattr(exprkit, "statements", planted)
        assert _bits(integrate(M, s0, cfg)) != _bits(integrate_lists(M, s0, cfg))
        assert len(renamed) == M.dim


# (entry, start as fractions of the box, velocity, step, t1, stride): a
# partial final step, a stride longer than the orbit, and an orbit that
# leaves the box
EDGE_CASES = [("flat3", [0.5, 0.4, 0.6], [0.3, -0.2, 0.1], 0.03, 1.0, 7),
              ("sphere2", [0.5, 0.5], [0.3, 0.7], 0.07, 2.0, 5),
              ("sphere2", [0.3, 0.6], [0.2, -0.4], 0.1, 1.0, 50),
              ("flat3", [0.9, 0.5, 0.5], [1.5, 0.0, 0.2], 0.05, 3.0, 4)]


def _draw_orbit(name, fractions, velocity, step, t1, stride):
    M = {"flat3": catalog.flat(3), "sphere2": catalog.sphere2()}[name].manifold
    box = [M.chart.box[c] for c in M.chart.coords]
    s0 = GeodesicState({c: lo + f * (hi - lo) for c, (lo, hi), f in zip(M.chart.coords, box,
                                                                         fractions)},
                       dict(zip(M.chart.coords, velocity)))
    return M, s0, IntegratorConfig(step=step, t_span=(0.0, t1), stride=stride)


@st.composite
def _orbits(draw):
    name = draw(st.sampled_from(["flat3", "sphere2"]))
    n = 3 if name == "flat3" else 2
    fractions = draw(st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n))
    velocity = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return (name, fractions, velocity, draw(st.floats(0.005, 0.2)),
            draw(st.floats(0.01, 3.0)), draw(st.integers(1, 300)))


class TestListReferenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(_orbits())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    @example(EDGE_CASES[3])
    def test_random_orbits_match_list_reference(self, orbit):
        M, s0, cfg = _draw_orbit(*orbit)
        assert _bits(integrate(M, s0, cfg)) == _bits(integrate_lists(M, s0, cfg))

    def test_examples_cover_the_edge_cases(self):
        """The explicit examples hold a partial final step, a stride longer
        than the orbit and an orbit that leaves the box."""
        partial = longer = left = False
        for case in EDGE_CASES:
            M, s0, cfg = _draw_orbit(*case)
            traj = integrate(M, s0, cfg)
            steps = int(np.ceil(cfg.t_span[1] / cfg.step - 1e-12))
            partial |= (not traj.exited_domain and traj.times[-1] == cfg.t_span[1]
                        and steps * cfg.step > cfg.t_span[1] + 1e-9)
            longer |= not traj.exited_domain and cfg.stride > steps and len(traj) == 2
            left |= traj.exited_domain and len(traj) > 1
        assert partial and longer and left


class TestGeneratedNames:
    """The generated loop's source holds no input text: coordinates named
    like its own locals give the same orbit as w, x, y, z.  Each name set
    sorts in the same order as w, x, y, z, since sympy orders a term's
    factors by name, and so the spray's own float operations."""

    @staticmethod
    def _orbit(names, warped):
        s = [sp.Symbol(c) for c in names]
        g = sp.diag(1, 1 + s[0] ** 2 / 4, 1, 1 + s[2] ** 2 / 4) if warped else sp.eye(4)
        M = Manifold(Chart(names, {c: (-2.0, 2.0) for c in names}), g.tolist())
        s0 = GeodesicState(dict(zip(names, [0.3, -0.2, 0.1, 0.4])),
                           dict(zip(names, [0.5, 0.1, -0.3, 0.2])))
        return integrate(M, s0, IntegratorConfig(step=0.01, t_span=(0.0, 3.0), stride=2))

    @pytest.mark.parametrize("warped", [False, True], ids=["flat", "warped"])
    @pytest.mark.parametrize("names", [("f", "h", "k", "t"), ("kept", "spray", "v0", "x0"),
                                       ("hk", "p0", "s1_0", "sixth")])
    def test_coordinate_names_do_not_change_the_orbit(self, names, warped):
        got, want = self._orbit(names, warped), self._orbit(("w", "x", "y", "z"), warped)
        assert len(got) > 100 and not got.exited_domain
        assert _bits(got) == _bits(want)


NEGATIVE = os.path.join(os.path.dirname(__file__), "data", "negative-parameters.json")


def _negative_entry(fourth_power=False):
    """A fresh entry of the file whose parameters a = -2 and b = -1/2 appear
    under ^, inside exp and in products: nothing compiled is cached on it.
    With fourth_power, its b^3 is b^4."""
    with open(NEGATIVE) as fh:
        doc = json.load(fh)
    if fourth_power:
        doc["metric"][1][1] = doc["metric"][1][1].replace("b^3", "b^4")
    return ingest(doc)


def _unparenthesized_literals(monkeypatch):
    """Plant a printer that writes a name's signed literal without
    parentheses, so that b^4 prints as -0.5**4, which is -0.0625.  (A
    square is a product and keeps its sign, and an odd power does not
    show it: -2.0**3 is (-2.0)**3.)"""
    original = exprkit._code

    def planted(node, kids, names, store):
        text, level, negated = original(node, kids, names, store)
        return (text, 5, negated) if node.op == "name" else (text, level, negated)
    monkeypatch.setattr(exprkit, "_code", planted)


class TestLiteralParameters:
    """Generated code writes a manifold's parameters as float literals and
    takes only the coordinates (and velocities).  On a file with negative
    parameters, the jets match sympy's derivatives lambdified with the
    parameters as arguments (tests/lambdify_reference.py), the spray matches
    the sympy spray lambdified the same way (tests/array_rk4.py), and the
    RK4 orbit is bitwise the list-stage loop's."""

    TOL = 1e-13

    @classmethod
    def _jet_mismatch(cls, e) -> float:
        M = e.manifold
        pts = sample_points(M.chart, 7, seed=3)
        worst = 0.0
        for arr in (M.metric, e.vectors["v"].components):
            want = lambdified_jet(M, arr, pts, 2)
            for order, oracle in ((0, want[:, -1, -1]), (1, want[:, -1]), (2, want)):
                got = M.evaluate(arr, pts, order=order)
                worst = max(worst, np.max(np.abs(got - oracle)) / max(1.0, np.max(np.abs(oracle))))
        return worst

    def test_jets_match_lambdified_reference(self):
        assert self._jet_mismatch(_negative_entry()) <= self.TOL

    def test_spray_matches_sympy_spray(self):
        M = _negative_entry().manifold
        assert TestSympyReference._mismatch(M, sympy_spray(M)) <= self.TOL

    def test_rk4_orbit_matches_list_reference(self):
        M = _negative_entry().manifold
        cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 3.0), stride=1)
        traj = integrate(M, _centre_orbit(M), cfg)
        assert not traj.exited_domain and len(traj) > 250
        assert _bits(traj) == _bits(integrate_lists(M, _centre_orbit(M), cfg))

    def test_planted_unparenthesized_literal_fails(self, monkeypatch):
        _unparenthesized_literals(monkeypatch)
        e = _negative_entry(fourth_power=True)
        M = e.manifold
        text = exprkit.codegen(list(M.metric.flat), M.chart.coords, M.params)
        assert "-0.5**4" in text and "-2.0**3" in exprkit.codegen([exprkit.parse("a^3")], [],
                                                                  {"a": -2.0})
        assert not self._jet_mismatch(e) <= self.TOL
        assert not TestSympyReference._mismatch(M, sympy_spray(M)) <= self.TOL

    @pytest.mark.parametrize("name", [*names(), "negative-parameters"])
    def test_generated_code_takes_no_parameter(self, name, monkeypatch):
        """The RK4 loop's signature is the state, the span, the step, the
        counts and the box, and no generated text names a parameter."""
        e = _negative_entry() if name == "negative-parameters" else catalog.get(name)
        M = e.manifold
        texts, codegen = [], exprkit.codegen

        def recorded(*args):
            texts.append(codegen(*args))
            return texts[-1]
        monkeypatch.setattr(exprkit, "codegen", recorded)
        pts = sample_points(M.chart, 3, seed=0)
        for T in (TensorField(M.metric, "dd"), *e.vectors.values(), *e.forms.values()):
            M.evaluate(T.components, pts, order=2)
        geodesic.spray(M)
        texts.append(geodesic._rk4_text(M))
        assert texts[-1].splitlines()[0] == "def rk4(y, t0, t1, h, steps, stride, box):"
        assert len(texts) >= 3
        for text in texts:
            names = {node.id for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Name)}
            assert not names & set(M.params)


class TestLoopBudget:
    """The generated loop's operations, a guard of its step cost: no power
    (a square is a product), no division by a power-of-two literal (it is a
    product with the reciprocal), few unary minus (a negation is carried
    as a sign), and a stage's midpoint only for a coordinate the spray reads."""

    @staticmethod
    def _midpoints(M):
        """The coordinates of the stages' midpoints x2_i, x3_i, x4_i."""
        stages = {}
        for name in re.findall(r"^ *x([234])_(\d+) = ", geodesic._rk4_text(M), re.M):
            stages.setdefault(name[0], set()).add(M.chart.coords[int(name[1])])
        assert len(set(map(frozenset, stages.values()))) <= 1
        return stages.get("2", set())

    def test_taub_nut_operations(self, tn):
        text = geodesic._rk4_text(tn.manifold)
        nodes = list(ast.walk(ast.parse(text)))
        minus = [node for node in nodes if isinstance(node, ast.UnaryOp)
                 and isinstance(node.op, ast.USub) and not isinstance(node.operand, ast.Constant)]
        halved = [node for node in nodes if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Div) and isinstance(node.right, ast.Constant)
                  and math.frexp(abs(node.right.value))[0] == 0.5]
        assert "**" not in text and "pow(" not in text and halved == []
        assert 0 < len(minus) <= 8

    @pytest.mark.parametrize("name, read", [("taub-nut", {"r", "theta"}), ("sphere2", {"theta"}),
                                            ("pseudo-sphere", {"rho"}), ("flat3", set())])
    def test_midpoints_only_where_the_spray_reads(self, name, read, request):
        M = (request.getfixturevalue({"taub-nut": "tn", "pseudo-sphere": "ps"}[name])
             if name in ("taub-nut", "pseudo-sphere") else catalog.get(name)).manifold
        assert self._midpoints(M) == read

    def test_planted_dead_midpoint_fails(self, tn, monkeypatch):
        """With every coordinate read, Taub-NUT's loop writes the phi and chi
        midpoints again."""
        M = tn.manifold
        monkeypatch.setattr(exprkit, "names", lambda roots: set(M.chart.coords))
        assert self._midpoints(M) == set(M.chart.coords)


class TestSphereGeodesics:
    def _equator(self, sphere, step, t1=6.0):
        s0 = GeodesicState({"theta": np.pi / 2, "phi": 0.2},
                           {"theta": 0.0, "phi": 0.7})
        cfg = IntegratorConfig(step=step, t_span=(0.0, t1), stride=10)
        return integrate(sphere, s0, cfg)

    def test_equator_is_geodesic(self, sphere):
        traj = self._equator(sphere, 0.01)
        assert np.all(np.abs(traj.positions[:, 0] - np.pi / 2) < 1e-10)

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
            end.append(traj.positions[-1])
        assert np.allclose(end[0], end[1], atol=1e-7)


class TestInvariants:
    def test_killing_momentum_conserved(self, sphere):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.3, "phi": 0.7})
        cfg = IntegratorConfig(step=0.005, t_span=(0.0, 4.0), stride=10)
        traj = integrate(sphere, s0, cfg)
        # quadratic invariant from the metric itself
        rep = monitor_invariant(traj, TensorField(sphere.metric, "dd"), sphere,
                                name="energy-sk", tol=1e-8)
        assert rep.passed

    def test_one_kept_state_fails(self, flat3):
        """An orbit that leaves the box at its first step keeps only its start:
        a drift of 0.0 there measures nothing, and fails."""
        s0 = GeodesicState({"x1": 1.99, "x2": 0.0, "x3": 0.0}, {"x1": 5.0, "x2": 0.0, "x3": 0.0})
        traj = integrate(flat3, s0, IntegratorConfig(step=0.01, t_span=(0, 1)))
        assert traj.exited_domain and len(traj) == 1
        rep = energy_report(traj, flat3)
        assert rep.max_drift == 0.0 and not rep.passed

    def test_invariant_values_length(self, sphere):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.0, "phi": 0.5})
        traj = integrate(sphere, s0,
                         IntegratorConfig(step=0.01, t_span=(0, 1), stride=10))
        vals = invariant_values(traj.positions, traj.velocities,
                                TensorField(sphere.metric, "dd"), sphere)
        assert len(vals) == len(traj)


class TestInvariantKinds:
    """An invariant is a vector field, or a covariant tensor symmetric at the
    trajectory's positions (the S-K squares and the metric); a form, whose
    contraction with two velocities vanishes identically, and a tensor of
    mixed variance are refused with GeometryError."""

    @pytest.fixture(scope="class")
    def orbit(self, tn):
        return integrate(tn.manifold, _ORBIT, IntegratorConfig(step=0.01, t_span=(0.0, 2.0)))

    @pytest.mark.parametrize("name", ["metric", "assoc-sk:fY", "kchi"])
    def test_accepted(self, tn, orbit, name):
        M = tn.manifold
        Q = {"metric": TensorField(M.metric, "dd"), "kchi": tn.vectors["kchi"],
             "assoc-sk:fY": associated_sk(tn.forms["fY"], M)}[name]
        assert monitor_invariant(orbit, Q, M).passed

    @staticmethod
    def refuses_form(tn, orbit) -> bool:
        try:
            monitor_invariant(orbit, tn.forms["f1"], tn.manifold)
        except GeometryError as exc:
            return str(exc) == "a geodesic invariant requires a vector field or a symmetric tensor"
        return False

    def test_form_refused(self, tn, orbit):
        assert self.refuses_form(tn, orbit)

    def test_mixed_variance_refused(self, tn, orbit):
        M = tn.manifold
        with pytest.raises(GeometryError, match="^a geodesic invariant needs covariant slots, "
                                                "not variance 'ud'$"):
            monitor_invariant(orbit, TensorField(M.metric, "ud"), M)

    def test_planted_guard_bypass_passes_a_form(self, tn, orbit, monkeypatch):
        """With the symmetry guard bypassed, the form's zero invariant passes
        again, and the refusal test fails."""
        monkeypatch.setattr(geodesic, "_guard", lambda *args: None)
        rep = monitor_invariant(orbit, tn.forms["f1"], tn.manifold)
        assert rep.passed and abs(rep.initial_value) < 1e-15
        assert not self.refuses_form(tn, orbit)


class TestExport:
    def test_csv_written(self, sphere, tmp_path):
        s0 = GeodesicState({"theta": 1.0, "phi": 0.2},
                           {"theta": 0.1, "phi": 0.5})
        traj = integrate(sphere, s0,
                         IntegratorConfig(step=0.01, t_span=(0, 1), stride=10))
        path = os.fspath(tmp_path / "traj.csv")
        with open(path, "w", newline="") as fh:
            export_csv(traj, sphere, fh)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "theta", "phi", "dtheta", "dphi"]
        assert len(rows) == len(traj) + 1
        for row, t, x, v in zip(rows[1:], traj.times, traj.positions, traj.velocities):
            assert [float(cell) for cell in row] == [t, *x, *v]
