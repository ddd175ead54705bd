import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog, exprkit
from hiddensym.manifold import (Chart, GeometryError, Manifold, TensorField,
                                antisymmetrize, covariant_derivative,
                                exterior_derivative, lie_bracket, lower_index,
                                one_form, raise_index, sample_points,
                                symmetrize, two_form, vector)


@pytest.fixture(scope="module")
def sphere():
    return catalog.sphere2().manifold


@pytest.fixture(scope="module")
def flat3():
    return catalog.flat(3).manifold


class TestChart:
    def test_dimension(self):
        c = Chart(("x", "y"), {"x": (0, 1), "y": (0, 1)})
        assert c.dim == 2

    def test_sample_points_deterministic_and_in_box(self, sphere):
        a = sample_points(sphere.chart, 10, seed=3)
        b = sample_points(sphere.chart, 10, seed=3)
        assert a == b
        for p in a:
            assert sphere.chart.contains(p)

    def test_different_seeds_differ(self, sphere):
        assert (sample_points(sphere.chart, 5, 0)
                != sample_points(sphere.chart, 5, 1))


class TestMetricValidation:
    def test_asymmetric_metric_rejected(self):
        c = Chart(("x", "y"), {"x": (0, 1), "y": (0, 1)})
        with pytest.raises(GeometryError):
            Manifold(c, [[1, 1], [0, 1]])

    def test_signature_length_checked(self):
        c = Chart(("x", "y"), {"x": (0, 1), "y": (0, 1)})
        with pytest.raises(GeometryError):
            Manifold(c, [[1, 0], [0, 1]], signature=(1, 1, 1))


class TestChristoffel:
    def test_flat_christoffels_vanish(self, flat3):
        assert all(e == 0 for e in flat3.christoffel().flatten())

    def test_sphere_christoffels(self, sphere):
        th = sp.Symbol("theta")
        gamma = sphere.christoffel()
        assert sp.simplify(gamma[0, 1, 1] + sp.sin(th) * sp.cos(th)) == 0
        assert sp.simplify(gamma[1, 0, 1] - sp.cos(th) / sp.sin(th)) == 0
        # index symmetry
        assert gamma[1, 0, 1] == gamma[1, 1, 0]

    def test_metric_is_covariantly_constant(self, sphere):
        nabla = covariant_derivative(sphere.metric_field(), sphere)
        assert all(sp.simplify(sp.expand_trig(e)) == 0
                   for e in nabla.components.flatten())


class TestCurvature:
    def test_flat_riemann_vanishes(self, flat3):
        assert all(e == 0 for e in flat3.riemann().flatten())

    def test_sphere_is_einstein_with_constant_one(self, sphere):
        ric = sphere.ricci()
        diff = ric.components - np.array(sphere.metric.tolist(), dtype=object)
        assert all(sp.simplify(e) == 0 for e in diff.flatten())

    def test_riemann_antisymmetry_in_last_pair(self, sphere):
        R = sphere.riemann()
        n = sphere.dim
        for idx in np.ndindex((n,) * 4):
            r, s, m, nu = idx
            assert sp.simplify(R[r, s, m, nu] + R[r, s, nu, m]) == 0


class TestIndexGymnastics:
    def test_raise_lower_round_trip(self, sphere):
        X = vector([1, sp.Symbol("theta")])
        back = raise_index(lower_index(X, sphere, 0), sphere, 0)
        assert all(sp.simplify(a - b) == 0
                   for a, b in zip(back.components, X.components))

    def test_variance_tracking(self, sphere):
        X = vector([1, 0])
        assert lower_index(X, sphere, 0).variance == "d"

    def test_tensor_rank(self):
        assert two_form([[0, 1], [-1, 0]]).rank == 2
        assert vector([1, 0]).rank == 1


class TestExteriorCalculus:
    def test_d_squared_is_zero(self, sphere):
        th, ph = sp.symbols("theta phi")
        w = one_form([sp.sin(th) * ph, th ** 2])
        ddw = exterior_derivative(exterior_derivative(w, sphere), sphere)
        assert all(sp.simplify(e) == 0 for e in ddw.components.flatten())

    def test_exterior_derivative_of_function_gradient(self, flat3):
        x = sp.Symbol("x1")
        # d of an exact one-form vanishes
        w = one_form([2 * x, 0, 0])
        dw = exterior_derivative(w, flat3)
        assert all(sp.simplify(e) == 0 for e in dw.components.flatten())


class TestLieBracket:
    def test_coordinate_fields_commute(self, flat3):
        X, Y = vector([1, 0, 0]), vector([0, 1, 0])
        assert all(e == 0 for e in lie_bracket(X, Y, flat3).components)

    def test_rotation_algebra_on_flat3(self, flat3):
        x1, x2, x3 = sp.symbols("x1 x2 x3")
        # X_i = eps_{ijk} x_j d_k close with [X_1, X_2] = -X_3
        L1 = vector([0, -x3, x2])
        L2 = vector([x3, 0, -x1])
        minus_L3 = vector([x2, -x1, 0])
        br = lie_bracket(L1, L2, flat3)
        assert all(sp.simplify(a - b) == 0
                   for a, b in zip(br.components, minus_L3.components))


class TestSymmetrizers:
    def test_antisymmetrize_idempotent(self):
        rng = np.random.default_rng(0)
        arr = np.array(rng.normal(size=(3, 3, 3)), dtype=object)
        once = antisymmetrize(arr)
        twice = antisymmetrize(once)
        assert all(abs(float(a - b)) < 1e-12
                   for a, b in zip(once.flatten(), twice.flatten()))

    def test_symmetrize_plus_antisymmetrize_rank2(self):
        rng = np.random.default_rng(1)
        arr = np.array(rng.normal(size=(4, 4)), dtype=object)
        total = symmetrize(arr) + antisymmetrize(arr)
        assert all(abs(float(a - b)) < 1e-12
                   for a, b in zip(total.flatten(), arr.flatten()))


class TestNumericEvaluation:
    def test_metric_at_point(self, sphere):
        g = sphere.metric_at({"theta": np.pi / 2, "phi": 1.0})
        assert np.allclose(g, np.diag([1.0, 1.0]))

    def test_inverse_metric_at(self, sphere):
        p = {"theta": 0.7, "phi": 2.0}
        assert np.allclose(sphere.metric_at(p) @ sphere.inverse_metric_at(p),
                           np.eye(2), atol=1e-12)

    def test_check_signature(self, sphere):
        pts = sample_points(sphere.chart, 5, 0)
        assert sphere.check_signature(pts)


class TestBatchEvaluation:
    """Manifold.evaluate against exprkit.evaluate, which substitutes and
    evaluates each expression with sympy (no lambdify)."""

    TOL = 1e-12

    def _assert_oracle(self, M, arr, pts):
        got = M.evaluate(arr, pts)
        assert got.shape == (len(pts),) + arr.shape
        for p, vals in zip(pts, got):
            for idx in np.ndindex(arr.shape):
                want = exprkit.evaluate(sp.sympify(arr[idx]), p, M.params)
                assert abs(vals[idx] - want) <= self.TOL * max(1.0, abs(want)), idx

    def test_taub_nut_christoffel_riemann_and_form(self, tn):
        M = tn.manifold
        pts = sample_points(M.chart, 5, seed=2)
        self._assert_oracle(M, M.christoffel(), pts)
        self._assert_oracle(M, M.riemann(), pts)
        self._assert_oracle(M, tn.forms["fY"].components, pts)

    def test_pseudo_sphere_christoffel(self, ps):
        M = ps.manifold
        self._assert_oracle(M, M.christoffel(), sample_points(M.chart, 5, seed=2))

    def test_constant_array_is_broadcast(self, flat3):
        pts = sample_points(flat3.chart, 4, seed=0)
        g = flat3.evaluate(flat3.metric, pts)
        assert g.shape == (4, 3, 3)
        assert np.array_equal(g, np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_one_field_on_two_parameter_values(self, tn):
        T = tn.manifold.metric_field()
        other = catalog.taub_nut(2.0).manifold
        p = sample_points(tn.manifold.chart, 1, seed=0)[0]
        values = []
        for M in (tn.manifold, other, tn.manifold):
            want = [exprkit.evaluate(e, p, M.params) for e in T.components.flat]
            got = T.at(M, p)
            assert np.allclose(got.flatten(), want, rtol=self.TOL, atol=self.TOL)
            values.append(got)
        assert not np.allclose(values[0], values[1])
