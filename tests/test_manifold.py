import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from hiddensym import catalog, exprkit, manifold
from hiddensym.manifold import (Chart, GeometryError, Manifold, TensorField,
                                _covariant, _tangent, antisymmetrize, covariant_derivative,
                                exterior_derivative, lie_bracket, lower_index,
                                one_form, raise_index, sample_points,
                                symmetrize, two_form, vector)
from hiddensym.spin import spinor_bank
from symbolic_geometry import symbolic_christoffel, symbolic_ricci, symbolic_riemann


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
        assert all(e == 0 for e in symbolic_christoffel(flat3).flatten())

    def test_sphere_christoffels(self, sphere):
        th = sp.Symbol("theta")
        gamma = symbolic_christoffel(sphere)
        assert sp.simplify(gamma[0, 1, 1] + sp.sin(th) * sp.cos(th)) == 0
        assert sp.simplify(gamma[1, 0, 1] - sp.cos(th) / sp.sin(th)) == 0
        # index symmetry
        assert gamma[1, 0, 1] == gamma[1, 1, 0]

    def test_metric_is_covariantly_constant(self, sphere):
        pts = sample_points(sphere.chart, 5, seed=0)
        nabla = covariant_derivative(sphere.metric_field(), sphere, pts)
        assert nabla.components.shape == (5, 2, 2, 2)
        assert np.max(np.abs(nabla.components)) < 1e-14


class TestCurvature:
    def test_flat_riemann_vanishes(self, flat3):
        assert all(e == 0 for e in symbolic_riemann(flat3).flatten())

    def test_sphere_is_einstein_with_constant_one(self, sphere):
        ric = symbolic_ricci(sphere)
        diff = ric - np.array(sphere.metric.tolist(), dtype=object)
        assert all(sp.simplify(e) == 0 for e in diff.flatten())

    def test_riemann_antisymmetry_in_last_pair(self, sphere):
        R = symbolic_riemann(sphere)
        n = sphere.dim
        for idx in np.ndindex((n,) * 4):
            r, s, m, nu = idx
            assert sp.simplify(R[r, s, m, nu] + R[r, s, nu, m]) == 0


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


class TestNumericGeometry:
    """The numeric Christoffel jet and the curvature formed from it, against
    the symbolic pipeline and the identities every Levi-Civita curvature
    obeys."""

    def test_matches_symbolic_christoffel_and_riemann(self, entry):
        M = entry.manifold
        pts = sample_points(M.chart, 5, seed=2)
        want = M.evaluate(_tangent(symbolic_christoffel(M), M.coord_symbols), pts)
        assert _rel(M.christoffel(pts), want) < 1e-12          # values and partials
        assert _rel(M.riemann(pts), M.evaluate(symbolic_riemann(M), pts)) < 1e-12

    def test_repeated_batch_returns_the_same_array(self):
        M = catalog.flat(3).manifold
        pts = sample_points(M.chart, 3, seed=0)
        gamma = M.christoffel(pts)
        assert M.christoffel([dict(p) for p in pts]) is gamma
        assert not gamma.flags.writeable
        for seed in range(1, 17):       # the cache keeps the last 16 batches
            M.christoffel(sample_points(M.chart, 3, seed=seed))
        assert M.christoffel(pts) is not gamma

    def test_first_bianchi_identity(self, entry):
        M = entry.manifold
        R = M.riemann(sample_points(M.chart, 5, seed=3))
        cyclic = R + np.einsum("prmns->prsmn", R) + np.einsum("prnsm->prsmn", R)
        assert np.max(np.abs(cyclic)) <= 1e-12 * max(1.0, np.max(np.abs(R)))

    def test_second_bianchi_identity(self, entry):
        """grad_l R^r_{smn} + grad_m R^r_{snl} + grad_n R^r_{slm} = 0, with the
        partials of the numeric R by central differences."""
        M, h = entry.manifold, 1e-5
        pts = sample_points(M.chart, 5, seed=3)

        def shifted(c, d):
            return M.riemann([{**p, c: p[c] + d} for p in pts])
        partials = [(shifted(c, h) - shifted(c, -h)) / (2 * h) for c in M.chart.coords]
        jet = np.stack(partials + [M.riemann(pts)], axis=1)
        D = _covariant(jet, M.christoffel(pts)[:, -1], "uddd")
        cyclic = D + np.einsum("pmrsnl->plrsmn", D) + np.einsum("pnrslm->plrsmn", D)
        assert np.max(np.abs(cyclic)) < 1e-6 * max(1.0, np.max(np.abs(D)))

    def test_ricci_is_symmetric(self, entry):
        M = entry.manifold
        ric = M.ricci(sample_points(M.chart, 5, seed=3))
        assert np.max(np.abs(ric - np.swapaxes(ric, 1, 2))) <= 1e-12 * max(
            1.0, np.max(np.abs(ric)))


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
        g = sphere.evaluate(sphere.metric, [{"theta": np.pi / 2, "phi": 1.0}])[0]
        assert np.allclose(g, np.diag([1.0, 1.0]))

    def test_inverse_metric_at(self, sphere):
        p = {"theta": 0.7, "phi": 2.0}
        g = sphere.evaluate(sphere.metric, [p])[0]
        assert np.allclose(g @ sphere.inverse_metric_values([p])[0], np.eye(2), atol=1e-12)

    def test_symbolic_inverse_times_metric_is_identity(self, entry):
        M = entry.manifold
        pts = sample_points(M.chart, 20, seed=0)
        product = M.evaluate(M.inverse_metric_matrix(), pts) @ M.evaluate(M.metric, pts)
        assert np.max(np.abs(product - np.eye(M.dim))) < 1e-12

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
        self._assert_oracle(M, symbolic_christoffel(M), pts)
        self._assert_oracle(M, symbolic_riemann(M), pts)
        self._assert_oracle(M, tn.forms["fY"].components, pts)

    def test_pseudo_sphere_christoffel(self, ps):
        M = ps.manifold
        self._assert_oracle(M, symbolic_christoffel(M), sample_points(M.chart, 5, seed=2))

    def test_constant_array_is_broadcast(self, flat3):
        pts = sample_points(flat3.chart, 4, seed=0)
        g = flat3.evaluate(flat3.metric, pts)
        assert g.shape == (4, 3, 3)
        assert np.array_equal(g, np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_constant_and_varying_entries_mixed(self, tn):
        """Constants, a parameter-only entry and coordinate-dependent entries
        in one array: the compiled function returns some as scalars."""
        r, th, m = sp.symbols("r theta m")
        arr = np.array([[0, r, sp.Rational(1, 3)], [2 * m, sp.sin(th) * r, 1]], dtype=object)
        self._assert_oracle(tn.manifold, arr, sample_points(tn.manifold.chart, 4, seed=1))

    def test_one_field_on_two_parameter_values(self, tn):
        T = tn.manifold.metric_field()
        other = catalog.taub_nut(2.0).manifold
        p = sample_points(tn.manifold.chart, 1, seed=0)[0]
        values = []
        for M in (tn.manifold, other, tn.manifold):
            want = [exprkit.evaluate(e, p, M.params) for e in T.components.flat]
            got = M.evaluate(T.components, [p])[0]
            assert np.allclose(got.flatten(), want, rtol=self.TOL, atol=self.TOL)
            values.append(got)
        assert not np.allclose(values[0], values[1])

    def test_jet_is_the_evaluated_symbolic_tangent(self, tn):
        """The 1- and 2-jets of every catalog metric, vector and form, of the
        Taub-NUT frame and of a complex spinor bank equal the evaluated
        symbolic tangents; the 1-jet is the 2-jet's value row."""
        bank = [psi * sp.exp(sp.I * sp.Symbol("phi")) for psi in spinor_bank(tn.manifold, 3)]
        cases = [(tn.manifold, tn.frame, float), (tn.manifold, bank, complex)]
        for name in catalog.names():
            e = tn if name == "taub-nut" else catalog.get(name)
            cases += [(e.manifold, e.manifold.metric.tolist(), float)]
            cases += [(e.manifold, T.components, float)
                      for T in (*e.vectors.values(), *e.forms.values())]
        for M, arr, dtype in cases:
            arr = np.array(arr, dtype=object)
            pts = sample_points(M.chart, 3, seed=1)
            xs = M.coord_symbols
            want = M.evaluate(_tangent(_tangent(arr, xs), xs), pts, dtype)
            scale = max(1.0, np.max(np.abs(want)))
            for order, oracle in ((2, want), (1, want[:, -1])):
                jet = M.evaluate(arr, pts, dtype, order=order)
                assert jet.shape == oracle.shape
                assert np.max(np.abs(jet - oracle)) <= self.TOL * scale

    def test_jets_differentiate_nothing_symbolically(self, monkeypatch):
        """Jets and the geometry built on them never ask sympy for a derivative."""
        e = catalog.taub_nut()

        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic differentiation on the numeric path")
        for owner, name in ((sp, "diff"), (sp.Expr, "diff"), (manifold, "_tangent")):
            monkeypatch.setattr(owner, name, forbidden)
        pts = sample_points(e.manifold.chart, 3, seed=0)
        e.manifold.riemann(pts)
        covariant_derivative(e.forms["fY"], e.manifold, pts)
        e.manifold.evaluate(e.frame, pts, order=2)

    def test_equal_components_are_compiled_once(self, monkeypatch):
        """The compiled function is cached under the components' content and
        serves every order: two fields with equal components, at orders 0, 1
        and 2, cost one lambdify."""
        M = catalog.sphere2().manifold
        pts = sample_points(M.chart, 3, seed=0)
        M.christoffel(pts)
        calls = []
        lambdify = sp.lambdify

        def counting(*args, **kwargs):
            calls.append(args)
            return lambdify(*args, **kwargs)
        monkeypatch.setattr(sp, "lambdify", counting)
        theta = sp.Symbol("theta")
        for _ in range(2):
            covariant_derivative(one_form([sp.sin(theta) ** 3, 0]), M, pts)
            for order in (0, 1, 2):
                M.evaluate(one_form([sp.sin(theta) ** 3, 0]).components, pts, order=order)
        assert len(calls) == 1


_X, _Y = sp.symbols("x y")
# Each case applies one jet rule to jets u = x^2 y + 1 and w = x y, or to one
# of them and a constant; `f` is numpy for the jets and sympy for the oracle.
_RULE_CASES = {
    "add": lambda f, u, w: [u + w, u + 3, 3 + u],
    "subtract": lambda f, u, w: [u - w, u - 3, 3 - u],
    "multiply": lambda f, u, w: [u * w, 3 * u, u * 3],
    "true_divide": lambda f, u, w: [u / w, 3 / u, u / 3],
    "power": lambda f, u, w: [u ** 3, u ** -1.5, u ** w, 2 ** w],
    "negative": lambda f, u, w: [-u],
    "positive": lambda f, u, w: [+u],
    "sin": lambda f, u, w: [f.sin(u)],
    "cos": lambda f, u, w: [f.cos(u)],
    "tan": lambda f, u, w: [f.tan(u)],
    "exp": lambda f, u, w: [f.exp(u)],
    "log": lambda f, u, w: [f.log(u)],
    "sqrt": lambda f, u, w: [f.sqrt(u)],
    "sinh": lambda f, u, w: [f.sinh(u)],
    "cosh": lambda f, u, w: [f.cosh(u)],
    "tanh": lambda f, u, w: [f.tanh(u)],
}


class TestJets:
    """Forward-mode jets against sympy's derivatives, evaluated."""

    TOL = 1e-12

    @pytest.fixture(scope="class")
    def plane(self):
        chart = Chart(("x", "y"), {"x": (0.5, 1.5), "y": (0.5, 1.5)})
        return Manifold(chart, [[1, 0], [0, 1]])

    @staticmethod
    def _oracle(M, exprs, pts, order):
        arr = np.array(exprs, dtype=object)
        for _ in range(order):
            arr = _tangent(arr, M.coord_symbols)
        return np.moveaxis(M.evaluate(arr, pts), -1, 0)

    def _rule_error(self, M, case, order):
        """Largest relative difference between the case's jets, made by
        applying it to seeded Jets, and the evaluated symbolic tangents."""
        pts = sample_points(M.chart, 4, seed=5)
        x, y = (np.array([p[c] for p in pts]) for c in ("x", "y"))
        seeds = np.eye(2)[:, :, None] * np.ones(len(pts))
        h = np.zeros((2, 2, len(pts))) if order == 2 else None
        X, Y = manifold.Jet(x, seeds[0], h), manifold.Jet(y, seeds[1], h)
        got = np.array([j.stacked() for j in case(np, X * X * Y + 1, X * Y)])
        want = self._oracle(M, case(sp, _X ** 2 * _Y + 1, _X * _Y), pts, order)
        return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("rule", sorted(_RULE_CASES))
    @pytest.mark.parametrize("order", [1, 2])
    def test_rule_matches_symbolic_derivatives(self, plane, rule, order):
        assert self._rule_error(plane, _RULE_CASES[rule], order) <= self.TOL

    def test_every_rule_is_tested(self):
        assert set(manifold._JET_RULES) == {getattr(np, name) for name in _RULE_CASES}

    def test_planted_product_rule_error_fails(self, plane, monkeypatch):
        """Dropping the cross term f_j g_i from the product rule's Hessian
        must make the oracle comparison fail."""
        def dropped_cross_term(a, b):
            if not (isinstance(a, manifold.Jet) and isinstance(b, manifold.Jet)):
                return manifold._multiply(a, b)
            h = None if a.h is None else a.v * b.h + b.v * a.h + a.g[:, None] * b.g[None]
            return manifold.Jet(a.v * b.v, a.v * b.g + b.v * a.g, h)
        monkeypatch.setitem(manifold._JET_RULES, np.multiply, dropped_cross_term)
        assert self._rule_error(plane, _RULE_CASES["multiply"], 1) <= self.TOL
        assert self._rule_error(plane, _RULE_CASES["multiply"], 2) > 1e-3

    @given(st.recursive(
        st.sampled_from([_X, _Y, sp.Rational(3, 2), sp.Integer(-2)]),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from([
                lambda e: sp.sin(e), lambda e: sp.cos(e), lambda e: sp.tanh(e),
                lambda e: sp.tan(sp.sin(e)), lambda e: sp.exp(sp.sin(e)),
                lambda e: sp.sinh(sp.cos(e)), lambda e: sp.cosh(sp.sin(e)),
                lambda e: sp.log(2 + sp.sin(e)), lambda e: sp.sqrt(2 + sp.cos(e)),
                lambda e: -e, lambda e: e ** 2, lambda e: (2 + sp.cos(e)) ** sp.Rational(-3, 2)]),
                inner).map(lambda t: t[0](t[1])),
            st.tuples(st.sampled_from([
                lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                lambda a, b: a / (2 + sp.sin(b)),
                lambda a, b: (2 + sp.sin(a)) ** (b / (1 + b ** 2))]),
                inner, inner).map(lambda t: t[0](t[1], t[2]))),
        max_leaves=6))
    @settings(max_examples=40, deadline=None)
    def test_random_compositions_match_symbolic_derivatives(self, expr):
        chart = Chart(("x", "y"), {"x": (0.5, 1.5), "y": (0.5, 1.5)})
        M = Manifold(chart, [[1, 0], [0, 1]])
        pts = sample_points(chart, 3, seed=2)
        want = self._oracle(M, [expr], pts, 2)[0]
        scale = max(1.0, np.max(np.abs(want)))
        for order, oracle in ((2, want), (1, want[:, -1])):
            jet = M.evaluate([expr], pts, order=order)[..., 0]
            assert np.max(np.abs(jet - oracle)) <= 1e-10 * scale

    def test_ufunc_without_a_rule_raises(self, plane):
        pts = sample_points(plane.chart, 2, seed=0)
        assert np.all(np.isfinite(plane.evaluate([sp.atan(_X)], pts)))
        with pytest.raises(GeometryError, match="arctan"):
            plane.evaluate([sp.atan(_X)], pts, order=1)

    def test_order_above_two_raises(self, plane):
        with pytest.raises(ValueError, match="order 3"):
            plane.evaluate([_X ** 4], sample_points(plane.chart, 2, seed=0), order=3)
