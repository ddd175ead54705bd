import itertools
import json
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from hiddensym import catalog
from hiddensym.killing import (associated_sk, cky_residual,
                               conformal_killing_factor,
                               covariant_constancy_residual,
                               killing_vector_residual, ky_residual,
                               sk_residual, unit_root_check)
from hiddensym.manifold import (GeometryError, TensorField, one_form, sample_points,
                                two_form, vector)


@pytest.fixture(scope="module")
def sphere():
    return catalog.sphere2().manifold


@pytest.fixture(scope="module")
def flat4():
    return catalog.flat(4).manifold


@pytest.fixture(scope="module")
def flat3():
    return catalog.flat(3).manifold


class TestKillingVector:
    def test_sphere_rotation_passes(self, sphere):
        rep = killing_vector_residual(vector([0, 1]), sphere)
        assert rep.passed and rep.max_rel_residual < 1e-9

    def test_non_killing_fails(self, sphere):
        rep = killing_vector_residual(vector([1, 0]), sphere)
        assert not rep.passed

    def test_report_json_schema(self, sphere):
        rep = killing_vector_residual(vector([0, 1]), sphere)
        obj = rep.to_json()
        for key in ("check", "tolerance", "points", "max_residual",
                    "max_relative_residual", "pass", "worst_point"):
            assert key in obj

    def test_seeded_determinism(self, sphere):
        a = killing_vector_residual(vector([0, 1]), sphere, seed=7)
        b = killing_vector_residual(vector([0, 1]), sphere, seed=7)
        assert a.max_rel_residual == b.max_rel_residual
        assert a.worst_point == b.worst_point


class TestConformalKilling:
    def test_dilation_has_factor_two(self, flat4):
        X = vector([sp.Symbol(f"x{i+1}") for i in range(4)])
        factors, rep = conformal_killing_factor(X, flat4)
        assert rep.passed
        assert all(abs(f - 2.0) < 1e-12 for f in factors)

    def test_killing_field_has_zero_factor(self, sphere):
        factors, rep = conformal_killing_factor(vector([0, 1]), sphere)
        assert rep.passed
        assert max(abs(f) for f in factors) < 1e-12


class TestKillingYanoFlat:
    def test_constant_two_form_is_ky_and_parallel(self, flat4):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        assert ky_residual(f, flat4).passed
        assert covariant_constancy_residual(f, flat4).passed
        assert cky_residual(f, flat4).passed

    def test_unit_root_for_symplectic_pair(self, flat4):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        assert unit_root_check(f, flat4).passed

    def test_unequal_blocks_are_not_unit_root(self, flat4):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 2], [0, 0, -2, 0]])
        assert not unit_root_check(f, flat4).passed

    def test_degenerate_form_rejected(self, flat4):
        from hiddensym.manifold import GeometryError
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(GeometryError):
            unit_root_check(f, flat4)

    def test_non_ky_form_fails(self, flat4):
        x1 = sp.Symbol("x1")
        f = two_form([[0, x1 ** 2, 0, 0], [-x1 ** 2, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
        assert not ky_residual(f, flat4).passed


X4 = sp.symbols("x1:5")


def _flat4_cky_form(A, B, C):
    """f_{jk} = A_{jk} + x_j B_k - x_k B_j + x^i C_{ijk} on flat R^4: the
    constant 2-form A, x-flat wedge B and the contraction of the position
    vector x into the 3-form C, entry by entry."""
    return two_form([[A[j][k] + X4[j] * B[k] - X4[k] * B[j]
                      + sum(X4[i] * C[i][j][k] for i in range(4))
                      for k in range(4)] for j in range(4)])


def _levi_civita(size, entries):
    """The totally antisymmetric array with entries[n] at the n-th increasing
    index tuple."""
    out = np.zeros((4,) * size, dtype=int)
    for value, idx in zip(entries, itertools.combinations(range(4), size)):
        for perm in itertools.permutations(range(size)):
            inversions = sum(perm[a] > perm[b] for a in range(size)
                             for b in range(a + 1, size))
            out[tuple(idx[q] for q in perm)] = (-1) ** inversions * value
    return out.tolist()


ZERO2 = [[0] * 4 for _ in range(4)]
ZERO3 = _levi_civita(3, [0] * 4)
E4 = [0, 0, 0, 1]


class TestConformalKillingYanoFlat:
    """Flat-space oracles: in R^n the Killing-Yano 2-forms are A + i_x C, the
    closed conformal Killing-Yano 2-forms are A + x-flat wedge B, and both are
    conformal Killing-Yano."""

    def test_x_wedge_dx4(self, flat4):
        f = _flat4_cky_form(ZERO2, E4, ZERO3)
        assert cky_residual(f, flat4).passed
        assert not ky_residual(f, flat4).passed
        assert not covariant_constancy_residual(f, flat4).passed

    def test_x_into_dx123(self, flat4):
        f = _flat4_cky_form(ZERO2, [0] * 4, _levi_civita(3, [1, 0, 0, 0]))
        assert f.components[0, 1] == X4[2] and f.components[1, 2] == X4[0]
        assert cky_residual(f, flat4).passed
        assert ky_residual(f, flat4).passed
        assert not covariant_constancy_residual(f, flat4).passed

    def test_x1_squared_dx12_fails(self, flat4):
        f = two_form([[0, X4[0] ** 2, 0, 0], [-X4[0] ** 2, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
        rep = cky_residual(f, flat4)
        assert not rep.passed
        assert rep.max_rel_residual == pytest.approx(2 / 3, rel=1e-9)

    def test_dilation_one_form(self, flat4):
        f = one_form(list(X4))
        assert cky_residual(f, flat4).passed
        assert not ky_residual(f, flat4).passed

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=6, max_size=6),
           st.just([0] * 4) | st.lists(st.integers(-2, 2), min_size=4, max_size=4),
           st.lists(st.integers(-2, 2), min_size=4, max_size=4))
    def test_affine_family_is_cky_and_ky_iff_closed_part_vanishes(self, flat4, a, b, c):
        f = _flat4_cky_form(_levi_civita(2, a), b, _levi_civita(3, c))
        assert cky_residual(f, flat4, points=5).passed
        assert ky_residual(f, flat4, points=5).passed == (not any(b))


class TestAssociatedSK:
    def test_square_of_parallel_ky_is_sk(self, flat4):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        K = associated_sk(f, flat4)
        assert K.variance == "dd"
        assert sk_residual(K, flat4).passed

    def test_metric_itself_is_sk(self, sphere):
        assert sk_residual(sphere.metric_field(), sphere).passed

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "fY"])
    def test_taub_nut_square_is_f_ginv_f(self, tn, name):
        """K = F g^-1 F against a numeric inverse of the evaluated metric."""
        M = tn.manifold
        pts = sample_points(M.chart, 20, seed=0)
        F = M.evaluate(tn.forms[name].components, pts)
        want = F @ np.linalg.inv(M.evaluate(M.metric, pts)) @ F
        got = M.evaluate(associated_sk(tn.forms[name], M).components, pts)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_components_zero_by_a_trig_identity_are_exact_zeros(self, tn):
        """Rational normal form leaves these components of f1's square as
        expressions that vanish only by sin^2 + cos^2 = 1; the construction
        makes them exact zeros, so --emit-components leaves them out."""
        K = associated_sk(tn.forms["f1"], tn.manifold).components
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert K[i, j] == 0 and K[j, i] == 0
        assert all(K[i, i] != 0 for i in range(4))


class TestInputGuards:
    """A checker whose identity needs a (skew-)symmetric input rejects one
    without that symmetry, with the same message as before."""

    NEITHER = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_sk_rejects_a_non_symmetric_tensor(self, flat3):
        with pytest.raises(GeometryError, match="^sk_residual requires a symmetric tensor$"):
            sk_residual(TensorField(self.NEITHER, "dd"), flat3)

    @pytest.mark.parametrize("check", [ky_residual, cky_residual], ids=["ky", "cky"])
    def test_rejects_a_non_antisymmetric_tensor(self, flat3, check):
        with pytest.raises(GeometryError,
                           match=f"^{check.__name__} requires an antisymmetric form$"):
            check(two_form(self.NEITHER), flat3)

    def test_guard_looks_at_every_point(self, flat3):
        """f_10 = x1 breaks antisymmetry only at the last point."""
        f = two_form([[0, 0, 0], [sp.Symbol("x1"), 0, 0], [0, 0, 0]])
        pts = [{"x1": 0.0, "x2": 0.1 * k, "x3": 0.0} for k in range(3)]
        pts.append({"x1": 1.0, "x2": 0.0, "x3": 0.0})
        with pytest.raises(GeometryError, match="antisymmetric"):
            ky_residual(f, flat3, points=pts)


class TestTaubNutObjects:
    """Light spot checks; the full manifest is exercised in acceptance."""

    def test_kchi_is_killing(self, tn):
        rep = killing_vector_residual(tn.vectors["kchi"], tn.manifold,
                                      points=5)
        assert rep.passed

    def test_f1_is_parallel(self, tn):
        rep = covariant_constancy_residual(tn.forms["f1"], tn.manifold,
                                           points=5)
        assert rep.passed

    def test_fy_not_parallel(self, tn):
        rep = covariant_constancy_residual(tn.forms["fY"], tn.manifold,
                                           points=5)
        assert not rep.passed


class TestFailClosed:
    def test_non_finite_residual_fails(self, flat3):
        x1 = sp.Symbol("x1")
        pts = sample_points(flat3.chart, 20, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = killing_vector_residual(vector([sp.sqrt(x1 - 5), 0, 0]), flat3,
                                          points=pts)
        assert not rep.passed
        assert rep.worst_point == pts[0]
        assert rep.extra["non_finite_points"] == 20
        obj = json.loads(json.dumps(rep.to_json(), allow_nan=False))
        assert obj["max_residual"] is None and obj["max_relative_residual"] is None
        assert obj["pass"] is False

    def test_first_non_finite_point_is_worst(self, flat3):
        x1 = sp.Symbol("x1")
        pts = sample_points(flat3.chart, 20, 0)
        negative = [p for p in pts if p["x1"] < 0]
        assert 0 < len(negative) < len(pts)
        rep = killing_vector_residual(vector([sp.sqrt(x1), 0, 0]), flat3, points=pts)
        assert not rep.passed
        assert rep.worst_point == negative[0]
        assert rep.extra["non_finite_points"] == len(negative)

    @pytest.mark.parametrize("check, form", [
        (unit_root_check, two_form([[0, 1], [-1, 0]])),
        (cky_residual, one_form([0, sp.sin(sp.Symbol("theta")) ** 2])),
    ], ids=["unit-root", "cky"])
    def test_singular_metric_point_fails_closed(self, sphere, check, form):
        """theta = 0 is a pole of the sphere chart: the metric is singular
        there, and only that point fails."""
        pts = [{"theta": th, "phi": 0.5} for th in (1.0, 0.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check(form, sphere, points=pts)
        assert not rep.passed
        assert rep.extra["non_finite_points"] == 1
        assert rep.worst_point == pts[1]

    def test_empty_point_set_raises(self, flat3):
        with pytest.raises(GeometryError):
            killing_vector_residual(vector([1, 0, 0]), flat3, points=[])

    def test_imaginary_part_raises(self, flat3):
        x1 = sp.Symbol("x1")
        with pytest.raises(GeometryError):
            killing_vector_residual(vector([sp.I * x1, 0, 0]), flat3)
