import json
import warnings

import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog
from hiddensym.killing import (associated_sk, cky_residual,
                               conformal_killing_factor,
                               covariant_constancy_residual,
                               killing_vector_residual, ky_residual,
                               sk_residual, unit_root_check)
from hiddensym.manifold import GeometryError, sample_points, two_form, vector


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


class TestAssociatedSK:
    def test_square_of_parallel_ky_is_sk(self, flat4):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        K = associated_sk(f, flat4)
        assert K.variance == "dd"
        assert sk_residual(K, flat4).passed

    def test_metric_itself_is_sk(self, sphere):
        assert sk_residual(sphere.metric_field(), sphere).passed


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

    def test_empty_point_set_raises(self, flat3):
        with pytest.raises(GeometryError):
            killing_vector_residual(vector([1, 0, 0]), flat3, points=[])

    def test_imaginary_part_raises(self, flat3):
        x1 = sp.Symbol("x1")
        with pytest.raises(GeometryError):
            killing_vector_residual(vector([sp.I * x1, 0, 0]), flat3)
