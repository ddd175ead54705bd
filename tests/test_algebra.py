import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ_I, Rational

from hiddensym.algebra import (ONE, AlgebraError, UnspecifiedBracketError,
                               antisymmetry_check, bracket,
                               bracket_generators, centrality_check, elem,
                               elem_add, elem_scale, elem_to_json,
                               grade_absorb, graded_bracket, graded_name,
                               jacobi_check, parse_graded,
                               quaternion_product, quaternion_table_check,
                               structure_table_json)


def _i_times(name, power=0, scale=1):
    return {(name, power): QQ_I(0, scale)}


def digest(obj) -> str:
    """First 16 hex digits of the sha256 of the compact sorted JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestFiniteTable:
    def test_jj(self):
        assert bracket_generators("J1", "J2") == _i_times("J3")

    def test_jk(self):
        assert bracket_generators("J1", "K2") == _i_times("K3")

    def test_kk_carries_b_squared(self):
        assert bracket_generators("K1", "K2") == _i_times("J3", power=2)

    def test_jq(self):
        assert bracket_generators("J1", "Q2") == _i_times("Q3")

    def test_kq_carries_b(self):
        assert bracket_generators("K1", "Q2") == _i_times("Q3", power=1)

    def test_qq_from_quaternion_units(self):
        assert bracket_generators("Q1", "Q2") == _i_times("Q3", scale=2)

    def test_self_bracket_vanishes(self):
        assert bracket_generators("J1", "J1") == {}

    def test_epsilon_sign(self):
        assert bracket_generators("J2", "J1") == _i_times("J3", scale=-1)

    def test_unknown_generator(self):
        with pytest.raises(AlgebraError):
            bracket_generators("J4", "J1")

    def test_inert_generators_raise(self):
        for pair in (("J1", "QY"), ("P4", "K2"), ("QY", "P4")):
            with pytest.raises(UnspecifiedBracketError):
                bracket_generators(*pair)


class TestBilinearExtension:
    def test_linear_combination(self):
        a = elem_add(elem("J1"), elem("J2"))
        b = elem("J3")
        out = bracket(a, b)
        expected = elem_add(_i_times("J2", scale=-1), _i_times("J1"))
        assert out == expected

    def test_b_coefficients_multiply(self):
        out = bracket(elem("K1", 3), elem("K2", 1))
        assert out == _i_times("J3", power=6)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["J1", "J2", "J3", "K1", "K2", "K3", "Q1"]),
           st.sampled_from(["J1", "J2", "J3", "K1", "K2", "K3", "Q2"]),
           st.integers(min_value=-5, max_value=5),
           st.integers(min_value=0, max_value=4))
    def test_antisymmetry_property(self, a, b, num, power):
        c = QQ_I(num, 1)
        lhs = bracket(elem_scale(elem(a, power), c), elem(b))
        rhs = elem_scale(bracket(elem(b), elem_scale(elem(a, power), c)), -ONE)
        assert lhs == rhs


class TestQuaternionUnits:
    def test_square_is_identity(self):
        assert quaternion_product("Q1", "Q1") == {("I", 0): ONE}

    def test_cyclic_product(self):
        assert quaternion_product("Q1", "Q2") == _i_times("Q3")
        assert quaternion_product("Q2", "Q1") == _i_times("Q3", scale=-1)

    def test_identity_element(self):
        assert quaternion_product("I", "Q2") == elem("Q2")

    def test_full_table_report(self):
        rep = quaternion_table_check()
        assert rep.passed
        assert rep.cases == 36
        assert rep.failures == []
        assert digest(rep.to_json()) == "40aa5d736d6fea5e"


class TestGrading:
    def test_graded_names(self):
        assert graded_name("A", 1, 0) == "A1_0"
        assert parse_graded("B2_4") == ("B", 2, 4)

    def test_bad_grades_rejected(self):
        with pytest.raises(AlgebraError):
            graded_name("A", 1, 3)
        with pytest.raises(AlgebraError):
            graded_name("B", 1, 0)

    @pytest.mark.parametrize("name", ["C1_2", "B7_2", "A12", "A1_3", "B1_0",
                                      "A1_02", "A+1_2", "A1_2_4", ""])
    def test_malformed_graded_names_rejected(self, name):
        with pytest.raises(AlgebraError):
            parse_graded(name)
        with pytest.raises(AlgebraError):
            graded_bracket("A1_2", name)
        with pytest.raises(AlgebraError):
            graded_bracket(name, "C2_2")

    def test_aa_bracket(self):
        assert graded_bracket("A1_0", "A2_0") == _i_times("A3_0")

    def test_ab_bracket_grade_addition(self):
        assert graded_bracket("A1_2", "B2_2") == _i_times("B3_4")

    def test_bb_bracket(self):
        assert graded_bracket("B1_2", "B2_2") == _i_times("A3_4")

    def test_epsilon_degenerate_index(self):
        assert graded_bracket("A1_2", "B1_2") == {}

    def test_absorption_matches_table(self):
        rep = grade_absorb(4)
        assert rep.passed and rep.failures == []


def _doubled_jq(a, b):
    """bracket_generators with [J_i, Q_j] = -[Q_j, J_i] doubled."""
    out = bracket_generators(a, b)
    return elem_scale(out, 2 * ONE) if {a[0], b[0]} == {"J", "Q"} else out


class TestStructuralInvariants:
    def test_antisymmetry_exhaustive(self):
        rep = antisymmetry_check()
        assert rep.passed
        assert rep.cases == 810

    def test_centrality(self):
        rep = centrality_check()
        assert rep.passed
        assert rep.cases == 405

    def test_jacobi_finite_table(self):
        rep = jacobi_check(0, table=bracket_generators)
        assert rep.passed
        assert rep.cases == 165     # C(9+2, 3) triples over J/K/Q
        assert digest(rep.to_json()) == "7d5d2b287524b255"

    def test_jacobi_notices_a_broken_table(self):
        rep = jacobi_check(0, table=_doubled_jq)
        assert not rep.passed
        assert rep.cases == 165
        assert len(rep.failures) == 24

    def test_jacobi_graded_small(self):
        rep = jacobi_check(3)
        assert rep.passed and rep.cases > 0


class TestTableEmission:
    def test_structure_table_shape(self):
        doc = structure_table_json(1)
        assert "[J1,J2]" in doc["finite"]
        assert "[A1_0,A2_0]" in doc["graded"]
        assert doc["inert"] == ["QY", "P4"]

    def test_json_serializable(self):
        json.dumps(structure_table_json(1))

    def test_elem_to_json_fractions_as_strings(self):
        out = elem_to_json(elem_scale(elem("J1", 2), QQ_I(Rational(1, 3), -2)))
        assert out == {"J1": {"2": ["1/3", "-2"]}}

    def test_structure_table_pinned(self):
        assert digest(structure_table_json(2)) == "1a6229263b96f596"
        assert digest(structure_table_json(10)) == "cf7a5f05b6f74094"
