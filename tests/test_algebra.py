import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import find, given, settings, strategies as st
from sympy import QQ_I

from hiddensym import algebra
from hiddensym.algebra import (FINITE_GENERATORS, INERT_GENERATORS, ONE, AlgebraError,
                               Gauss, UnspecifiedBracketError, bracket,
                               bracket_generators, elem, elem_to_json,
                               grade_absorb, graded_bracket, graded_generators, graded_name,
                               jacobi_check, parse_graded,
                               quaternion_product, quaternion_table_check,
                               structure_table_json)


def elem_add(a, b):
    """a + b as a new map, with no zero entry: the add, copying a, that the
    bilinear extension once made per term."""
    out = dict(a)
    for key, c in b.items():
        if key not in out:
            out[key] = c
        elif s := out[key] + c:
            out[key] = s
        else:
            del out[key]
    return out


def elem_scale(a, coeff):
    """coeff * a; in a field a product of non-zeros is non-zero."""
    return {key: c * coeff for key, c in a.items()} if coeff else {}


def _i_times(name, power=0, scale=1):
    return {(name, power): Gauss(0, scale)}


def digest(obj) -> str:
    """First 16 hex digits of the sha256 of the compact sorted JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parts(z) -> tuple[str, str]:
    return str(z.x), str(z.y)


def _wrong_product(z, w):
    """Gauss multiplication with the -b*d term of (a + ib)(c + id) dropped."""
    return Gauss(z.x * w.x, z.x * w.y + z.y * w.x)


def disagreements(z: Gauss, w: Gauss, mul=Gauss.__mul__) -> list[str]:
    """The operations on which z and w, as Gauss, disagree with sympy's QQ_I."""
    qz, qw = QQ_I(z.x, z.y), QQ_I(w.x, w.y)
    out = [op for op, mine, theirs in (("+", z + w, qz + qw), ("*", mul(z, w), qz * qw),
                                       ("-", -z, -qz)) if _parts(mine) != _parts(theirs)]
    return out + (["bool"] if bool(z) != bool(qz) else [])


_part = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=12)
gaussians = st.builds(Gauss, _part, _part)


class TestGaussOracle:
    """Gauss against sympy's QQ_I, the coefficient type it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(gaussians, gaussians)
    def test_agrees_with_qq_i(self, z, w):
        assert disagreements(z, w) == []

    def test_zero_is_false(self):
        assert not Gauss(0, 0) and not Gauss(Fraction(0), 0)
        assert Gauss(0, Fraction(1, 3)) and Gauss(-1, 0)

    def test_no_tuple_repetition(self):
        with pytest.raises(TypeError):
            2 * Gauss(1, 0)

    def test_planted_wrong_product_is_seen(self):
        z, w = find(st.tuples(gaussians, gaussians),
                    lambda zw: disagreements(*zw, mul=_wrong_product) != [])
        assert disagreements(z, w, mul=_wrong_product) == ["*"]
        assert disagreements(Gauss(0, 1), Gauss(0, 1), mul=_wrong_product) == ["*"]


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
        c = Gauss(num, 1)
        lhs = bracket(elem_scale(elem(a, power), c), elem(b))
        rhs = elem_scale(bracket(elem(b), elem_scale(elem(a, power), c)), -ONE)
        assert lhs == rhs


def _bracket_by_copies(a, b, table):
    """The bilinear extension as it was once written, the oracle for the one
    that accumulates in place: each term scaled into a new map and added to
    a copy of the result."""
    out = {}
    for (ga, pa), ca in a.items():
        for (gb, pb), cb in b.items():
            coeff = ca * cb
            out = elem_add(out, {(g, p + pa + pb): c * coeff
                                     for (g, p), c in table(ga, gb).items()})
    return out


# small parts, so that products of different terms often coincide and cancel
_small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
_TABLES = {"finite": (bracket_generators, [g for g in FINITE_GENERATORS
                                           if g not in INERT_GENERATORS]),
           "graded": (graded_bracket, graded_generators(4)),
           "quaternion": (quaternion_product, ["I", "Q1", "Q2", "Q3"])}


def _elements(names):
    return st.dictionaries(st.tuples(st.sampled_from(names), st.integers(0, 3)),
                           st.builds(Gauss, _small, _small).filter(bool), max_size=5)


class TestInPlaceBracket:
    """bracket accumulates every term into one map; the oracle copies the
    map per term."""

    @pytest.mark.parametrize("which", list(_TABLES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_the_copying_oracle(self, which, data):
        table, names = _TABLES[which]
        a = data.draw(_elements(names))
        b = data.draw(st.one_of(_elements(names), st.just(a)))
        got = bracket(a, b, table)
        assert got == _bracket_by_copies(a, b, table)
        assert all(got.values())        # no zero entry is left

    def test_cancelling_terms_leave_no_entry(self):
        a = {("J1", 0): ONE, ("J2", 1): Gauss(Fraction(1, 2), -1)}
        assert bracket(a, a) == {} == _bracket_by_copies(a, a, bracket_generators)
        b, c = elem_add(elem("J1"), elem("J2")), elem_add(elem("J1", 1), elem("J2", 1))
        assert bracket(b, c) == {}       # i J3 B - i J3 B


class TestPlantedTableFaults:
    """A wrong row of the one rule table is seen by the exact checks, which
    name a case it breaks."""

    def test_flipped_epsilon_sign(self, monkeypatch):
        """[J_i, K_j] = -i eps_ijk K_k."""
        monkeypatch.setitem(algebra._RULES, "JK", ("K", 0, -1))
        jacobi, absorb = jacobi_check(0, table=bracket_generators), grade_absorb(1)
        assert not jacobi.passed and not absorb.passed
        assert jacobi.failures[0] == ("J1", "J2", "K1", {"K2": {"0": ["2", "0"]}})
        assert absorb.failures[0] == ("A1_0", "B2_2", {"B3_2": {"0": ["0", "-1"]}},
                                      {"B3_2": {"0": ["0", "1"]}})

    def test_kk_power_one(self, monkeypatch):
        """[K_i, K_j] = i eps_ijk J_k B: Jacobi on K, K, Q then mixes B^1 and B^2
        terms, and the lifted [B_2, B_2] lands on grade 2, not 4."""
        monkeypatch.setitem(algebra._RULES, "KK", ("J", 1, 1))
        jacobi, absorb = jacobi_check(0, table=bracket_generators), grade_absorb(1)
        assert not jacobi.passed and not absorb.passed
        assert jacobi.failures[0][:3] == ("K1", "K2", "Q1")
        assert absorb.failures[0] == ("B1_2", "B2_2", {"A3_2": {"0": ["0", "1"]}},
                                      {"A3_4": {"0": ["0", "1"]}})


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
    return elem_scale(out, Gauss(2, 0)) if {a[0], b[0]} == {"J", "Q"} else out


class TestStructuralInvariants:
    FINITE = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]

    def test_antisymmetry_exhaustive(self):
        """[a,b] + [b,a] = 0 structurally for every pair of the finite table
        and of the graded one up to grade 8."""
        pairs = [(table, a, b) for pool, table in ((self.FINITE, bracket_generators),
                                                   (graded_generators(8), graded_bracket))
                 for a, b in itertools.product(pool, repeat=2)]
        assert len(pairs) == 810
        assert [(a, b) for table, a, b in pairs if elem_add(table(a, b), table(b, a))] == []

    def test_centrality(self):
        """[x, B^k y] = B^k [x, y] for every finite-table pair and 0 <= k <= 4."""
        cases = [(a, b, k) for a, b in itertools.product(self.FINITE, repeat=2)
                 for k in range(5)]
        assert len(cases) == 405
        assert [(a, b, k) for a, b, k in cases if bracket(elem(a), elem(b, k))
                != {(g, p + k): c for (g, p), c in bracket_generators(a, b).items()}] == []

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
        out = elem_to_json(elem_scale(elem("J1", 2), Gauss(Fraction(1, 3), -2)))
        assert out == {"J1": {"2": ["1/3", "-2"]}}

    def test_structure_table_pinned(self):
        assert digest(structure_table_json(2)) == "1a6229263b96f596"
        assert digest(structure_table_json(10)) == "cf7a5f05b6f74094"
