"""Exact-arithmetic graded algebra engine.

Implements the bosonic symmetry algebra generated by the angular-momentum
operators J_i, the Runge-Lenz-type operators K_i, the quaternionic units
Q_i, and a central indeterminate B:

    [J_i, J_j] = i eps_{ijk} J_k          [J_i, K_j] = i eps_{ijk} K_k
    [K_i, K_j] = i eps_{ijk} J_k B^2
    [J_i, Q_j] = i eps_{ijk} Q_k          [K_i, Q_j] = i eps_{ijk} Q_k B

together with the grade-absorption map

    A^i_{2n} = J_i B^n,   B^i_{2n+2} = K_i B^n,

whose image is an infinite-dimensional twisted loop algebra:

    [A^i_{2n}, A^j_{2m}]     = i eps_{ijk} A^k_{2(n+m)}
    [A^i_{2n}, B^j_{2m+2}]   = i eps_{ijk} B^k_{2(n+m+1)}
    [B^i_{2n+2}, B^j_{2m+2}] = i eps_{ijk} A^k_{2(n+m+2)}

All coefficients live in Q[i][B] (exact rationals, formal imaginary unit,
central indeterminate B); every check below is zero-tolerance.

Q^Y and P4 are carried as inert generators: no bracket relations are
specified for them, so they are excluded from the Jacobi suites and any
attempt to bracket them raises UnspecifiedBracketError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction


class AlgebraError(Exception):
    pass


class UnspecifiedBracketError(AlgebraError):
    """Raised for generator pairs with no stated bracket relation."""


# ---------------------------------------------------------------------------
# coefficients: Q[i][B] as {B-power: (Fraction real, Fraction imag)}

GR = tuple  # (Fraction, Fraction) = re + i*im
BPoly = dict  # {int b_power: GR}, zero coefficients omitted


def gr(re=0, im=0) -> GR:
    return (Fraction(re), Fraction(im))


def gr_add(a: GR, b: GR) -> GR:
    return (a[0] + b[0], a[1] + b[1])


def gr_mul(a: GR, b: GR) -> GR:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gr_neg(a: GR) -> GR:
    return (-a[0], -a[1])


def gr_is_zero(a: GR) -> bool:
    return a[0] == 0 and a[1] == 0


def poly(power: int = 0, coeff: GR | None = None) -> BPoly:
    c = coeff if coeff is not None else gr(1)
    return {} if gr_is_zero(c) else {power: c}


def poly_add(p: BPoly, q: BPoly) -> BPoly:
    out = dict(p)
    for k, c in q.items():
        s = gr_add(out.get(k, gr()), c)
        if gr_is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def poly_mul(p: BPoly, q: BPoly) -> BPoly:
    out: BPoly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            s = gr_add(out.get(k1 + k2, gr()), gr_mul(c1, c2))
            if gr_is_zero(s):
                out.pop(k1 + k2, None)
            else:
                out[k1 + k2] = s
    return out


def poly_neg(p: BPoly) -> BPoly:
    return {k: gr_neg(c) for k, c in p.items()}


# ---------------------------------------------------------------------------
# elements: finite linear combinations {generator name: BPoly}

Element = dict  # {str: BPoly}


def elem(name: str, coeff: BPoly | None = None) -> Element:
    c = coeff if coeff is not None else poly()
    return {name: c} if c else {}


def elem_add(a: Element, b: Element) -> Element:
    out = dict(a)
    for g, p in b.items():
        s = poly_add(out.get(g, {}), p)
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def elem_scale(a: Element, p: BPoly) -> Element:
    out = {}
    for g, q in a.items():
        s = poly_mul(p, q)
        if s:
            out[g] = s
    return out


def elem_neg(a: Element) -> Element:
    return {g: poly_neg(p) for g, p in a.items()}


def elem_is_zero(a: Element) -> bool:
    return not a


def elem_to_json(a: Element) -> dict:
    return {g: {str(k): [str(c[0]), str(c[1])] for k, c in sorted(p.items())}
            for g, p in sorted(a.items())}


EPSILON = {}
for _p, _s in ((("1", "2", "3"), 1), (("2", "3", "1"), 1), (("3", "1", "2"), 1),
               (("2", "1", "3"), -1), (("3", "2", "1"), -1), (("1", "3", "2"), -1)):
    EPSILON[_p] = _s

FINITE_GENERATORS = ("J1", "J2", "J3", "K1", "K2", "K3",
                     "Q1", "Q2", "Q3", "QY", "P4")
INERT_GENERATORS = ("QY", "P4")


def _eps_term(i: str, j: str, family: str, power: int) -> Element:
    """i * eps_{ijk} X_k * B^power, summed over k."""
    out: Element = {}
    for k in "123":
        s = EPSILON.get((i, j, k))
        if s:
            out = elem_add(out, elem(family + k, poly(power, gr(0, s))))
    return out


def bracket_generators(a: str, b: str) -> Element:
    """Bracket of two finite-table generators, as a table lookup."""
    for name in (a, b):
        if name not in FINITE_GENERATORS:
            raise AlgebraError(f"unknown generator {name!r}")
    if a in INERT_GENERATORS or b in INERT_GENERATORS:
        raise UnspecifiedBracketError(
            f"no bracket relation is specified for ({a}, {b})")
    fa, ia = a[0], a[1]
    fb, ib = b[0], b[1]
    if fa == "J" and fb == "J":
        return _eps_term(ia, ib, "J", 0)
    if fa == "J" and fb == "K":
        return _eps_term(ia, ib, "K", 0)
    if fa == "K" and fb == "J":
        return elem_neg(_eps_term(ib, ia, "K", 0))
    if fa == "K" and fb == "K":
        return _eps_term(ia, ib, "J", 2)
    if fa == "J" and fb == "Q":
        return _eps_term(ia, ib, "Q", 0)
    if fa == "Q" and fb == "J":
        return elem_neg(_eps_term(ib, ia, "Q", 0))
    if fa == "K" and fb == "Q":
        return _eps_term(ia, ib, "Q", 1)
    if fa == "Q" and fb == "K":
        return elem_neg(_eps_term(ib, ia, "Q", 1))
    if fa == "Q" and fb == "Q":
        # induced by the associative quaternion table: [Q_i,Q_j] = 2i eps Q_k
        out: Element = {}
        for k in "123":
            s = EPSILON.get((ia, ib, k))
            if s:
                out = elem_add(out, elem("Q" + k, poly(0, gr(0, 2 * s))))
        return out
    raise UnspecifiedBracketError(
        f"no bracket relation is specified for ({a}, {b})")


def bracket(a: Element, b: Element,
            table=bracket_generators) -> Element:
    """Bilinear, B-central extension of the generator table."""
    out: Element = {}
    for ga, pa in a.items():
        for gb, pb in b.items():
            term = elem_scale(table(ga, gb), poly_mul(pa, pb))
            out = elem_add(out, term)
    return out


# ---------------------------------------------------------------------------
# reports

@dataclass
class AlgebraReport:
    check: str
    passed: bool
    cases: int
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"check": self.check, "pass": bool(self.passed),
                "cases": self.cases, "failures": self.failures[:20],
                **self.extra}


# ---------------------------------------------------------------------------
# quaternion units (associative table over {I, Q1, Q2, Q3})

def quaternion_product(a: str, b: str) -> Element:
    """Q_i Q_j = delta_ij I + i eps_{ijk} Q_k, with I the identity."""
    if a == "I":
        return elem(b)
    if b == "I":
        return elem(a)
    ia, ib = a[1], b[1]
    out = elem("I") if ia == ib else {}
    for k in "123":
        s = EPSILON.get((ia, ib, k))
        if s:
            out = elem_add(out, elem("Q" + k, poly(0, gr(0, s))))
    return out


def _assoc_product(x: Element, y: Element) -> Element:
    out: Element = {}
    for ga, pa in x.items():
        for gb, pb in y.items():
            out = elem_add(out, elem_scale(quaternion_product(ga, gb),
                                           poly_mul(pa, pb)))
    return out


def quaternion_table_check() -> AlgebraReport:
    """Associativity over all Q-triples and the induced commutators."""
    units = ("Q1", "Q2", "Q3")
    failures = []
    cases = 0
    for a, b, c in itertools.product(units, repeat=3):
        cases += 1
        lhs = _assoc_product(_assoc_product(elem(a), elem(b)), elem(c))
        rhs = _assoc_product(elem(a), _assoc_product(elem(b), elem(c)))
        if lhs != rhs:
            failures.append(("associativity", a, b, c))
    for a, b in itertools.product(units, repeat=2):
        cases += 1
        comm = elem_add(_assoc_product(elem(a), elem(b)),
                        elem_neg(_assoc_product(elem(b), elem(a))))
        if comm != bracket_generators(a, b):
            failures.append(("commutator", a, b))
    return AlgebraReport("quaternion-units", not failures, cases, failures)


# ---------------------------------------------------------------------------
# graded generators and the loop-algebra table

def graded_name(family: str, i: int, grade: int) -> str:
    if family == "A":
        if grade < 0 or grade % 2:
            raise AlgebraError("A generators carry even grade 2n >= 0")
    elif family == "B":
        if grade < 2 or grade % 2:
            raise AlgebraError("B generators carry even grade 2n+2 >= 2")
    else:
        raise AlgebraError(f"unknown graded family {family!r}")
    if i not in (1, 2, 3):
        raise AlgebraError("index must be 1, 2, or 3")
    return f"{family}{i}_{grade}"


def parse_graded(name: str) -> tuple[str, int, int]:
    family, rest = name[0], name[1:]
    i_str, grade_str = rest.split("_")
    return family, int(i_str), int(grade_str)


def graded_bracket(a: str, b: str) -> Element:
    """Loop-algebra table on graded generators."""
    fa, ia, ga = parse_graded(a)
    fb, ib, gb = parse_graded(b)
    if fa == "A" and fb == "A":
        fam, grade = "A", ga + gb
    elif fa == "B" and fb == "B":
        fam, grade = "A", ga + gb
    else:
        fam, grade = "B", ga + gb
    out: Element = {}
    for k in (1, 2, 3):
        s = EPSILON.get((str(ia), str(ib), str(k)))
        if s:
            out = elem_add(out, elem(graded_name(fam, k, grade),
                                     poly(0, gr(0, s))))
    return out


def graded_generators(max_grade: int) -> list[str]:
    out = []
    for g in range(0, max_grade + 1, 2):
        out.extend(graded_name("A", i, g) for i in (1, 2, 3))
    for g in range(2, max_grade + 1, 2):
        out.extend(graded_name("B", i, g) for i in (1, 2, 3))
    return out


def _absorb(element: Element) -> Element:
    """Map J_i B^p -> A^i_{2p} and K_i B^p -> B^i_{2p+2}."""
    out: Element = {}
    for name, p in element.items():
        family = name[0]
        if family not in "JK":
            raise AlgebraError(f"cannot absorb generator {name!r}")
        i = int(name[1])
        for power, c in p.items():
            if power < 0:
                raise AlgebraError("negative B power cannot be absorbed")
            if family == "J":
                target = graded_name("A", i, 2 * power)
            else:
                target = graded_name("B", i, 2 * power + 2)
            out = elem_add(out, elem(target, poly(0, c)))
    return out


def grade_absorb(cutoff: int = 10) -> AlgebraReport:
    """Loop-algebra table == image of the J/K/B table under absorption.

    Checks every pair of graded generators of grade <= 2*cutoff exactly.
    """
    failures = []
    cases = 0
    gens = graded_generators(2 * cutoff)
    for a, b in itertools.product(gens, repeat=2):
        cases += 1
        fa, ia, ga = parse_graded(a)
        fb, ib, gb = parse_graded(b)
        if fa == "A":
            lift_a = elem(f"J{ia}", poly(ga // 2))
        else:
            lift_a = elem(f"K{ia}", poly(ga // 2 - 1))
        if fb == "A":
            lift_b = elem(f"J{ib}", poly(gb // 2))
        else:
            lift_b = elem(f"K{ib}", poly(gb // 2 - 1))
        via_finite = _absorb(bracket(lift_a, lift_b))
        via_table = graded_bracket(a, b)
        if via_finite != via_table:
            failures.append((a, b, elem_to_json(via_finite),
                             elem_to_json(via_table)))
    return AlgebraReport("grade-absorption", not failures, cases, failures)


def jacobi_check(cutoff: int = 10, table=None) -> AlgebraReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 for all graded triples whose
    total grade is <= 2*cutoff; exact, zero tolerance."""
    if table is None:
        table = graded_bracket
        gens = graded_generators(2 * cutoff)

        def grade_of(name):
            return parse_graded(name)[2]
    else:
        gens = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]

        def grade_of(name):
            return 0

    failures = []
    cases = 0
    for a, b, c in itertools.combinations_with_replacement(gens, 3):
        if grade_of(a) + grade_of(b) + grade_of(c) > 2 * cutoff:
            continue
        cases += 1
        total = bracket(bracket(elem(a), elem(b), table), elem(c), table)
        total = elem_add(total, bracket(
            bracket(elem(b), elem(c), table), elem(a), table))
        total = elem_add(total, bracket(
            bracket(elem(c), elem(a), table), elem(b), table))
        if not elem_is_zero(total):
            failures.append((a, b, c, elem_to_json(total)))
    return AlgebraReport("jacobi", not failures, cases, failures,
                         extra={"cutoff": cutoff})


def antisymmetry_check(cutoff: int = 4) -> AlgebraReport:
    """[a,b] + [b,a] = 0 structurally for all table pairs."""
    failures = []
    cases = 0
    finite = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]
    graded = graded_generators(2 * cutoff)
    for pool, table in ((finite, bracket_generators), (graded, graded_bracket)):
        for a, b in itertools.product(pool, repeat=2):
            cases += 1
            s = elem_add(table(a, b), table(b, a))
            if not elem_is_zero(s):
                failures.append((a, b))
    return AlgebraReport("bracket-antisymmetry", not failures, cases, failures)


def centrality_check(max_power: int = 4) -> AlgebraReport:
    """[x, B^k y] = B^k [x, y] for all finite-table pairs and 0<=k<=max_power."""
    failures = []
    cases = 0
    finite = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]
    for a, b in itertools.product(finite, repeat=2):
        base = bracket_generators(a, b)
        for k in range(max_power + 1):
            cases += 1
            shifted = bracket(elem(a), elem(b, poly(k)))
            expected = elem_scale(base, poly(k))
            if shifted != expected:
                failures.append((a, b, k))
    return AlgebraReport("b-centrality", not failures, cases, failures)


def structure_table_json(cutoff: int = 2) -> dict:
    """Full structure-constant table (finite and graded) for emission."""
    finite = {}
    pool = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]
    for a, b in itertools.product(pool, repeat=2):
        finite[f"[{a},{b}]"] = elem_to_json(bracket_generators(a, b))
    graded = {}
    gens = graded_generators(2 * cutoff)
    for a, b in itertools.product(gens, repeat=2):
        graded[f"[{a},{b}]"] = elem_to_json(graded_bracket(a, b))
    return {"finite": finite, "graded": graded,
            "inert": list(INERT_GENERATORS),
            "note": "brackets involving inert generators are unspecified"}
