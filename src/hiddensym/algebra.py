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
central indeterminate B); every check below is zero-tolerance.  The
arithmetic is plain Python (int and Fraction parts), so this module loads
neither sympy nor numpy.

Q^Y and P4 are carried as inert generators: no bracket relations are
specified for them, so they are excluded from the Jacobi suites and any
attempt to bracket them raises UnspecifiedBracketError.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from . import InputError


class AlgebraError(InputError):
    pass


class UnspecifiedBracketError(AlgebraError):
    """Raised for generator pairs with no stated bracket relation."""


class Gauss(tuple):
    """The exact Gaussian rational x + iy, with int or Fraction parts x, y."""
    __slots__ = ()

    def __new__(cls, x, y):
        return tuple.__new__(cls, (x, y))

    x = property(lambda self: self[0])
    y = property(lambda self: self[1])

    def __add__(self, other: Gauss) -> Gauss:
        return Gauss(self[0] + other[0], self[1] + other[1])

    def __mul__(self, other: Gauss) -> Gauss:
        a, b = self
        c, d = other
        return tuple.__new__(Gauss, (a * c - b * d, a * d + b * c))

    __rmul__ = __mul__      # so that 2 * z raises, instead of repeating a tuple

    def __neg__(self) -> Gauss:
        return Gauss(-self[0], -self[1])

    def __bool__(self) -> bool:
        return bool(self[0] or self[1])


# ---------------------------------------------------------------------------
# elements: finite linear combinations {(generator name, B power): coefficient}
#
# Each coefficient is an exact Gaussian rational, and zero coefficients are
# left out. B is central, so [a B^p, b B^q] = [a, b] B^(p+q) and one flat map
# holds any element of Q[i][B] (x) span(generators).

Element = dict

ONE = Gauss(1, 0)
_I_UNITS = {s: Gauss(0, s) for s in (1, -1, 2, -2)}     # the eps-rule coefficients s * i


def elem(name: str, power: int = 0) -> Element:
    return {(name, power): ONE}


def _accumulate(out: Element, a: Element, coeff: Gauss, power: int) -> None:
    """out += coeff * B^power * a in place, for a non-zero coeff; in a field a
    product of non-zeros is non-zero, so only a sum can leave a zero to drop."""
    for (name, p), c in a.items():
        key = (name, p + power)
        if key not in out:
            out[key] = c * coeff
        elif s := out[key] + c * coeff:
            out[key] = s
        else:
            del out[key]


def elem_to_json(a: Element) -> dict:
    out: dict = {}
    for (name, power), c in sorted(a.items()):
        out.setdefault(name, {})[str(power)] = [str(c.x), str(c.y)]
    return out


FINITE_GENERATORS = ("J1", "J2", "J3", "K1", "K2", "K3",
                     "Q1", "Q2", "Q3", "QY", "P4")
INERT_GENERATORS = ("QY", "P4")


def _eps_term(i: int, j: int, name: str, power: int, scale: int) -> Element:
    """scale * i eps_{ijk} X_k B^power, with X_k = name.format(k)."""
    if i == j:
        return {}
    sign = 1 if (j - i) % 3 == 1 else -1
    return {(name.format(6 - i - j), power): _I_UNITS[sign * scale]}


# [X_i, Y_j] = scale * i eps_{ijk} Z_k B^power, keyed by XY: (Z, power, scale).
# [Q_i, Q_j] is induced by the associative quaternion table. A reversed pair
# (KJ, QJ, QK) uses the same row: eps is antisymmetric in i, j.
_RULES = {"JJ": ("J", 0, 1), "JK": ("K", 0, 1), "KK": ("J", 2, 1),
          "JQ": ("Q", 0, 1), "KQ": ("Q", 1, 1), "QQ": ("Q", 0, 2)}


def bracket_generators(a: str, b: str) -> Element:
    """Bracket of two finite-table generators, as a table lookup."""
    for name in (a, b):
        if name not in FINITE_GENERATORS:
            raise AlgebraError(f"unknown generator {name!r}")
    if a in INERT_GENERATORS or b in INERT_GENERATORS:
        raise UnspecifiedBracketError(
            f"no bracket relation is specified for ({a}, {b})")
    family, power, scale = _RULES.get(a[0] + b[0]) or _RULES[b[0] + a[0]]
    return _eps_term(int(a[1]), int(b[1]), family + "{}", power, scale)


def bracket(a: Element, b: Element,
            table=bracket_generators) -> Element:
    """Bilinear, B-central extension of a generator table (a bracket, or the
    associative quaternion product)."""
    out: Element = {}
    for (ga, pa), ca in a.items():
        for (gb, pb), cb in b.items():
            _accumulate(out, table(ga, gb), ca * cb, pa + pb)
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
    return elem("I") if a == b else _eps_term(int(a[1]), int(b[1]), "Q{}", 0, 1)


def quaternion_table_check() -> AlgebraReport:
    """Associativity over all Q-triples and the induced commutators."""
    units = ("Q1", "Q2", "Q3")
    failures = []
    cases = 0

    def product(x, y):
        return bracket(x, y, quaternion_product)

    for a, b, c in itertools.product(units, repeat=3):
        cases += 1
        lhs = product(product(elem(a), elem(b)), elem(c))
        rhs = product(elem(a), product(elem(b), elem(c)))
        if lhs != rhs:
            failures.append(("associativity", a, b, c))
    for a, b in itertools.product(units, repeat=2):
        cases += 1
        comm = product(elem(a), elem(b))
        _accumulate(comm, product(elem(b), elem(a)), -ONE, 0)
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
    """Inverse of graded_name: AlgebraError for any name it would not produce."""
    try:
        index, grade = name[1:].split("_")
        parsed = name[0], int(index), int(grade)
    except (IndexError, ValueError):
        raise AlgebraError(f"malformed graded generator {name!r}") from None
    if graded_name(*parsed) != name:
        raise AlgebraError(f"malformed graded generator {name!r}")
    return parsed


def graded_bracket(a: str, b: str) -> Element:
    """Loop-algebra table: the families give A when equal and B otherwise,
    and the grades add."""
    return _graded_rule(parse_graded(a), parse_graded(b))


def _graded_rule(a: tuple[str, int, int], b: tuple[str, int, int]) -> Element:
    """graded_bracket of two parsed names."""
    family = "A" if a[0] == b[0] else "B"
    return _eps_term(a[1], b[1], f"{family}{{}}_{a[2] + b[2]}", 0, 1)


def graded_generators(max_grade: int) -> list[str]:
    out = []
    for g in range(0, max_grade + 1, 2):
        out.extend(graded_name("A", i, g) for i in (1, 2, 3))
    for g in range(2, max_grade + 1, 2):
        out.extend(graded_name("B", i, g) for i in (1, 2, 3))
    return out


def _graded_pairs(cutoff: int) -> tuple[dict, dict]:
    """Each generator of grade <= 2*cutoff, parsed once, and graded_bracket
    of every pair of them, in itertools.product order."""
    parsed = {g: parse_graded(g) for g in graded_generators(2 * cutoff)}
    return parsed, {(a, b): _graded_rule(pa, pb) for (a, pa), (b, pb)
                    in itertools.product(parsed.items(), repeat=2)}


def _absorb(element: Element) -> Element:
    """Map J_i B^p -> A^i_{2p} and K_i B^p -> B^i_{2p+2}."""
    out: Element = {}
    for (name, power), c in element.items():
        if name[0] not in "JK":
            raise AlgebraError(f"cannot absorb generator {name!r}")
        if power < 0:
            raise AlgebraError("negative B power cannot be absorbed")
        if name[0] == "J":
            target = graded_name("A", int(name[1]), 2 * power)
        else:
            target = graded_name("B", int(name[1]), 2 * power + 2)
        out[(target, 0)] = c
    return out


def grade_absorb(cutoff: int = 10) -> AlgebraReport:
    """Loop-algebra table == image of the J/K/B table under absorption.

    Checks every pair of graded generators of grade <= 2*cutoff exactly.
    """
    failures = []
    cases = 0
    parsed, table = _graded_pairs(cutoff)
    # A^i_{2n} -> J_i B^n and B^i_{2n+2} -> K_i B^n, once per generator
    lifted = {g: elem(f"J{i}", grade // 2) if family == "A" else elem(f"K{i}", grade // 2 - 1)
              for g, (family, i, grade) in parsed.items()}
    for (a, b), via_table in table.items():
        cases += 1
        via_finite = _absorb(bracket(lifted[a], lifted[b]))
        if via_finite != via_table:
            failures.append((a, b, elem_to_json(via_finite),
                             elem_to_json(via_table)))
    return AlgebraReport("grade-absorption", not failures, cases, failures)


def jacobi_check(cutoff: int = 10, table=None) -> AlgebraReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 for all graded triples whose
    total grade is <= 2*cutoff; exact, zero tolerance."""
    # every bracket of a triple within the cutoff stays within it: one table
    # of the generators' brackets serves every lookup of this call
    if table is None:
        parsed, brackets = _graded_pairs(cutoff)
        grade = {g: p[2] for g, p in parsed.items()}
    else:
        grade = {g: 0 for g in FINITE_GENERATORS if g not in INERT_GENERATORS}
        brackets = {(a, b): table(a, b) for a, b in itertools.product(grade, repeat=2)}

    # fits[t]: the indices of the generators of grade <= t, ascending, so the
    # loops visit only the triples i <= j <= k within the cutoff, in order
    names, limit = list(grade), 2 * cutoff
    fits = [[k for k, g in enumerate(names) if grade[g] <= t] for t in range(limit + 1)]
    failures = []
    cases = 0
    for i, a in enumerate(names):
        for j in (js := fits[limit - grade[a]])[bisect.bisect_left(js, i):]:
            for k in (ks := fits[limit - grade[a] - grade[names[j]]])[bisect.bisect_left(ks, j):]:
                b, c = names[j], names[k]
                cases += 1
                # [x, y] of two generators is the table entry itself; the three
                # cyclic terms [[x, y], z] are summed into one map
                total: Element = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for (g, p), coeff in brackets[x, y].items():
                        _accumulate(total, brackets[g, z], coeff, p)
                if total:
                    failures.append((a, b, c, elem_to_json(total)))
    return AlgebraReport("jacobi", not failures, cases, failures,
                         extra={"cutoff": cutoff})


def structure_table_json(cutoff: int = 2) -> dict:
    """Full structure-constant table (finite and graded) for emission."""
    pool = [g for g in FINITE_GENERATORS if g not in INERT_GENERATORS]
    finite = {f"[{a},{b}]": elem_to_json(bracket_generators(a, b))
              for a, b in itertools.product(pool, repeat=2)}
    graded = {f"[{a},{b}]": elem_to_json(graded_bracket(a, b))
              for a, b in itertools.product(graded_generators(2 * cutoff), repeat=2)}
    return {"finite": finite, "graded": graded,
            "inert": list(INERT_GENERATORS),
            "note": "brackets involving inert generators are unspecified"}
