"""Symbolic Levi-Civita geometry and forms, the reference the numeric jets of
hiddensym.manifold and hiddensym.sasaki are tested against.

This is the symbolic pipeline the library used to run: the tangent of an
array by sympy's diff, Gamma with one exprkit.simplify per component, Riemann
by differentiating Gamma, Ricci by contraction, index raising and lowering
with the symbolic metric and its inverse, the exterior derivative and the Lie
bracket of vector fields by differentiating their components, the odd-rank
tower eta ^ (d eta)^k by symbolic wedges, and the structure recovered from a
metric cone with the symbolic inverse metric.
Geometry results are cached per manifold, because Taub-NUT's Gamma takes
seconds to build.
"""

import functools
import math

import numpy as np
import sympy as sp

from hiddensym.exprkit import simplify
from hiddensym.manifold import (GeometryError, TensorField, _symbolic, antisymmetrize,
                                vector)
from hiddensym.sasaki import RADIAL, MixedThreeStructure


def coord_symbols(M) -> list:
    """The coordinates as sympy symbols, for the symbolic derivations."""
    return [sp.Symbol(c) for c in M.chart.coords]


def tangent(arr, xs) -> np.ndarray:
    """Symbolic 1-jet of an object array, as sympy expressions: a new leading
    jet axis."""
    arr = _symbolic(arr)
    diff = np.frompyfunc(sp.diff, 2, 1)
    return np.stack([diff(arr, x) for x in xs] + [arr])


@functools.lru_cache(maxsize=None)
def symbolic_christoffel(M) -> np.ndarray:
    """Gamma[rho, mu, nu] as an object array of simplified expressions."""
    n, g, xs = M.dim, _symbolic(M.metric), coord_symbols(M)
    ginv = M.inverse_metric_matrix()
    dg = [[[sp.diff(g[i, j], xs[k]) for k in range(n)] for j in range(n)]
          for i in range(n)]
    gamma = np.empty((n, n, n), dtype=object)
    for rho in range(n):
        for mu in range(n):
            for nu in range(mu, n):
                total = sum((ginv[rho, lam] * (dg[lam][nu][mu] + dg[lam][mu][nu]
                                               - dg[mu][nu][lam]) for lam in range(n)),
                            sp.Integer(0))
                gamma[rho, mu, nu] = gamma[rho, nu, mu] = simplify(total / 2)
    return gamma


@functools.lru_cache(maxsize=None)
def symbolic_riemann(M) -> np.ndarray:
    """R[rho, sigma, mu, nu] = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}."""
    n, xs, gamma = M.dim, coord_symbols(M), symbolic_christoffel(M)
    riem = np.empty((n,) * 4, dtype=object)
    for rho, sig, mu, nu in np.ndindex(riem.shape):
        riem[rho, sig, mu, nu] = (
            sp.diff(gamma[rho, nu, sig], xs[mu]) - sp.diff(gamma[rho, mu, sig], xs[nu])
            + sum(gamma[rho, mu, lam] * gamma[lam, nu, sig]
                  - gamma[rho, nu, lam] * gamma[lam, mu, sig] for lam in range(n)))
    return riem


def symbolic_ricci(M) -> np.ndarray:
    """R_{sigma nu} = R^lam_{sigma lam nu}."""
    riem, n = symbolic_riemann(M), M.dim
    return np.array([[sum((riem[lam, sig, lam, nu] for lam in range(n)), sp.Integer(0))
                      for nu in range(n)] for sig in range(n)], dtype=object)


def _contract_metric(T: TensorField, slot: int, matrix, new_var: str) -> TensorField:
    """matrix[i, nu] T[.., nu, ..], with i in the slot, formed in sympy."""
    out = np.moveaxis(np.tensordot(_symbolic(np.array(matrix, dtype=object)),
                                   _symbolic(T.components), (1, slot)), 0, slot)
    variance = T.variance[:slot] + new_var + T.variance[slot + 1:]
    return TensorField(out, variance)


def raise_index(T: TensorField, M, slot: int) -> TensorField:
    if T.variance[slot] != "d":
        raise GeometryError("slot is already contravariant")
    return _contract_metric(T, slot, M.inverse_metric_matrix(), "u")


def lower_index(T: TensorField, M, slot: int) -> TensorField:
    if T.variance[slot] != "u":
        raise GeometryError("slot is already covariant")
    return _contract_metric(T, slot, M.metric, "d")


def lie_bracket(X: TensorField, Y: TensorField, M) -> TensorField:
    """[X, Y]^mu = X^nu d_nu Y^mu - Y^nu d_nu X^mu for vector fields."""
    if X.variance != "u" or Y.variance != "u":
        raise GeometryError("lie_bracket expects vector fields")
    (dX, X0), (dY, Y0) = ((t[:-1], t[-1]) for t in
                          (tangent(V.components, coord_symbols(M)) for V in (X, Y)))
    return TensorField(X0 @ dY - Y0 @ dX, "u")


def symbolic_exterior_derivative(T: TensorField, M) -> TensorField:
    """(df)_{lam mu1..mup} = (p+1) * Alt(partial f) with sympy's partials, the
    path exterior_derivative took before it differentiated trees."""
    if set(T.variance) - {"d"}:
        raise GeometryError("exterior derivative needs a fully covariant form")
    n = M.dim
    p = T.rank
    if p >= n:
        return TensorField(np.zeros((n,) * (p + 1), dtype=object), "d" * (p + 1))
    out = (p + 1) * antisymmetrize(tangent(T.components, coord_symbols(M))[:-1])
    return TensorField(out, "d" * (p + 1))


def wedge_forms(a: TensorField, b: TensorField) -> TensorField:
    """Wedge product with unit-weight alternation: a ^ b = C(p+q,p) Alt(a (x) b)."""
    p, q = a.rank, b.rank
    outer = np.multiply.outer(a.components, b.components)
    return TensorField(math.comb(p + q, p) * antisymmetrize(outer), "d" * (p + q))


def ky_odd_rank_candidate(S, alpha: int, k: int) -> TensorField:
    """eta_a ^ (d eta_a)^k of a mixed 3-structure, each component expanded."""
    form = S.eta[alpha]
    deta = symbolic_exterior_derivative(form, S.manifold)
    for _ in range(k):
        form = wedge_forms(form, deta)
    return TensorField(np.frompyfunc(sp.expand, 1, 1)(_symbolic(form.components)),
                       form.variance)


def reverse_cone_symbolic(C) -> MixedThreeStructure:
    """Recover (phi, xi, eta) on the r=1 slice from the cone structure:
    xi_a = J_a(d_r), eta_a = g xi_a and phi^i_mu = g^{i nu} (d eta_a)_{mu nu} / 2."""
    n = C.manifold.dim - 1
    r = sp.Symbol(RADIAL)
    base = C.base.manifold
    ginv = base.inverse_metric_matrix()
    phis, xis, etas = [], [], []
    for a in range(3):
        xis.append(vector([_symbolic(C.J[a].components)[i, n].subs(r, 1) for i in range(n)]))
        etas.append(lower_index(xis[a], base, 0))
        deta = _symbolic(symbolic_exterior_derivative(etas[a], base).components)
        phis.append(TensorField([[sum(ginv[i, nu] * deta[mu, nu] for nu in range(n)) / 2
                                  for mu in range(n)] for i in range(n)], "ud"))
    return MixedThreeStructure(base, phis, xis, etas)
