"""Symbolic Levi-Civita geometry and forms, the reference the numeric jets of
hiddensym.manifold and hiddensym.sasaki are tested against.

This is the symbolic pipeline the library used to run: Gamma with one
exprkit.simplify per component, Riemann by differentiating Gamma, Ricci by
contraction, the odd-rank tower eta ^ (d eta)^k by symbolic wedges, and the
structure recovered from a metric cone with the symbolic inverse metric.
Geometry results are cached per manifold, because Taub-NUT's Gamma takes
seconds to build.
"""

import functools
import math

import numpy as np
import sympy as sp

from hiddensym.exprkit import simplify
from hiddensym.manifold import (TensorField, antisymmetrize, exterior_derivative,
                                lower_index, vector)
from hiddensym.sasaki import RADIAL, MixedThreeStructure


@functools.lru_cache(maxsize=None)
def symbolic_christoffel(M) -> np.ndarray:
    """Gamma[rho, mu, nu] as an object array of simplified expressions."""
    n, g, xs = M.dim, M.metric, M.coord_symbols
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
    n, xs, gamma = M.dim, M.coord_symbols, symbolic_christoffel(M)
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


def wedge_forms(a: TensorField, b: TensorField) -> TensorField:
    """Wedge product with unit-weight alternation: a ^ b = C(p+q,p) Alt(a (x) b)."""
    p, q = a.rank, b.rank
    outer = np.multiply.outer(a.components, b.components)
    return TensorField(math.comb(p + q, p) * antisymmetrize(outer), "d" * (p + q))


def ky_odd_rank_candidate(S, alpha: int, k: int) -> TensorField:
    """eta_a ^ (d eta_a)^k of a mixed 3-structure, each component expanded."""
    form = S.eta[alpha]
    deta = exterior_derivative(form, S.manifold)
    for _ in range(k):
        form = wedge_forms(form, deta)
    return TensorField(np.frompyfunc(sp.expand, 1, 1)(form.components), form.variance)


def reverse_cone_symbolic(C) -> MixedThreeStructure:
    """Recover (phi, xi, eta) on the r=1 slice from the cone structure:
    xi_a = J_a(d_r), eta_a = g xi_a and phi^i_mu = g^{i nu} (d eta_a)_{mu nu} / 2."""
    n = C.manifold.dim - 1
    r = sp.Symbol(RADIAL)
    base = C.base.manifold
    ginv = base.inverse_metric_matrix()
    phis, xis, etas = [], [], []
    for a in range(3):
        xis.append(vector([C.J[a].components[i, n].subs(r, 1) for i in range(n)]))
        etas.append(lower_index(xis[a], base, 0))
        deta = exterior_derivative(etas[a], base).components
        phis.append(TensorField([[sum(ginv[i, nu] * deta[mu, nu] for nu in range(n)) / 2
                                  for mu in range(n)] for i in range(n)], "ud"))
    return MixedThreeStructure(base, phis, xis, etas)
