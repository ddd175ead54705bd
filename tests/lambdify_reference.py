"""Sympy's lambdify, the evaluation path the generated code replaced, as the
reference it is tested against.

`lambdified` evaluates an array of sympy expressions (anything sympy
states: hyperbolics, complex constants, functions outside the grammar) at a
batch of points, as Manifold.evaluate once did: one lambdify for numpy with
common-subexpression elimination, the constant entries broadcast.
`lambdified_jet` gives the k-jet in Manifold.evaluate's layout from sympy's
own derivatives, so forward-mode jets are checked against symbolic ones.
"""

import numpy as np
import sympy as sp

from hiddensym.manifold import _symbolic
from symbolic_geometry import coord_symbols, tangent


def lambdified(M, arr, pts, dtype=float) -> np.ndarray:
    """Values of the array (sympy expressions or trees) at the points, shape
    (P, *shape)."""
    arr = _symbolic(arr)
    params = sorted(M.params)
    f = sp.lambdify([sp.Symbol(p) for p in params] + coord_symbols(M), list(arr.flat),
                    modules="numpy", cse=True)
    x = [np.array([p[c] for p in pts], dtype=float) for c in M.chart.coords]
    out = np.zeros((len(pts), arr.size), dtype=complex)
    for i, v in enumerate(f(*(M.params[p] for p in params), *x)):
        out[:, i] = v
    if np.dtype(dtype).kind != "c":
        assert not np.any(out.imag), "a real array has an imaginary part"
        out = out.real
    return out.astype(dtype).reshape((len(pts),) + arr.shape)


def lambdified_jet(M, arr, pts, order: int) -> np.ndarray:
    """The order-jet (order <= 2) of the array at the points from sympy's
    derivatives, shape (P, n + 1, ..., n + 1, *shape) as Manifold.evaluate
    gives it (a 2-jet's two jet axes are symmetric)."""
    arr = _symbolic(arr)
    for _ in range(order):
        arr = tangent(arr, coord_symbols(M))
    return lambdified(M, arr, pts)
