"""The sympy-derived spray and two earlier fixed-step RK4 loops, the
references hiddensym.geodesic's spray and generated RK4 loop are tested
against.

`sympy_spray` is the spray as the library once derived it: sympy
differentiates the metric, contracts with the symbolic inverse metric and
lambdifies the result.  `half` exists to plant an error.

`integrate_arrays` keeps the state and the four stages as float arrays, and
its spray is `sympy_spray` lambdified with modules="numpy", so its
trigonometric and hyperbolic functions are numpy's.  `k2_weight` exists to
plant an error.

`integrate_lists` keeps them as lists of Python floats built with `zip`
comprehensions and calls the manifold's own spray through a right-hand side
that turns a math error into NaN; the generated loop must give the same
times, states and exit flag, bit for bit.
"""

import numpy as np
import sympy as sp

from hiddensym.geodesic import GeodesicState, Trajectory, spray as manifold_spray
from hiddensym.manifold import _symbolic
from symbolic_geometry import coord_symbols


def sympy_spray(M, modules=("math", np), half=sp.Rational(1, 2)):
    """a^rho = -g^{rho lam} w_lam with w_lam = (d_mu g_{lam nu} - half d_lam g_{mu nu})
    v^mu v^nu, lambdified for the modules with common-subexpression
    elimination: a function of the coordinates, then the velocities."""
    n, g, xs = M.dim, _symbolic(M.metric), coord_symbols(M)
    v = [sp.Dummy(f"v_{c}") for c in M.chart.coords]
    w = [sum((sp.diff(g[lam, nu], xs[mu]) - half * sp.diff(g[mu, nu], xs[lam]))
             * v[mu] * v[nu] for mu in range(n) for nu in range(n))
         for lam in range(n)]
    ginv = M.inverse_metric_matrix()
    a = [-sum(ginv[rho, lam] * w[lam] for lam in range(n)) for rho in range(n)]
    params = sorted(M.params)
    f = sp.lambdify([sp.Symbol(p) for p in params] + xs + v,   # an exact 0 would be an int
                    [e if e != 0 else sp.Float(0) for e in a], modules=modules, cse=True)
    values = [M.params[p] for p in params]
    return lambda *state: f(*values, *state)


def _trajectory(times, states, n, exited) -> Trajectory:
    """The kept times and states (lists of 2n floats) as a Trajectory."""
    return Trajectory(np.array(times), np.array([y[:n] for y in states]),
                      np.array([y[n:] for y in states]), exited)


def integrate_arrays(M, s0: GeodesicState, cfg, k2_weight=2) -> Trajectory:
    """cfg.method must be "rk4"; a singular point (ZeroDivisionError in the
    spray) or a step outside the box ends the orbit."""
    n = M.dim
    coords = M.chart.coords
    y = np.array([s0.position[c] for c in coords]
                 + [s0.velocity[c] for c in coords], dtype=float)
    spray = sympy_spray(M, "numpy")
    box = [M.chart.box[c] for c in coords]
    t0, t1 = cfg.t_span

    def rhs(y: np.ndarray) -> np.ndarray:
        state = y.tolist()
        try:
            return np.array(state[n:] + spray(*state))
        except ZeroDivisionError:
            return np.full(2 * n, np.nan)

    h = cfg.step
    steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
    t = t0
    times, states = [t], [y.tolist()]
    for k in range(1, steps + 1):
        hk = min(h, t1 - t)
        k1 = rhs(y)
        k2 = rhs(y + hk / 2 * k1)
        k3 = rhs(y + hk / 2 * k2)
        k4 = rhs(y + hk * k3)
        y = y + hk / 6 * (k1 + k2_weight * k2 + 2 * k3 + k4)
        t = min(t0 + k * h, t1)
        if not all(lo <= x <= hi for (lo, hi), x in zip(box, y.tolist())):
            return _trajectory(times, states, n, True)
        if k % cfg.stride == 0 or k == steps:
            times.append(t)
            states.append(y.tolist())
    return _trajectory(times, states, n, False)


def integrate_lists(M, s0: GeodesicState, cfg) -> Trajectory:
    """cfg.method must be "rk4"; a math error in the spray (NaN stages) or a
    step outside the box ends the orbit."""
    n = M.dim
    coords = M.chart.coords
    y = [float(s0.position[c]) for c in coords] + [float(s0.velocity[c]) for c in coords]
    spray = manifold_spray(M)
    box = [M.chart.box[c] for c in coords]
    t0, t1 = cfg.t_span

    def rhs(state: list[float]) -> list[float]:
        try:
            return state[n:] + spray(*state)
        except (ArithmeticError, ValueError):
            return [np.nan] * (2 * n)

    h = cfg.step
    steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
    t = t0
    times, states = [t], [y]
    for k in range(1, steps + 1):
        hk = min(h, t1 - t)  # final step may be partial
        half, sixth = hk / 2, hk / 6
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + hk * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        t = min(t0 + k * h, t1)
        if not all(lo <= x <= hi for (lo, hi), x in zip(box, y)):
            return _trajectory(times, states, n, True)
        if k % cfg.stride == 0 or k == steps:
            times.append(t)
            states.append(y)
    return _trajectory(times, states, n, False)
