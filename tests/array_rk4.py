"""Fixed-step RK4 on numpy arrays with a numpy-compiled spray, the reference
the Python-float RK4 of hiddensym.geodesic is tested against.

This is the loop the library used to run: the state and the four stages are
float arrays, and the spray, built from the same expressions as
Manifold.spray, is lambdified with modules="numpy", so its trigonometric and
hyperbolic functions are numpy's.  `k2_weight` exists to plant an error.
"""

import numpy as np
import sympy as sp

from hiddensym.geodesic import GeodesicState, Trajectory
from hiddensym.manifold import sym


def numpy_spray(M):
    """a^rho = -g^{rho lam} w_lam with w_lam = (d_mu g_{lam nu} - d_lam g_{mu nu} / 2)
    v^mu v^nu, lambdified for numpy: a function of the coordinates, then the
    velocities."""
    n, g, xs = M.dim, M.metric, M.coord_symbols
    v = [sp.Dummy(f"v_{c}") for c in M.chart.coords]
    w = [sum((sp.diff(g[lam, nu], xs[mu]) - sp.diff(g[mu, nu], xs[lam]) / 2)
             * v[mu] * v[nu] for mu in range(n) for nu in range(n))
         for lam in range(n)]
    ginv = M.inverse_metric_matrix()
    params = sorted(M.params)
    f = sp.lambdify([sym(p) for p in params] + xs + v,
                    [-sum(ginv[rho, lam] * w[lam] for lam in range(n)) for rho in range(n)],
                    modules="numpy", cse=True)
    values = [M.params[p] for p in params]
    return lambda *state: f(*values, *state)


def integrate_arrays(M, s0: GeodesicState, cfg, k2_weight=2) -> Trajectory:
    """cfg.method must be "rk4"; a singular point (ZeroDivisionError in the
    spray) or a step outside the box ends the orbit."""
    n = M.dim
    coords = M.chart.coords
    y = np.array([s0.position[c] for c in coords]
                 + [s0.velocity[c] for c in coords], dtype=float)
    spray = numpy_spray(M)
    box = [M.chart.box[c] for c in coords]
    t0, t1 = cfg.t_span

    def rhs(y: np.ndarray) -> np.ndarray:
        state = y.tolist()
        try:
            return np.array(state[n:] + spray(*state))
        except ZeroDivisionError:
            return np.full(2 * n, np.nan)

    def snap(yv):
        return GeodesicState({c: float(yv[i]) for i, c in enumerate(coords)},
                             {c: float(yv[n + i]) for i, c in enumerate(coords)})

    h = cfg.step
    steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
    t = t0
    times, states = [t], [snap(y)]
    for k in range(1, steps + 1):
        hk = min(h, t1 - t)
        k1 = rhs(y)
        k2 = rhs(y + hk / 2 * k1)
        k3 = rhs(y + hk / 2 * k2)
        k4 = rhs(y + hk * k3)
        y = y + hk / 6 * (k1 + k2_weight * k2 + 2 * k3 + k4)
        t = min(t0 + k * h, t1)
        if not all(lo <= x <= hi for (lo, hi), x in zip(box, y.tolist())):
            return Trajectory(times, states, True)
        if k % cfg.stride == 0 or k == steps:
            times.append(t)
            states.append(snap(y))
    return Trajectory(times, states, False)
