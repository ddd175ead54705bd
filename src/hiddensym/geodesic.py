"""Geodesic integration and conservation monitoring.

The geodesic acceleration is the spray, derived once per manifold from the
metric's exprkit trees (exprkit.derivative, then the adjugate over the
determinant) and compiled by exprkit.compiled_function with math's
functions, as a function of position and velocity returning Python floats;
no sympy is involved.  A math error in the spray (a singular point, a
domain error such as a negative number to a non-integer power) counts as
leaving the chart.  Fixed-step RK4 is the default, for reproducible drift
numbers: one loop per manifold, on local Python floats, holds the spray's
statements inline in each stage, and writes a stage's midpoint only for a
coordinate the spray reads.  Both texts come from fixed templates and
exprkit's printer, with the parameters as float literals, never from input
text.  Adaptive RK45 (scipy) is an option.  A Trajectory holds its times,
positions and velocities as float arrays, and an invariant is one batch of
Manifold.evaluate at its positions; a drift over fewer than two kept states
fails, since nothing was measured.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import exprkit
from .killing import _guard, _quiet, finite_or_null
from .manifold import GeometryError, Manifold, SingularMetricError, TensorField, symmetrize

RK45_TOLERANCE = 1e-10         # rk45 rtol and atol
MAX_STEPS = 10**7              # the most steps t_span over step may give


@dataclass
class GeodesicState:
    position: dict[str, float]
    velocity: dict[str, float]


@dataclass
class IntegratorConfig:
    method: str = "rk4"            # "rk4" | "rk45"
    step: float = 1e-3             # rk4 step size
    t_span: tuple[float, float] = (0.0, 10.0)
    stride: int = 10               # keep every stride-th step

    def __post_init__(self):
        if not all(math.isfinite(t) for t in self.t_span):
            raise GeometryError(f"t_span must be finite, not {self.t_span!r}")
        if not (self.step > 0 and self.t_span[1] > self.t_span[0]):
            raise GeometryError("step and the length of t_span must be positive")
        if not (self.t_span[1] - self.t_span[0]) / self.step <= MAX_STEPS:
            raise GeometryError(f"t_span {self.t_span!r} over step {self.step!r} is not a finite "
                                f"number of steps up to {MAX_STEPS}")
        if self.method not in ("rk4", "rk45"):
            raise GeometryError(f"unknown method {self.method!r}")
        if isinstance(self.stride, bool) or not isinstance(self.stride, Integral) or self.stride < 1:
            raise GeometryError(f"stride must be an integer >= 1, not {self.stride!r}")


@dataclass
class Trajectory:
    """The kept times (N,), and the positions and velocities at them (N, n),
    a column per coordinate in the chart's order, as C-ordered float arrays
    (numpy's einsum may sum another layout in another order)."""
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    exited_domain: bool = False

    def __len__(self):
        return len(self.times)


@dataclass
class ConservationReport:
    name: str
    initial_value: float
    max_drift: float
    relative_drift: float
    passed: bool
    tolerance: float

    def to_json(self) -> dict:
        return finite_or_null({
            "invariant": self.name,
            "initial": self.initial_value,
            "max_drift": self.max_drift,
            "relative_drift": self.relative_drift,
            "pass": bool(self.passed),
            "tolerance": self.tolerance,
        })


def _acceleration(M: Manifold) -> list:
    """The geodesic acceleration a^rho = -Gamma^rho_{mu nu} v^mu v^nu as n
    trees in M's parameters, its coordinates and the velocities, named c'
    for a coordinate c (no parsed name has a '), derived once, cached on M.

    It is derived on the metric's trees (their operators are exprkit's
    folding constructors).  With
    w_lam = (d_mu g_{lam nu} - d_lam g_{mu nu} / 2) v^mu v^nu, summed as
    Gamma_{lam mu mu} v^mu v^mu plus 2 Gamma_{lam mu nu} v^mu v^nu for
    mu < nu, a = adj(g) (-w) / det g on each diagonal block of g, the
    determinant and the adjugate expanded in minors formed once per (rows,
    columns), so that a zero entry drops its terms and interning shares the
    rest."""
    if "acceleration" not in M._cache:
        n, coords, g = M.dim, M.chart.coords, M.metric
        v = [exprkit.symbol(f"{c}'") for c in coords]
        partials = {}

        def d(lam, mu, nu):         # d_lam g_{mu nu}
            if (g[mu, nu], lam) not in partials:
                partials[g[mu, nu], lam] = exprkit.derivative(g[mu, nu], coords[lam])
            return partials[g[mu, nu], lam]

        def christoffel(lam, mu, nu):   # -Gamma_{lam mu mu}, or -2 Gamma_{lam mu nu} for mu < nu
            if mu == nu:
                p, q = d(lam, mu, mu), d(mu, lam, mu)
                return -(p / 2) if p is q else p / 2 - q
            return d(lam, mu, nu) - (d(mu, lam, nu) + d(nu, lam, mu))

        minus_w = [sum((christoffel(lam, mu, nu) * (v[mu] * v[nu])
                        for mu in range(n) for nu in range(mu, n)), exprkit.ZERO)
                   for lam in range(n)]
        minor, a = _minors(g), [None] * n
        for block in _blocks(g):
            det = minor(block, block)
            if det is exprkit.ZERO:
                raise SingularMetricError("metric determinant is identically zero")
            for i, rho in enumerate(block):
                # adj(g)[rho, lam] = (-1)^(i + j) times the minor without row lam, column rho
                a[rho] = _alternating([minor(block[:j] + block[j + 1:], block[:i] + block[i + 1:])
                                       * minus_w[lam] for j, lam in enumerate(block)], i) / det
        M._cache["acceleration"] = a
    return M._cache["acceleration"]


def spray(M: Manifold):
    """_acceleration(M) compiled with math's functions (a math error raises): a function
    of the coordinates, then the velocities, returning n Python floats, cached on M."""
    if "spray" not in M._cache:
        xs = M.chart.coords
        M._cache["spray"] = exprkit.compiled_function(
            _acceleration(M), [*xs, *(x + "'" for x in xs)], M.params, exprkit.FLOAT_FUNCTIONS)
    return M._cache["spray"]


def _alternating(terms, start: int):
    """The sum of the terms with the signs (-1)^(start + j)."""
    total = exprkit.ZERO
    for j, term in enumerate(terms):
        total = total - term if (start + j) % 2 else total + term
    return total


def _blocks(g) -> list[tuple[int, ...]]:
    """The index sets of g's diagonal blocks: i and j share one when a chain
    of entries that are not ZERO links them."""
    label = list(range(len(g)))
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if g[i, j] is not exprkit.ZERO and label[j] != label[i]:
                label = [label[i] if x == label[j] else x for x in label]
    return [tuple(i for i, x in enumerate(label) if x == b) for b in sorted(set(label))]


def _minors(g):
    """minor(rows, cols): the determinant of g's entries in those rows and
    columns (tuples, in order), ONE for none, by Laplace expansion along the
    first row, each minor formed once and a zero entry skipped."""
    @functools.cache
    def minor(rows, cols):
        if not rows:
            return exprkit.ONE
        return _alternating([g[rows[0], c] * minor(rows[1:], cols[:j] + cols[j + 1:])
                             if g[rows[0], c] is not exprkit.ZERO else exprkit.ZERO
                             for j, c in enumerate(cols)], 0)
    return minor


def _rk4_text(M: Manifold) -> str:
    """Source of `rk4(y, t0, t1, h, steps, stride, box)`, fixed-step RK4 on M
    over the local floats x0.., v0.. (the state), M's parameters as literals.
    A step forms the stages k1 = (v, a) .. k4 = (v4, a4), each acceleration
    by the spray's statements inline under the stage's own locals, then
    y + h/6 (k1 + 2 k2 + 2 k3 + k4) in the list form's order; h/2 and h/6
    are formed again only for a partial final step.  A stage's midpoint
    coordinate is written only for the coordinates the spray reads (on
    Taub-NUT not phi and chi), each velocity's always.  It keeps every
    stride-th state and the last, and returns them with whether the orbit
    left the chart: a step outside the box or a math error."""
    n, coords = M.dim, M.chart.coords
    params = {p: repr(float(v)) for p, v in M.params.items()}
    spray_names = exprkit.names(_acceleration(M))
    read = [i for i, c in enumerate(coords) if c in spray_names]

    def seq(fmt):
        return ", ".join(fmt.format(i=i) for i in range(n))

    def each(*fmts, only=range(n)):
        return "".join(f"            {fmt.format(i=i)}\n" for fmt in fmts for i in only)

    def stage(s, x, v, a):
        names = {**params, **{c: x.format(i=i) for i, c in enumerate(coords)},
                 **{f"{c}'": v.format(i=i) for i, c in enumerate(coords)}}
        lines, values = exprkit.statements(_acceleration(M), names, f"s{s}_")
        lines += [f"{a.format(i=i)} = {value}" for i, value in enumerate(values)]
        return "".join(f"            {line}\n" for line in lines)

    box = " and ".join(f"lo{i} <= x{i} <= hi{i}" for i in range(n))
    return (f"def rk4(y, t0, t1, h, steps, stride, box):\n"
            f"    {seq('x{i}')}, {seq('v{i}')} = y\n"
            f"    {seq('(lo{i}, hi{i})')}, = box\n"
            f"    kept = [(t0, y)]\n"
            f"    t = t0\n"
            f"    hk, half, sixth = h, h * 0.5, h / 6.0\n"
            f"    for k in range(1, steps + 1):\n"
            f"        if t1 - t < h:  # hk = min(h, t1 - t): a partial final step\n"
            f"            hk = t1 - t\n"
            f"            half, sixth = hk * 0.5, hk / 6.0\n"
            f"        try:\n"
            + stage(1, "x{i}", "v{i}", "a{i}")
            + each("x2_{i} = x{i} + half * v{i}", only=read)
            + each("v2_{i} = v{i} + half * a{i}")
            + stage(2, "x2_{i}", "v2_{i}", "a2_{i}")
            + each("x3_{i} = x{i} + half * v2_{i}", only=read)
            + each("v3_{i} = v{i} + half * a2_{i}")
            + stage(3, "x3_{i}", "v3_{i}", "a3_{i}")
            + each("x4_{i} = x{i} + hk * v3_{i}", only=read)
            + each("v4_{i} = v{i} + hk * a3_{i}")
            + stage(4, "x4_{i}", "v4_{i}", "a4_{i}")
            + each("x{i} = x{i} + sixth * (v{i} + 2.0 * v2_{i} + 2.0 * v3_{i} + v4_{i})",
                   "v{i} = v{i} + sixth * (a{i} + 2.0 * a2_{i} + 2.0 * a3_{i} + a4_{i})")
            + f"        except (ArithmeticError, ValueError):\n"
              f"            return kept, True\n"
              f"        t = t0 + k * h\n"
              f"        if t > t1:\n"
              f"            t = t1\n"
              f"        if not ({box}):\n"
              f"            return kept, True\n"
              f"        if k % stride == 0 or k == steps:\n"
              f"            kept.append((t, ({seq('x{i}')}, {seq('v{i}')})))\n"
              f"    return kept, False\n")


def _rk4_loop(M: Manifold):
    """_rk4_text(M) compiled once, cached on M, with math's functions."""
    if "rk4" not in M._cache:
        M._cache["rk4"] = exprkit.run_source(_rk4_text(M), "rk4", exprkit.FLOAT_FUNCTIONS)
    return M._cache["rk4"]


def integrate(M: Manifold, s0: GeodesicState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the geodesic equation; aborts cleanly at the domain boundary."""
    n = M.dim
    coords = M.chart.coords
    if not M.chart.contains(s0.position):
        raise GeometryError("initial position outside the domain box")
    y = [float(s0.position[c]) for c in coords] + [float(s0.velocity[c]) for c in coords]
    t0, t1 = cfg.t_span

    if cfg.method == "rk4":
        h = cfg.step
        steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
        kept, exited = _rk4_loop(M)(tuple(y), t0, t1, h, steps, cfg.stride,
                                    [M.chart.box[c] for c in coords])
        return Trajectory(np.array([t for t, _ in kept]), np.array([yv[:n] for _, yv in kept]),
                          np.array([yv[n:] for _, yv in kept]), exited)

    from scipy.integrate import solve_ivp
    rates = spray(M)

    def rhs(state: list[float]) -> list[float]:
        try:
            return state[n:] + rates(*state)
        except (ArithmeticError, ValueError):   # a singular point or a math domain error
            return [np.nan] * (2 * n)

    def exit_event(t, yv):
        margin = min(min(yv[i] - M.chart.box[c][0], M.chart.box[c][1] - yv[i])
                     for i, c in enumerate(coords))
        return margin
    exit_event.terminal = True
    exit_event.direction = -1

    t_eval = np.linspace(t0, t1, max(2, int((t1 - t0) / (cfg.step * cfg.stride)) + 1))
    sol = solve_ivp(lambda t, yv: rhs(yv.tolist()), (t0, t1), y, method="RK45",
                    rtol=RK45_TOLERANCE, atol=RK45_TOLERANCE,
                    t_eval=t_eval, events=exit_event, dense_output=False)
    # status 1: the box's terminal event; -1: a failed step, as at a math error
    return Trajectory(sol.t, np.ascontiguousarray(sol.y[:n].T), np.ascontiguousarray(sol.y[n:].T),
                      sol.status != 0)


def invariant_values(positions, velocities, Q: TensorField, M: Manifold) -> list[float]:
    """Q contracted with the velocities, (P, n), at the positions, a batch of
    points as Manifold.evaluate takes them.

    Vector fields give the rank-1 Killing invariant g(Q, xdot), and covariant
    tensors that killing._guard finds symmetric, such as the S-K squares,
    K_{m1..mr} xdot^{m1}..xdot^{mr}; any other Q, a form (its contraction
    vanishes identically) among them, is a GeometryError.  Q's values come
    from Q.jet at the positions.
    """
    val = Q.jet(M, positions)
    if Q.variance == "u":       # lowered: Q_mu = g_{mu nu} Q^nu
        val = np.einsum("pmn,pn->pm", M.evaluate(M.metric, positions), val)
    else:
        _guard(Q, val, symmetrize, "a geodesic invariant", "a vector field or a symmetric tensor")
    for _ in range(Q.rank):
        val = np.einsum("pi...,pi->p...", val, velocities)
    return val.tolist()


@_quiet     # a value that is not finite gives a NaN drift, without a warning
def monitor_invariant(traj: Trajectory, Q: TensorField, M: Manifold,
                      name: str = "invariant", tol: float = 1e-6) -> ConservationReport:
    """The drift of Q's invariant from its initial value along the trajectory;
    it fails with fewer than two kept states, where nothing was measured."""
    values = np.array(invariant_values(traj.positions, traj.velocities, Q, M))
    q0 = float(values[0])
    drift = float(np.max(np.abs(values - q0)))
    rel = drift / max(1.0, abs(q0))
    return ConservationReport(name, q0, drift, rel, len(values) > 1 and rel < tol, tol)


def energy_report(traj: Trajectory, M: Manifold, tol: float = 1e-8) -> ConservationReport:
    return monitor_invariant(traj, TensorField(M.metric, "dd"), M, name="energy", tol=tol)


def export_csv(traj: Trajectory, M: Manifold, fh) -> None:
    """Write t, the coordinates and the velocities per column to fh (newline="")."""
    coords = M.chart.coords
    writer = csv.writer(fh)
    writer.writerow(["t", *coords, *(f"d{c}" for c in coords)])
    writer.writerows(np.column_stack([traj.times, traj.positions, traj.velocities]).tolist())
