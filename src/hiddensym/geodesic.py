"""Geodesic integration and conservation monitoring.

Each right-hand side makes one call of the manifold's compiled spray, the
geodesic acceleration as a function of position and velocity, compiled for
Python floats (`math` first, `numpy` for what `math` lacks); a math error in
the spray (a singular point, a domain error) counts as leaving the chart.
Fixed-step RK4 on Python floats (its state and stages are lists) is the
default for reproducible drift numbers, with adaptive RK45 (scipy) as an option.
Invariants are evaluated over a whole trajectory in one batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .killing import finite_or_null
from .manifold import Manifold, TensorField

RK45_TOLERANCE = 1e-10         # rk45 rtol and atol


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
        if not (self.step > 0 and self.t_span[1] > self.t_span[0]):
            raise ValueError("step and the length of t_span must be positive")
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    times: list[float]
    states: list[GeodesicState]
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


def integrate(M: Manifold, s0: GeodesicState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the geodesic equation; aborts cleanly at the domain boundary."""
    n = M.dim
    coords = M.chart.coords
    if not M.chart.contains(s0.position):
        raise ValueError("initial position outside the domain box")
    y = [float(s0.position[c]) for c in coords] + [float(s0.velocity[c]) for c in coords]
    spray = M.spray()
    box = [M.chart.box[c] for c in coords]
    t0, t1 = cfg.t_span

    def rhs(state: list[float]) -> list[float]:
        try:
            return state[n:] + spray(*state)
        except (ArithmeticError, ValueError):   # a singular point or a math domain error
            return [np.nan] * (2 * n)

    def snap(t, yv):
        return t, GeodesicState({c: float(yv[i]) for i, c in enumerate(coords)},
                                {c: float(yv[n + i]) for i, c in enumerate(coords)})

    times, states = [], []
    exited = False

    if cfg.method == "rk4":
        h = cfg.step
        steps = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
        t = t0
        rec = snap(t, y)
        times.append(rec[0]); states.append(rec[1])
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
                exited = True
                break
            if k % cfg.stride == 0 or k == steps:
                rec = snap(t, y)
                times.append(rec[0]); states.append(rec[1])
    else:
        from scipy.integrate import solve_ivp

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
        exited = bool(sol.t_events[0].size)
        for t, yv in zip(sol.t, sol.y.T):
            rec = snap(float(t), yv)
            times.append(rec[0]); states.append(rec[1])

    return Trajectory(times, states, exited)


def invariant_values(traj: Trajectory, Q: TensorField, M: Manifold) -> list[float]:
    """Q contracted with velocities along the trajectory.

    Vector fields give the rank-1 Killing invariant g(Q, xdot); symmetric
    tensors, also the S-K squares of killing.associated_sk, give
    K_{m1..mr} xdot^{m1}..xdot^{mr}.  Q's values come from Q.jet.
    """
    if Q.variance != "u" and set(Q.variance) - {"d"}:
        raise ValueError("invariant spec must be fully covariant or a vector field")
    positions = [st.position for st in traj.states]
    val = Q.jet(M, positions)
    if Q.variance == "u":       # lowered: Q_mu = g_{mu nu} Q^nu
        val = np.einsum("pmn,pn->pm", M.evaluate(M.metric, positions), val)
    v = np.array([[st.velocity[c] for c in M.chart.coords] for st in traj.states])
    for _ in range(Q.rank):
        val = np.einsum("pi...,pi->p...", val, v)
    return val.tolist()


def monitor_invariant(traj: Trajectory, Q: TensorField, M: Manifold,
                      name: str = "invariant", tol: float = 1e-6) -> ConservationReport:
    values = np.array(invariant_values(traj, Q, M))
    q0 = float(values[0])
    drift = float(np.max(np.abs(values - q0)))
    rel = drift / max(1.0, abs(q0))
    return ConservationReport(name, q0, drift, rel, rel < tol, tol)


def energy_report(traj: Trajectory, M: Manifold, tol: float = 1e-8) -> ConservationReport:
    return monitor_invariant(traj, M.metric_field(), M, name="energy", tol=tol)


def export_csv(traj: Trajectory, M: Manifold, path: str) -> None:
    """Write t, the coordinates and the velocities per column."""
    coords = M.chart.coords
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *coords, *(f"d{c}" for c in coords)])
        for t, st in zip(traj.times, traj.states):
            writer.writerow([t] + [st.position[c] for c in coords]
                            + [st.velocity[c] for c in coords])
