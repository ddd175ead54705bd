"""The four benchmark workloads: what one pass imports, builds and checks.

Each pass is closed-loop with a single client: one operation starts when the
previous one has returned.  The workload seed feeds the sample points, the
spinor bank, the orbit ensemble and the CLI ``--seed``; seed 0 reproduces the
inputs of tests/test_acceptance.py.  No input is smaller than there.
"""

from __future__ import annotations

import json
import math
import random
import sys
import traceback

import gate
from harness import HOSTSPEED, WORKER, run_child

POINTS = 20          # acceptance default sample size
TOL = 1e-9           # acceptance default relative tolerance
SPIN_POINTS = 10     # criterion 5
SPIN_BANK = 5
SPIN_TOL = 1e-8
ENSEMBLE = 3         # perturbed copies of the criterion-4 orbit
ORBIT_POSITION = {"r": 2.0, "theta": 1.5, "phi": 0.5, "chi": 6.0}
ORBIT_VELOCITY = {"r": -0.5, "theta": 0.02, "phi": 0.2, "chi": 0.1}

NAMES = ("tensor-suite", "spin-identities", "geodesic-orbits", "cli-commands")
_GEOMETRIES = {
    "tensor-suite": ("taub-nut", "pseudo-sphere"),
    "spin-identities": ("taub-nut",),
    "geodesic-orbits": ("taub-nut",),
    "cli-commands": (),
}


class Recorder:
    """Runs operations one after another and keeps each one's problems."""

    def __init__(self):
        self.ops: list[dict] = []

    def check(self, name: str, thunk) -> None:
        try:
            problems = list(thunk())
        except Exception as exc:   # noqa: BLE001 - a raising check is a failed op
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        self.ops.append({"op": name, "problems": problems})


# -- set-up --------------------------------------------------------------------

def import_library(workload: str) -> None:
    """The import half of set-up: the modules a workload calls into."""
    if workload == "cli-commands":
        import hiddensym.cli  # noqa: F401 - cold import is what users pay per command
    else:
        from hiddensym import catalog, geodesic, killing, sasaki, spin  # noqa: F401


def build(workload: str) -> dict:
    """The catalog half of set-up."""
    from hiddensym import catalog
    return {name: catalog.get(name) for name in _GEOMETRIES[workload]}


# -- library workloads ---------------------------------------------------------

def _residual(rep, expect_pass: bool, tol: float = TOL) -> list[str]:
    return gate.residual(rep.to_json(), expect_pass, tol)


def tensor_suite(rec: Recorder, env: dict, seed: int) -> None:
    """Acceptance criteria 1-4 (tensor parts) and 7-9 on one geometry each."""
    from hiddensym import killing, sasaki
    from hiddensym.manifold import exterior_derivative, sample_points

    tn, ps = env["taub-nut"], env["pseudo-sphere"]
    M = tn.manifold
    kw = dict(points=POINTS, seed=seed, tol=TOL)
    expect = {(item["check"], item["target"]): item["expect_pass"] for item in tn.manifest}

    for name in ("kchi", "k1", "k2", "k3"):
        rec.check(f"killing-vector {name}", lambda: _residual(
            killing.killing_vector_residual(tn.vectors[name], M, **kw), True))
    for name in ("f1", "f2", "f3", "fY"):
        rec.check(f"ky {name}", lambda: _residual(
            killing.ky_residual(tn.forms[name], M, **kw), expect["ky", name]))
    for name in ("f1", "f2", "f3"):
        rec.check(f"covconst {name}", lambda: _residual(
            killing.covariant_constancy_residual(tn.forms[name], M, **kw),
            expect["covconst", name]))

    def covconst_fy():
        pts = sample_points(M.chart, POINTS, seed)
        rep = killing.covariant_constancy_residual(tn.forms["fY"], M, points=pts, tol=TOL)
        problems = _residual(rep, expect["covconst", "fY"])
        worst = rep.extra.get("max_abs_per_point", [])
        if len(worst) != len(pts):
            problems.append(f"{len(worst)} worst components for {len(pts)} points")
        m = M.params["m"]
        for p, got in zip(pts, worst):
            want = 2 * (1 + p["r"] / (4 * m)) * p["r"] * math.sin(p["theta"])
            if not abs(got - want) / max(1.0, want) < TOL:
                problems.append(f"worst component {got!r}, predicted {want!r}")
        return problems
    rec.check("covconst fY", covconst_fy)

    for name in ("f1", "f2", "f3", "fY"):
        rec.check(f"unit-root {name}", lambda: _residual(
            killing.unit_root_check(tn.forms[name], M, **kw), expect["unit-root", name]))
    rec.check("quaternion f1,f2,f3", lambda: _residual(
        killing.quaternion_relations_check(*(tn.forms[f] for f in ("f1", "f2", "f3")),
                                           M, **kw), True))

    def associated_sk():
        env["K"] = killing.associated_sk(tn.forms["fY"], M)
        return _residual(killing.sk_residual(env["K"], M, **kw), True)
    rec.check("associated sk fY", associated_sk)

    S, P = ps.structure, ps.manifold
    for suite in (sasaki.structure_identity_suite, sasaki.sasakian_residuals,
                  sasaki.killing_triple_check, sasaki.curvature_characterization,
                  sasaki.sectional_curvature_check):
        rec.check(f"sasaki {suite.__name__}", lambda: _residual(suite(S, **kw), True))
    rec.check("sasaki einstein 2", lambda: _residual(
        sasaki.einstein_check(P, 2.0, **kw), True))

    def cone_para_hyperkahler():
        env["cone"] = sasaki.build_cone(S)
        return _residual(sasaki.para_hyperkahler_check(env["cone"], **kw), True)
    rec.check("cone para-hyperkahler", cone_para_hyperkahler)
    rec.check("cone ricci-flat", lambda: _residual(
        sasaki.einstein_check(env["cone"].manifold, 0.0, **kw), True))
    rec.check("cone round trip", lambda: _residual(
        sasaki.cone_roundtrip_residual(S, env["cone"], **kw), True))

    for a in range(3):
        rec.check(f"cky eta{a + 1}", lambda: _residual(
            killing.cky_residual(S.eta[a], P, **kw), True))
        rec.check(f"cky d eta{a + 1}", lambda: _residual(
            killing.cky_residual(exterior_derivative(S.eta[a], P), P, **kw), True))
    rec.check("phi not killing witness", lambda: gate.witness(
        sasaki.phi_not_killing_witness(S, points=POINTS, seed=seed).to_json(), 3))
    for a in range(3):
        rec.check(f"conformal to killing xi{a + 1}", lambda: _residual(
            sasaki.conformal_to_killing_check(S, S.xi[a], **kw), True))


def spin_identities(rec: Recorder, env: dict, seed: int) -> None:
    """Criterion 5 on Taub-NUT: one case for each operator kind.

    The {D_s, D_f1} anticommutator (31-41 s) and the X_k1 commutator (10 s,
    against 3 s for X_kchi) are left out to keep every run of the benchmark
    inside its time budget; D_fY^2 goes through the same D_f build and
    composition path."""
    from hiddensym import spin
    from hiddensym.spin import OperatorSpec

    tn = env["taub-nut"]
    M = tn.manifold
    ctx = spin.SpinContext(M, spin.Frame(tn.frame, tuple(M.signature)))
    bank = spin.spinor_bank(M, SPIN_BANK, seed=seed)
    kw = dict(bank=bank, points=SPIN_POINTS, seed=seed, tol=SPIN_TOL)
    Ds = OperatorSpec("standard-dirac")

    rec.check("commutator D_s X_kchi", lambda: _residual(spin.commutator_residual(
        Ds, OperatorSpec("killing-op", tn.vectors["kchi"]), ctx, **kw), True, SPIN_TOL))

    def square_fy():
        rep = spin.square_compare(OperatorSpec("dirac-type", tn.forms["fY"]), ctx, **kw)
        problems = _residual(rep, False, SPIN_TOL)
        if not rep.max_rel_residual > 1e-3:
            problems.append(f"separation {rep.max_rel_residual!r} <= 1e-3")
        return problems
    rec.check("square D_fY vs D_s", square_fy)


def _orbit_problems(traj, K, M) -> list[str]:
    from hiddensym import geodesic
    problems = ["left the chart"] if traj.exited_domain else []
    problems += gate.drift(geodesic.monitor_invariant(traj, K, M, tol=1e-6).to_json(), 1e-6)
    problems += gate.drift(geodesic.energy_report(traj, M, tol=1e-8).to_json(), 1e-8)
    return problems


def geodesic_orbits(rec: Recorder, env: dict, seed: int) -> None:
    """Criterion 4's orbit and step-halving pair, then a seeded ensemble of
    perturbed copies of the orbit integrated one after another."""
    from hiddensym import geodesic, killing
    from hiddensym.geodesic import GeodesicState, IntegratorConfig

    M = env["taub-nut"].manifold
    K = killing.associated_sk(env["taub-nut"].forms["fY"], M)
    orbit = GeodesicState(dict(ORBIT_POSITION), dict(ORBIT_VELOCITY))
    fine = IntegratorConfig(step=1e-3, t_span=(0.0, 10.0), stride=10)

    rec.check("criterion-4 orbit", lambda: _orbit_problems(
        geodesic.integrate(M, orbit, fine), K, M))

    def step_halving():
        drifts = []
        for step in (0.04, 0.02):
            cfg = IntegratorConfig(step=step, t_span=(0.0, 10.0), stride=1)
            traj = geodesic.integrate(M, orbit, cfg)
            drifts.append(geodesic.energy_report(traj, M, tol=1.0).max_drift)
        ratio = drifts[0] / drifts[1] if drifts[1] else math.inf
        return [] if math.isfinite(ratio) and ratio >= 8.0 else [
            f"step-halving drift ratio {ratio!r} < 8"]
    rec.check("step halving 0.04/0.02", step_halving)

    rng = random.Random(seed)
    for i in range(ENSEMBLE):
        # the orbit stays at least 0.3 inside the chart box on every side
        start = GeodesicState(
            {c: v + rng.uniform(-0.05, 0.05) for c, v in ORBIT_POSITION.items()},
            {c: v + rng.uniform(-0.02, 0.02) for c, v in ORBIT_VELOCITY.items()})
        rec.check(f"perturbed orbit {i}", lambda: _orbit_problems(
            geodesic.integrate(M, start, fine), K, M))


# -- CLI workload ----------------------------------------------------------------

def _cli_report(expect_pass: bool):
    def validate(lines, work):
        if len(lines) != 1:
            return [f"{len(lines)} report lines, expected 1"]
        problems = gate.residual(lines[0], expect_pass, TOL)
        if lines[0].get("expected_pass") is not expect_pass:
            problems.append(f"manifest expectation {lines[0].get('expected_pass')!r}")
        return problems
    return validate


def _cli_geodesic(lines, work):
    if len(lines) != 2:
        return [f"{len(lines)} lines, expected energy and invariant reports"]
    energy, invariant = lines
    problems = gate.drift(energy, 1e-8) + gate.drift(invariant, 1e-6)
    if energy.get("exited_domain") is not False:
        problems.append("orbit left the chart")
    rows = (work / "orbit.csv").read_text().splitlines()
    if len(rows) != energy.get("steps_kept", -1) + 1:
        problems.append(f"{len(rows)} CSV rows for {energy.get('steps_kept')} steps")
    return problems


def _cli_jacobi(lines, work):
    if len(lines) != 3:
        return [f"{len(lines)} lines, expected 3 algebra reports"]
    return (gate.algebra(lines[0], min_cases=1080) + gate.algebra(lines[1])
            + gate.algebra(lines[2]))


def _cli_table(lines, work):
    if len(lines) != 1 or not lines[0].get("finite") or not lines[0].get("graded"):
        return ["no structure table"]
    return []


def _cli_export(lines, work):
    if lines:
        return ["export with --out printed to stdout"]
    doc = gate.strict_json((work / "taub-nut.json").read_text())
    return [] if doc.get("metric") else ["exported file has no metric"]


def cli_command_table(seed: int, work) -> list[tuple[list[str], object]]:
    """(arguments, validator) for README commands, in run order.

    Seven README commands are left out to keep every run of the benchmark
    inside its time budget: check ky, unit-root and quaternion on taub-nut,
    construct assoc-sk, sasaki verify and cone, and spin commute.  Together
    they take 28 s of a 50 s pass, and their library work is measured by
    tensor-suite, geodesic-orbits and spin-identities."""
    tn = ["--catalog", "taub-nut", "--seed", str(seed)]
    return [
        (["check", "killing-vector", *tn, "--target", "k1"], _cli_report(True)),
        (["check", "covconst", *tn, "--target", "fY"], _cli_report(False)),
        (["geodesic", "run", *tn,
          "--position", ",".join(f"{c}={v}" for c, v in ORBIT_POSITION.items()),
          "--velocity", ",".join(f"{c}={v}" for c, v in ORBIT_VELOCITY.items()),
          "--t1", "10", "--step", "0.001", "--invariant", "assoc-sk:fY",
          "--csv", str(work / "orbit.csv")], _cli_geodesic),
        (["algebra", "jacobi", "--cutoff", "10"], _cli_jacobi),
        (["algebra", "table", "--cutoff", "2"], _cli_table),
        (["catalog", "export", *tn, "--out", str(work / "taub-nut.json")], _cli_export),
        (["check", "ky", "--manifold", str(work / "taub-nut.json"), "--seed", str(seed),
          "--target", "f1"], _cli_report(True)),
        (["check", "killing-vector", "--catalog", "flat3", "--seed", str(seed),
          "--target", "dilation"], _cli_report(False)),
    ]


def cli_commands(rec: Recorder, seed: int, work, trace: bool = False) -> dict:
    """Each README command as its own process, one after another, with a
    host-speed probe running in it.  With trace, every command runs under the
    tracer and leaves its summary in work.  Returns the command count, the
    bytes the commands printed and the commands' host-speed factor: their
    time at reference speed over their wall time."""
    emitted = 0
    wall = at_reference = 0.0
    speed_file = work / "speed.json"
    for i, (argv, validate) in enumerate(cli_command_table(seed, work)):
        target = [str(WORKER), "cli", str(work / f"cli-{i:02d}.json")] if trace else [
            "hiddensym.cli"]
        cmd = [sys.executable, str(HOSTSPEED), str(speed_file), *target, *argv]

        def run_command():
            nonlocal emitted, wall, at_reference
            speed_file.unlink(missing_ok=True)
            done = run_child(cmd, timeout=170, new_group=False)
            emitted += len(done.stdout.encode())
            speed = json.loads(speed_file.read_text())
            wall += speed["wall_s"]
            at_reference += speed["work_s"]
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return [f"exit code {done.returncode}, expected 0"]
            try:
                lines = gate.strict_json_lines(done.stdout)
            except ValueError as exc:
                return [f"stdout is not strict JSON: {exc}"]
            return validate(lines, work)
        rec.check("hiddensym " + " ".join(argv[:2]), run_command)
    return {"cli.commands": len(rec.ops), "cli.emit_bytes": emitted,
            "speed_factor": at_reference / wall if wall else 1.0}


PASSES = {
    "tensor-suite": tensor_suite,
    "spin-identities": spin_identities,
    "geodesic-orbits": geodesic_orbits,
}
