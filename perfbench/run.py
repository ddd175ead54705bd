"""Benchmark entry point for hiddensym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh worker processes of one workload, one after another, until S
seconds have passed (at least one pass), plus set-up-only workers until
there are SETUP_SAMPLES set-up timings or those workers have taken
SETUP_BUDGET_S (but at least MIN_SETUP_SAMPLES timings, counting the
passes').  Times are at reference host speed (hostspeed.py); the wall
times as measured are printed beside them.  Every verdict is checked.  With
--trace 1 the passes are traced and it reports the per-layer metrics named
in BENCHMARK.json instead of the end-to-end ones.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 2, with no result line, when the checkout has no hiddensym sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import (CHILD_ENV, ROOT, SRC, WORK_DIR, ChildError,  # noqa: E402
                     fix_address_layout, run_worker)

SETUP_SAMPLES = 9
MIN_SETUP_SAMPLES = 3
SETUP_BUDGET_S = 10.0
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def metadata(seed: int, versions: dict, fixed_layout: bool) -> dict:
    return {"git_sha": _git_sha(), **versions, "nproc": os.cpu_count(),
            "src_lines": _src_lines(), "seed": seed, "child_env": CHILD_ENV,
            "address_randomisation": not fixed_layout}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hiddensym" / "cli.py").is_file():
        print(f"error: no hiddensym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    fixed_layout = fix_address_layout()
    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        base.append("--trace")
    passes, setups = [], []
    try:
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(run_worker(["pass", *base], remaining()))
            setups.append(passes[-1])
        setup_start = time.monotonic()
        while not args.trace and len(setups) < SETUP_SAMPLES and (
                len(setups) < MIN_SETUP_SAMPLES
                or time.monotonic() - setup_start < SETUP_BUDGET_S):
            setups.append(run_worker(["setup", *base], remaining()))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # workers remove their own scratch directories; a killed one may not
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    ops = [op for run in passes for op in run["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    samples = {"setup_s": [s["setup_s"] for s in setups],
               "run_s": [p["run_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               # as timed, before the host-speed correction; not metrics
               "setup_wall_s": [s["setup_wall_s"] for s in setups],
               "run_wall_s": [p["run_wall_s"] for p in passes]}
    meta = metadata(args.seed, passes[0]["versions"], fixed_layout)
    meta.update(workload=args.workload, elapsed_s=time.monotonic() - start,
                passes=len(passes), setups=len(setups),
                attempted=len(ops), failed=failed,
                fail_share=failed / len(ops) if ops else 1.0)
    print(json.dumps({"meta": meta}, sort_keys=True))

    if args.trace:
        traced = passes[-1]
        found = tracing.layer_metrics(traced["trace"]["summary"])
        found["trace.overhead_s"] = traced["trace"]["overhead_s"]
        found["trace.run_s"] = traced["run_s"]
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"meta": meta, "metrics": found, **traced["trace"]}))
    else:
        found = {}
        for name, values in samples.items():
            q1, med, q3 = _quartiles(values)
            found[name] = med
            unit = next((m["unit"] for m in wanted if m["name"] == name), "s")
            print(f"{name}: median {med:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"n={len(values)}")
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    for op in ops:
        if op["problems"]:
            print(f"FAILED {op['op']}: {'; '.join(op['problems'])}")
    print(json.dumps({"correct": failed == 0 and bool(ops), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
