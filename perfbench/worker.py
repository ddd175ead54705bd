"""One benchmark pass in a fresh interpreter; started by run.py.

    worker.py pass  --workload W --seed N [--trace]   set up, run, check
    worker.py setup --workload W                       set up only
    worker.py cli TRACE_FILE ARGS...                   one traced CLI command

``pass`` and ``setup`` print one JSON object on their last stdout line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads
from harness import WORK_DIR


def _versions() -> dict:
    import numpy
    import sympy
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "numpy": numpy.__version__}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_cli(trace_out: str, argv: list[str]) -> int:
    import hiddensym.cli as cli
    tracer = tracing.Tracer()
    tracing.install(tracer)
    root = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        Path(trace_out).write_text(json.dumps(tracer.summary()))


def one_pass(workload: str, seed: int, setup_only: bool, trace: bool) -> dict:
    """Set up and, unless setup_only, run one pass.  ``setup_s`` and ``run_s``
    are at reference host speed (hostspeed.py); ``*_wall_s`` are as timed."""
    tracer = tracing.Tracer() if trace else None
    probe = hostspeed.Probe().start()
    t0 = perf_counter()
    workloads.import_library(workload)
    if tracer is not None and workload != "cli-commands":
        tracing.install(tracer)
    env = workloads.build(workload)
    t_setup = perf_counter()
    result = {"setup_s": probe.work_s(t0, t_setup), "setup_wall_s": t_setup - t0,
              "versions": _versions()}
    if setup_only:
        probe.stop()
        return result

    rec = workloads.Recorder()
    cost = tracing.calibrate() if tracer is not None else None
    root = tracer.open("run") if tracer is not None else None
    t1 = perf_counter()
    summaries = []
    extra: dict = {}
    try:
        if workload == "cli-commands":
            WORK_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
                work = Path(tmp)
                extra = workloads.cli_commands(rec, seed, work, trace)
                if trace:
                    summaries = [json.loads(p.read_text())
                                 for p in sorted(work.glob("cli-*.json"))]
                    # each command's cli.main span is a child of this pass's
                    # run span, so run.self_s is interpreter start plus import
                    tracer.spans[root][4] += sum(
                        summ["spans"]["cli.main"]["s"] for summ in summaries)
        else:
            workloads.PASSES[workload](rec, env, seed)
    except Exception as exc:   # noqa: BLE001 - reported as a failed operation
        traceback.print_exc(file=sys.stderr)
        rec.ops.append({"op": "pass", "problems": [f"{type(exc).__name__}: {exc}"]})
    t2 = perf_counter()
    probe.stop()
    result["run_wall_s"] = t2 - t1
    if workload == "cli-commands":
        # the work runs in the command processes, each with a probe of its own
        result["run_s"] = result["run_wall_s"] * extra.pop("speed_factor", 1.0)
    else:
        result["run_s"] = probe.work_s(t1, t2)
    if tracer is not None:
        tracer.close(root)
        summaries.insert(0, tracer.summary())
        raw = [summ.pop("raw") for summ in summaries]
        merged = tracing.merge(summaries)
        merged["counts"].update(extra)
        result["trace"] = {"summary": merged, "raw": raw,
                           "overhead_s": tracing.overhead_s(merged, cost),
                           "call_cost_s": cost}
    result["ops"] = rec.ops
    # the CLI workload's memory is that of its command processes
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN
                                         if workload == "cli-commands"
                                         else resource.RUSAGE_SELF)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return traced_cli(argv[1], argv[2:])
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["pass", "setup"])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    result = one_pass(args.workload, args.seed, args.mode == "setup", args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
