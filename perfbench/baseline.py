"""Record a baseline: two sets of runs of every workload, one run per seed.

    python3 perfbench/baseline.py

Writes perfbench/baseline.json.  For each set, workload and end-to-end
metric it records the values, their median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median next to
the metric's bound, and how far the second set's median moved from the
first's.  It then makes TRACE_REPEATS traced runs of each workload at seed 0
and records which per-layer counts (units other than seconds) differ between
them; none should.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(10))
SETS = 2
TRACE_REPEATS = 2
COUNT_UNITS = ("count", "ops", "bytes", "share")
RUN_META = ("git_sha", "python", "sympy", "numpy", "nproc", "src_lines", "child_env",
            "address_randomisation")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, text=True, capture_output=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    meta = json.loads(lines[0])["meta"]
    return meta, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "sets": SETS,
              "workloads": {w: {"correct": True, "attempted": 0, "failed": 0, "sets": []}
                            for w in names}}
    for n in range(SETS):
        for workload in names:
            results = []
            for seed in SEEDS:
                meta, result = run_once(workload, seed, spec["run_seconds"], 0)
                results.append(result)
                report.setdefault("meta", {k: meta[k] for k in RUN_META})
                print(f"set {n + 1} {workload} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()), flush=True)
            entry = report["workloads"][workload]
            entry["correct"] &= all(r["correct"] for r in results)
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
            entry["sets"].append({m["name"]: summarise([
                r["metrics"][m["name"]]["value"] for r in results])
                for m in spec["end_to_end"]})

    for workload, entry in report["workloads"].items():
        entry["shift"] = {}
        for m in spec["end_to_end"]:
            first, last = (entry["sets"][i][m["name"]]["median"] for i in (0, -1))
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            entry["shift"][m["name"]] = {"worse_by": worse, "bound": m["bound"],
                                         "within": worse <= m["bound"]}
            spreads = " ".join(f"{s[m['name']]['spread']:.3f}" for s in entry["sets"])
            print(f"{workload} {m['name']}: median {first:.4g} -> {last:.4g} {m['unit']}, "
                  f"spreads {spreads}, worse by {worse:+.3f} (bound {m['bound']})",
                  flush=True)
        traced = [run_once(workload, SEEDS[0], spec["run_seconds"], 1)[1]
                  for _ in range(TRACE_REPEATS)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] in COUNT_UNITS} for t in traced]
        entry["trace"] = {
            "correct": all(t["correct"] for t in traced),
            "counts": counts[0],
            "counts_differing": sorted(k for k in counts[0]
                                       if any(c[k] != counts[0][k] for c in counts)),
            "overhead_s": [t["metrics"]["trace.overhead_s"]["value"] for t in traced]}
        print(f"{workload} traced: correct={entry['trace']['correct']} "
              f"differing={entry['trace']['counts_differing']}", flush=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
