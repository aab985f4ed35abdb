"""Measure the run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py [--seeds 1 2 ...]

Runs benchmark/run.py untraced, for the BENCHMARK.json run length, once per
workload and seed, one run at a time.  The runs go round-robin: every
workload of BENCHMARK.json once for the first seed, then every workload for
the next seed, so that a slow spell of the machine falls on all workloads
alike instead of on the one that happened to run during it.

For each workload and metric it records the values, their median, and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound.  It lists as
unresolved every metric whose spread exceeds its bound and every metric
whose median is worse than in the previous set of the same schedule by more
than its bound.  Each invocation appends one set to benchmark/spread.json
and prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "spread.json")
SCHEDULE = ("round-robin over workloads per seed; set-up probes between operations; "
            "times scaled per process by its start-up gauge")


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} failed\n{done.stderr}", flush=True)
    return result


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    sets = load_json(OUT)["sets"] if os.path.exists(OUT) else []
    previous = next((s for s in reversed(sets) if s.get("schedule") == SCHEDULE
                     and s["run_seconds"] == spec["run_seconds"]), None)

    record = {"schedule": SCHEDULE, "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}, "unresolved": []}
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(one_run(workload, seed, spec["run_seconds"]))
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            rows[name] = {"values": values, "median": mid,
                          "iqr_share": (q3 - q1) / mid, "bound": metric["bound"]}
            line = (f"{workload:12s} {name:12s} median {mid:.4f} {metric['unit']:3s}"
                    f" spread {rows[name]['iqr_share']:.4f} (bound {metric['bound']})")
            if rows[name]["iqr_share"] > metric["bound"]:
                record["unresolved"].append(
                    f"{workload} {name}: spread {rows[name]['iqr_share']:.3f} "
                    f"> bound {metric['bound']}")
            if previous is not None:
                before = previous["workloads"][workload]["metrics"][name]["median"]
                worse = worse_by(metric, before, mid)
                line += f" vs previous set {worse:+.4f}"
                if worse > metric["bound"]:
                    record["unresolved"].append(
                        f"{workload} {name}: median {mid:.4f} is {worse:.3f} worse "
                        f"than the previous set's {before:.4f}, bound {metric['bound']}")
            print(line, flush=True)
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs[workload]],
            "failed": [r["failed"] for r in runs[workload]], "metrics": rows}
    for item in record["unresolved"]:
        print(f"unresolved: {item}")
    with open(OUT, "w") as handle:
        json.dump({"sets": sets + [record]}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
