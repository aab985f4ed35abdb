"""Benchmark of the ice-colors workbench, run from the root of a checkout.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one operation at a time,
each in a fresh interpreter (benchmark/op.py), because users pay interpreter
start, imports and set-up on every invocation and no in-memory state may
carry over between operations.  Operations run the package from src/ of the
checkout with the default thread count: ICE_COLORS_THREADS is removed from
their environment.

Workloads (why each was chosen is in BENCHMARK.json):

  pn-n4        ice-colors pn --n 4; per-state counting dominates.
  crossval-n5  pn_consistent(5) on the frozen n=5 count table, then
               symmetry_check and positivity_report; exact arithmetic only.
  verify-n4    ice-colors verify --suite all --n 4 --trials 20 --seed N;
               per-state invariants and the numeric theta layer.

Every operation is checked: exit code, the frozen outputs in expected.json,
and byte-identical stdout for every operation of a run.  A mismatch, crash
or timeout counts as a failed operation; "attempted" and "failed" count
operations only, and fail_ratio = failed / attempted is printed in the
summary.  Between operations an untraced run spawns set-up-only processes
(about one per two seconds of the run) so that setup_s is a median of many
samples spread over the same period as the operations.  Probes run no
computation and no output check; they are reported apart, and a failed
probe makes the result incorrect.

The shared host this benchmark was sized on changes speed by a quarter and
more within a minute, for every workload and for interpreter start-up
alike, so raw wall-time medians of runs made minutes apart spread past any
useful bound.  So every operation and probe process also gauges the host's
speed as it runs: op.py imports the standard-library modules the package
is built on before the package itself, and the time from spawn to that
point is the process's gauge time.  Each process's wall time and set-up
time are scaled by GAUGE_S over its own gauge time, and the end-to-end
metrics are medians of the scaled values: op_s_p50_scaled of operation
wall times, setup_s of set-up times, both in seconds at the speed at which
that start-up takes GAUGE_S.  The gauge runs nothing of the package, so a
change to the package moves the scaled times as it moves raw wall time,
while a slow spell of the host slows the gauge in the same process too and
cancels out.  Scaling by a run-wide median gauge, or by fixed work timed
in this long-lived parent or in separate processes, was tried first and
followed the operations' speed less closely.  The traced run reports the
raw median as process.op_s_p50.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced operations alternate, and the result
carries the per-layer metrics (medians over traced operations, see
layers.py), the CPU time and raw median wall time per untraced operation
and the tracing overhead.
The last line of stdout is the JSON result; run metadata and a readable
summary come before it.  The spans of a traced run are written to
benchmark/.work/spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OP_PY = os.path.join(HERE, "op.py")

sys.path.insert(0, HERE)
import layers  # noqa: E402

PROBES_PER_S = 0.5
# The gauge time (see above) at this benchmark's usual speed on a 2-vCPU
# Intel Xeon host; scaled times are in seconds at that speed.
GAUGE_S = 0.1
MIN_OPS = 2
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every process of a run ends within this


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def load_record(path: str) -> dict:
    """A record an operation wrote, or {} if it died before writing it."""
    try:
        return load_json(path)
    except (OSError, ValueError):
        return {}


def check_checkout(workload: str, expected: dict) -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "ice_colors", "__init__.py")):
        raise SetupError("src/ice_colors is missing from this checkout")
    if workload != "crossval-n5":
        return
    fixture = expected["counts_n5_fixture"]
    with open(os.path.join(HERE, fixture["file"]), "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw.removesuffix(b"\n")).hexdigest()
    if digest != fixture["sha256_without_final_newline"]:
        raise SetupError(f"n=5 count-table fixture digest {digest} does not match")
    records = json.loads(raw)
    states = sum(r["count"] for r in records)
    if (len(records), states) != (fixture["cells"], fixture["states"]):
        raise SetupError(f"n=5 fixture has {len(records)} cells and {states} states")


# ---------------------------------------------------------------------------
# output checks; each returns None for a correct operation, else the reason


def check_pn(payload, expected: dict, key: str) -> str | None:
    if payload.get("coeffs") != expected[key]:
        return f"coefficients {payload.get('coeffs')} differ from the frozen {key}"
    if payload.get("symmetry_ok") is not True:
        return "symmetry check did not pass"
    if payload.get("negative_coeffs") != []:
        return f"negative coefficients {payload.get('negative_coeffs')}"
    return None


def check_verify(payload, expected: dict) -> str | None:
    names = [r.get("name") for r in payload]
    if names != expected["verify_n4_reports"]:
        return f"report names {names} differ from the frozen list"
    failing = [r["name"] for r in payload if r.get("pass") is not True]
    if failing:
        return f"reports not passing: {failing}"
    return None


def check_report(workload: str, stdout: bytes, expected: dict) -> str | None:
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return f"stdout is not one JSON report: {err}"
    try:
        if workload == "verify-n4":
            return check_verify(payload, expected)
        return check_pn(payload, expected,
                        "pn_n4_coeffs" if workload == "pn-n4" else "pn_n5_coeffs")
    except (AttributeError, KeyError, TypeError) as err:
        return f"report has an unexpected shape: {err!r}"


def check_output(workload: str, code: int, stdout: bytes, expected: dict) -> str | None:
    reason = check_report(workload, stdout, expected)
    if code != 0:
        return f"exit code {code}" + (f"; {reason}" if reason else "")
    return reason


# ---------------------------------------------------------------------------
# one operation in its own process


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ICE_COLORS_THREADS", None)
    return env


def spawn(argv: list[str], out_path: str, err_path: str, timeout: float):
    """Run argv with stdout/stderr to files; returns
    (exit code, timed out, start, end, rusage), start and end on the
    system-wide monotonic clock."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        pid = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), not ready, start, end, usage


class Loop:
    def __init__(self, workload: str, seed: int, expected: dict, deadline: float):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.deadline = deadline
        self.count = 0
        self.first_stdout: bytes | None = None

    def run(self, trace: bool = False, setup_only: bool = False) -> dict:
        index = self.count
        self.count += 1
        base = os.path.join(WORK, f"op{index:03d}")
        argv = [sys.executable, OP_PY, self.workload, "--seed", str(self.seed),
                "--marks", base + ".marks"]
        if trace:
            argv += ["--trace", base + ".trace"]
        if setup_only:
            argv.append("--setup-only")
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        code, timed_out, start, end, usage = spawn(
            argv, base + ".out", base + ".err", timeout)
        op = {"index": index, "traced": trace, "wall_s": end - start,
              "cpu_s": usage.ru_utime + usage.ru_stime, "reason": None}
        marks = load_record(base + ".marks")
        if "gauge_end" in marks:
            op["gauge_s"] = marks["gauge_end"] - start
        if "setup_end" in marks:
            op["setup_s"] = marks["setup_end"] - start
            op["import_s"] = marks["import_s"]
        if "peak_rss_kb" in marks:
            op["rss_mb"] = marks["peak_rss_kb"] / 1024.0
        record = load_record(base + ".trace") if trace else {}
        if record:
            op["trace"] = record
        with open(base + ".out", "rb") as handle:
            stdout = handle.read()
        if timed_out:
            op["reason"] = f"timed out after {timeout:.0f} s"
        elif setup_only:
            op["reason"] = None if code == 0 else f"set-up exit code {code}"
        else:
            op["reason"] = check_output(self.workload, code, stdout, self.expected)
            if op["reason"] is None:
                if self.first_stdout is None:
                    self.first_stdout = stdout
                elif stdout != self.first_stdout:
                    op["reason"] = "stdout differs from the first operation of the run"
        if op["reason"] is not None:
            with open(base + ".err", "rb") as handle:
                tail = handle.read()[-2000:].decode(errors="replace")
            print(f"op {index} failed: {op['reason']}\n{tail}", file=sys.stderr)
        return op


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(runs: list[dict], key: str) -> list[float]:
    """``key`` of each process, in seconds at the speed where its gauge
    time reads GAUGE_S."""
    return [o[key] * GAUGE_S / o["gauge_s"] for o in runs
            if key in o and o.get("gauge_s")]


def end_to_end(probes: list[dict], ops: list[dict]) -> dict[str, float]:
    return {
        "op_s_p50_scaled": median(scaled(ops, "wall_s")),
        "setup_s": median(scaled(probes + ops, "setup_s")),
        "peak_rss_mb": max((o["rss_mb"] for o in ops if "rss_mb" in o), default=0.0),
    }


def per_layer(ops: list[dict]) -> dict[str, float]:
    plain = [o for o in ops if not o["traced"]]
    per_op = [layers.op_metrics(o["trace"]) for o in ops if "trace" in o] or [
        layers.op_metrics({"spans": [], "time": {}, "calls": {}, "counts": {}})]
    metrics = {name: median([m[name] for m in per_op]) for name in per_op[0]}
    metrics["cli.import_s"] = median([o["import_s"] for o in ops if "import_s" in o])
    metrics["process.cpu_s_per_op"] = median([o["cpu_s"] for o in plain])
    plain_wall = median([o["wall_s"] for o in plain])
    metrics["process.op_s_p50"] = plain_wall
    metrics["trace.overhead_ratio"] = (
        median([o["wall_s"] for o in ops if o["traced"]]) / plain_wall
        if plain_wall else 0.0)
    return metrics


def write_spans(ops: list[dict]) -> None:
    rows = []
    for op in ops:
        for name, start, end, parent, covered in op.get("trace", {}).get("spans", []):
            rows.append({"op": op["index"], "name": name, "start": start,
                         "end": end, "parent": parent, "self_s": end - start - covered})
    with open(os.path.join(WORK, "spans.json"), "w") as handle:
        json.dump(rows, handle)


def git_revision() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.exists(path):
        with open(path) as handle:
            return handle.read().strip()
    return ref[5:]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "git_revision": git_revision(),
        "threads": "package default, ICE_COLORS_THREADS unset",
        "ice_colors_threads_in_caller_env": os.environ.get("ICE_COLORS_THREADS"),
        "loop": "closed, 1 client, 1 operation per fresh process",
    }


def main() -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    begin = time.monotonic()
    expected = load_json(os.path.join(HERE, "expected.json"))
    try:
        check_checkout(args.workload, expected)
    except (SetupError, OSError, ValueError) as err:
        print(f"benchmark set-up refused: {err}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    print(json.dumps({"meta": metadata(args)}))

    loop = Loop(args.workload, args.seed, expected, begin + RUN_LIMIT_S)
    ops: list[dict] = []
    probes: list[dict] = []
    start = time.monotonic()
    # Start another operation only if a typical one still ends within the
    # measured period, so a run lasts about --seconds whatever the op length.
    while time.monotonic() < loop.deadline and (
            len(ops) < MIN_OPS or time.monotonic() - start
            + median([o["wall_s"] for o in ops]) <= args.seconds):
        ops.append(loop.run(trace=bool(args.trace) and len(ops) % 2 == 1))
        while (not args.trace and time.monotonic() < loop.deadline
               and len(probes) < PROBES_PER_S * (time.monotonic() - start)):
            probes.append(loop.run(setup_only=True))

    failed = sum(o["reason"] is not None for o in ops)
    attempted = len(ops)
    probes_failed = sum(o["reason"] is not None for o in probes)
    if args.trace:
        metrics = per_layer(ops)
        write_spans(ops)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(probes, ops)
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(f"{args.workload}: {len(ops)} operations, "
          f"fail_ratio = {failed}/{attempted} = {failed / attempted:.3f}; "
          f"{len(probes)} set-up probes, {probes_failed} failed; "
          f"gauge median {median([o['gauge_s'] for o in probes + ops if 'gauge_s' in o]):.4f} s")
    print("  operation wall times (s): "
          + " ".join(f"{o['wall_s']:.3f}{'t' if o['traced'] else ''}" for o in ops))
    print("  operation gauge times (s): "
          + " ".join(f"{o['gauge_s']:.4f}" if "gauge_s" in o else "-" for o in ops))
    for m in declared:
        print(f"  {m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and probes_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
