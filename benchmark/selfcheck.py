"""Check that the benchmark's output checks catch wrong results.

    python3 benchmark/selfcheck.py

Runs real operations through the benchmark's loop against deliberately
wrong expectations, and feeds the checks doctored reports, and requires
each case to come back as a failed operation with a reason (never a pass
and never an exception).  Also requires the n=5 fixture check to refuse a
wrong digest.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main() -> int:
    expected = run.load_json(os.path.join(run.HERE, "expected.json"))
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    results = []

    def case(label: str, reason: str | None, want_failure: bool = True) -> None:
        ok = (reason is not None) == want_failure
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}: {reason or 'accepted'}")

    def loop(workload: str, exp: dict) -> run.Loop:
        return run.Loop(workload, 7, exp, time.monotonic() + run.RUN_LIMIT_S)

    wrong_poly = copy.deepcopy(expected)
    wrong_poly["pn_n4_coeffs"][6] = "436"
    case("pn-n4 against a wrong frozen polynomial",
         loop("pn-n4", wrong_poly).run()["reason"])

    verify = loop("verify-n4", expected)
    first = verify.run()
    case("verify-n4 against the frozen report names", first["reason"],
         want_failure=False)
    with open(os.path.join(run.WORK, f"op{first['index']:03d}.out"), "rb") as handle:
        stdout = handle.read()
    reports = json.loads(stdout)
    reports[-1]["pass"] = False
    case("verify-n4 report with one pass:false",
         run.check_output("verify-n4", 0, json.dumps(reports).encode(), expected))
    case("verify-n4 with exit code 1",
         run.check_output("verify-n4", 1, stdout, expected))
    case("crash with empty stdout", run.check_output("pn-n4", 1, b"", expected))
    verify.first_stdout = stdout.replace(b'"pass": true', b'"pass": true ', 1)
    case("verify-n4 whose stdout differs from the run's first operation",
         verify.run()["reason"])

    missing = copy.deepcopy(expected)
    missing["verify_n4_reports"].append("extra_report")
    case("verify-n4 against a longer report-name list",
         loop("verify-n4", missing).run()["reason"])

    wrong_digest = copy.deepcopy(expected)
    wrong_digest["counts_n5_fixture"]["sha256_without_final_newline"] = "0" * 64
    try:
        run.check_checkout("crossval-n5", wrong_digest)
        refused = None
    except run.SetupError as err:
        refused = str(err)
    case("crossval-n5 set-up with a wrong fixture digest", refused)

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
