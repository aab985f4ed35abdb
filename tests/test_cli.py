import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ice_colors
from ice_colors import cli, pn, states, verify
from ice_colors.cli import build_parser, main, run
from ice_colors.exact import SingularInputError
from ice_colors.states import enumerate_states, render_state
from ice_colors.theta import NearSingularError, ParamSampler


def run_cli(capsys, *argv):
    code = run(build_parser().parse_args(list(argv)))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pn_n1(capsys):
    code, out, _ = run_cli(capsys, "pn", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["degree"] == 0
    assert payload["coeffs"] == ["1"]
    assert payload["symmetry_ok"] is True
    assert payload["negative_coeffs"] == []
    assert "A:m=1" in payload["variants_checked"]


def test_pn_n2_exact_coeffs(capsys):
    code, out, _ = run_cli(capsys, "pn", "--n", "2")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "1", "2"]


def test_counts_n1(capsys):
    code, out, _ = run_cli(capsys, "counts", "--n", "1")
    assert code == 0
    assert json.loads(out) == [
        {"m": 0, "l": 2, "k0": 3, "k1": 2, "k2": 1, "count": 1},
        {"m": 1, "l": 1, "k0": 3, "k1": 1, "k2": 2, "count": 1},
    ]


def test_counts_csv(capsys):
    code, out, _ = run_cli(capsys, "counts", "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,l,k0,k1,k2,count"
    assert len(lines) == 3


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"n": 2, "states": 12}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_count_matches_state_walk(capsys, n):
    code, out, _ = run_cli(capsys, "enumerate", "--n", str(n))
    assert code == 0
    assert json.loads(out) == {"n": n, "states": sum(1 for _ in enumerate_states(n))}


def test_enumerate_walks_states_only_to_dump(capsys, monkeypatch):
    def no_walk(n):
        raise AssertionError("state walk")

    monkeypatch.setattr(states, "enumerate_states", no_walk)
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5")
    assert (code, json.loads(out)) == (0, {"n": 5, "states": 1468320})
    with pytest.raises(AssertionError, match="state walk"):
        run_cli(capsys, "enumerate", "--n", "1", "--dump")


def test_enumerate_dump(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--dump")
    assert code == 0
    assert "states: 2" in out
    assert ">" in out


def test_enumerate_dump_n3_is_pinned(capsys):
    # The dump prints every state in enumeration order, so pinning its bytes
    # pins that order as well as every state's arrows and heights.
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--dump")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "de84295cef4764ac6bb36b7aa0e958c08552343d5002a614c1fe6f1f35391cba")


DUMP_SHA256 = {
    1: "63d49cebe2faab498bc0b1b2f65c5bc70aeca7ced06ec44f264ce027909e8f86",
    2: "0b422aa04d5321915e6d5b51082f8712a64a1cc906126ae39dd222e5ded5cb9d",
    3: "de84295cef4764ac6bb36b7aa0e958c08552343d5002a614c1fe6f1f35391cba",
    4: "e1b8e67fc18629cf0b8032ce8b489d3468a8667cb3b7bc2206f6c97efca48356",
}


@pytest.mark.parametrize("n", sorted(DUMP_SHA256))
def test_streamed_dump_is_pinned_on_stdout_and_file(tmp_path, capsys, n):
    # The dump is written state by state; stdout and --output still get the
    # bytes of the whole report as one string.
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--dump")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[n]
    target = tmp_path / "dump.txt"
    assert run_cli(capsys, "enumerate", "--n", str(n), "--dump",
                   "--output", str(target)) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DUMP_SHA256[n]


def test_dump_is_written_as_it_is_made():
    # The n = 6 walk takes hours: what the budget lets it make is written,
    # from the first state on, before the run exits 2.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ice_colors.cli", "enumerate", "--n", "6", "--dump",
         "--time-budget", "0.5"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (2, "time budget exhausted\n")
    assert done.stdout.startswith(render_state(next(enumerate_states(6))) + "\n")


def test_dump_usage_error_opens_no_file(tmp_path, capsys):
    target = tmp_path / "dump.txt"
    code, out, err = run_cli(capsys, "enumerate", "--n", "0", "--dump",
                             "--output", str(target))
    assert (code, out, err) == (2, "", "n must be >= 1\n")
    assert not target.exists()


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "theta", "--trials", "100", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    reports = json.loads(out_a)
    assert all(r["pass"] for r in reports)
    assert {"name", "trials", "max_rel_residual", "pass"} == set(reports[0])


def test_verify_all_passes_at_seed_17(capsys):
    # One n = 3 draw at this seed cancels heavily: its 208 state weights
    # sum to about 1/1.5e9 of their total modulus.  Summed state by state
    # the residual is 2.3e-8; the row transfer's short partial sums keep it
    # near 8e-10, under the 1e-8 tolerance.
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "4",
                           "--trials", "20", "--seed", "17")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_verify_lattice(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lattice", "--n", "2",
                           "--trials", "1")
    assert code == 0
    assert [r["name"] for r in json.loads(out)] == [
        "state_invariants_n1", "state_invariants_n2"]


def test_state_breaking_lattice_rules_is_reported(capsys, monkeypatch):
    # With the upper a- vertex unclassified, a column holding one breaks the
    # ice rule; its states must count as failed, not escape as a traceback.
    kinds = {key: kind for key, kind in states._UPPER_KIND.items() if kind != "a-"}
    monkeypatch.setattr(states, "_UPPER_KIND", kinds)
    code, out, err = run_cli(capsys, "verify", "--suite", "lattice", "--n", "2")
    assert (code, err) == (1, "")
    assert json.loads(out) == [
        {"name": "state_invariants_n1", "trials": 2, "max_rel_residual": 0.0, "pass": True},
        {"name": "state_invariants_n2", "trials": 12, "max_rel_residual": 2.0, "pass": False}]


@pytest.mark.parametrize("seed, n", [(0, 3), (7, 3), (17, 3), (0, 4)])
def test_verify_equals_the_suites_run_in_process(capsys, seed, n):
    # The pointwise checks run in a forked worker; the report must be the
    # in-process suites' records, the lattice reports first.
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", str(n),
                             "--seed", str(seed))
    sampler = ParamSampler(seed)
    reports = (verify.lattice_suite(max_n=n)
               + verify.identity_reports(verify.identity_draws(sampler, trials=100))
               + verify.filali_suite(sampler, trials=20)
               + verify.specialization_suite(sampler, trials=5))
    assert out == json.dumps(reports) + "\n"
    assert (code, err) == (0 if all(r["pass"] for r in reports) else 1, "")


def _reports_killed_by_sigkill(draws, parent=os.getpid()):
    if os.getpid() == parent:
        raise AssertionError("the identity checks ran in the parent")
    os.kill(os.getpid(), signal.SIGKILL)


def _reports_raise(draws):
    raise RuntimeError("identity checks broke")


@pytest.mark.parametrize("reports, status", [
    (_reports_raise, "identity worker exited with status 1\n"),
    (_reports_killed_by_sigkill, "identity worker killed by SIGKILL\n"),
], ids=["raises", "sigkill"])
def test_failed_identity_worker_exits_2(capsys, monkeypatch, reports, status):
    monkeypatch.setattr(verify, "identity_reports", reports)
    for argv in (("--suite", "theta"), ("--suite", "all", "--trials", "1")):
        assert run_cli(capsys, "verify", *argv, "--n", "2") == (2, "", status)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"worker {pid} outlived its run")


def test_worker_is_reaped_after_a_run(capsys, forks):
    assert run_cli(capsys, "verify", "--suite", "theta")[0] == 0
    assert len(forks) == 1
    _assert_reaped(forks[0])


def test_lattice_suite_forks_nothing(capsys, forks):
    assert run_cli(capsys, "verify", "--suite", "lattice", "--n", "3")[0] == 0
    assert forks == []


def test_exception_in_parent_kills_the_worker(capsys, monkeypatch, forks):
    # At 5,000 trials the identity worker evaluates 50,000 pointwise checks,
    # so it is still running when the parent's suite raises, and it may not
    # outlive the run.
    def near_singular(sampler, trials):
        raise NearSingularError("no well-conditioned draw")

    monkeypatch.setattr(verify, "filali_suite", near_singular)
    with pytest.raises(NearSingularError):
        run_cli(capsys, "verify", "--suite", "all", "--n", "2", "--trials", "5000")
    assert len(forks) == 1
    _assert_reaped(forks[0])


def test_time_budget_leaves_no_worker():
    # The worker inherits the run's process group, which is empty once the
    # run has exited if nothing it forked survived.  The lattice suite at
    # n = 7 takes seconds in the parent, so the budget runs out in it.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ice_colors.cli", "verify", "--suite", "all",
         "--n", "7", "--time-budget", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONPATH": src})
    try:
        out, err = proc.communicate(timeout=30)
        assert time.monotonic() - start < 10
        assert (proc.returncode, out, err) == (2, "", "time budget exhausted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=lambda sig: sig.name)
def test_killed_parent_leaves_no_worker(sig):
    # A parent ended by a signal it does not handle runs no cleanup; the
    # orphaned worker must notice and exit by itself.  At 5,000 trials the
    # identity worker runs for seconds, and so does the parent.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ice_colors.cli", "verify", "--suite", "all",
         "--n", "6", "--trials", "5000"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, env={**os.environ, "PYTHONPATH": src})
    try:
        time.sleep(1)  # time to fork the identity worker
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == -sig
        deadline = time.monotonic() + 10
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_bench(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "count_table_s", "pn_consistent_s", "states"}
    assert payload["states"] == 2
    assert payload["pn_consistent_s"] >= 0


def test_failed_determinant_route_exits_1(capsys, monkeypatch):
    def singular(n):
        raise SingularInputError("specialized T is not polynomial of expected degree")

    monkeypatch.setattr(pn, "pn_via_T", singular)
    code, out, err = run_cli(capsys, "pn", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "not polynomial" in err


def test_failed_consistency_in_bench_exits_1(capsys, monkeypatch):
    def inconsistent(n, table):
        raise pn.ConsistencyError("A:m=1 and determinant route disagree")

    monkeypatch.setattr(cli, "pn_consistent", inconsistent)
    code, out, err = run_cli(capsys, "bench", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "disagree" in err


def test_usage_errors():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify", "--suite", "nope"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["counts", "--n", "1", "--threads", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command", ["enumerate", "counts", "pn", "bench"])
def test_domain_error_exit_code(capsys, command, n):
    code, out, err = run_cli(capsys, command, "--n", n)
    assert code == 2
    assert out == ""
    assert err == "n must be >= 1\n"


def test_trials_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "theta", "--trials", "0")
    assert code == 2
    assert "trials" in err


@pytest.mark.parametrize("suite, n", [("lattice", "0"), ("lattice", "-3"),
                                      ("all", "0")])
def test_lattice_suite_requires_positive_n(capsys, suite, n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", n,
                             "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "lattice suite needs n >= 1\n"


def test_suites_without_lattice_ignore_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "filali", "--n", "0",
                           "--trials", "1")
    assert code == 0
    assert [r["name"] for r in json.loads(out)] == [
        "determinant_formula_n1", "determinant_formula_n2", "determinant_formula_n3"]


def test_pn_requires_positive_n(capsys):
    code, _, err = run_cli(capsys, "pn", "--n", "0")
    assert code == 2
    assert err


def test_time_budget_exhaustion(capsys):
    code, _, err = run_cli(capsys, "counts", "--n", "3", "--time-budget", "0")
    assert code == 2
    assert "budget" in err


ALL_COMMANDS = [("enumerate", "--n", "2"), ("counts", "--n", "1"),
                ("pn", "--n", "1"), ("verify", "--trials", "1"),
                ("bench", "--n", "1")]


@pytest.mark.parametrize("budget", ["0", "-1", "-0.0"])
@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
def test_spent_budget_exits_before_any_compute(capsys, argv, budget):
    args = build_parser().parse_args([*argv, "--time-budget", budget])
    calls = []
    args.handler = lambda a: calls.append(a) or ("never", 0)
    code = run(args)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "time budget exhausted\n")
    assert calls == []


def test_nan_budget_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "2", "--time-budget", "nan")
    assert (code, out, err) == (2, "", "time budget must be a number\n")


@pytest.mark.parametrize("budget", ["60", "inf", "1e300"])
def test_unspent_budget_changes_nothing(capsys, budget):
    # 60 s arms the timer; inf and 1e300 lie past its range and never run out.
    plain = run_cli(capsys, "pn", "--n", "3")
    assert run_cli(capsys, "pn", "--n", "3", "--time-budget", budget) == plain
    assert plain[0] == 0


def test_budget_bounds_the_compute():
    # count_table(8) takes tens of seconds; the timer must cut it off mid-compute.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "ice_colors.cli", "counts", "--n", "8",
         "--time-budget", "0.3"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert time.monotonic() - start < 10
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "time budget exhausted\n")


def test_cli_import_leaves_the_numeric_layer_unloaded():
    # Only verify loads theta, verify and worker, so no other command
    # compiles them; only verify and enumerate --dump load the per-state
    # code; and no module the CLI loads defines a dataclass, so
    # dataclasses and inspect stay unloaded unless the interpreter started
    # with them.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys; start = set(sys.modules); "
         "import ice_colors.cli; print(sorted(set(sys.modules).difference(start)"
         ".intersection(('ice_colors.theta', 'ice_colors.verify', 'ice_colors.worker',"
         " 'ice_colors.states', 'dataclasses', 'inspect'))))"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_run_disarms_timer_and_restores_handler(capsys):
    def sentinel(signum, frame):
        raise AssertionError("the alarm outlived its run")

    previous = signal.signal(signal.SIGALRM, sentinel)
    try:
        timed_out = run_cli(capsys, "counts", "--n", "8", "--time-budget", "0.2")
        assert timed_out == (2, "", "time budget exhausted\n")
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is sentinel
        finished = run_cli(capsys, "pn", "--n", "2", "--time-budget", "60")
        assert finished[0] == 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is sentinel
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_timed_out_run_writes_no_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "counts", "--n", "8", "--time-budget", "0.2",
                           "--output", str(target))
    assert (code, out) == (2, "")
    assert not target.exists()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "counts", "--n", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["count"] == 1


@pytest.mark.parametrize("argv", [
    ("counts", "--n", "2"),
    ("counts", "--n", "2", "--format", "csv"),
    ("pn", "--n", "3"),
    ("enumerate", "--n", "1", "--dump"),
], ids=["counts-json", "counts-csv", "pn", "enumerate-dump"])
def test_output_file_holds_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "report"
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(capsys, "pn", "--n", "2", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {target}: ")
    assert err.count("\n") == 1


def test_empty_output_path_exits_2(capsys):
    # An empty --output is a path that cannot be opened, not a request for
    # stdout.
    code, out, err = run_cli(capsys, "pn", "--n", "2", "--output", "")
    assert (code, out) == (2, "")
    assert err.startswith("cannot write : ")
    assert err.count("\n") == 1


def _cli_process(*argv, stdout, unbuffered=False):
    # Default stdio buffering unless ``unbuffered``: with PYTHONUNBUFFERED the
    # text layer writes straight to the file, and a raw write may be short.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(ice_colors.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "ice_colors.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=env)


def test_stdout_closed_early_exits_2():
    # The n = 5 table is far larger than a pipe holds, so the reader closes
    # its end while the report is still being written.
    with _cli_process("counts", "--n", "5", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == "["
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read() == "cannot write stdout: Broken pipe\n"


def test_unbuffered_stdout_closed_early_exits_2():
    # The raw write that the reader's close cuts short returns a count and
    # raises nothing; the rest of the report must still be sent, and fail.
    with _cli_process("counts", "--n", "5", stdout=subprocess.PIPE,
                      unbuffered=True) as proc:
        assert proc.stdout.read(1) == "["
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read() == "cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_on_full_device_exits_2():
    with open("/dev/full", "w") as full, _cli_process("counts", "--n", "3",
                                                      stdout=full) as proc:
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read() == "cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("argv, code, runs", [
    (["enumerate", "--n", "1"], 0, 1),
    (["enumerate", "--n"], 2, 0),  # argparse exits before run
], ids=["run", "usage-error"])
def test_main_freezes_the_heap_on_its_way_out(capsys, monkeypatch, request,
                                              argv, code, runs):
    # run, which the tests call in process, must leave the heap unfrozen.
    request.addfinalizer(gc.unfreeze)  # so pytest's heap is collected again
    entered = []

    def unfrozen_run(args):
        entered.append(gc.get_freeze_count())
        return run(args)

    monkeypatch.setattr(cli, "run", unfrozen_run)
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == code
    assert entered == [0] * runs
    assert gc.get_freeze_count() > 0
