import hashlib
import json

import pytest

from ice_colors import cli, pn
from ice_colors.cli import build_parser, main, run
from ice_colors.exact import SingularInputError


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


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "theta", "--trials", "100", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    reports = json.loads(out_a)
    assert all(r["pass"] for r in reports)
    assert {"name", "trials", "max_rel_residual", "pass"} == set(reports[0])


def test_verify_lattice(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lattice", "--n", "2",
                           "--trials", "1")
    assert code == 0
    assert [r["name"] for r in json.loads(out)] == [
        "state_invariants_n1", "state_invariants_n2"]


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


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "-1")
    assert code == 2
    assert err


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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "counts", "--n", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["count"] == 1


def test_main_exits(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--n", "0"])
    assert err.value.code == 0
