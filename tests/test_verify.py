import math
from dataclasses import replace

import pytest

from ice_colors import lattice, theta, verify
from ice_colors.lattice import CountTable, count_table
from ice_colors.pn import pn_consistent
from ice_colors.theta import ParamSampler, resample
from ice_colors.verify import (POINTWISE_TOL, IdentityReport, filali_suite,
                               grouped_state_sum, identity_draws, identity_reports,
                               lattice_suite, quarter_point_state_sum, relerr,
                               specialization_check, specialization_suite)


def test_relerr():
    assert relerr(1.0, 1.0) == 0.0
    assert relerr(0.0, 0.0) == 0.0
    assert relerr(2.0, 1.0) == 0.5


def test_identity_suite_passes():
    reports = identity_reports(identity_draws(ParamSampler(3), trials=25))
    assert len(reports) == 10
    for report in reports:
        assert report.passed, (report.name, report.max_rel_residual)
        assert report.max_rel_residual <= POINTWISE_TOL


def test_identity_report_record():
    record = IdentityReport("x", 5, 1e-12, True).to_record()
    assert record == {"name": "x", "trials": 5, "max_rel_residual": 1e-12,
                      "pass": True}


def test_filali_suite_small():
    reports = filali_suite(ParamSampler(5), trials=3, sizes=(1, 2))
    assert all(r.passed for r in reports)


def test_filali_suite_catches_a_missing_row_fill(monkeypatch):
    # The state sum shares lattice.row_transfer and its line fills with
    # count_table; the determinant side touches no lattice code, so a lost
    # fill still shows.
    monkeypatch.setitem(lattice._COMPLETIONS, 1, lattice._COMPLETIONS[1][:1])
    reports = filali_suite(ParamSampler(0), trials=3)
    assert [r.passed for r in reports] == [True, False, False]


def test_filali_suite_catches_a_wrong_vertex_weight(monkeypatch):
    exact = theta.vertex_weight

    def scaled(kind, *args):
        return exact(kind, *args) * (1.001 if kind == "b+" else 1)

    monkeypatch.setattr(theta, "vertex_weight", scaled)
    reports = filali_suite(ParamSampler(0), trials=3)
    assert not any(r.passed for r in reports)


def test_specialization_check_single_draw():
    sampler = ParamSampler(9)
    table = count_table(1)
    poly = pn_consistent(1, table)

    def draw():
        return specialization_check(1, sampler.supersymmetric_params(1),
                                    table, poly)

    result = resample(draw)
    assert result.grouped_state_sum <= 1e-8
    assert result.quarter_point_state_sum <= 1e-8
    assert result.quarter_point_determinant <= 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_specialization_sums_ignore_count_table_order(n):
    table = count_table(n)
    reversed_table = CountTable(n, dict(reversed(list(table.counts.items()))))
    sampler = ParamSampler(31)
    for _ in range(12):
        params = sampler.supersymmetric_params(n)
        quarter = replace(params, mu=params.mu[:-1] + (0.25 + 0j,))
        assert (grouped_state_sum(n, params, table)
                == grouped_state_sum(n, params, reversed_table))
        assert (quarter_point_state_sum(n, quarter, table)
                == quarter_point_state_sum(n, quarter, reversed_table))


def test_specialization_suite_n2():
    reports = specialization_suite(ParamSampler(13), trials=2, sizes=(2,))
    assert len(reports) == 3
    assert all(r.passed for r in reports)


def test_lattice_suite():
    reports = lattice_suite(max_n=2)
    assert [r.trials for r in reports] == [2, 12]
    assert all(r.passed for r in reports)


def test_identity_suite_deterministic_under_seed():
    a = identity_reports(identity_draws(ParamSampler(21), trials=10))
    b = identity_reports(identity_draws(ParamSampler(21), trials=10))
    assert [r.max_rel_residual for r in a] == [r.max_rel_residual for r in b]


@pytest.mark.parametrize("seed", [0, 7, 17, 32])
def test_identity_draws_then_reports_is_the_suite(seed):
    # verify draws every pointwise argument in the parent and evaluates them
    # in a worker: the draws advance the sampler the filali suite then
    # draws from, and their evaluation draws nothing more.
    drawn = ParamSampler(seed)
    draws = identity_draws(drawn, trials=100)
    after = drawn.rng.getstate()
    assert after != ParamSampler(seed).rng.getstate()
    reports = identity_reports(draws)
    assert [(r.name, r.trials) for r in reports] == [
        (name, 100) for name, _, _ in verify._POINTWISE]
    assert drawn.rng.getstate() == after


def _nan_on_call(fn, call=2):
    """``fn`` with its ``call``-th result replaced by NaN."""
    calls = []

    def wrapped(*args, **kwargs):
        value = fn(*args, **kwargs)
        calls.append(1)
        if len(calls) != call:
            return value
        if isinstance(value, tuple):
            return type(value)(*(math.nan for _ in value))
        return math.nan
    return wrapped


# ``max`` keeps its current value when compared with a NaN, so a NaN after
# the first trial would pass its report unseen.

def test_nan_in_a_pointwise_trial_fails_its_report(monkeypatch):
    name, kinds, residual = verify._POINTWISE[0]
    monkeypatch.setattr(verify, "_POINTWISE",
                        ((name, kinds, _nan_on_call(residual)),) + verify._POINTWISE[1:])
    reports = identity_reports(identity_draws(ParamSampler(0), trials=3))
    assert math.isnan(reports[0].max_rel_residual)
    assert [r.passed for r in reports] == [False] + [True] * 9


def test_nan_in_a_filali_draw_fails_its_report(monkeypatch):
    monkeypatch.setattr(verify, "partition_filali",
                        _nan_on_call(verify.partition_filali))
    [report] = filali_suite(ParamSampler(0), trials=3, sizes=(2,))
    assert math.isnan(report.max_rel_residual) and not report.passed


def test_nan_in_a_specialization_draw_fails_its_reports(monkeypatch):
    monkeypatch.setattr(verify, "specialization_check",
                        _nan_on_call(verify.specialization_check))
    reports = specialization_suite(ParamSampler(13), trials=3, sizes=(1,))
    assert all(math.isnan(r.max_rel_residual) for r in reports)
    assert not any(r.passed for r in reports)
