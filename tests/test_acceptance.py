"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Budgets are wall-clock and asserted.
"""

import time

from ice_colors.exact import Poly
from ice_colors.lattice import count_table
from ice_colors.pn import (VARIANTS, _raw_sum, pn_consistent,
                           positivity_report, symmetry_check)
from ice_colors.states import enumerate_states
from ice_colors.theta import ParamSampler, partition_filali, partition_transfer, resample
from ice_colors.tpoly import pn_via_T
from ice_colors.verify import (identity_draws, identity_reports, relerr,
                               specialization_check)

from oracles import all_assignment_states, transfer_counts_by_m
from test_lattice import column_violations


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"CRITERION {number} {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_structural_n1():
    started = time.monotonic()
    table = count_table(1)
    assert table.total() == 2
    assert table.counts == {(0, 2, 3, 2, 1): 1, (1, 1, 3, 1, 2): 1}
    assert len(all_assignment_states(1)) == 2
    _report(1, "n=1 structure", started, 1.0)


def test_criterion_2_vsasm_consistency():
    started = time.monotonic()
    expected = {1: 1, 2: 3, 3: 26}
    for n, want in expected.items():
        direct = sum(1 for s in enumerate_states(n) if sum(s.turn_positive) == 0)
        assert direct == want
        assert transfer_counts_by_m(n)[0] == want
    _report(2, "vsasm counts 1,3,26", started, 30.0)


def test_criterion_3_per_state_invariants_up_to_n4():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4):
        for state in enumerate_states(n):
            assert column_violations(*state) == []
            checked += 1
    assert checked == 2 + 12 + 208 + 10336
    _report(3, f"invariants on {checked} states", started, 600.0)


def test_criterion_4_determinant_formula_agreement():
    started = time.monotonic()
    sampler = ParamSampler(42)
    for n in (1, 2, 3):
        for _ in range(20):
            def draw(n=n):
                params = sampler.params(n)
                return relerr(partition_transfer(params), partition_filali(params))

            assert resample(draw) <= 1e-8
    _report(4, "state sum vs determinant, 20 draws", started, 60.0)


def test_criterion_5_theta_identity_suite():
    started = time.monotonic()
    reports = identity_reports(identity_draws(ParamSampler(7), trials=100))
    for report in reports:
        assert report["max_rel_residual"] <= 1e-10, (report["name"],
                                                     report["max_rel_residual"])
    _report(5, "theta identities <= 1e-10", started, 10.0)


def test_criterion_6_main_formulas_exact():
    for n in (1, 2, 3):
        started = time.monotonic()
        table = count_table(n)
        assert pn_consistent(n, table) == pn_via_T(n)
        _report(6, f"count formulas vs determinant route, n={n}", started, 60.0)
    started = time.monotonic()
    table = count_table(4)
    poly = pn_consistent(4, table)
    assert poly == pn_via_T(4)
    # zero-binomial sums vanish and integer exponents held throughout
    assert Poly(_raw_sum(table.counts, 4, 0, VARIANTS[0], 2)) == Poly()
    assert Poly(_raw_sum(table.counts, 4, 4, VARIANTS[2], 4)) == Poly()
    _report(6, "count formulas vs determinant route, n=4", started, 600.0)


def test_criterion_7_polynomial_properties():
    started = time.monotonic()
    for n in (1, 2, 3, 4):
        poly = pn_consistent(n)
        assert poly.coeffs[0] == 1
        assert poly.degree == n * (n - 1)
        assert symmetry_check(poly, n)
        assert positivity_report(poly) == []
    _report(7, "constant term, degree, symmetry, positivity", started, 600.0)


def test_criterion_8_specialized_partition_function():
    started = time.monotonic()
    sampler = ParamSampler(99)
    for n in (1, 2):
        table = count_table(n)
        poly = pn_consistent(n, table)
        for _ in range(3):
            def draw(n=n, table=table, poly=poly):
                return specialization_check(
                    sampler.supersymmetric_params(n), table, poly)

            result = resample(draw)
            assert result["grouped_state_sum"] <= 1e-8
            assert result["quarter_point_state_sum"] <= 1e-8
            assert result["quarter_point_determinant"] <= 1e-8
    _report(8, "specialized double sums <= 1e-8", started, 60.0)
