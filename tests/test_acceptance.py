"""Acceptance gate: one test per criterion, tolerances pinned in
banachgap.acceptance, then tests of the suite driver.  Criteria 4b and 5b
assert the Hamming-cube closed forms for the n bit-flip generators
(|S| = n); README.md derives them under "Hamming-cube criteria".
"""

from unittest import mock

import pytest

from banachgap import acceptance
from banachgap.acceptance import SUITE_IDS, run_suite


@pytest.fixture(scope="module")
def suite():
    results = run_suite(SUITE_IDS, seed=1)
    return {r.cid: r for r in results}


def _assert_passed(suite, cid):
    r = suite[cid]
    assert r.passed, f"criterion {cid} [{r.title}] failed: {r.details}"


def test_criterion_1_exact_p2_gaps(suite):
    _assert_passed(suite, "1")


def test_criterion_2_oracle_agreement(suite):
    _assert_passed(suite, "2")


def test_criterion_3_block_dimension_stability(suite):
    _assert_passed(suite, "3")


def test_criterion_4a_displacement_sandwich(suite):
    _assert_passed(suite, "4a")


def test_criterion_4b_hamming_equality_as_stated(suite):
    # gap = (|S|/2) kappa^p: the equality case of 4a's upper bound.  The
    # form gap = n * kappa^p counted each self-inverse generator twice
    # (|S| = 2n); at p=2 it gave 4 for a gap of exactly 2 and broke 4a.
    _assert_passed(suite, "4b")


def test_criterion_5a_cyclic_kappa_closed_form(suite):
    _assert_passed(suite, "5a")


def test_criterion_5b_hamming_kappa_closed_form_as_stated(suite):
    # kappa = 2/sqrt(n).  The value sqrt(2/n) is wrong already at n=1, where
    # boolean_cube(1) is the action of cyclic(2), whose kappa 5a checks as 2.
    _assert_passed(suite, "5b")


def test_criterion_6_realization(suite):
    _assert_passed(suite, "6")


def test_criterion_7_sphere_map_moduli(suite):
    _assert_passed(suite, "7")


def test_criterion_8_hamming_distortion(suite):
    _assert_passed(suite, "8")


def test_criterion_9_extrapolation_band(suite):
    _assert_passed(suite, "9")


def test_criterion_10_compression_exclusion(suite):
    _assert_passed(suite, "10")


# The suite driver, on the fast criteria or on patched checks.


def test_suite_runs_each_requested_id_once_in_table_order():
    assert [r.cid for r in run_suite(["10", "1", "10"])] == ["1", "10"]


def test_a_sub_criterion_runs_alone():
    (r,) = run_suite(["5b"])
    assert (r.cid, r.passed, r.details) == ("5b", True, "n in 1..6 within 1e-3")


def test_a_failure_line_fails_the_criterion():
    title, budget, _ = acceptance._SUITE["10"]
    with mock.patch.dict(acceptance._SUITE, {"10": (title, budget, lambda run: (["H3 broke"], "fine"))}):
        (r,) = run_suite(["10"])
    assert (r.status, r.details) == ("FAIL", "H3 broke")


def test_a_check_over_its_budget_fails_without_failure_lines():
    with mock.patch.dict(acceptance._SUITE, {"10": ("slow", 0.0, lambda run: ([], "fine"))}):
        (r,) = run_suite(["10"])
    assert not r.passed
    assert r.details.startswith("fine; runtime ") and r.details.endswith("s exceeded budget 0s")


def test_4a_and_4b_share_one_sandwich_run_per_suite_run():
    calls = []
    with mock.patch.object(acceptance, "_sandwich_cases", lambda: calls.append(1) or []):
        for _ in range(2):
            assert [r.passed for r in run_suite(["4b", "4a"])] == [True, True]
    assert len(calls) == 2
