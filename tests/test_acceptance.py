"""The acceptance gate: every criterion at its pinned tolerance.

Runs the seeded suite once (criteria 1-11 plus the byte-identity criterion,
which internally re-runs the first eleven) and asserts each criterion, with
one printed pass/fail line per criterion.
"""

import pytest

from deltalin.acceptance import N_ACC, format_lines, run_all

SEED = 42


@pytest.fixture(scope="module")
def suite():
    report, timings = run_all(seed=SEED)
    for line in format_lines(report, timings):
        print(line)
    return report, timings


def _criterion(report, cid):
    [res] = [r for r in report["criteria"] if r["id"] == cid]
    return res


def test_suite_precision_is_pinned(suite):
    report, _ = suite
    assert report["precision"] == N_ACC == 16
    assert report["seed"] == SEED


@pytest.mark.parametrize("cid", range(1, 13))
def test_criterion(suite, cid):
    report, _ = suite
    res = _criterion(report, cid)
    assert res["pass"], f"criterion {cid} failed: {res}"


def test_criterion_case_counts(suite):
    report, _ = suite
    counts = {r["id"]: r["cases"] for r in report["criteria"]}
    assert counts[1] == 2040  # full (kind, n, p, m) grid, 20 seeds each
    assert counts[2] == 50
    assert counts[3] == 10
    assert counts[4] == 50
    assert counts[5] == 150  # 50 per SO variant
    assert counts[6] == 200  # every preserved solution from criteria 4-5
    assert counts[7] == 300  # 100 per variant
    assert counts[8] == 50
    assert counts[9] == 20


def test_overall(suite):
    report, _ = suite
    assert report["all_pass"]
    assert report["kernel"] == "pure"
