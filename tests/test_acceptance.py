"""The acceptance gate: every criterion at its pinned tolerance.

Runs the seeded suite once (criteria 1-11 plus the byte-identity criterion,
which internally re-runs the first eleven) and asserts each criterion, with
one printed pass/fail line per criterion.  The report's bytes are pinned by
their SHA-256, which is also the digest of `deltalin selftest --seed 42`'s
stdout: a refactor must leave them unchanged, and a change that moves them
on purpose updates the digest and says so in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from deltalin import acceptance
from deltalin.acceptance import N_ACC, _Session, criterion_3, format_lines, run_all
from deltalin.io import canonical_dumps
from deltalin.sampling import Rng

SEED = 42
REPORT_SHA256 = "6f5079bdbf44ebcd84004e115abb72e68ed38971aadfac7e11fc26b07c53f06a"


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


def test_report_bytes_are_pinned(suite):
    report, _ = suite
    digest = hashlib.sha256(canonical_dumps(report) + b"\n").hexdigest()
    assert digest == REPORT_SHA256


def test_criterion_3_does_not_trust_solve(monkeypatch):
    """Criterion 3 runs its own contraction, so a solver whose solution is
    off by p^(N-1) X, X in GL_n, fails every case."""
    real_solve = acceptance.solve
    rng = Rng(SEED)

    def off_by_one_digit(spec, u0):
        rep = real_solve(spec, u0)
        ctx = spec.ctx
        wrong = rep.solution + ctx.p ** (ctx.N - 1) * rng.gl(ctx, spec.n)
        return dataclasses.replace(rep, solution=wrong)

    assert criterion_3(_Session(SEED))["details"] == {"failures": 0}
    monkeypatch.setattr(acceptance, "solve", off_by_one_digit)
    assert criterion_3(_Session(SEED))["details"] == {"failures": 10}
