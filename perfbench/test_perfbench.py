"""Tests of the benchmark's own arithmetic, and a smoke run of each workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from measure import beyond, percentile, tail_level

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, level",
    [(9, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    if level is not None:
        assert beyond(n, level) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100 in reverse
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert beyond(100, 90.0) == 10
    assert percentile([7.0], 99.9) == 7.0


def test_self_time_subtracts_direct_children_only():
    rows = [
        ("bench.op", 0.0, 10.0, -1, 0),
        ("matrix.__matmul__", 1.0, 4.0, 0, 0),
        ("kernel.m_mul", 2.0, 3.0, 1, 0),
        ("twist.sqrt", 5.0, 9.0, 0, 0),
        ("bench.check", 11.0, 12.0, -1, -1),
    ]
    self_s = tracing.self_times(rows)
    assert self_s == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.per_op_self_error(rows, self_s) == 0.0
    # a nested selection is counted once, by its outermost span
    assert tracing.top_level(rows, [False, True, True, False, False]) == (1, 3.0)
    assert tracing.top_level(rows, [False, False, True, True, False]) == (2, 5.0)


def test_recorded_spans_nest_and_self_times_add_up():
    trace = tracing.Trace()
    trace.op_id = 0
    with trace.span("bench.op"):
        with trace.span("matrix.inverse"):
            with trace.span("kernel.m_inv"):
                sum(range(1000))
        with trace.span("kernel.m_mul"):
            sum(range(1000))
    rows = trace.rows()
    assert [r[3] for r in rows] == [-1, 0, 1, 0]
    self_s = tracing.self_times(rows)
    assert all(s >= 0 for s in self_s)
    assert abs(sum(self_s) - (rows[0][2] - rows[0][1])) < 1e-9
    assert tracing.per_op_self_error(rows, self_s) < 1e-9


def _run(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(tmp_path, workload):
    plain_report, plain = _run(tmp_path, workload, 0)
    traced_report, traced = _run(tmp_path, workload, 1)
    for report, result, kind in ((plain_report, plain, "end_to_end"),
                                 (traced_report, traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert report["failed_frac"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert plain_report["digest"] == traced_report["digest"]
    assert traced_report["digest_matches_ledger"]
    assert traced_report["trace.op_self_sum_error_s"] < 1e-6
    assert traced["metrics"]["kernel.self_s"]["value"] > 0
    assert traced["metrics"]["solve.calls"]["value"] > 0
