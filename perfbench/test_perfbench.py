"""Tests of the benchmark's own arithmetic and a smoke run of each workload.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, percentile, samples = run.tail(values)
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_is_order_independent_and_uses_the_highest_such_percentile():
    values = [5.0, 1.0, 3.0] + [2.0] * 20
    value, percentile, samples = run.tail(values)
    ordered = sorted(values)
    assert samples == 23
    assert value == ordered[12]
    assert percentile == pytest.approx(100.0 * 13 / 23)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        run.tail([])


def test_hd_quantile_is_a_smooth_quantile():
    assert run.hd_quantile([float(v) for v in range(1, 102)], 0.5) == pytest.approx(51.0)
    assert run.hd_quantile([5.0] * 9, 0.5) == pytest.approx(5.0)
    # Two clusters: the sample median sits on one of them, the estimate
    # moves continuously between them.
    split = [0.0] * 50 + [10.0] * 51
    assert 0.0 < run.hd_quantile(split, 0.5) < 10.0
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    # centred on order statistic q*n + 1/2
    assert run.hd_quantile([float(v) for v in range(1, 100)], 0.9) == pytest.approx(89.6, abs=0.05)
    with pytest.raises(ValueError):
        run.hd_quantile([], 0.5)
    with pytest.raises(ValueError):
        run.hd_quantile([1.0], 1.0)


def test_tail_estimate_smooths_the_tail_percentile():
    values = [float(v) for v in range(1, 101)]
    value, percentile, samples = run.tail_estimate(values)
    assert (percentile, samples) == (90.0, 100)
    assert value == pytest.approx(run.tail(values)[0], abs=0.6)
    assert run.tail_estimate([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_per_unit_medians_take_each_unit_over_its_rounds():
    checks = [run.Check("a", 1.0, "sat"), run.Check("b", 5.0, "sat"),
              run.Check("a", 9.0, "sat"), run.Check("a", 2.0, "sat"),
              run.Check("b", 7.0, "sat")]
    assert run.per_unit_medians(checks) == [2.0, 6.0]


def test_times_are_scaled_by_the_host_speed_around_them():
    reference = run.REFERENCE_PROBE_MS / 1000.0
    assert run.speed([reference] * 3) == pytest.approx(1.0)
    # a host running at half the reference speed
    assert run.speed([2 * reference, 0.0, 1.0]) == pytest.approx(0.5)
    # unit a ran while the host was at half speed, unit b at full speed
    probes = [2 * reference] * 3 + [reference] * 5
    checks = [run.Check("a", 0.2, "sat", probe=1), run.Check("b", 0.4, "sat", probe=6),
              run.Check("a", 0.2, "sat", probe=1), run.Check("b", 0.6, "sat", probe=7)]
    assert [c.latency for c in run.scaled(run.Phase(checks=checks, probes=probes))] == (
        pytest.approx([0.1, 0.4, 0.1, 0.6]))
    phase = run.Phase(checks=checks, wall=2.0, probes=probes)
    metrics, extra = run.end_to_end(phase, setup_s=3.0, peak_rss_mb=40.0, setup_speed=0.5)
    assert extra["measured"]["throughput_per_s"] == pytest.approx(2 / 0.7)
    assert metrics["throughput_per_s"] == pytest.approx(2 / 0.6)
    assert metrics["check_ms_tail"] == pytest.approx(500.0)
    assert metrics["setup_s"] == pytest.approx(1.5)
    assert (metrics["decided_ratio"], metrics["peak_rss_mb"]) == (1.0, 40.0)
    assert extra["units"] == 2 and extra["samples"] == 4


# ----------------------------------------------------------------------
# Self time of nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_not_grandchildren():
    recorded = [
        ("top", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.0, 1, 0),
        ("child", 6.0, 8.0, 0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert spans.self_ms_by_name(recorded) == pytest.approx(
        {"top": 5000.0, "child": 4000.0, "grandchild": 1000.0}
    )


def test_self_time_counts_overlapping_children_once_and_clips_them():
    recorded = [
        ("top", 0.0, 10.0, -1, 0),
        ("a", 1.0, 5.0, 0, 0),
        ("b", 4.0, 7.0, 0, 0),
        ("c", 9.0, 12.0, 0, 0),
    ]
    # covered: [1, 7] and [9, 10] -> 7 of 10
    assert spans.self_times(recorded)[0] == pytest.approx(3.0)


def test_core_checks_counts_pipeline_checks_under_unsat_core_only():
    recorded = [
        ("solver.pipeline", 0.0, 1.0, -1, 0),
        ("solver.core", 1.0, 5.0, -1, 0),
        ("solver.pipeline", 1.5, 2.0, 1, 0),
        ("lia.check", 1.6, 1.9, 2, 0),
        ("solver.pipeline", 2.5, 3.0, 1, 0),
    ]
    assert run.core_checks(recorded) == 2


def test_recorder_wraps_every_binding_and_restores_them():
    package = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def tick():
        return 1

    def leaf(x):
        return x + inner.tick()

    def outer(x):
        return inner.leaf(x) * 2

    class Thing:
        def work(self):
            return package.outer(1)

    inner.leaf = leaf
    inner.tick = tick
    package.leaf = leaf  # a ``from .inner import leaf`` copy
    package.outer = outer
    sys.modules["fakepkg"] = package
    sys.modules["fakepkg.inner"] = inner
    try:
        recorder = spans.SpanRecorder(module_prefix="fakepkg")
        recorder.install([
            ("leaf", leaf, None, False),
            ("outer", outer, None, False),
            ("work", Thing, "work", False),
            ("calls", tick, None, True),
        ])
        assert package.leaf is not leaf and inner.leaf is not leaf
        recorder.check = 7
        assert Thing().work() == 4
        names = [span[0] for span in recorder.spans]
        assert names == ["work", "outer", "leaf"]
        parents = [span[3] for span in recorder.spans]
        assert parents == [-1, 0, 1]
        assert {span[4] for span in recorder.spans} == {7}
        assert recorder.counts == {"calls": {7: 1}}
        recorder.uninstall()
        assert package.leaf is leaf and inner.leaf is leaf and package.outer is outer
        assert inner.tick is tick
        assert Thing.__dict__["work"].__name__ == "work"
        assert not hasattr(Thing.__dict__["work"], "__wrapped__")
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]


def test_benchmark_json_names_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", ["batch", "session", "serve"])
def test_pools_match_their_pinned_hashes(workload):
    import inputs

    pool = inputs.pool(workload, ROOT)
    assert inputs.pool_hash(pool) == inputs.PINNED_HASHES[workload]
    order = inputs.replay_order(pool, 5)
    assert order == inputs.replay_order(pool, 5) and sorted(p.name for p in order) == sorted(
        p.name for p in pool)


# ----------------------------------------------------------------------
# Output gate
# ----------------------------------------------------------------------
def test_judge():
    assert run.judge("sat", "sat", True, False) == ""
    assert run.judge("unsat", None, None, False) == ""
    assert "wrong verdict" in run.judge("sat", "unsat", True, False)
    assert "model" in run.judge("sat", None, False, False)
    assert run.judge("unknown", "sat", None, True) == ""
    assert "typed" in run.judge("unknown", "sat", None, False)


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["batch", "session", "serve"])
def test_smoke_end_to_end(workload):
    completed = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--max-inputs", "4")
    result = _result(completed)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _unit in run.END_TO_END}
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_smoke_traced_session_reports_every_layer():
    completed = _bench("--workload", "session", "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--max-inputs", "3")
    result = _result(completed)
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _unit in run.PER_LAYER}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "batch", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
