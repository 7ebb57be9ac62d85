"""Tests of the benchmark itself, at tiny scale (well under a minute).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

import compare
import hostspeed
import run
import workloads
from spans import Recorder, to_jsonl
from workloads import SCALES, TINY, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def program_environment():
    saved = dict(os.environ)
    run.isolate_environment()
    run.import_program()
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture(scope="module")
def tiny_runs(program_environment):
    """One untraced and one traced measurement per workload, seed 1."""
    return {
        (name, trace): run.measure(name, 1, 0, trace, scale=TINY[name])
        for name in WORKLOADS
        for trace in (False, True)
    }


def metric_names(kind: str) -> set[str]:
    return {metric["name"] for metric in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    listed = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert listed == list(WORKLOADS) == list(SCALES) == list(TINY)


def test_metric_names_match_benchmark_json(tiny_runs):
    for (name, trace), (result, _) in tiny_runs.items():
        kind = "per_layer" if trace else "end_to_end"
        assert set(result["metrics"]) == metric_names(kind), (name, trace)


def test_every_pass_is_checked_and_correct(tiny_runs):
    for (name, trace), (result, record) in tiny_runs.items():
        assert result["correct"] and result["failed"] == 0, (name, trace)
        # warm-up plus one timed pass, and a traced one when tracing
        assert result["attempted"] == (3 if trace else 2), (name, trace)
        assert record["digest"], name


def test_end_to_end_metrics_are_positive(tiny_runs):
    for name in WORKLOADS:
        result, _ = tiny_runs[name, False]
        assert all(value > 0 for value in result["metrics"].values()), name


def test_unattributed_frac_is_reported_for_every_workload(tiny_runs):
    for name in WORKLOADS:
        metrics = tiny_runs[name, True][0]["metrics"]
        assert 0.0 <= metrics["unattributed_frac"] <= 0.05, name
        assert metrics["traced_wall_s"] > 0, name


def test_same_seed_same_digest_other_seed_other_digest(tiny_runs):
    for name in WORKLOADS:
        untraced = tiny_runs[name, False][1]["digest"]
        traced = tiny_runs[name, True][1]["digest"]
        assert untraced == traced, name
        _, other = run.measure(name, 2, 0, False, scale=TINY[name])
        assert other["digest"] != untraced, name


def test_reference_seconds_follow_the_program_not_the_host():
    fast = hostspeed.Block(units=100, seconds=100 * hostspeed.UNIT_S)
    slow = hostspeed.Block(units=100, seconds=200 * hostspeed.UNIT_S)
    assert hostspeed.to_reference(1.5, [fast, fast]) == pytest.approx(1.5)
    # A host half as fast slows the program by 2 ** HOST_EXPONENT.
    slowed = 1.5 * 2**hostspeed.HOST_EXPONENT
    assert hostspeed.to_reference(slowed, [slow, slow]) == pytest.approx(1.5)
    # A program twice as slow on the same host: twice the reference time.
    assert hostspeed.to_reference(3.0, [fast, slow]) == pytest.approx(
        2 * hostspeed.to_reference(1.5, [fast, slow])
    )
    block = hostspeed.run_block(0.01)
    assert block.units >= 1 and block.seconds >= 0.01


def test_corrupted_digest_counts_as_failed_pass():
    result, record = run.measure(
        "fullscale", 1, 0, False, scale=TINY["fullscale"], expected="0" * 32
    )
    # The warm-up pass fails, and a failed pass ends the run.
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert record["failed_frac"] == 1.0


def test_traced_fullscale_replay_attributes_each_layer(tiny_runs):
    metrics = tiny_runs["fullscale", True][0]["metrics"]
    for layer in (
        "analysis.error_stats",
        "reconstruct.bma",
        "reconstruct.majority",
        "core.channel",
        "metrics.accuracy",
        "sharding",
        "jobs",
    ):
        assert metrics[f"{layer}.items"] > 0, layer
    assert metrics["sharding.plan.busy_s"] > 0
    assert metrics["reconstruct.iterative.items"] == 0


def test_job_layer_reads_the_journal(tiny_runs):
    metrics = tiny_runs["fullscale", True][0]["metrics"]
    assert metrics["jobs.shard_attempts"] == TINY["fullscale"]["shards"]
    assert metrics["jobs.journal_bytes"] > 0
    assert 0 < metrics["jobs.shard_p50_s"] <= metrics["jobs.shard_p90_s"]


def test_trace_export_loads_as_dashboard_flame(tiny_runs, tmp_path):
    from repro.report.dashboard import collect_run_inputs, flame_rollup

    spans = tiny_runs["paper_eval", True][1]["spans"]
    (tmp_path / "paper_eval.jsonl").write_text(to_jsonl(spans), encoding="utf-8")
    [(_, records)] = collect_run_inputs(tmp_path).traces
    paths = {row["path"] for row in flame_rollup(records)}
    assert "perfbench.pass/reconstruct.iterative" in paths


def test_compare_refuses_records_from_other_hosts(tmp_path, capsys):
    record = {
        "workload": "fullscale",
        "trace": 0,
        "metrics": {metric: 1.0 for metric in metric_names("end_to_end")},
        "fingerprint": {"cpu_count": 2, "python": "3.11.7"},
    }
    for side, cpus in (("base", 2), ("new", 64)):
        (tmp_path / side).mkdir()
        fingerprint = {**record["fingerprint"], "cpu_count": cpus}
        payload = {**record, "fingerprint": fingerprint}
        (tmp_path / side / "r.json").write_text(json.dumps(payload))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert "refusing" in capsys.readouterr().out
    (tmp_path / "new" / "r.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0


def test_child_set_ups_report_their_seconds():
    args = argparse.Namespace(workload="paper_eval", seed=1)
    samples = run.child_setups(args)
    assert len(samples) == run.SETUP_CHILDREN
    assert all(sample > 0 for sample in samples)


def test_failing_traced_pass_ends_the_run(monkeypatch):
    """A traced pass whose output differs from the untraced one is a
    failed pass, and the run stops instead of retrying it forever."""
    replay = workloads._fullscale_replay

    def diverging_replay(inputs, recorder):
        if isinstance(recorder, Recorder):
            inputs = {**inputs, "seed": inputs["seed"] + 1}
        return replay(inputs, recorder)

    monkeypatch.setattr(workloads, "_fullscale_replay", diverging_replay)
    result, record = run.measure("fullscale", 1, 60, True, scale=TINY["fullscale"])
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3
    assert record["traced_walls_s"] == [] and len(record["walls_s"]) == 1
