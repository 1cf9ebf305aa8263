"""Every workload at toy size: the same ``setup``/``op``/``verify`` code
the real runs use, finished in seconds, passing its own checks."""

import dataclasses
import json
import os
import types

import numpy as np
import pytest

from bench import env, harness, traced, workloads

TOY = {
    "pipeline_euler64": dict(grid=16, train_snapshots=9, val_snapshots=3, epochs=2, batch=4, rollout_steps=2),
    "train_seq96": dict(grid=16, train_snapshots=5, val_snapshots=2, rollout_steps=2),
    "rollout_euler256": dict(grid=16, train_snapshots=3, val_snapshots=2, rollout_steps=2),
    "rollout_comm32": dict(grid=16, train_snapshots=5, val_snapshots=2, rollout_steps=2),
}


def toy(name):
    """The workload ``name`` with its shape shrunk and its trace file renamed."""
    module = workloads.load(name)
    return types.SimpleNamespace(
        NAME=f"toy_{name}",
        KIND=module.KIND,
        SHAPE=dataclasses.replace(module.SHAPE, **TOY[name]),
        setup=module.setup,
        op=module.op,
        verify=module.verify,
    )


@pytest.fixture(scope="module")
def spec():
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def assert_matches(record, declared):
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = record["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert np.isfinite(entry["value"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, spec):
    record = harness.measure_untraced(toy(name), seed=0, seconds=0.2, import_s=0.1)
    assert_matches(record, spec["end_to_end"])
    assert all(entry["value"] > 0 for entry in record["metrics"].values())


@pytest.mark.parametrize("name", ["pipeline_euler64", "train_seq96", "rollout_comm32"])
def test_traced_run_reports_every_per_layer_metric(name, spec):
    workload = toy(name)
    trace_file = env.RESULTS / f"trace_{workload.NAME}.json"
    try:
        record = traced.measure_traced(workload, seed=0, seconds=0.2)
        trace = json.loads(trace_file.read_text())
    finally:
        trace_file.unlink(missing_ok=True)
    assert_matches(record, spec["per_layer"])
    exact = {"domain.halo.msgs_per_step": 2, "core.inference.plan_new_bytes_per_step": 0}
    for metric, value in exact.items():
        assert record["metrics"][metric]["value"] == value
    assert trace["manifest"]["cores"] == len(os.sched_getaffinity(0))
    assert {"name", "start", "end", "parent", "op", "rank"} <= set(trace["spans"][0])
    assert any(span["rank"] == 1 for span in trace["spans"])  # rank-process spans came home


def test_same_seed_same_quality_and_counts():
    workload = toy("pipeline_euler64")
    scores = [
        workload.op(workload.setup(workload.SHAPE, 7), harness.UNTRACED).detail["val_rel_l2"]
        for _ in range(2)
    ]
    assert scores[0] == scores[1]


def test_planted_shm_segment_is_a_failed_operation():
    workload = toy("rollout_comm32")
    planted = harness.SHM_DIR / f"psm_bench_planted_{os.getpid()}"

    def leaky_op(state, tracer):
        planted.write_bytes(b"leak")
        return workload.op(state, tracer)

    leaky = types.SimpleNamespace(**{**vars(workload), "op": leaky_op})
    try:
        record = harness.measure_untraced(leaky, seed=0, seconds=0.05, import_s=0.1)
    finally:
        planted.unlink(missing_ok=True)
    assert not record["correct"] and record["failed"] >= 1


def test_range_guard_fails_a_denormal_bound_rollout():
    frames = np.ones((3, 4, 8, 8))
    frames[-1] *= 1e-150
    result = types.SimpleNamespace(trajectory=frames, messages_sent=4, bytes_sent=64)
    [failure] = harness.check_rollout(result, steps=2, messages=4, volume=64)
    assert "left" in failure
    frames[-1] = 1.0
    assert harness.check_rollout(result, steps=2, messages=4, volume=64) == []
    assert harness.check_rollout(result, steps=2, messages=2, volume=64) != []
