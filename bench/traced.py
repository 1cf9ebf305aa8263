"""The traced run: per-layer metrics and the two reconciliation lines.

Operations alternate untraced / traced so ``bench.trace_overhead_frac``
compares like with like; then the pipeline chain and the layer probes
run once at the workload's shape.  End-to-end metrics never come from
here.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from . import probes
from .env import RESULTS, ROOT
from .harness import (
    UNTRACED,
    Metrics,
    OpResult,
    Tracer,
    leftovers,
    manifest,
    median,
    median_low,
    result_record,
    run_ops,
    shm_segments,
    summarize,
    tail,
)
from .probes import ms
from .stages import make_data, run_pipeline
from .workloads import Shape, rollout

SECONDS_PER = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def chain_metrics(chain: OpResult) -> Metrics:
    """Stage numbers of one pipeline chain."""
    files, stage_s = chain.detail["checkpoint"], chain.detail["stage_s"]
    return {
        "core.checkpoint.save_ms": ms(files["save_s"]),
        "core.checkpoint.load_ms": ms(files["load_s"]),
        "core.checkpoint.bytes": (float(files["bytes"]), "B"),
        "core.evaluation.evaluate_s": (stage_s["evaluate"], "s"),
        "core.evaluation.val_rel_l2": (chain.detail["val_rel_l2"], "frac"),
        "scenarios.residual_ms": ms(stage_s["residual"]),
    }


def reconcile(
    shape: Shape, metrics: Metrics, trains: list[OpResult], call_s: float, replica_steps_s: float
) -> Metrics:
    """Hold the layer numbers against the end-to-end walls; print both
    sums and return the engine metrics and the unexplained remainders."""

    def seconds_of(name: str) -> float:
        value, unit = metrics[name]
        return value * SECONDS_PER[unit]

    # Median callback-timed batch of the slowest rank, against the step
    # rebuilt from the nn / optim public pieces.
    step_s = float(
        np.median(np.concatenate([r.detail["step_s"] for r in trains], axis=1), axis=1).max()
    )
    rebuilt_step_s = sum(
        seconds_of(name) for name in ("nn.forward_ms", "nn.loss_ms", "nn.backward_ms", "optim.step_ms")
    )

    # Each training run against its own steps: wall = rank-dataset build +
    # the slowest rank's summed engine steps (+ launch when ranks fork).
    launch_s = seconds_of("mpi.launch_ms.processes")
    fixed_s = seconds_of("data.rank_dataset_ms") + (launch_s if shape.ranks > 1 else 0.0)
    stepped_s = [float(r.detail["step_s"].sum(axis=1).max()) for r in trains]
    train_gap = median(
        abs(r.inner_s - fixed_s - stepped) / r.inner_s for r, stepped in zip(trains, stepped_s)
    )

    # Steps are summed here too: the first steps of a freshly forked rank
    # run above the steady (median) step the layer metrics give.
    steady_s = shape.rollout_steps * (
        seconds_of("domain.halo.exchange_ms") + seconds_of("replica.rollout.plan_run_ms")
    )
    rollout_model_s = (
        launch_s
        + seconds_of("domain.extract_ms")
        + replica_steps_s
        + seconds_of("mpi.result_return_ms")
        + seconds_of("domain.assemble_ms")
    )
    rollout_gap = abs(call_s - rollout_model_s) / call_s
    print(
        f"reconcile train:   wall {median(r.inner_s for r in trains):.4f} s, rank-dataset + launch "
        f"{fixed_s:.4f} s + engine steps {median(stepped_s):.4f} s, unexplained {train_gap:.1%}\n"
        f"reconcile rollout: wall {call_s:.4f} s, launch + extract + {shape.rollout_steps} replica "
        f"steps {replica_steps_s:.4f} s (steady: {steady_s:.4f} s) + return + assemble "
        f"= {rollout_model_s:.4f} s, unexplained {rollout_gap:.1%}"
    )
    return {
        "core.engine.step_ms": ms(step_s),
        "core.engine.overhead_frac": (1.0 - rebuilt_step_s / step_s, "frac"),
        "reconcile.train_unexplained_frac": (train_gap, "frac"),
        "reconcile.rollout_unexplained_frac": (rollout_gap, "frac"),
    }


def measure_traced(workload: Any, seed: int, seconds: float) -> dict[str, Any]:
    shape = workload.SHAPE
    segments_before = shm_segments()
    tracer = Tracer()
    state = workload.setup(shape, seed)
    (plain_walls, plain), (traced_walls, traced) = run_ops(
        lambda t: workload.op(state, t), (UNTRACED, tracer), seconds / 2, min_rounds=2
    )
    tracer.op = None
    percentile, tail_s = tail(plain_walls)
    metrics: Metrics = {
        "bench.trace_overhead_frac": (
            median_low(traced_walls) / median_low(plain_walls) - 1.0, "frac",
        ),  # fmt: skip
        "bench.ops": (float(len(plain_walls)), "count"),
        "bench.op_ms_tail": ms(tail_s),
        "bench.op_tail_pct": (percentile, "pct"),
    }
    checked = plain + traced
    failures = workload.verify(state, checked)

    # The chain at this workload's shape; the pipeline workload just ran it.
    if workload.KIND == "pipeline":
        chain = traced[0]
    else:
        chain = run_pipeline(shape, seed, tracer)
        checked = checked + [chain]
    metrics.update(chain_metrics(chain))

    # Reference walls: the workload's own untraced operations where it
    # trains / rolls out, the chain's training stage and a seeded probe
    # rollout at the workload's shape otherwise.
    trains = plain if workload.KIND in ("pipeline", "train") else [chain]
    if workload.KIND == "rollout":
        predictor_state = state
        call_s = median(r.inner_s for r in plain)
    else:
        predictor_state = rollout.build(shape, shape.probe_pgrid, seed)
        calls = [rollout.call(predictor_state, tracer) for _ in range(3)]
        call_s = median(call[0] for call in calls)
        failures += [line for call in calls for line in call[2]]

    peaks = probes.machine()
    metrics.update(peaks)
    metrics.update(probes.solver_and_data(shape))
    metrics.update(probes.tensor_layers(shape, seed, peaks))
    metrics.update(probes.train_replica(shape, seed, make_data(shape), tracer))
    metrics.update(probes.inference_plan(shape, seed))
    replica, replica_steps_s, replica_failures = probes.rollout_replica(
        predictor_state, call_s, tracer
    )
    metrics.update(replica)
    metrics.update(probes.mpi_primitives(predictor_state))
    metrics.update(probes.obs_overhead(predictor_state, call_s))
    metrics.update(reconcile(shape, metrics, trains, call_s, replica_steps_s))

    attempted, failed, correct = summarize(
        checked, failures + replica_failures + leftovers(segments_before)
    )
    header = manifest(workload, seed, run_seconds=seconds)
    tracer.write(RESULTS / f"trace_{workload.NAME}.json", header)
    print("manifest " + json.dumps(header), file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return result_record(
        correct, attempted, failed, {entry["name"]: metrics[entry["name"]] for entry in declared}
    )
