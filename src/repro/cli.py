"""Command-line interface.

Subcommands cover the full workflow:

- ``repro generate``  — run a scenario's solver and save a snapshot
  dataset,
- ``repro train``     — train the parallel surrogate on a dataset (or
  generate one on the fly) and checkpoint the models,
- ``repro evaluate``  — single/multi-step accuracy of a checkpoint plus
  the scenario's data-free physics-residual score,
- ``repro scenarios`` — list the registered PDE scenarios (equation,
  IC, BC, grid) or dump one spec as JSON,
- ``repro parareal``  — parallel-in-time rollout: Parareal iteration
  with the checkpoint's CNN as coarse propagator and the FD solver as
  fine propagator, reporting iterations-to-converge and speedup over
  serial fine stepping,
- ``repro scaling``   — the Fig.-4 strong-scaling study,
- ``repro table1``    — print the architecture table,
- ``repro lint``      — repo-specific static analysis (REP00x rules
  plus optional ruff/mypy baseline passes),
- ``repro check``     — runtime verification: gradcheck every
  registered op, optionally smoke-test the sanitizers,
- ``repro perf``      — op-level perf report: naive vs fused/workspace
  conv forward and an allocation-free ``InferencePlan`` rollout,
- ``repro trace``     — record a traced rollout (or convert a JSONL
  event log) into a chrome://tracing timeline plus a per-rank
  compute/communication summary,
- ``repro metrics``   — run a metrics-collected rollout and export the
  rank-tagged counters/gauges/histograms (Prometheus text exposition +
  repro-metrics-v1 JSONL) plus a per-rank p50/p95/p99 summary.

``repro train`` / ``repro evaluate`` / ``repro parareal`` /
``repro scaling`` additionally accept ``--trace <path>``, which runs
the command under the :mod:`repro.obs` tracer and writes the merged
timeline (every rank, on every backend) next to the command's normal
output, and ``--metrics <path>``, which collects the
:mod:`repro.obs.metrics` registry over the run and writes the
Prometheus snapshot (plus ``.jsonl``) alongside.

The workflow commands all take ``--scenario <name>`` (any entry of the
:mod:`repro.scenarios` registry — run ``repro scenarios`` for the
list).  ``repro train`` records the scenario in the checkpoint;
``repro evaluate`` resolves it back from there, so physics follow the
model without being restated.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import Iterator, Sequence

import numpy as np


@contextlib.contextmanager
def _trace_session(path: str | None) -> Iterator[None]:
    """Run the body traced; export Chrome JSON + JSONL + summary after.

    ``path`` is the Chrome-trace output; the raw event log and the
    per-rank summary JSON are written alongside it (``.jsonl`` /
    ``.summary.json``).  No-op when ``path`` is ``None``.
    """
    if path is None:
        yield
        return
    from .obs import export, trace

    trace.reset()
    with trace.tracing():
        yield
    spans, metrics = trace.spans(), trace.metrics()
    dropped = trace.dropped()
    out = pathlib.Path(path)
    export.write_chrome_trace(out, spans, metrics)
    jsonl = export.write_jsonl(out.with_suffix(".jsonl"), spans, metrics,
                               dropped=dropped)
    summary = export.write_summary(out.with_suffix(".summary.json"), spans)
    print(export.format_summary(spans, dropped=dropped))
    print(f"chrome trace: {out} (load via chrome://tracing)")
    print(f"event log:    {jsonl}")
    print(f"summary json: {summary}")


@contextlib.contextmanager
def _metrics_session(path: str | None) -> Iterator[None]:
    """Run the body with the metrics registry collecting; export after.

    ``path`` receives the Prometheus text exposition; the
    ``repro-metrics-v1`` JSONL lands alongside (``.jsonl``).  No-op
    when ``path`` is ``None``.
    """
    if path is None:
        yield
        return
    from .obs import metrics, metrics_export

    metrics.reset()
    with metrics.collecting():
        yield
    snap = metrics.snapshot()
    out = pathlib.Path(path)
    metrics_export.write_prometheus(out, snap)
    jsonl = metrics_export.write_metrics_jsonl(out.with_suffix(".jsonl"), snap)
    print(metrics_export.format_metrics_summary(snap))
    print(f"prometheus exposition: {out}")
    print(f"metrics jsonl:         {jsonl}")


def _add_scenario_flag(parser, *, resolved_from: str | None = None) -> None:
    """Add ``--scenario``; default comes from the registry or, for
    commands that can recover it, from a recorded artifact."""
    from .scenarios import DEFAULT_SCENARIO

    if resolved_from is None:
        parser.add_argument(
            "--scenario",
            default=DEFAULT_SCENARIO,
            help=f"registered scenario name (default: {DEFAULT_SCENARIO}; "
            "run 'repro scenarios' for the catalogue)",
        )
    else:
        parser.add_argument(
            "--scenario",
            default=None,
            help=f"registered scenario name (default: recorded in the "
            f"{resolved_from}, else {DEFAULT_SCENARIO}; run "
            "'repro scenarios' for the catalogue)",
        )


def _add_strategy_flag(parser) -> None:
    """Add ``--strategy``, its choices the padding strategies."""
    from .core.padding import PaddingStrategy

    parser.add_argument(
        "--strategy", default="neighbor_first", choices=[s.value for s in PaddingStrategy]
    )


def _add_precision_flag(
    parser, *, resolved_from: str | None = None, default: str | None = None
) -> None:
    """Add ``--precision``; commands that can recover the compute mode
    from a recorded artifact default to that, everything else to
    ``default``, the library's :data:`~repro.tensor.DEFAULT_PRECISION`
    unless given."""
    from .tensor import DEFAULT_PRECISION

    if resolved_from is None:
        default = default or DEFAULT_PRECISION
        parser.add_argument(
            "--precision",
            default=default,
            choices=["float32", "float64"],
            help=f"compute precision for tensors, kernels, and optimizer "
            f"state (default: {default})",
        )
    else:
        parser.add_argument(
            "--precision",
            default=None,
            choices=["float32", "float64"],
            help=f"compute precision (default: recorded in the "
            f"{resolved_from}, else float64, the mode of checkpoints that "
            "predate the record)",
        )


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="simulate a scenario's dataset and save it"
    )
    parser.add_argument("output", help="output .npz path")
    _add_scenario_flag(parser)
    parser.add_argument("--grid-size", type=int, default=64)
    parser.add_argument("--snapshots", type=int, default=150)
    parser.add_argument(
        "--steps-per-snapshot",
        type=int,
        default=None,
        help="solver steps between saved snapshots (default: the scenario's)",
    )
    parser.add_argument("--cfl", type=float, default=None)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed of a randomized initial condition",
    )


def _add_train(subparsers) -> None:
    parser = subparsers.add_parser(
        "train", help="train the parallel surrogate and save a checkpoint"
    )
    parser.add_argument("checkpoint", help="output model checkpoint (.npz)")
    parser.add_argument("--dataset", help="input dataset (.npz); generated if omitted")
    _add_scenario_flag(parser, resolved_from="dataset")
    _add_precision_flag(parser)
    parser.add_argument("--grid-size", type=int, default=64)
    parser.add_argument("--snapshots", type=int, default=150)
    parser.add_argument("--train-fraction", type=float, default=2.0 / 3.0)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--lr", type=float, default=0.002)
    parser.add_argument("--loss", default="mse", choices=["mse", "mae", "mape", "huber"])
    _add_strategy_flag(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes", "serial"],
        help="where ranks run: in-process threads (faithful, GIL-bound), "
        "one OS process per rank (real multi-core scaling), or serial",
    )
    parser.add_argument(
        "--augment",
        action="store_true",
        help="augment the training trajectory with its D4 symmetry orbit",
    )
    parser.add_argument(
        "--grad-clip",
        type=float,
        default=None,
        help="clip gradients to this global L2 norm each step",
    )
    parser.add_argument(
        "--lr-schedule",
        default=None,
        choices=["constant", "step", "exponential", "cosine"],
        help="per-epoch learning-rate schedule (paper default: constant lr)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="evaluate each rank on its validation subdomain every epoch",
    )
    parser.add_argument(
        "--patience",
        type=int,
        default=None,
        help="stop a rank early after this many epochs without improvement "
        "(monitors validation loss with --validate, else training loss)",
    )
    _add_trace_flag(parser)


def _add_evaluate(subparsers) -> None:
    parser = subparsers.add_parser(
        "evaluate", help="evaluate a checkpoint on freshly simulated data"
    )
    parser.add_argument("checkpoint", help="model checkpoint (.npz)")
    parser.add_argument("--dataset", help="dataset (.npz); regenerated if omitted")
    _add_scenario_flag(parser, resolved_from="checkpoint")
    _add_precision_flag(parser, resolved_from="checkpoint")
    parser.add_argument("--snapshots", type=int, default=150)
    parser.add_argument("--steps", type=int, default=1, help="rollout depth")
    parser.add_argument(
        "--parareal",
        action="store_true",
        help="also run a parallel-in-time study from the dataset's initial "
        "state using the scenario's parareal defaults (threads backend)",
    )
    _add_trace_flag(parser)


def _add_parareal(subparsers) -> None:
    parser = subparsers.add_parser(
        "parareal",
        help="parallel-in-time rollout: Parareal iteration with the "
        "checkpoint's CNN as coarse propagator, the FD solver as fine "
        "propagator",
    )
    parser.add_argument("checkpoint", help="model checkpoint (.npz)")
    _add_scenario_flag(parser, resolved_from="checkpoint")
    _add_precision_flag(parser, resolved_from="checkpoint")
    parser.add_argument(
        "--slices",
        type=int,
        default=None,
        help="time slices / ranks (default: the scenario's parareal_slices)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="convergence tolerance on the successive-iterate delta "
        "(default: the scenario's parareal_tolerance)",
    )
    parser.add_argument(
        "--coarse-steps",
        type=int,
        default=None,
        help="coarse (CNN) applications per slice "
        "(default: the scenario's parareal_coarse_steps)",
    )
    parser.add_argument(
        "--fine-steps-per-coarse",
        type=int,
        default=None,
        help="fine solver steps spanned by one coarse application "
        "(default: the scenario's steps_per_snapshot — the spacing the "
        "CNN was trained on)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="correction sweeps before giving up (default: slices, which "
        "always suffices)",
    )
    parser.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes"],
        help="backend fanning the fine slices across ranks",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed of a randomized initial condition",
    )
    _add_trace_flag(parser)


def _add_scaling(subparsers) -> None:
    parser = subparsers.add_parser("scaling", help="run the Fig.-4 scaling study")
    _add_scenario_flag(parser)
    _add_precision_flag(parser)
    parser.add_argument("--grid-size", type=int, default=64)
    parser.add_argument("--snapshots", type=int, default=25)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64]
    )
    parser.add_argument(
        "--timing",
        default="faithful",
        choices=["faithful", "measured"],
        help="faithful: serial per-rank max, each rank on cores // P threads; "
        "measured: real concurrent wall-clock on this machine",
    )
    parser.add_argument(
        "--execution",
        default="processes",
        choices=["threads", "processes"],
        help="backend for --timing measured (default: processes)",
    )
    _add_trace_flag(parser)


def _add_trace_flag(parser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a repro.obs trace of this run and write a "
        "chrome://tracing timeline to PATH (plus .jsonl event log and "
        ".summary.json per-rank breakdown alongside)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="collect the repro.obs.metrics registry over this run and "
        "write the Prometheus text exposition to PATH (plus a "
        "repro-metrics-v1 .jsonl alongside)",
    )


def _add_scenarios_cmd(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenarios",
        help="list the registered PDE scenarios (equation, IC, BC, grid)",
    )
    parser.add_argument(
        "name", nargs="?", default=None, help="show this scenario's full spec"
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="text table (default) or the spec dict(s) as JSON",
    )


def _add_lint(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint", help="run the repo-specific static-analysis rules (REP00x)"
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: the full catalogue)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the ruff/mypy baseline passes (they auto-skip when the "
        "tools are not installed)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="text (default) or json — the JSON report carries a "
        "github_annotation string per finding for CI annotation",
    )


def _add_check(subparsers) -> None:
    parser = subparsers.add_parser(
        "check",
        help="runtime verification: gradcheck every registered op",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also smoke-test the float/shape/MPI sanitizers on a live "
        "forward pass and halo exchange",
    )
    # float64 is the oracle tier; --precision float32 checks the other.
    _add_precision_flag(parser, default="float64")
    parser.add_argument("--seed", type=int, default=0)


def _add_perf(subparsers) -> None:
    parser = subparsers.add_parser(
        "perf",
        help="op-level perf report: naive vs fused conv forward and an "
        "allocation-free InferencePlan rollout",
    )
    _add_scenario_flag(parser)
    _add_precision_flag(parser)
    parser.add_argument("--grid-size", type=int, default=128)
    parser.add_argument("--steps", type=int, default=5, help="rollout steps")
    parser.add_argument("--repeats", type=int, default=3, help="forward timing repeats")
    parser.add_argument("--pgrid", type=int, nargs=2, default=(2, 2), metavar=("PY", "PX"))
    _add_strategy_flag(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes"],
        help="rollout backend; counters from process ranks merge into "
        "the parent's report via the obs aggregation path",
    )


def _add_trace_cmd(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="record a traced halo-exchange rollout and export the "
        "timeline (chrome://tracing JSON + JSONL + per-rank summary)",
    )
    parser.add_argument("output", help="Chrome-trace JSON output path")
    parser.add_argument(
        "--from",
        dest="from_path",
        metavar="EVENTS.JSONL",
        help="convert an existing JSONL event log instead of running a workload",
    )
    _add_scenario_flag(parser)
    parser.add_argument("--grid-size", type=int, default=64)
    parser.add_argument("--steps", type=int, default=3, help="rollout steps")
    parser.add_argument("--pgrid", type=int, nargs=2, default=(2, 2), metavar=("PY", "PX"))
    _add_strategy_flag(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes"],
        help="MPI backend for the rollout ranks",
    )


def _add_metrics_cmd(subparsers) -> None:
    parser = subparsers.add_parser(
        "metrics",
        help="run a metrics-collected halo-exchange rollout and export "
        "the registry (Prometheus text exposition + repro-metrics-v1 "
        "JSONL + per-rank p50/p95/p99 summary)",
    )
    parser.add_argument("output", help="Prometheus exposition output path")
    _add_scenario_flag(parser)
    parser.add_argument("--grid-size", type=int, default=64)
    parser.add_argument("--steps", type=int, default=3, help="rollout steps")
    parser.add_argument("--pgrid", type=int, nargs=2, default=(2, 2), metavar=("PY", "PX"))
    _add_strategy_flag(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes"],
        help="MPI backend for the rollout ranks; process-rank metrics "
        "merge into the parent's registry via the obs aggregation path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel machine learning of PDEs (IPDPS/PDSEC 2021 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of the repro logger (progress lines emit at info)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_train(subparsers)
    _add_evaluate(subparsers)
    _add_parareal(subparsers)
    _add_scaling(subparsers)
    subparsers.add_parser("table1", help="print the Table-I architecture")
    _add_scenarios_cmd(subparsers)
    _add_lint(subparsers)
    _add_check(subparsers)
    _add_perf(subparsers)
    _add_trace_cmd(subparsers)
    _add_metrics_cmd(subparsers)
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    from .data import generate_scenario_dataset, save_snapshots

    produced = generate_scenario_dataset(
        args.scenario,
        grid_size=args.grid_size,
        num_snapshots=args.snapshots,
        num_train=args.snapshots - max(args.snapshots // 3, 1),
        steps_per_snapshot=args.steps_per_snapshot,
        cfl=args.cfl,
        seed=args.seed,
    )
    snapshots = produced.full_snapshots
    save_snapshots(
        args.output,
        snapshots,
        scenario=produced.scenario,
        grid_size=args.grid_size,
        dt=produced.dt,
        steps_per_snapshot=produced.steps_per_snapshot,
        snapshot_dt=produced.snapshot_dt,
    )
    print(
        f"wrote {snapshots.shape[0]} snapshots of {args.grid_size}^2 x "
        f"{snapshots.shape[1]} channels ({produced.scenario}) to {args.output}"
    )
    return 0


def _load_or_generate(
    dataset_path: str | None,
    snapshots: int,
    grid_size: int,
    scenario: str | None = None,
):
    """Resolve (dataset, scenario name, snapshot spacing).

    An explicit ``scenario`` (the ``--scenario`` flag) wins; a loaded
    dataset's recorded scenario comes next; the registry default last.
    ``snapshot_dt`` is ``None`` for datasets without time metadata.
    """
    from .data import SnapshotDataset, generate_scenario_dataset, load_snapshots
    from .scenarios import DEFAULT_SCENARIO

    if dataset_path:
        arrays, meta = load_snapshots(dataset_path)
        name = scenario or str(meta.get("scenario") or "") or DEFAULT_SCENARIO
        snapshot_dt = meta.get("snapshot_dt")
        if snapshot_dt is None and meta.get("dt") is not None:
            snapshot_dt = float(meta["dt"]) * int(meta.get("steps_per_snapshot", 1))
        return SnapshotDataset(arrays), name, snapshot_dt
    produced = generate_scenario_dataset(
        scenario or DEFAULT_SCENARIO,
        grid_size=grid_size,
        num_snapshots=snapshots,
        num_train=snapshots - max(snapshots // 3, 1),
    )
    return (
        SnapshotDataset(produced.full_snapshots),
        produced.scenario,
        produced.snapshot_dt,
    )


def _schedule_kwargs(name: str | None, epochs: int) -> dict:
    """Sensible defaults for schedules that require a horizon."""
    if name == "step":
        return {"step_size": max(epochs // 3, 1)}
    if name == "cosine":
        return {"total_epochs": epochs}
    return {}


def _cmd_train(args) -> int:
    from .core import (
        EarlyStopping,
        ParallelTrainer,
        TrainingConfig,
        parse_strategy,
        save_parallel_models,
    )
    from .scenarios import cnn_config
    from .tensor import set_precision

    set_precision(args.precision)
    dataset, scenario, _ = _load_or_generate(
        args.dataset, args.snapshots, args.grid_size, args.scenario
    )
    num_train = max(int(dataset.snapshots.shape[0] * args.train_fraction), 2)
    train, validation = dataset.split(num_train)
    if args.augment:
        from .data import augment_dataset

        train = augment_dataset(train)
        print("D4 augmentation: 8x training trajectories")
    print(
        f"dataset: {dataset.snapshots.shape} ({scenario}), training on "
        f"{train.num_samples} pairs across {args.ranks} ranks"
    )
    callback_factory = None
    if args.patience is not None:
        callback_factory = lambda rank: (EarlyStopping(patience=args.patience),)
    trainer = ParallelTrainer(
        cnn_config=cnn_config(scenario, strategy=parse_strategy(args.strategy)),
        training_config=TrainingConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            loss=args.loss,
            seed=args.seed,
            grad_clip=args.grad_clip,
            lr_schedule=args.lr_schedule,
            lr_schedule_kwargs=_schedule_kwargs(args.lr_schedule, args.epochs),
        ),
        num_ranks=args.ranks,
        seed=args.seed,
        callback_factory=callback_factory,
    )
    result = trainer.train(
        train,
        execution=args.execution,
        validation=validation if args.validate else None,
    )
    save_parallel_models(
        args.checkpoint, result, scenario=scenario, precision=args.precision
    )
    print(
        f"trained in {result.max_train_time:.2f}s (slowest rank); "
        f"final losses {[f'{l:.4g}' for l in result.final_losses]}"
    )
    if args.validate:
        val_losses = [r.history.final_val_loss for r in result.rank_results]
        print(f"final validation losses {[f'{l:.4g}' for l in val_losses]}")
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_evaluate(args) -> int:
    from .core import (
        ParallelPredictor,
        load_checkpoint_precision,
        load_checkpoint_scenario,
        load_parallel_models,
        per_channel,
        relative_l2,
    )
    from .scenarios import channels, scenario_residual
    from .tensor import set_precision

    precision = args.precision or load_checkpoint_precision(args.checkpoint)
    set_precision(precision)
    models, decomposition, config = load_parallel_models(
        args.checkpoint, precision=precision
    )
    scenario = args.scenario or load_checkpoint_scenario(args.checkpoint)
    grid_size = decomposition.field_shape[0]
    dataset, scenario, snapshot_dt = _load_or_generate(
        args.dataset, args.snapshots, grid_size, scenario
    )
    predictor = ParallelPredictor(models, decomposition)
    initial = dataset.snapshots[0]
    rollout = predictor.rollout(initial, num_steps=args.steps)
    prediction = rollout.trajectory[args.steps]
    target = dataset.snapshots[min(args.steps, dataset.snapshots.shape[0] - 1)]
    errors = per_channel(relative_l2, prediction, target, channels(scenario))
    print(
        f"scenario: {scenario}; strategy: {config.strategy.value}; "
        f"precision: {precision}; rollout depth {args.steps}"
    )
    for name, value in errors.items():
        print(f"  {name:>4}: relative L2 = {value:.4f}")
    if snapshot_dt is not None:
        trajectory = np.asarray(rollout.trajectory[: args.steps + 1])
        print(scenario_residual(scenario, trajectory, float(snapshot_dt)).report())
    else:
        print("physics residual: skipped (dataset carries no dt metadata)")
    print(
        f"halo messages: {rollout.messages_sent}, "
        f"volume: {rollout.bytes_sent / 1024:.1f} KiB"
    )
    if args.parareal:
        from .scenarios import parareal_config

        print()
        return _parareal_study(
            scenario, models, decomposition, initial, parareal_config(scenario)
        )
    return 0


def _parareal_study(
    scenario, models, decomposition, initial, config, execution="threads"
) -> int:
    """Run Parareal from ``initial`` and report convergence + speedup
    against serial fine stepping of the same horizon.  Returns a shell
    exit code (non-zero when the iteration failed to converge)."""
    from .core import EnsembleStepper
    from .obs import trace
    from .scenarios import build_grid, build_simulation
    from .solver.parareal import PararealDriver, serial_fine

    grid = build_grid(scenario, decomposition.field_shape[0])
    simulation = build_simulation(scenario, grid)
    driver = PararealDriver(simulation, EnsembleStepper(models, decomposition), config)
    initial = np.asarray(initial, dtype=float)

    start = trace.clock()
    result = driver.solve(initial, execution=execution)
    parareal_seconds = trace.clock() - start
    start = trace.clock()
    reference = serial_fine(simulation, initial, config)
    fine_seconds = trace.clock() - start

    scale = float(np.max(np.abs(reference)))
    error = float(np.max(np.abs(result.states - reference)))
    if scale > 0.0:
        error /= scale
    status = "converged" if result.converged else "did NOT converge"
    print(
        f"parareal: {config.slices} slices x {config.coarse_steps} coarse "
        f"step(s), {config.fine_steps_per_slice} fine steps/slice "
        f"({len(models)} model(s) as G, {execution} backend)"
    )
    print(
        f"  {status} in {result.iterations} sweep(s); final delta "
        f"{result.deltas[-1]:.3e} (tolerance {config.tolerance:g})"
    )
    print(f"  max relative error vs serial fine: {error:.3e}")
    print(
        f"  wall-clock: parareal {parareal_seconds:.3f}s vs serial fine "
        f"{fine_seconds:.3f}s "
        f"({fine_seconds / max(parareal_seconds, 1e-12):.2f}x)"
    )
    print(
        f"  work: {result.coarse_steps_applied} coarse applications, "
        f"{result.fine_steps_applied} fine steps across all ranks"
    )
    return 0 if result.converged else 1


def _cmd_parareal(args) -> int:
    from .core import (
        load_checkpoint_precision,
        load_checkpoint_scenario,
        load_parallel_models,
    )
    from .scenarios import build_grid, build_initial_state, parareal_config
    from .tensor import set_precision

    precision = args.precision or load_checkpoint_precision(args.checkpoint)
    set_precision(precision)
    models, decomposition, _config = load_parallel_models(
        args.checkpoint, precision=precision
    )
    scenario = args.scenario or load_checkpoint_scenario(args.checkpoint)
    overrides = {
        key: value
        for key, value in {
            "slices": args.slices,
            "tolerance": args.tolerance,
            "coarse_steps": args.coarse_steps,
            "fine_steps_per_coarse": args.fine_steps_per_coarse,
            "max_iterations": args.max_iterations,
        }.items()
        if value is not None
    }
    config = parareal_config(scenario, **overrides)
    grid = build_grid(scenario, decomposition.field_shape[0])
    initial = build_initial_state(scenario, grid, seed=args.seed)
    if hasattr(initial, "to_array"):
        initial = initial.to_array()
    print(f"scenario: {scenario}; precision: {precision}")
    return _parareal_study(
        scenario, models, decomposition, initial, config, execution=args.execution
    )


def _cmd_scaling(args) -> int:
    from .experiments import DataConfig, Fig4Config, default_training_config, run_fig4
    from .tensor import set_precision

    set_precision(args.precision)
    config = Fig4Config(
        data=DataConfig(
            grid_size=args.grid_size,
            num_snapshots=args.snapshots,
            num_train=args.snapshots - max(args.snapshots // 5, 1),
            scenario=args.scenario,
        ),
        training=default_training_config(epochs=args.epochs),
        rank_counts=tuple(args.ranks),
        timing=args.timing,
        execution=args.execution,
    )
    print(run_fig4(config).report())
    return 0


def _cmd_table1(_args) -> int:
    from .experiments import render_table1

    print(render_table1())
    return 0


def _cmd_scenarios(args) -> int:
    from .exceptions import ConfigurationError
    from .scenarios import available_scenarios, get_scenario

    names = [args.name] if args.name else list(available_scenarios())
    try:
        specs = [get_scenario(name) for name in names]
    except ConfigurationError as exc:
        print(f"repro scenarios: error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        from .analysis.emit import scenarios_payload, to_json

        print(to_json(scenarios_payload(specs)))
        return 0
    if args.name:
        for key, value in specs[0].to_dict().items():
            print(f"{key}: {value}")
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        summary = (
            f"{spec.equation}, {spec.initial_condition}, {spec.boundary} BC, "
            f"{spec.grid_size}^2 grid"
        )
        print(f"{spec.name:<{width}}  {summary}")
        if spec.description:
            print(f"{'':<{width}}  {spec.description}")
    return 0


def _parse_rule_list(raw: str | None) -> list[str] | None:
    if not raw:
        return None
    return [r.strip().upper() for r in raw.split(",") if r.strip()]


def _cmd_lint(args) -> int:
    from .analysis import lint_paths
    from .analysis.emit import lint_report_payload, to_json
    from .exceptions import AnalysisError

    try:
        report = lint_paths(
            args.paths,
            rules=_parse_rule_list(args.rules),
            baseline=not args.no_baseline,
        )
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(to_json(lint_report_payload(report)))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _sanitizer_smoke(seed: int) -> list[str]:
    """Exercise each sanitizer on a real forward pass / halo exchange."""
    from . import mpi
    from .analysis import (
        FloatSanitizer,
        MpiSanitizer,
        PrecisionSanitizer,
        ShapeContract,
    )
    from .domain.decomposition import BlockDecomposition
    from .domain.halo import HaloExchanger
    from .nn import Conv2d, Sequential, Tanh
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    lines = []

    with FloatSanitizer(), PrecisionSanitizer(), ShapeContract():
        net = Sequential(Conv2d(4, 8, 3, padding=1, rng=rng), Tanh())
        net(Tensor(rng.standard_normal((2, 4, 8, 8))))
    lines.append("float/shape/precision sanitizers: forward pass clean")

    with MpiSanitizer(strict=True) as sanitizer:
        decomposition = BlockDecomposition((8, 8), (2, 2))

        def program(comm: mpi.Communicator):
            local = rng.standard_normal((4, 4, 4))
            return HaloExchanger(comm, decomposition, halo=1).exchange(local).shape

        mpi.run_parallel(program, 4)
    lines.append(
        "mpi sanitizer: halo exchange clean "
        f"({sum(a.messages_posted for a in sanitizer.report.audits)} messages audited)"
    )
    return lines


def _cmd_check(args) -> int:
    from .analysis import check_all_ops, ops_by_module
    from .tensor import set_precision

    set_precision(args.precision)
    rng = np.random.default_rng(args.seed)
    report = check_all_ops(rng)
    print(f"precision: {args.precision}")
    print(report.format())
    for module, ops in sorted(ops_by_module().items()):
        checked = [op for op in ops if report.checked.get(op)]
        print(f"  {module}: {len(checked)}/{len(ops)} ops gradchecked")
    ok = report.ok
    if args.sanitize:
        try:
            for line in _sanitizer_smoke(args.seed):
                print(line)
        except Exception as exc:  # pragma: no cover - smoke failure path
            print(f"sanitizer smoke test failed: {exc}")
            ok = False
    return 0 if ok else 1


def _cmd_perf(args) -> int:
    from . import tensor as T
    from .core import InferencePlan, ParallelPredictor, build_paper_cnn
    from .domain.decomposition import BlockDecomposition
    from .obs import trace
    from .scenarios import channels
    from .tensor import no_grad, perf, set_precision, workspace_disabled

    set_precision(args.precision)
    rng = np.random.default_rng(args.seed)
    size = args.grid_size
    num_channels = len(channels(args.scenario))
    arch = (num_channels, 6, 16, 6, num_channels)
    model = build_paper_cnn(
        args.strategy, rng=np.random.default_rng(args.seed), channels=arch
    )
    halo = model.input_halo
    x = rng.standard_normal((1, num_channels, size + 2 * halo, size + 2 * halo))

    def fwd_naive() -> None:
        with no_grad(), workspace_disabled():
            model(T.Tensor(x))

    plan = InferencePlan(model)

    def fwd_plan() -> None:
        plan.run(x)

    def best_of(fn) -> float:
        fn()  # warmup (BLAS thread pools, page faults, arena fill)
        best = float("inf")
        for _ in range(max(1, args.repeats)):
            start = trace.clock()
            fn()
            best = min(best, trace.clock() - start)
        return best

    naive_s = best_of(fwd_naive)
    plan_s = best_of(fwd_plan)
    print(f"forward @ {size}x{size} (halo {halo}, strategy {args.strategy})")
    print(f"  naive (allocate-per-call): {naive_s * 1e3:9.2f} ms")
    print(f"  plan  (fused + workspace): {plan_s * 1e3:9.2f} ms")
    print(f"  speedup: {naive_s / plan_s:.2f}x")
    print(f"  {plan.workspace.describe()}")

    # Rollout counters cover every rank on either backend: thread ranks
    # share this registry directly; process ranks ship their snapshot
    # back through the obs aggregation path at shutdown.
    py, px = args.pgrid
    models = [
        build_paper_cnn(
            args.strategy, rng=np.random.default_rng(args.seed + r), channels=arch
        )
        for r in range(py * px)
    ]
    predictor = ParallelPredictor(models, BlockDecomposition((size, size), (py, px)))
    initial = rng.standard_normal((num_channels, size, size))
    perf.reset()
    with perf.collecting():
        predictor.rollout(initial, num_steps=args.steps, execution=args.execution)
    print(f"\nrollout: {args.steps} steps on a {py}x{px} grid ({args.execution} backend)")
    print(perf.format_report())
    return 0


def _cmd_trace(args) -> int:
    from .obs import export, trace

    if args.from_path:
        spans, metrics = export.read_jsonl(args.from_path)
        export.write_chrome_trace(args.output, spans, metrics)
        print(export.format_summary(spans))
        print(f"chrome trace: {args.output} (load via chrome://tracing)")
        return 0

    from .core import ParallelPredictor, build_paper_cnn
    from .domain.decomposition import BlockDecomposition
    from .scenarios import channels

    rng = np.random.default_rng(args.seed)
    size = args.grid_size
    py, px = args.pgrid
    num_channels = len(channels(args.scenario))
    arch = (num_channels, 6, 16, 6, num_channels)
    models = [
        build_paper_cnn(
            args.strategy, rng=np.random.default_rng(args.seed + r), channels=arch
        )
        for r in range(py * px)
    ]
    predictor = ParallelPredictor(models, BlockDecomposition((size, size), (py, px)))
    initial = rng.standard_normal((num_channels, size, size))
    trace.reset()
    with trace.tracing():
        predictor.rollout(initial, num_steps=args.steps, execution=args.execution)
    spans, metrics = trace.spans(), trace.metrics()
    dropped = trace.dropped()
    out = pathlib.Path(args.output)
    export.write_chrome_trace(out, spans, metrics)
    jsonl = export.write_jsonl(
        out.with_suffix(".jsonl"),
        spans,
        metrics,
        meta={"workload": "rollout", "execution": args.execution, "ranks": py * px},
        dropped=dropped,
    )
    summary = export.write_summary(out.with_suffix(".summary.json"), spans)
    print(f"rollout: {args.steps} steps on a {py}x{px} grid ({args.execution} backend)")
    print(export.format_summary(spans, dropped=dropped))
    print(f"chrome trace: {out} (load via chrome://tracing)")
    print(f"event log:    {jsonl}")
    print(f"summary json: {summary}")
    return 0


def _cmd_metrics(args) -> int:
    from .core import ParallelPredictor, build_paper_cnn
    from .domain.decomposition import BlockDecomposition
    from .obs import metrics, metrics_export
    from .scenarios import channels

    rng = np.random.default_rng(args.seed)
    size = args.grid_size
    py, px = args.pgrid
    num_channels = len(channels(args.scenario))
    arch = (num_channels, 6, 16, 6, num_channels)
    models = [
        build_paper_cnn(
            args.strategy, rng=np.random.default_rng(args.seed + r), channels=arch
        )
        for r in range(py * px)
    ]
    predictor = ParallelPredictor(models, BlockDecomposition((size, size), (py, px)))
    initial = rng.standard_normal((num_channels, size, size))
    metrics.reset()
    with metrics.collecting():
        predictor.rollout(initial, num_steps=args.steps, execution=args.execution)
    snap = metrics.snapshot()
    out = pathlib.Path(args.output)
    metrics_export.write_prometheus(out, snap)
    jsonl = metrics_export.write_metrics_jsonl(
        out.with_suffix(".jsonl"),
        snap,
        meta={"workload": "rollout", "execution": args.execution, "ranks": py * px},
    )
    print(f"rollout: {args.steps} steps on a {py}x{px} grid ({args.execution} backend)")
    print(metrics_export.format_metrics_summary(snap))
    print(f"prometheus exposition: {out}")
    print(f"metrics jsonl:         {jsonl}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "parareal": _cmd_parareal,
    "scaling": _cmd_scaling,
    "table1": _cmd_table1,
    "scenarios": _cmd_scenarios,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "perf": _cmd_perf,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import log as obs_log
    from .tensor import get_precision, precision

    obs_log.configure(args.log_level.upper())
    # A command's --precision lasts for the command: an in-process caller
    # gets its own compute mode back.
    with (
        precision(get_precision()),
        _trace_session(getattr(args, "trace", None)),
        _metrics_session(getattr(args, "metrics", None)),
    ):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
