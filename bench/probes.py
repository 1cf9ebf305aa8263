"""Per-layer probes: benchmark-owned timings of each layer's *public*
functions at the shape of the workload being traced.

A layer is a module under ``src/repro``.  Every probe returns
``{metric name: (value, unit)}``.  Replica loops call the same public
functions ``ParallelPredictor.rollout`` (extract -> exchange ->
``plan.run`` -> assemble) and ``Engine.fit`` (forward -> loss ->
backward -> step) call, inside rank processes started the same way, so
their medians can be summed and held against the end-to-end wall — the
two ``reconcile.*`` lines.  Spans inside ``src/repro`` are a later issue.
"""

from __future__ import annotations

import mmap
import time
from typing import Any

import numpy as np

from repro import mpi
from repro.core import InferencePlan, SubdomainCNN, build_rank_dataset
from repro.core.engine import build_loss, build_optimizer
from repro.data import StandardNormalizer, generate_scenario_dataset
from repro.domain.decomposition import BlockDecomposition
from repro.domain.halo import HaloExchanger
from repro.experiments.common import default_training_config
from repro.nn import Conv2d, LeakyReLU
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.scenarios import (
    build_equation,
    build_grid,
    build_initial_state,
    build_simulation,
    cnn_config,
)
from repro.tensor import Tensor, conv2d, im2col, no_grad

from .harness import UNTRACED, Metrics, Tracer, copy_array_bytes, median, repeat, timed
from .workloads import SCENARIO, Shape
from .workloads.rollout import RolloutState

PINGPONG_ROUNDS = 200
#: steps of the rebuilt training loop; the first two are not timed
REPLICA_STEPS = 4


def ms(seconds: float) -> tuple[float, str]:
    return 1e3 * seconds, "ms"


# ----------------------------------------------------------------------
# machine: same-process peaks, denominators only
# ----------------------------------------------------------------------
def machine() -> Metrics:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 1024, 1024))
    out = np.empty_like(a)
    matmul_s = median(repeat(lambda: np.matmul(a, b, out=out), 0.5))

    nbytes = copy_array_bytes()
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    copy_s = median(repeat(lambda: np.copyto(dst, src), 0.5))
    # pages nobody has touched yet, whatever the allocator pin recycles
    with mmap.mmap(-1, nbytes) as fresh:
        touch_s, _ = timed(lambda: fresh.write(src.data))
    return {
        "machine.matmul_gflops": (2 * 1024**3 / matmul_s / 1e9, "GFLOP/s"),
        "machine.copy_gbs": (2 * nbytes / copy_s / 1e9, "GB/s"),
        "machine.fresh_touch_gbs": (nbytes / touch_s / 1e9, "GB/s"),
    }


# ----------------------------------------------------------------------
# solver / data
# ----------------------------------------------------------------------
def solver_and_data(shape: Shape) -> Metrics:
    grid = build_grid(SCENARIO, shape.grid)
    equation = build_equation(SCENARIO)
    simulation = build_simulation(SCENARIO, grid, equation)
    state = build_initial_state(SCENARIO, grid, equation)
    step_s = median(repeat(lambda: simulation.advance(state, 1), 0.3))

    total = shape.train_snapshots + shape.val_snapshots
    generate_s, produced = timed(
        lambda: generate_scenario_dataset(
            SCENARIO, grid_size=shape.grid, num_snapshots=total, num_train=shape.train_snapshots
        )
    )
    train = produced.train.snapshots
    normalize_s = median(
        repeat(lambda: StandardNormalizer().fit(train).transform(train), 0.2)
    )
    return {
        "solver.step_us": (1e6 * step_s, "us"),
        "data.generate_s": (generate_s, "s"),
        "data.normalize_ms": ms(normalize_s),
    }


# ----------------------------------------------------------------------
# tensor: the four Table-I convolutions, one at a time
# ----------------------------------------------------------------------
def table1_convs(model: SubdomainCNN) -> list[tuple[Conv2d, str | None]]:
    """The model's convolutions with the activation that follows each."""
    layers = list(model.layers)
    convs = []
    for index, layer in enumerate(layers):
        if isinstance(layer, Conv2d):
            follower = layers[index + 1] if index + 1 < len(layers) else None
            convs.append((layer, "leaky_relu" if isinstance(follower, LeakyReLU) else None))
    return convs


def tensor_layers(shape: Shape, seed: int, peaks: Metrics) -> Metrics:
    """Inference (batch 1, ``no_grad``) and training (workload batch,
    grad on) cost of each convolution at the workload's block shapes."""
    config = cnn_config(SCENARIO)
    model = SubdomainCNN(config, rng=np.random.default_rng(seed))
    convs = table1_convs(model)
    halo = config.input_halo
    rng = np.random.default_rng(seed)
    peak_gflops = peaks["machine.matmul_gflops"][0]
    peak_gbs = peaks["machine.copy_gbs"][0]
    out: Metrics = {}

    def run(layer: Conv2d, activation: str | None, x: Tensor) -> Tensor:
        return conv2d(
            x, layer.weight, layer.bias, stride=layer.stride, padding=layer.padding,
            activation=activation,
        )  # fmt: skip

    h, w = shape.block(shape.probe_pgrid)
    x = rng.standard_normal((1, config.channels[0], h + 2 * halo, w + 2 * halo))
    with no_grad():
        for index, (layer, activation) in enumerate(convs):
            if layer.in_channels == max(c.in_channels for c, _ in convs):
                kernel = (layer.kernel_size, layer.kernel_size)
                pad = (layer.padding, layer.padding)
                out["tensor.im2col_ms"] = ms(
                    median(repeat(lambda: im2col(x, kernel, (1, 1), pad), 0.2))
                )
            seconds = median(repeat(lambda: run(layer, activation, Tensor(x)), 0.3))
            y = run(layer, activation, Tensor(x)).data
            taps = layer.in_channels * layer.kernel_size**2
            flops = 2 * y.size * taps
            # computed, not measured: input + im2col columns + output + weights
            moved = 8 * (x.size + y.size // layer.out_channels * taps + y.size + layer.weight.data.size)
            gflops = flops / seconds / 1e9
            prefix = f"tensor.conv2d.L{index}"
            out[f"{prefix}.infer_ms"] = ms(seconds)
            out[f"{prefix}.gflops"] = (gflops, "GFLOP/s")
            out[f"{prefix}.roofline_frac"] = (
                gflops / min(peak_gflops, peak_gbs * flops / moved), "frac",
            )  # fmt: skip
            x = y

    h, w = shape.block(shape.pgrid)
    x = rng.standard_normal((shape.batch, config.channels[0], h + 2 * halo, w + 2 * halo))
    step_bytes = 0
    for index, (layer, activation) in enumerate(convs):
        forward, backward = [], []
        for _ in range(2):
            model.zero_grad()
            # the first layer's input is data; later inputs carry gradients
            fwd_s, y = timed(lambda: run(layer, activation, Tensor(x, requires_grad=index > 0)))
            bwd_s, _ = timed(lambda: y.backward(np.ones_like(y.data)))
            forward.append(fwd_s)
            backward.append(bwd_s)
        out[f"tensor.conv2d.L{index}.train_fwd_ms"] = ms(min(forward))
        out[f"tensor.conv2d.L{index}.train_bwd_ms"] = ms(min(backward))
        cols = y.data.size // layer.out_channels * layer.in_channels * layer.kernel_size**2
        # columns + output + output gradient (+ column gradient when the input needs one)
        step_bytes += 8 * (cols + 2 * y.data.size + (cols if index > 0 else 0))
        x = y.data
    model.zero_grad()
    out["tensor.train_bytes_per_step"] = (float(step_bytes), "B")
    return out


# ----------------------------------------------------------------------
# nn / optim / data.rank_dataset: one training step rebuilt
# ----------------------------------------------------------------------
def train_replica(shape: Shape, seed: int, data: Any, tracer: Tracer) -> Metrics:
    """forward -> loss -> backward -> step from the public pieces
    ``Engine.fit`` is made of, on the ranks the workload trains on."""
    config = cnn_config(SCENARIO)
    training = default_training_config(epochs=1, seed=seed).replace(batch_size=shape.batch)
    decomposition = BlockDecomposition((shape.grid, shape.grid), shape.pgrid)

    def program(comm: mpi.Communicator | None) -> list[dict]:
        rank = 0 if comm is None else comm.rank
        local = Tracer()
        with local.span("core.subdomain_data.build_rank_dataset"):
            dataset = build_rank_dataset(
                data.train, decomposition, rank, halo=config.input_halo, crop=config.output_crop
            )
        model = SubdomainCNN(config, rng=np.random.default_rng(seed + rank))
        model.train()
        loss_fn = build_loss(training)
        optimizer = build_optimizer(training, model.parameters())
        inputs, targets = dataset.inputs[: shape.batch], dataset.targets[: shape.batch]
        for iteration in range(REPLICA_STEPS):
            # two untimed steps first: step n+1 runs while step n's graph
            # is still referenced, so it takes two steps to touch all the
            # memory a steady step reuses
            timer = local if iteration >= 2 else UNTRACED
            optimizer.zero_grad()
            with timer.span("nn.forward"):
                prediction = model(Tensor(inputs))
            with timer.span("nn.loss"):
                loss = loss_fn(prediction, Tensor(targets))
            with timer.span("nn.backward"):
                loss.backward()
            with timer.span("optim.step"):
                optimizer.step()
        return local.spans

    with tracer.span("replica.train"):
        # the way the workload runs its ranks: in this process for one
        # rank (``serial``), else one OS process per rank
        if shape.ranks == 1:
            per_rank = [program(None)]
        else:
            per_rank = mpi.run_parallel(program, shape.ranks, backend="processes")
        for rank, spans in enumerate(per_rank):
            tracer.absorb(spans, rank)
    return {
        "data.rank_dataset_ms": ms(median(tracer.durations("core.subdomain_data.build_rank_dataset"))),
        "nn.forward_ms": ms(median(tracer.durations("nn.forward"))),
        "nn.loss_ms": ms(median(tracer.durations("nn.loss"))),
        "nn.backward_ms": ms(median(tracer.durations("nn.backward"))),
        "optim.step_ms": ms(median(tracer.durations("optim.step"))),
    }


# ----------------------------------------------------------------------
# core.inference
# ----------------------------------------------------------------------
def inference_plan(shape: Shape, seed: int) -> Metrics:
    config = cnn_config(SCENARIO)
    model = SubdomainCNN(config, rng=np.random.default_rng(seed))
    compile_s = median(repeat(lambda: InferencePlan(model), 0.1))
    plan = InferencePlan(model)
    h, w = shape.block(shape.probe_pgrid)
    halo = config.input_halo
    x = np.random.default_rng(seed).standard_normal((1, config.channels[0], h + 2 * halo, w + 2 * halo))
    plan.run(x)  # fills the workspace
    warm = plan.workspace.stats.bytes_allocated
    samples = repeat(lambda: plan.run(x), 0.5)
    new_bytes = (plan.workspace.stats.bytes_allocated - warm) / (len(samples) + 1)
    return {
        "core.inference.plan_compile_ms": ms(compile_s),
        "core.inference.plan_run_ms": ms(median(samples)),
        "core.inference.plan_new_bytes_per_step": (new_bytes, "B"),
    }


# ----------------------------------------------------------------------
# domain + the rollout replica
# ----------------------------------------------------------------------
def rollout_replica(
    state: RolloutState, call_s: float, tracer: Tracer
) -> tuple[Metrics, float, list[str]]:
    """extract -> (exchange -> plan.run) x steps -> stack -> assemble,
    one process per rank, checked bitwise against the real rollout and
    repeated for about a second (``call_s`` is what one real call takes).
    Returns the metrics, the median over replicas of the slowest rank's
    summed step seconds, and the failures."""
    decomposition = state.predictor.decomposition
    halo = state.predictor.halo
    steps = state.shape.rollout_steps
    plans = [InferencePlan(model) for model in state.predictor.models]
    for rank, plan in enumerate(plans):  # warm before the fork, as setup() does
        plan.run(decomposition.extract(state.initial, rank, halo=halo)[None])

    def program(comm: mpi.Communicator) -> tuple[np.ndarray, list[dict]]:
        local_tracer = Tracer()
        with local_tracer.span("domain.extract"):
            local = decomposition.extract(state.initial, comm.rank)
        exchanger = HaloExchanger(comm, decomposition, halo, "zero")
        plan = plans[comm.rank]
        trajectory = [local]
        for _ in range(steps):
            with local_tracer.span("replica.rollout.step"):
                with local_tracer.span("domain.halo.exchange"):
                    net_input = exchanger.exchange(local)
                with local_tracer.span("core.inference.plan_run"):
                    local = plan.run(net_input[None])[0]
                trajectory.append(local)
        return np.stack(trajectory), local_tracer.spans

    frames = state.reference.shape[0]
    failures: list[str] = []
    step_sums = []
    for _ in range(max(1, min(5, int(1.0 / call_s)))):
        with tracer.span("replica.rollout"):
            outputs = mpi.run_parallel(program, decomposition.num_subdomains, backend="processes")
            for rank, (_, spans) in enumerate(outputs):
                tracer.absorb(spans, rank)
            pieces = [piece for piece, _ in outputs]
            with tracer.span("domain.assemble"):
                trajectory = decomposition.assemble(pieces)
        if not np.array_equal(trajectory[:frames], state.reference):
            failures.append("replica: the rebuilt rollout loop disagrees with ParallelPredictor.rollout")
        step_sums.append(
            max(
                sum(s["end"] - s["start"] for s in spans if s["name"] == "replica.rollout.step")
                for _, spans in outputs
            )
        )

    extract_s = median(repeat(lambda: decomposition.extract(state.initial, 0), 0.1))
    assemble_s = median(repeat(lambda: decomposition.assemble(pieces), 0.2))
    exchange = tracer.durations("domain.halo.exchange")
    step = tracer.durations("replica.rollout.step")
    return {
        "domain.extract_ms": ms(extract_s),
        "domain.assemble_ms": ms(assemble_s),
        "domain.halo.exchange_ms": ms(median(exchange)),
        "domain.halo.msgs_per_step": (float(state.messages_per_step), "count"),
        "domain.halo.bytes_per_step": (float(state.bytes_per_step), "B"),
        "replica.rollout.plan_run_ms": ms(median(tracer.durations("core.inference.plan_run"))),
        "mpi.wait_frac": (sum(exchange) / sum(step), "frac"),
    }, median(step_sums), failures


# ----------------------------------------------------------------------
# mpi
# ----------------------------------------------------------------------
def _barrier_only(comm: mpi.Communicator) -> None:
    comm.barrier()


def mpi_primitives(state: RolloutState) -> Metrics:
    """Launch, point-to-point and collective costs on two ranks."""
    threads_s = median(repeat(lambda: mpi.run_parallel(_barrier_only, 2, backend="threads"), 0.2))
    processes_s = median(
        repeat(lambda: mpi.run_parallel(_barrier_only, 2, backend="processes"), 1.0, min_reps=5)
    )

    def pingpong(comm: mpi.Communicator, payload: np.ndarray) -> float:
        comm.barrier()
        start = time.perf_counter()
        for _ in range(PINGPONG_ROUNDS):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=1)
                comm.recv(source=1, tag=2)
            else:
                comm.recv(source=0, tag=1)
                comm.send(payload, dest=0, tag=2)
        return (time.perf_counter() - start) / PINGPONG_ROUNDS / 2  # one way

    def primitives(comm: mpi.Communicator) -> dict[str, float]:
        small = pingpong(comm, np.zeros(2048 // 8))  # below SHM_THRESHOLD_BYTES: pickled
        large = pingpong(comm, np.zeros(16640 // 8))  # the 256² halo strip: shared memory
        comm.barrier()
        start = time.perf_counter()
        for _ in range(PINGPONG_ROUNDS):
            comm.barrier()
        return {
            "pickle": small,
            "shm": large,
            "barrier": (time.perf_counter() - start) / PINGPONG_ROUNDS,
        }

    measured = mpi.run_parallel(primitives, 2, backend="processes")[0]

    h, w = state.shape.block(state.pgrid)
    frames = (state.shape.rollout_steps + 1, state.initial.shape[0], h, w)
    frame = np.zeros(frames[1:])
    returned_s = median(
        repeat(
            lambda: mpi.run_parallel(
                lambda comm: np.stack([frame] * frames[0]), 2, backend="processes"
            ),
            1.0,
            min_reps=3,
        )
    )
    return {
        "mpi.launch_ms.threads": ms(threads_s),
        "mpi.launch_ms.processes": ms(processes_s),
        "mpi.pingpong_us.pickle": (1e6 * measured["pickle"], "us"),
        "mpi.pingpong_us.shm": (1e6 * measured["shm"], "us"),
        "mpi.barrier_us": (1e6 * measured["barrier"], "us"),
        "mpi.result_return_ms": ms(max(returned_s - processes_s, 0.0)),
    }


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def obs_overhead(state: RolloutState, call_s: float) -> Metrics:
    """``rollout()`` with ``obs.trace`` + ``obs.metrics`` enabled against
    disabled, interleaved (off, on, off), with the off-vs-off difference
    as the noise floor the overhead has to clear to mean anything."""
    # about half a second per call, so the triples fit a traced run
    steps = max(2, min(state.shape.rollout_steps, int(state.shape.rollout_steps * 0.5 / call_s)))

    def call(enabled: bool) -> float:
        if enabled:
            obs_trace.enable()
            obs_metrics.enable()
        try:
            seconds, _ = timed(
                lambda: state.predictor.rollout(state.initial, steps, execution="processes")
            )
        finally:
            if enabled:
                obs_trace.disable()
                obs_trace.reset()
                obs_metrics.disable()
                obs_metrics.reset()
        return seconds

    call(False)
    off_a, on, off_b = [], [], []
    spent = 0.0
    while len(on) < 3 or (spent < 4.0 and len(on) < 15):
        off_a.append(call(False))
        on.append(call(True))
        off_b.append(call(False))
        spent += off_a[-1] + on[-1] + off_b[-1]
    return {
        "obs.enabled_overhead_frac": (median(on) / median(off_a + off_b) - 1.0, "frac"),
        "obs.noise_floor_frac": (abs(median(off_a) / median(off_b) - 1.0), "frac"),
    }
