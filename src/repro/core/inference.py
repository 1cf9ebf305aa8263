"""Parallel inference with neighbour-to-neighbour halo exchange (Sec. III).

Each rank predicts only its own subdomain.  Single-step prediction is
embarrassingly parallel; for multi-step rollout the network input at
step *t+1* needs the neighbour overlap of the *predicted* fields, which
every rank takes from its neighbours alone — no central instance,
exactly as the paper prescribes.

Rollout is the inference hot loop, so this module also hosts
:class:`InferencePlan`: a per-model compilation of the fixed layer
sequence into raw-ndarray steps over a private
:class:`~repro.tensor.workspace.Workspace`.  The first (warmup) run
binds each conv step's operand views
(:class:`~repro.tensor.blocked.StripForward`), chaining a conv into
the zero-bordered input of a padding conv after it; every later
rollout step only executes them: no buffer request, no view, no
allocation, no pad copy between convs.  Plan
outputs are bit-identical to the module-by-module forward; the
equivalence tests pin this per strategy and over seeded multi-step MPI
rollouts on both execution backends.

The data around the plan is as still as the plan's scratch: every rank
writes each prediction into its window of a single shared trajectory
(:func:`repro.mpi.shared_empty`) and *reads* its halo from the same
array — a one-sided get of the neighbours' windows into one persistent
padded buffer, ordered by a :class:`repro.mpi.Handshake` (MPI-3
shared-window style).  No strip is copied, pickled or queued, ranks
return nothing, and the caller already holds the result.
:class:`~repro.domain.halo.HaloExchanger` remains the two-sided,
distributed-memory form of the same exchange and the reference the
tests compare against.

One block's step is one object, :class:`BlockStepper` (``gather`` the
input from a source frame, ``predict`` into a target frame).  The rank
program of :meth:`ParallelPredictor.rollout` runs it between
``Handshake.wait`` and ``post``; :class:`EnsembleStepper` runs every
block in turn without ranks and is the model-side
:class:`~repro.solver.simulation.Stepper` — ``advance(state, n, out=)``,
the contract the finite-difference solver obeys too — so a CNN ensemble
goes into :class:`~repro.solver.parareal.PararealDriver` or
:func:`rollout` exactly where a simulation does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .. import mpi
from ..domain.decomposition import BlockDecomposition
from ..exceptions import ConfigurationError, ShapeError
from ..nn import Conv2d, ConvTranspose2d, LeakyReLU, Module, Sequential
from ..nn import chain_borders, fuse_leaky_relu
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs.log import get_logger
from ..solver.simulation import Stepper
from ..tensor import Tensor, no_grad, perf
from ..tensor.blocked import StripForward, leaky_relu_inplace
from ..tensor.im2col import conv_output_size, scatter_patches
from ..tensor.precision import default_dtype
from ..tensor.workspace import Workspace
from .model import SubdomainCNN
from .padding import PaddingStrategy

#: Rollout-loop latency instrument (no-op while metrics are off).
_ROLLOUT_STEP_SECONDS = obs_metrics.histogram("rollout.step_seconds")
#: The halo volumes a rollout moves, under the instruments the two-sided
#: exchange reports them (same registry entries, same meaning).
_HALO_EXCHANGES = obs_metrics.counter("halo.exchanges")
_BYTES_SENT = obs_metrics.counter("mpi.bytes_sent")
_BYTES_RECV = obs_metrics.counter("mpi.bytes_recv")


@dataclass
class RolloutResult:
    """Predicted trajectory plus communication statistics."""

    #: shape ``(num_steps + 1, C, H, W)`` — element 0 is the initial state
    trajectory: np.ndarray
    #: halo strips exchanged across all ranks and steps, counted as the
    #: two-phase point-to-point exchange sends them (one per axis
    #: neighbour, corners riding the x strips)
    messages_sent: int
    #: total volume of those strips in bytes
    bytes_sent: int

    @property
    def num_steps(self) -> int:
        return self.trajectory.shape[0] - 1


def _parameter_dtype(model: Module) -> np.dtype:
    for param in model.parameters():
        return np.dtype(param.data.dtype)
    return np.dtype(default_dtype())  # parameter-free models follow the policy


def _store(prediction: np.ndarray, out: np.ndarray) -> None:
    """Copy a network output into the array that receives it."""
    if prediction.shape != out.shape:
        raise ShapeError(
            f"network output {prediction.shape} does not match the "
            f"{out.shape} array it is written to"
        )
    np.copyto(out, prediction)


class _ConvStep:
    """One (possibly activation-fused) convolution of a compiled plan,
    bound to the first input it sees.  It rebinds when the input's shape,
    strides or dtype change, or — when the strips read the input itself
    (no padding), so the views hold it — its buffer.

    A step whose follower pads (``border``, set at compile) writes into
    that follower's zero-bordered input, and the follower reads it as a
    valid convolution (``padding`` 0): its input is then always the
    leader's arena buffer, so its key — that buffer's shape and address
    — changes only when the leader rebinds to a new shape."""

    def __init__(self, index: int, layer: Conv2d, slope: float | None) -> None:
        self.index = index
        self.layer = layer
        self.slope = slope  # fused leaky-ReLU negative slope, or None
        self.padding = layer.padding  # 0 once a leader writes the border
        self.border = 0  # the follower's padding around this step's output
        self._key: tuple = ()
        self._forward: StripForward | None = None

    def apply(self, x: np.ndarray, ws: Workspace, dtype: np.dtype, timed: bool) -> np.ndarray:
        layer, p, b = self.layer, self.padding, self.border
        key = (x.shape, x.strides, x.dtype, 0 if p else x.__array_interface__["data"][0])
        if self._forward is None or key != self._key:
            n, _, h, w = x.shape
            k, slot = layer.kernel_size, f"plan.conv{self.index}"
            oh, ow = conv_output_size(h, k, 1, p), conv_output_size(w, k, 1, p)
            shape = (n, layer.out_channels, oh + 2 * b, ow + 2 * b)
            out = ws.request(f"{slot}.out", shape, dtype)  # zero-filled once
            biased = layer.bias is not None
            forward = StripForward(x, out, (k, k), (p, p), biased, self.slope, ws, slot)
            forward.strips = list(forward.strips)
            self._forward, self._key = forward, key
        # The strip kernel the op itself runs; the parameters are re-read
        # each run, so training's updates (in place or not) are seen.
        bias = None if layer.bias is None else layer.bias.data
        return self._forward.execute(x, layer.weight.data, bias, timed)


class _LeakyStep:
    """A standalone leaky ReLU into plan-owned buffers bound to the input
    shape; the input — possibly the caller's array — is never written."""

    def __init__(self, index: int, slope: float) -> None:
        self.index = index
        self.slope = slope
        self._buffers: list[np.ndarray] = []

    def apply(self, x: np.ndarray, ws: Workspace, dtype: np.dtype, timed: bool) -> np.ndarray:
        if not self._buffers or self._buffers[0].shape != x.shape:
            self._buffers = list(ws.request(f"plan.leaky{self.index}", (2, *x.shape), dtype))
        out, scaled = self._buffers
        np.copyto(out, x)  # also casts a foreign-dtype input
        leaky_relu_inplace(out, self.slope, scaled)  # the op's product, bit for bit
        return out


class _ConvTransposeStep:
    """A transposed convolution into plan-owned buffers bound to the
    input shape and dtype."""

    def __init__(self, index: int, layer: ConvTranspose2d) -> None:
        self.index = index
        self.layer = layer
        self._key: tuple = ()
        self._buffers: tuple[np.ndarray, ...] = ()

    def apply(self, x: np.ndarray, ws: Workspace, dtype: np.dtype, timed: bool) -> np.ndarray:
        layer = self.layer
        weight = layer.weight.data
        c, f = weight.shape[0], weight.shape[1]
        n, _, h, w = x.shape
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        if self._key != (x.shape, dtype):
            oh = (h - 1) * s - 2 * p + k
            ow = (w - 1) * s - 2 * p + k
            slot = f"plan.tconv{self.index}"
            xmat = ws.request(f"{slot}.xmat", (n * h * w, c), dtype)
            cols = ws.request(f"{slot}.cols", (n * h * w, f * k * k), dtype)
            padded = ws.request(f"{slot}.padded", (n, f, oh + 2 * p, ow + 2 * p), dtype)
            self._buffers = (xmat, cols, padded, padded[:, :, p : p + oh, p : p + ow])
            self._key = (x.shape, dtype)
        xmat, cols, padded, out = self._buffers
        # Same element order as the op's transpose-then-reshape copy,
        # landed in a warm buffer instead of a fresh allocation.
        np.copyto(xmat.reshape(n, h, w, c), x.transpose(0, 2, 3, 1))
        np.matmul(xmat, weight.reshape(c, f * k * k), out=cols)
        padded.fill(0)  # the scatter accumulates
        # Strided windows and a broadcast bias: NumPy buffers each add,
        # 8192 elements an operand by default, more than a small block.
        bufsize = np.setbufsize(256)
        try:
            scatter_patches(cols, padded, (k, k), (s, s))
            if layer.bias is not None:
                out += layer.bias.data[None, :, None, None]
        finally:
            np.setbufsize(bufsize)
        return out


class InferencePlan:
    """A model's layer sequence compiled to allocation-free steps.

    Compilation flattens the module tree (``SubdomainCNN`` →
    ``Sequential`` → layers), fuses every ``Conv2d`` directly followed
    by a ``LeakyReLU`` into one strip-epilogue step, chains each conv
    step to a padding conv step after it — the leader writes the
    follower's zero-bordered input, the follower runs it as a valid
    convolution, so no step copies its input into a padded buffer
    except a padded first layer — and gives all steps a plan-owned
    :class:`Workspace`.  Each step binds its buffers and views on the
    first ``run``; a warm run only does arithmetic.

    The plan reads the model's parameters on every run, so it sees
    training updates; structural edits (adding/removing layers) require
    recompiling.  Like the workspace it owns, a plan belongs to one
    thread at a time.

    Raises :class:`~repro.exceptions.ConfigurationError` when the model
    contains a module the step vocabulary cannot express (including a
    ``Conv2d`` outside the strip kernel's stride-1, padding < kernel
    class, and a ``SubdomainCNN`` subclass with its own ``forward``) —
    :class:`BlockStepper` then keeps the module-by-module forward.
    """

    SUPPORTED = (Conv2d, ConvTranspose2d, LeakyReLU)

    def __init__(self, model: Module, workspace: Workspace | None = None) -> None:
        self.model = model
        self.steps = self._compile(model)
        if not self.steps:
            raise ConfigurationError("InferencePlan: model has no layers")
        # Each plan owns its arena: two plans sharing one workspace
        # would collide on the per-step slot names.
        self.workspace = (
            workspace
            if workspace is not None
            else Workspace(name=f"plan-{type(model).__name__}")
        )
        # The plan computes in its parameters' dtype: a float64 field fed
        # to a float32 model is cast by the first step's copy.
        self.compute_dtype = _parameter_dtype(model)

    @staticmethod
    def _flatten(module: Module) -> list[Module]:
        if isinstance(module, SubdomainCNN):
            if type(module).forward is not SubdomainCNN.forward:
                # The plan runs ``.layers``: whatever an overriding
                # forward adds around them would silently be skipped.
                raise ConfigurationError(
                    f"InferencePlan cannot compile {type(module).__name__}: overridden forward"
                )
            module = module.layers
        if isinstance(module, Sequential):
            flat: list[Module] = []
            for child in module:
                flat.extend(InferencePlan._flatten(child))
            return flat
        return [module]

    @classmethod
    def _compile(cls, model: Module) -> list:
        layers = cls._flatten(model)
        for layer in layers:
            if not isinstance(layer, cls.SUPPORTED):
                raise ConfigurationError(
                    f"InferencePlan cannot compile {type(layer).__name__}"
                )
            if isinstance(layer, Conv2d) and (
                layer.stride != 1 or layer.padding >= layer.kernel_size
            ):
                # conv2d's reference-path classes allocate per call.
                raise ConfigurationError(
                    "InferencePlan compiles only stride-1 convolutions with "
                    f"padding < kernel, got {layer!r}"
                )
        fused = fuse_leaky_relu(layers)
        steps: list = []
        for layer, slope in fused:
            if isinstance(layer, Conv2d):
                steps.append(_ConvStep(len(steps), layer, slope))
            elif isinstance(layer, ConvTranspose2d):
                steps.append(_ConvTransposeStep(len(steps), layer))
            else:  # LeakyReLU not preceded by a Conv2d
                steps.append(_LeakyStep(len(steps), layer.negative_slope))
        for lead, follower, border in zip(steps, steps[1:], chain_borders(fused)):
            if border:
                # No pad copy: the leader writes the follower's padded input.
                lead.border, follower.padding = border, 0
        return steps

    def run(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward ``x`` (N, C, H, W) through the compiled steps.

        Intermediate results live entirely in the plan's workspace; the
        final result is copied out (into ``out`` when given) because
        arena storage is recycled by the next ``run``.
        """
        data = np.asarray(x)
        if data.ndim != 4:
            raise ShapeError(f"InferencePlan.run expects (N, C, H, W), got {data.shape}")
        timing = perf.perf_enabled()  # the run's one flag check
        start = trace.clock() if timing else 0.0
        h = data
        for step in self.steps:
            h = step.apply(h, self.workspace, self.compute_dtype, timing)
        if timing:
            perf.record_call("plan.run", trace.clock() - start)
        if out is not None:
            _store(h, out)
            return out
        return h.copy()

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.run(x, out=out)


class BlockStepper:
    """One subdomain network's step: ``gather`` its input, ``predict``.

    The single place that compiles an :class:`InferencePlan`, keeps a
    halo-extended input buffer or falls back to the module forward (for
    a model the plan refuses, with one ``repro.obs.log`` warning naming
    the reason).  Plan and buffer belong to one thread at
    a time: each rank, and each thread calling an
    :class:`EnsembleStepper`, holds its own instance.
    """

    def __init__(
        self, model: Module, decomposition: BlockDecomposition, rank: int, fill: str = "zero"
    ) -> None:
        self.model = model
        self.decomposition = decomposition
        self.rank = rank
        self.fill = fill
        self.halo = int(getattr(model, "input_halo", 0))
        sub = decomposition.subdomain(rank)
        self._block = (slice(None), sub.y_slice, sub.x_slice)
        # Plans read the parameters on every run, so later weight
        # updates stay visible.
        self.plan: InferencePlan | None = None
        try:
            self.plan = InferencePlan(model)
        except ConfigurationError as refusal:
            get_logger("inference").warning(
                "block %d runs the module forward, not a compiled plan: %s", rank, refusal
            )
        self._padded: np.ndarray | None = None

    def gather(self, source: np.ndarray) -> np.ndarray:
        """The network input cut from the global frame ``source``: the
        block plus ``halo`` lines of neighbour data (``fill`` beyond a
        wall), refilled in place in one persistent buffer."""
        if not self.halo:
            return source[self._block]  # ZERO / TRANSPOSE: the block is the input
        if self._padded is not None and self._padded.dtype != source.dtype:
            self._padded = None  # a float32 field after a float64 one
        self._padded = self.decomposition.extract(
            source, self.rank, self.halo, self.fill, out=self._padded
        )
        return self._padded

    def predict(self, net_input: np.ndarray, target: np.ndarray) -> None:
        """One forward, written to the block's window of the frame ``target``."""
        frame = target[self._block]
        if self.plan is not None:
            # Allocation-free after the first (warmup) step.
            self.plan.run(net_input[None], out=frame[None])
        else:
            with no_grad():
                prediction = self.model(Tensor(net_input[None])).numpy()
            _store(prediction, frame[None])


def _block_steppers(
    models: list[Module], decomposition: BlockDecomposition, fill: str
) -> list[BlockStepper]:
    if len(models) != decomposition.num_subdomains:
        raise ConfigurationError(
            f"{len(models)} models for {decomposition.num_subdomains} subdomains"
        )
    return [BlockStepper(m, decomposition, rank, fill) for rank, m in enumerate(models)]


class EnsembleStepper:
    """The subdomain networks as one :class:`Stepper`, without ranks.

    A step cuts every block's input from one source frame and writes
    every prediction into its window of the next: bit for bit a
    :meth:`ParallelPredictor.rollout` step.  One full-domain network is
    the one-block case — ``EnsembleStepper([model])`` builds the 1 x 1
    decomposition from the first state, so its halo is zero padding.
    Block steppers and the spare frame are created per calling thread,
    so the rank threads of a Parareal solve can share one instance.
    """

    def __init__(
        self,
        models: list[Module],
        decomposition: BlockDecomposition | None = None,
        fill: str = "zero",
    ) -> None:
        self.models = models
        self.decomposition = decomposition
        self.fill = fill
        self._scratch = threading.local()
        if decomposition is not None:
            self._units()  # a wrong model count fails here, not at the first step

    def _units(self) -> list[BlockStepper]:
        scratch = self._scratch
        if not hasattr(scratch, "units"):  # this thread's first call
            scratch.units = _block_steppers(self.models, self.decomposition, self.fill)
            scratch.spare = None
        return scratch.units

    def advance(
        self, state: np.ndarray, num_steps: int = 1, out: np.ndarray | None = None
    ) -> np.ndarray:
        if self.decomposition is None:
            self.decomposition = BlockDecomposition(state.shape[-2:], (1, 1))
        units, scratch = self._units(), self._scratch
        dtype = np.result_type(state.dtype, *map(_parameter_dtype, self.models))
        if out is None:
            out = np.empty(state.shape, dtype)
        if num_steps == 0:
            np.copyto(out, state)
        if num_steps > 1 and (scratch.spare is None or scratch.spare.dtype != dtype):
            scratch.spare = np.empty(state.shape, dtype)
        source = state
        for remaining in reversed(range(num_steps)):
            # Blocks read their halos from ``source``, so a step cannot
            # land in the frame it reads: alternate, ending in ``out``.
            target = scratch.spare if remaining % 2 else out
            for unit in units:
                unit.predict(unit.gather(source), target)
            source = target
        return out


def rollout(stepper: Stepper, initial: np.ndarray, num_steps: int) -> RolloutResult:
    """Trajectory of any :class:`Stepper` — model ensemble or simulation
    — one ``advance`` per frame, each written straight into the result."""
    if num_steps < 1:
        raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
    initial = np.asarray(initial)
    first = stepper.advance(initial, 1)  # the stepper decides the dtype
    trajectory = np.empty((num_steps + 1,) + initial.shape, first.dtype)
    trajectory[0], trajectory[1] = initial, first
    for step in range(1, num_steps):
        stepper.advance(trajectory[step], 1, out=trajectory[step + 1])
    return RolloutResult(trajectory, messages_sent=0, bytes_sent=0)


class ParallelPredictor:
    """Drives P trained subdomain networks as a coupled surrogate.

    Parameters
    ----------
    models:
        One trained :class:`SubdomainCNN` per rank (rank order).
    decomposition:
        The block decomposition used during training.
    fill:
        Physical-boundary halo fill, matching training.
    """

    def __init__(
        self,
        models: list[SubdomainCNN],
        decomposition: BlockDecomposition,
        fill: str = "zero",
    ) -> None:
        # One unit per rank, plans compiled once here.
        self._units = _block_steppers(models, decomposition, fill)
        strategies = {m.config.strategy for m in models}
        if len(strategies) > 1:
            raise ConfigurationError(
                f"all models must share one padding strategy, got {strategies}"
            )
        self.strategy = strategies.pop()
        if self.strategy is PaddingStrategy.INNER_CROP:
            raise ConfigurationError(
                "INNER_CROP outputs miss the subdomain interface lines, so "
                "they cannot seed the next step (the drawback the paper "
                "notes); use another strategy for rollout"
            )
        self.models = models
        self.decomposition = decomposition
        self.fill = fill
        self.halo = models[0].input_halo

    def rollout(
        self, initial: np.ndarray, num_steps: int, execution: str = "threads"
    ) -> RolloutResult:
        """Autoregressive multi-step prediction from a global field.

        ``initial`` has shape ``(C, H, W)``; each step reads the halo
        from the neighbours' windows of the shared trajectory (when the
        strategy uses neighbour data), forwards the local network, and
        writes the prediction where the next step reads it.
        ``execution`` selects the MPI runtime backend (``"threads"`` or
        ``"processes"``); results are identical either way.
        """
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        if initial.ndim != 3 or initial.shape[-2:] != self.decomposition.field_shape:
            raise ShapeError(
                f"initial state shape {initial.shape} does not match the "
                f"decomposition {self.decomposition.field_shape}"
            )
        decomposition, halo = self.decomposition, self.halo
        ranks = range(decomposition.num_subdomains)
        # One global trajectory every rank writes its own window of —
        # nothing is stacked, returned or reassembled.  The dtype is
        # what stacking the initial frame with the predictions gave.
        trajectory = mpi.shared_empty(
            (num_steps + 1,) + initial.shape,
            np.result_type(initial.dtype, *map(_parameter_dtype, self.models)),
        )
        trajectory[0] = initial
        strips = [
            _strip_volumes(decomposition, rank, halo, initial.shape[0], trajectory.itemsize)
            if halo
            else []
            for rank in ranks
        ]
        handshake = None
        if halo:
            decomposition.check_halo(halo)
            # A rank reads frame t of a neighbour's window once that
            # neighbour has posted it; frames are append-only, so one
            # post per edge per step is the whole protocol.
            handshake = mpi.Handshake([decomposition.halo_peers(rank) for rank in ranks])

        def program(comm: mpi.Communicator) -> None:
            rank = comm.rank
            unit = self._units[rank]
            step_bytes = sum(strips[rank])
            metered = obs_metrics.enabled()
            for step in range(num_steps):
                step_start = trace.clock() if metered else 0.0
                with trace.span("rollout.step", cat="rollout", step=step):
                    if handshake is None:
                        net_input = unit.gather(trajectory[step])
                    else:
                        # The wait nests in the comm span as router.wait
                        # nests in mpi.recv: comm seconds include it.
                        with (
                            trace.span("halo.exchange", cat="comm.compound", halo=halo),
                            trace.span("halo.get", cat="comm", bytes=step_bytes),
                        ):
                            if step:
                                with trace.span("halo.wait", cat="comm.wait"):
                                    handshake.wait(comm, step)
                            net_input = unit.gather(trajectory[step])
                        if metered:
                            _HALO_EXCHANGES.inc()
                            _BYTES_SENT.inc(step_bytes)
                            _BYTES_RECV.inc(step_bytes)
                    with trace.span("rollout.forward", cat="compute", step=step):
                        unit.predict(net_input, trajectory[step + 1])
                    if handshake is not None and step + 1 < num_steps:
                        handshake.post(rank)
                if metered:
                    _ROLLOUT_STEP_SECONDS.observe(trace.clock() - step_start)
                obs_metrics.heartbeat()

        mpi.run_parallel(program, decomposition.num_subdomains, backend=execution)
        return RolloutResult(
            trajectory,
            messages_sent=num_steps * sum(map(len, strips)),
            bytes_sent=num_steps * sum(map(sum, strips)),
        )


def _strip_volumes(
    decomposition: BlockDecomposition, rank: int, halo: int, channels: int, itemsize: int
) -> list[int]:
    """Byte volume of each strip ``rank`` sends in one two-phase halo
    exchange — the unit ``messages_sent`` / ``bytes_sent`` count in,
    whatever carries the data.  One strip per axis neighbour that is
    another rank: a wall has none, and a periodic axis one rank wide
    wraps onto the rank itself, which is a local copy.
    """
    h, w = decomposition.subdomain(rank).shape
    # Phase 1 swaps rows of the block, phase 2 columns of the y-extended
    # block (which carries the corners along).
    lines = (w, h + 2 * halo)
    return [
        channels * halo * lines[axis] * itemsize
        for axis in (0, 1)
        for direction in (-1, +1)
        if decomposition.neighbour(rank, axis, direction) not in (None, rank)
    ]
