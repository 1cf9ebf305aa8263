"""Parallel-in-time Parareal driver: the CNN as coarse propagator.

The paper parallelizes space only (domain decomposition, one CNN per
subdomain); the time axis stays strictly serial.  This module opens the
second axis: the rollout horizon is split into N slices, the trained
CNN plays the cheap coarse propagator G, the finite-difference solver
is the expensive fine propagator F, and the Parareal correction

    U_{n+1}^{k+1} = G(U_n^{k+1}) + F(U_n^k) - G(U_n^k)

is iterated until successive slice-start iterates agree within
tolerance.  The fixed point of the correction is the serial fine
solution, and after k full sweeps the first k slice states are exactly
the fine trajectory, so the iteration converges in at most N sweeps no
matter how rough G is — a well-trained CNN just gets there in 1-3,
which is where the speedup over serial fine stepping comes from
(ideal wall-clock ratio ~ N / (K + 1) when G is much cheaper than F).

Ranks map one-to-one onto time slices via ``repro.mpi.run_parallel``
(threads or processes).  Every iterate of every slice-boundary state has
one slot in a window the parent allocates (``mpi.shared_empty``): rank n
writes U_{n+1}^k there once, posts on a ``mpi.Handshake`` chain, and
rank n+1 reads it in place — no state is sent, returned or stacked.  The
schedule is *pipelined*: each rank propagates its fine slice F(U_n^k)
**before** blocking on the corrected start state U_n^{k+1} from rank
n-1, so the expensive fine work overlaps the serial coarse sweep
trickling through earlier ranks.

The blocked stretch of that hand-off is the span ``parareal.wait``
(category ``comm.wait``; see :mod:`repro.obs.export` for how a parareal
run's summary columns read).

F and G are each just a :class:`~repro.solver.simulation.Stepper`
(``advance(state, num_steps, out=)``), so this module knows nothing of
networks: a CNN ensemble (``repro.core.inference.EnsembleStepper``) or
the fine simulation itself (``PararealDriver(sim, sim, cfg)`` converges
in one sweep) goes in as ``coarse`` unwrapped.  Fine states stay float64
(the solver's native mode); a float32 model's predictions are float32
values in a float64 frame — the coarse term only needs to be *close*,
its rounding error is part of what the iteration corrects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import mpi
from ..exceptions import ConfigurationError
from ..obs import metrics as obs_metrics
from ..obs import trace
from .simulation import SteppedSimulation, Stepper

__all__ = [
    "PararealConfig",
    "PararealResult",
    "PararealDriver",
    "serial_fine",
]

#: Per-rank sweep counter and last observed convergence delta (no-ops
#: while the metrics registry is off — see :mod:`repro.obs.metrics`).
_SWEEPS = obs_metrics.counter("parareal.sweeps")
_CORRECTION_DELTA = obs_metrics.gauge("parareal.correction_delta", forward_to_trace=False)


def _relative_delta(new: np.ndarray, old: np.ndarray) -> float:
    """Relative L2 change between iterates (the customary Parareal
    stopping norm: max-norm would let one interface pixel of a trained
    surrogate dominate an otherwise converged field)."""
    scale = float(np.linalg.norm(new))
    change = float(np.linalg.norm(new - old))
    if scale == 0.0:
        return change
    return change / scale


@dataclass(frozen=True)
class PararealConfig:
    """Parareal schedule parameters.

    Scenario-tuned defaults come from
    :func:`repro.scenarios.parareal_config`; the total horizon covered
    is ``slices * coarse_steps * fine_steps_per_coarse`` fine solver
    steps.
    """

    #: number of time slices == world size (one rank per slice)
    slices: int = 8
    #: convergence threshold on the allreduced successive-iterate
    #: relative L2 delta of the slice-start states
    tolerance: float = 1e-3
    #: coarse propagator applications per slice
    coarse_steps: int = 1
    #: fine solver steps spanned by one coarse application — for a
    #: trained CNN, the snapshot spacing it learned
    #: (``Scenario.steps_per_snapshot``)
    fine_steps_per_coarse: int = 1
    #: correction sweeps before giving up; ``None`` means ``slices``,
    #: which the exactness property guarantees is always enough
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ConfigurationError(f"slices must be >= 1, got {self.slices}")
        if self.tolerance <= 0:
            raise ConfigurationError(
                f"tolerance must be positive, got {self.tolerance}"
            )
        if self.coarse_steps < 1:
            raise ConfigurationError(
                f"coarse_steps must be >= 1, got {self.coarse_steps}"
            )
        if self.fine_steps_per_coarse < 1:
            raise ConfigurationError(
                f"fine_steps_per_coarse must be >= 1, got "
                f"{self.fine_steps_per_coarse}"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or None, got {self.max_iterations}"
            )

    @property
    def fine_steps_per_slice(self) -> int:
        return self.coarse_steps * self.fine_steps_per_coarse

    @property
    def iteration_cap(self) -> int:
        return self.slices if self.max_iterations is None else self.max_iterations


@dataclass
class PararealResult:
    """Outcome of a Parareal solve."""

    #: slice-boundary states ``(slices + 1, C, ny, nx)``: element 0 is
    #: the initial state, element n the converged estimate of U_n.  A
    #: view of the solve's iterate window (its last sweep's row), which
    #: it keeps mapped: copy it to hold many results for long.
    states: np.ndarray
    #: correction sweeps actually run (0 = coarse initialization only)
    iterations: int
    #: whether the successive-iterate delta fell below tolerance
    converged: bool
    #: allreduced max relative delta after each sweep
    deltas: list[float]
    #: fine solver time step
    dt: float
    #: coarse applications summed over all ranks and sweeps
    coarse_steps_applied: int
    #: fine solver steps summed over all ranks and sweeps
    fine_steps_applied: int

    @property
    def num_slices(self) -> int:
        return self.states.shape[0] - 1


def serial_fine(
    simulation: SteppedSimulation, initial: np.ndarray, config: PararealConfig
) -> np.ndarray:
    """Reference serial fine trajectory.

    Returns the ``(slices + 1, C, ny, nx)`` slice-boundary states the
    Parareal iteration converges to — the honest single-worker baseline
    for the speedup benchmarks.
    """
    states = np.empty((config.slices + 1,) + np.shape(initial))
    states[0] = initial
    for n in range(config.slices):
        with trace.span("parareal.fine", cat="parareal", serial=True):
            simulation.advance(states[n], config.fine_steps_per_slice, out=states[n + 1])
    return states


class PararealDriver:
    """Parareal iteration over one slice per rank.

    Parameters
    ----------
    simulation:
        The fine propagator — any :class:`SteppedSimulation`
        (``Simulation`` for Euler, ``FieldSimulation`` for scalar
        equations); it also fixes the state shape and ``dt``.
    coarse:
        The coarse propagator G: any :class:`Stepper`, one step of which
        spans ``fine_steps_per_coarse`` fine steps.  Rank threads share
        it, so any scratch it keeps must be per calling thread.
    config:
        Slice count, tolerance, and the coarse/fine step mapping.
    """

    def __init__(
        self,
        simulation: SteppedSimulation,
        coarse: Stepper,
        config: PararealConfig,
    ) -> None:
        self.simulation = simulation
        self.coarse = coarse
        self.config = config

    def solve(self, initial: np.ndarray, execution: str = "threads") -> PararealResult:
        """Run the Parareal iteration from ``initial`` (``(C, ny, nx)``).

        ``execution`` picks the :func:`repro.mpi.run_parallel` backend
        (``"threads"`` or ``"processes"``); numerics are identical on
        both, pinned by tests.
        """
        cfg = self.config
        start_state = np.asarray(initial, dtype=float)
        expected = (self.simulation.num_channels,) + self.simulation.grid.shape
        if start_state.shape != expected:
            raise ConfigurationError(
                f"initial state shape {start_state.shape} does not match "
                f"(channels,) + grid shape {expected}"
            )
        simulation, coarse = self.simulation, self.coarse
        size = cfg.slices
        cap = cfg.iteration_cap
        # window[k, n] is U_n^k.  Rank n writes window[k, n + 1] once and
        # posts; rank n + 1 waits on that one edge and reads it in place.
        # Every slot has one writer and is written once, so the chain of
        # posts is the whole protocol.
        window = mpi.shared_empty((cap + 1, size + 1) + expected, float)
        window[:, 0] = start_state
        chain = mpi.Handshake([[]] + [[rank - 1] for rank in range(1, size)])

        def program(comm):
            rank = comm.rank
            counters = {"coarse": 0, "fine": 0}

            def coarse_slice(state, out=None):
                counters["coarse"] += cfg.coarse_steps
                with trace.span("parareal.coarse", cat="parareal", slice=rank):
                    return coarse.advance(state, cfg.coarse_steps, out=out)

            def fine_slice(state):
                counters["fine"] += cfg.fine_steps_per_slice
                with trace.span("parareal.fine", cat="parareal", slice=rank):
                    return simulation.advance(state, cfg.fine_steps_per_slice)

            def start_of(sweep):
                """U_rank^sweep, read in place once rank - 1 has posted it."""
                with trace.span("parareal.wait", cat="comm.wait", slice=rank, sweep=sweep):
                    chain.wait(comm, sweep)
                return window[sweep, rank]

            # Sweep 0: the serial coarse initialization trickles the first
            # slice-start estimates down the rank chain.
            slice_start = start_of(0)
            coarse_end = coarse_slice(slice_start, out=window[0, rank + 1])
            chain.post(rank)

            iterations = 0
            converged = False
            deltas = []
            for sweep in range(1, cap + 1):
                # Pipelined schedule: this rank's expensive fine slice
                # runs *before* the blocking wait, so it overlaps the
                # serial correction sweep still working through the
                # earlier ranks.
                fine_end = fine_slice(slice_start)
                corrected_start = start_of(sweep)
                delta = _relative_delta(corrected_start, slice_start)
                # Coarse re-propagation sits *outside* the correct span
                # so the summary's coarse/fine/correct attribution is
                # disjoint (the correct span is the update arithmetic
                # alone).
                coarse_new = coarse_slice(corrected_start)
                with trace.span(
                    "parareal.correct", cat="parareal", slice=rank, sweep=sweep
                ):
                    # The Parareal correction — REP015 confines this
                    # arithmetic to this module — as F + (G_new - G_old):
                    # the difference is exactly 0 once a slice start has
                    # converged, so F survives even where |G| >> |F|.
                    corrected = window[sweep, rank + 1]
                    np.subtract(coarse_new, coarse_end, out=corrected)
                    np.add(fine_end, corrected, out=corrected)
                chain.post(rank)
                slice_start = corrected_start
                coarse_end = coarse_new
                iterations = sweep
                _SWEEPS.inc()
                obs_metrics.heartbeat()
                # Unconditional collective: every rank takes the same
                # trip count and the reduced value is identical, so the
                # break below fires on all ranks at once.
                max_delta = float(comm.allreduce(delta, op=mpi.MAX))
                deltas.append(max_delta)
                _CORRECTION_DELTA.set(max_delta)
                if max_delta <= cfg.tolerance:
                    converged = True
                    break
            return iterations, converged, deltas, counters["coarse"], counters["fine"]

        with trace.span("parareal.solve", cat="parareal", slices=size):
            outputs = mpi.run_parallel(program, size, backend=execution)

        iterations, converged, deltas, _, _ = outputs[0]
        return PararealResult(
            states=window[iterations],
            iterations=iterations,
            converged=converged,
            deltas=deltas,
            dt=simulation.dt,
            coarse_steps_applied=sum(out[3] for out in outputs),
            fine_steps_applied=sum(out[4] for out in outputs),
        )
