"""InferencePlan equivalence and allocation-freedom.

The acceptance bar for the workspace/fusion layer: a compiled plan must
be bit-identical to the module-by-module forward for every padding
strategy, must stop allocating after its warmup run (pinned through the
metrics registry's workspace counters), and must leave MPI rollouts
unchanged on both execution backends.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    EnsembleStepper,
    InferencePlan,
    PaddingStrategy,
    ParallelPredictor,
    SubdomainCNN,
    rollout,
)
from repro.core.inference import _ConvStep, _LeakyStep
from repro.domain import BlockDecomposition
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import Conv2d, LeakyReLU, Module, Sequential
from repro.obs import metrics
from repro.tensor import Tensor, Workspace, blocked, no_grad, precision

STRATEGIES = [
    PaddingStrategy.ZERO,
    PaddingStrategy.NEIGHBOR_FIRST,
    PaddingStrategy.NEIGHBOR_ALL,
]

#: Both epilogue branches (max for slope <= 1, min above) and their bounds.
SLOPES = [0.0, 0.01, 1.0, 2.0]


def make_model(strategy, seed=0, channels=(4, 6, 4), slope=0.01):
    config = CNNConfig(
        channels=channels, kernel_size=3, strategy=strategy, negative_slope=slope
    )
    return SubdomainCNN(config, rng=np.random.default_rng(seed))


def model_forward(model, x):
    with no_grad():
        return model(Tensor(x)).numpy()


def with_biases(model, rng):
    """Every bias made nonzero: the zero-initialised ones would let a
    wrong bias tap pass a bitwise pin."""
    for module in InferencePlan._flatten(model):
        if getattr(module, "bias", None) is not None:
            bias = module.bias.data
            bias[...] = rng.uniform(0.1, 0.5, bias.shape) * rng.choice([-1, 1], bias.shape)
    return model


def refuse_operands(monkeypatch):
    """From here on, any workspace request or operand view raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("a warm plan run built an operand")

    monkeypatch.setattr(Workspace, "request", refuse)
    monkeypatch.setattr(blocked, "as_strided", refuse)
    monkeypatch.setattr(blocked, "patch_strips", refuse)


class Unplanned(SubdomainCNN):
    """The same network behind its own ``forward``: the plan refuses it,
    so a rollout takes the module-by-module path."""

    def forward(self, x):
        return super().forward(x)


class Doubled(SubdomainCNN):
    def forward(self, x):
        return super().forward(x) * 2.0


class TestPlanEquivalence:
    @pytest.mark.parametrize("slope", SLOPES)
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_bit_identical_to_module_forward(self, rng, strategy, slope):
        model = with_biases(make_model(strategy, slope=slope), rng)
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((2, 4, 10 + 2 * halo, 10 + 2 * halo))
        expected = model_forward(model, x)
        # Cold, warm, and hot runs must all match exactly.
        for _ in range(3):
            assert np.array_equal(plan.run(x), expected)

    def test_sees_in_place_weight_updates(self, rng):
        """Plans hold references to parameter storage, so an optimizer
        stepping the model in place must be visible without recompiling."""
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        plan.run(x)  # warmup with old weights
        for param in model.parameters():
            param.data += 0.25
        assert np.array_equal(plan.run(x), model_forward(model, x))

    def test_input_not_mutated(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        original = x.copy()
        plan.run(x)
        plan.run(x)
        assert np.array_equal(x, original)

    def test_out_parameter(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        expected = plan.run(x)
        out = np.empty_like(expected)
        returned = plan.run(x, out=out)
        assert returned is out
        assert np.array_equal(out, expected)

    def test_result_detached_from_arena(self, rng):
        """run() results must survive the next run() (copied out, not a
        view of recycled arena storage)."""
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        a_in = rng.standard_normal((1, 4, 8, 8))
        b_in = rng.standard_normal((1, 4, 8, 8))
        a = plan.run(a_in)
        a_snapshot = a.copy()
        plan.run(b_in)
        assert np.array_equal(a, a_snapshot)

    def test_callable_alias(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        assert np.array_equal(plan(x), plan.run(x))

    def test_wrong_rank_raises(self, rng):
        plan = InferencePlan(make_model(PaddingStrategy.ZERO))
        with pytest.raises(ShapeError):
            plan.run(rng.standard_normal((4, 8, 8)))


class TestAllocationFreedom:
    def test_zero_new_buffers_after_warmup(self, rng):
        """The tentpole property, asserted through the metrics registry:
        after the warmup run no step asks the workspace for anything, so
        the registry records no workspace bytes at all."""
        model = make_model(PaddingStrategy.ZERO)  # a padded first conv, chained
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 12, 12))
        plan.run(x)  # warmup
        created = plan.workspace.stats.buffers_created
        metrics.reset()
        with metrics.collecting():
            for _ in range(3):
                plan.run(x)
        snap = metrics.snapshot()
        metrics.reset()
        assert plan.workspace.stats.buffers_created == created
        assert "workspace.bytes_allocated" not in snap
        assert "workspace.bytes_reused" not in snap
        assert snap["plan.run"]["ranks"][None]["count"] == 3

    def test_warm_arena_is_fully_hit(self, rng):
        """A warm run does not even ask: every operand was bound by the
        first run, so the arena sees no request at all."""
        model = make_model(PaddingStrategy.NEIGHBOR_ALL)
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((1, 4, 8 + 2 * halo, 8 + 2 * halo))
        plan.run(x)
        before = plan.workspace.stats
        requests, created = before.requests, before.buffers_created
        plan.run(x)
        after = plan.workspace.stats
        assert after.buffers_created == created
        assert after.requests == requests

    @pytest.mark.parametrize("block", [(256, 128), (64, 32)], ids=["256x128", "64x32"])
    @pytest.mark.parametrize(
        "strategy", [PaddingStrategy.NEIGHBOR_FIRST, PaddingStrategy.ZERO]
    )
    def test_warm_run_traces_under_a_quarter_block(self, strategy, block, rng):
        """The hot-path contract, measured rather than inferred: a warm
        ``run`` of the Table-I network on a rollout block peaks below a
        quarter of its output in Python-traced allocations, so no step
        (or the loop between them) makes a block-sized temporary.  At
        64x32 the quarter is 16 KiB, under the ~50 KB of iterator
        buffers one ufunc call on a strided operand allocates."""
        model = SubdomainCNN(CNNConfig(strategy=strategy), rng=np.random.default_rng(0))
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((1, 4, block[0] + 2 * halo, block[1] + 2 * halo))
        out = np.empty((1, 4) + block)
        for _ in range(2):
            plan.run(x, out=out)
        tracemalloc.start()
        try:
            for _ in range(3):
                plan.run(x, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes // 4, f"warm run peaked at {peak} B"


class TestBinding:
    """A conv step binds its operand views on the first input it sees
    and re-runs them until the input's shape, strides, dtype or buffer
    changes; the parameters are read on every run."""

    @pytest.fixture
    def binds(self, monkeypatch):
        """Strips drawn per run: what binding costs, zero when warm."""
        drawn = []
        original = blocked.patch_strips

        def counting(*args, **kwargs):
            for strip in original(*args, **kwargs):
                drawn.append(1)
                yield strip

        monkeypatch.setattr(blocked, "patch_strips", counting)

        def run(plan, x):
            start = len(drawn)
            result = plan.run(x)
            return result, len(drawn) - start

        return run

    @pytest.mark.parametrize("block", [(16, 32), (256, 128)], ids=["16x32", "256x128"])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_bit_identical_at_the_rollout_block_sizes(self, rng, strategy, block):
        """The two rollout workloads' per-rank blocks; at 256x128 every
        conv step's last 1 MiB strip is ragged."""
        model = make_model(strategy, channels=(4, 6, 16, 6, 4))
        halo = model.input_halo
        x = rng.standard_normal((1, 4, block[0] + 2 * halo, block[1] + 2 * halo))
        expected = model_forward(model, x)
        plan = InferencePlan(model)
        for _ in range(2):  # the binding run, then a warm one
            assert np.array_equal(plan.run(x), expected)
        if block == (256, 128):
            bound = [step._forward for step in plan.steps if hasattr(step, "_forward")]
            assert len(bound) == 4
            counts = []
            for forward in bound:
                rows = [strip[3].shape[0] for strip in forward.strips]  # GEMM outputs
                assert len(rows) > 1 and rows[-1] < rows[0]
                counts.append(len(rows))
            # The activated steps' budgets count the work strip and its twin.
            all_valid = strategy == PaddingStrategy.NEIGHBOR_ALL
            assert counts == ([7, 15, 19, 6] if all_valid else [7, 14, 18, 6])

    def test_new_shape_dtype_or_buffer_rebinds(self, rng, binds):
        model = make_model(PaddingStrategy.NEIGHBOR_FIRST)  # first conv reads x
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 12, 12))
        assert binds(plan, x)[1] > 0
        # the same buffer with new contents: no rebind, new answer
        x[...] = rng.standard_normal(x.shape)
        got, drawn = binds(plan, x)
        assert drawn == 0 and np.array_equal(got, model_forward(model, x))
        variants = {  # each differs from x in the named property only
            "shape": rng.standard_normal((1, 4, 14, 12)),
            "dtype": x.astype(np.float32),
            "buffer": rng.standard_normal(x.shape),
            "strides": np.asfortranarray(x),
        }
        for name, variant in variants.items():
            binds(plan, x)
            got, drawn = binds(plan, variant)
            assert drawn > 0, name
            assert np.array_equal(got, model_forward(model, variant.astype(np.float64))), name
        assert binds(plan, variants["strides"])[1] == 0  # warm again

    def test_padded_first_layer_ignores_the_buffer(self, rng, binds):
        """A padding conv copies its input into its own arena buffer, so
        a rollout feeding each step from a new frame does not rebind."""
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        binds(plan, rng.standard_normal((1, 4, 8, 8)))
        x = rng.standard_normal((1, 4, 8, 8))
        got, drawn = binds(plan, x)
        assert drawn == 0 and np.array_equal(got, model_forward(model, x))

    @pytest.mark.parametrize("name", ["weight", "bias"])
    def test_in_place_update_is_seen_by_the_next_run(self, rng, binds, name):
        model = make_model(PaddingStrategy.NEIGHBOR_FIRST)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 12, 12))
        before = binds(plan, x)[0]
        for layer in model.layers:
            if isinstance(layer, Conv2d):
                getattr(layer, name).data += 0.5
        got, drawn = binds(plan, x)
        assert drawn == 0, "an in-place update needs no rebind"
        assert not np.array_equal(got, before)
        assert np.array_equal(got, model_forward(model, x))

    def test_replaced_parameter_array_is_seen_without_a_rebind(self, rng, binds):
        """The parameters are read on every run, not bound."""
        model = make_model(PaddingStrategy.NEIGHBOR_FIRST)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 12, 12))
        binds(plan, x)
        for param in model.parameters():
            param.data = param.data + 0.25
        got, drawn = binds(plan, x)
        assert drawn == 0 and np.array_equal(got, model_forward(model, x))

    def test_warm_run_requests_nothing_and_builds_no_view(self, rng, monkeypatch):
        model = make_model(PaddingStrategy.NEIGHBOR_FIRST, channels=(4, 6, 16, 6, 4))
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((1, 4, 16 + 2 * halo, 32 + 2 * halo))
        out = np.empty((1, 4, 16, 32))
        plan.run(x, out=out)
        nbytes, expected = plan.workspace.nbytes, model_forward(model, x)
        refuse_operands(monkeypatch)
        plan.run(x, out=out)
        assert plan.workspace.nbytes == nbytes
        assert np.array_equal(out, expected)


class TestNonzeroBias:
    """The bias rides in the GEMM as one more tap, so the bitwise pins
    must see biases that are not zero."""

    @pytest.mark.parametrize("mode", ["float64", "float32"])
    @pytest.mark.parametrize("block", [(16, 32), (64, 32)], ids=["16x32", "64x32"])
    @pytest.mark.parametrize(
        "strategy",
        [PaddingStrategy.NEIGHBOR_FIRST, PaddingStrategy.ZERO],
        ids=lambda s: s.value,
    )
    def test_bit_identical_to_module_forward(self, rng, strategy, block, mode):
        with precision(mode):
            model = with_biases(make_model(strategy, channels=(4, 6, 16, 6, 4)), rng)
            halo = model.input_halo
            x = rng.standard_normal((1, 4, block[0] + 2 * halo, block[1] + 2 * halo))
            expected = model_forward(model, x)
            plan = InferencePlan(model)
            for _ in range(3):  # the binding run, then warm ones
                got = plan.run(x)
                assert got.dtype == expected.dtype == np.dtype(mode)
                assert np.array_equal(got, expected)


class TestChain:
    """A conv whose follower pads writes into the follower's
    zero-bordered input; the follower reads it as a valid convolution."""

    CHANNELS = (4, 6, 16, 6, 4)

    @staticmethod
    def conv_steps(plan):
        return [step for step in plan.steps if hasattr(step, "_forward")]

    @staticmethod
    def requested_slots(plan, x, monkeypatch):
        """Slots the binding run asks the plan's arena for."""
        slots = []
        original = Workspace.request

        def spy(self, slot, *args, **kwargs):
            slots.append(slot)
            return original(self, slot, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Workspace, "request", spy)
            plan.run(x)
        return slots

    @pytest.mark.parametrize(
        "strategy",
        [PaddingStrategy.NEIGHBOR_FIRST, PaddingStrategy.ZERO],
        ids=lambda s: s.value,
    )
    def test_no_pad_copy_after_the_first_step(self, rng, monkeypatch, strategy):
        model = with_biases(make_model(strategy, channels=self.CHANNELS), rng)
        halo = model.input_halo
        x = rng.standard_normal((1, 4, 16 + 2 * halo, 32 + 2 * halo))
        plan = InferencePlan(model)
        slots = self.requested_slots(plan, x, monkeypatch)
        steps = self.conv_steps(plan)
        assert [step.border for step in steps] == [1, 1, 1, 0]
        assert [step.padding for step in steps[1:]] == [0, 0, 0]
        # Only a padded first layer copies its input into a padded buffer.
        first_pads = strategy is PaddingStrategy.ZERO
        assert (steps[0]._forward.interior is not None) == first_pads
        assert all(step._forward.interior is None for step in steps[1:])
        padded = [slot for slot in slots if ".padded" in slot]
        assert padded == (["plan.conv0.padded.1x1"] if first_pads else [])
        # Each chained follower reads its leader's output buffer.
        for lead, follower in zip(steps, steps[1:]):
            assert np.shares_memory(follower._forward.strips[0][0], lead._forward.out)
        assert np.array_equal(plan.run(x), model_forward(model, x))

    def test_borders_stay_zero_under_negative_pre_activations(self, rng):
        """Every pre-activation negative: the activation sweeps the
        borders and must leave them exactly +0.0."""
        model = make_model(PaddingStrategy.NEIGHBOR_FIRST, channels=self.CHANNELS)
        for layer in model.layers:
            if isinstance(layer, Conv2d):
                layer.weight.data[...] = np.abs(layer.weight.data) * 0.1
                layer.bias.data[...] = -1.0 - rng.uniform(0, 1, layer.bias.data.shape)
        plan = InferencePlan(model)
        steps = self.conv_steps(plan)
        halo = model.input_halo
        for _ in range(21):  # the binding run and 20 warm ones
            x = rng.uniform(0, 1, (1, 4, 24 + 2 * halo, 16 + 2 * halo))
            got = plan.run(x)
        assert np.array_equal(got, model_forward(model, x))
        chained = [step for step in steps if step.border]
        assert len(chained) == 3
        for step in chained:
            buffer, b = step._forward.out, step.border
            interior = buffer[:, :, b:-b, b:-b]
            assert (interior < 0).all(), "the pre-activations were meant to be negative"
            border = buffer.copy()
            border[:, :, b:-b, b:-b] = 0.0
            assert (border == 0.0).all() and not np.signbit(border).any()

    def left_alone(self):
        init = {"rng": np.random.default_rng(3)}
        return {
            "padded-first-layer": make_model(PaddingStrategy.ZERO, channels=self.CHANNELS),
            "standalone-leaky": Sequential(
                Conv2d(4, 6, 3, padding=1, **init),
                LeakyReLU(0.1),
                LeakyReLU(0.2),
                Conv2d(6, 4, 3, padding=1, **init),
            ),
        }

    @pytest.mark.parametrize(
        "name", ["padded-first-layer", "standalone-leaky"]
    )
    def test_models_the_chain_leaves_alone(self, rng, monkeypatch, name):
        model = with_biases(self.left_alone()[name], rng)
        x = rng.standard_normal((1, 4, 16, 16))
        expected = model_forward(model, x)
        plan = InferencePlan(model)
        assert np.array_equal(plan.run(x), expected)
        steps = self.conv_steps(plan)
        # The last conv writes a plain result; so does a conv whose
        # follower is not a conv step (a LeakyReLU).
        assert steps[-1].border == 0
        assert steps[-1]._forward.out.shape == expected.shape
        if name == "padded-first-layer":
            assert steps[0].padding == 1 and steps[0]._forward.interior is not None
            assert [step.border for step in steps] == [1, 1, 1, 0]
        else:
            assert all(step.border == 0 for step in steps)
            assert all(step.padding == step.layer.padding for step in steps)
        refuse_operands(monkeypatch)
        for _ in range(2):
            assert np.array_equal(plan.run(x), expected)


class TestCompilation:
    def test_fuses_conv_leaky_pairs(self):
        model = make_model(PaddingStrategy.ZERO, channels=(4, 6, 4))
        # 2 conv layers, each followed by LeakyReLU (last layer has no
        # activation only when the config says so — check actual count).
        plan = InferencePlan(model)
        flat = InferencePlan._flatten(model)
        fused = sum(1 for s in plan.steps if getattr(s, "slope", None) is not None)
        assert len(plan.steps) < len(flat)
        assert fused >= 1

    def test_unsupported_or_empty_model_raises(self):
        class Exotic(Module):
            def forward(self, x):  # pragma: no cover - never run
                return x

        for model in (Exotic(), Sequential()):
            with pytest.raises(ConfigurationError):
                InferencePlan(model)

    def test_compile_unsupported_raises(self):
        class Exotic(Module):
            def forward(self, x):  # pragma: no cover - never run
                return x

        with pytest.raises(ConfigurationError):
            InferencePlan(Sequential(Conv2d(2, 2, 3), Exotic()))

    @pytest.mark.parametrize("slope", SLOPES)
    def test_plain_sequential_supported(self, rng, slope):
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
            LeakyReLU(slope),
            Conv2d(3, 2, 3, padding=1, rng=np.random.default_rng(1)),
        )
        plan = InferencePlan(model)
        assert [type(step) for step in plan.steps] == [_ConvStep, _ConvStep]
        x = rng.standard_normal((1, 2, 6, 6))
        assert np.array_equal(plan.run(x), model_forward(model, x))

    @pytest.mark.parametrize("slope", SLOPES)
    def test_leading_leaky_relu_copies_input(self, rng, slope):
        """A LeakyReLU that is the first step must not mutate the
        caller's array (the in-place step copies into the arena)."""
        model = Sequential(LeakyReLU(slope), Conv2d(2, 2, 3, padding=1))
        plan = InferencePlan(model)
        assert type(plan.steps[0]) is _LeakyStep
        x = rng.standard_normal((1, 2, 6, 6))
        original = x.copy()
        assert np.array_equal(plan.run(x), model_forward(model, x))
        assert np.array_equal(x, original)

    def test_state_dict_unchanged_by_compilation(self):
        model = make_model(PaddingStrategy.ZERO)
        keys_before = sorted(model.state_dict())
        InferencePlan(model)
        assert sorted(model.state_dict()) == keys_before


class TestRolloutEquivalence:
    """Seeded multi-step MPI rollout: plans must change nothing."""

    def clone_models(self, config, num, seed=7, cls=SubdomainCNN):
        reference = SubdomainCNN(config, rng=np.random.default_rng(seed))
        models = []
        for _ in range(num):
            model = cls(config, rng=np.random.default_rng(99))
            model.load_state_dict(reference.state_dict())
            models.append(model)
        return models

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    @pytest.mark.parametrize(
        "strategy",
        [PaddingStrategy.ZERO, PaddingStrategy.NEIGHBOR_FIRST],
        ids=lambda s: s.value,
    )
    def test_plan_rollout_matches_naive(self, rng, strategy, execution):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3, strategy=strategy)
        models = self.clone_models(config, 4)
        decomp = BlockDecomposition.from_num_ranks((16, 16), 4)
        field = rng.standard_normal((4, 16, 16))

        # Models the plan refuses take the module-by-module forward.
        naive = ParallelPredictor(self.clone_models(config, 4, cls=Unplanned), decomp)
        planned = ParallelPredictor(models, decomp)
        assert [unit.plan for unit in naive._units] == [None] * 4
        assert None not in [unit.plan for unit in planned._units]
        expected = naive.rollout(field, num_steps=3, execution=execution)
        got = planned.rollout(field, num_steps=3, execution=execution)

        assert np.array_equal(got.trajectory, expected.trajectory)
        assert got.messages_sent == expected.messages_sent
        assert got.bytes_sent == expected.bytes_sent


class TestForwardOverride:
    """A ``SubdomainCNN`` subclass with its own ``forward`` is not its
    ``.layers``: the plan must refuse it and the rollout must run it."""

    def models(self, num):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3)
        return [Doubled(config, rng=np.random.default_rng(r)) for r in range(num)]

    def stepwise(self, models, decomp, field, num_steps):
        halo = models[0].input_halo
        frames = [field]
        for _ in range(num_steps):
            frames.append(
                decomp.assemble(
                    [
                        model_forward(model, decomp.extract(frames[-1], rank, halo)[None])[0]
                        for rank, model in enumerate(models)
                    ]
                )
            )
        return np.stack(frames)

    def test_plan_refuses_and_names_the_class(self):
        (model,) = self.models(1)
        with pytest.raises(ConfigurationError, match="Doubled"):
            InferencePlan(model)

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_parallel_rollout_runs_the_overriding_forward(self, rng, execution):
        models = self.models(2)
        decomp = BlockDecomposition((12, 12), (1, 2))
        field = rng.standard_normal((4, 12, 12))
        result = ParallelPredictor(models, decomp).rollout(field, 3, execution=execution)
        assert np.array_equal(result.trajectory, self.stepwise(models, decomp, field, 3))

    @pytest.mark.parametrize("num", [1, 2])
    def test_ensemble_stepper_runs_the_overriding_forward(self, rng, num):
        models = self.models(num)
        decomp = BlockDecomposition((12, 12), (1, num))
        field = rng.standard_normal((4, 12, 12))
        stepper = EnsembleStepper(models, decomp if num > 1 else None)
        expected = self.stepwise(models, decomp, field, 3)
        assert np.array_equal(rollout(stepper, field, 3).trajectory, expected)
        assert np.array_equal(stepper.advance(field, 3), expected[3])
