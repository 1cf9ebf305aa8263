"""Unit tests for the REP00x rule catalogue on inline source snippets."""

import textwrap

import pytest

from repro.analysis.rules import FileContext, run_file_rules
from repro.exceptions import AnalysisError


def lint_snippet(source, path="snippet.py", rules=None):
    ctx = FileContext.parse(path, textwrap.dedent(source))
    return list(run_file_rules(ctx, rules))


# ----------------------------------------------------------------------
# REP001 — in-place .data mutation
# ----------------------------------------------------------------------
class TestRep001:
    def test_augmented_assignment_flagged(self):
        hits = lint_snippet("x.data += delta\n", rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]
        assert "augmented assignment" in hits[0].message

    def test_element_assignment_flagged(self):
        hits = lint_snippet("x.data[...] = values\n", rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_rebinding_flagged(self):
        hits = lint_snippet("x.data = other\n", rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]
        assert "rebinding" in hits[0].message

    def test_inplace_ndarray_method_flagged(self):
        hits = lint_snippet("x.data.fill(0.0)\n", rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_ufunc_at_flagged(self):
        hits = lint_snippet("np.add.at(x.data, idx, v)\n", rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_no_grad_block_sanctioned(self):
        source = """
        with no_grad():
            x.data += delta
        """
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_ctor_self_bind_sanctioned(self):
        source = """
        class Tensor:
            def __init__(self, data):
                self.data = data
        """
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_rebind_outside_ctor_flagged(self):
        source = """
        class Tensor:
            def clobber(self, data):
                self.data = data
        """
        hits = lint_snippet(source, rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_optim_directory_sanctioned(self):
        hits = lint_snippet(
            "p.data -= lr * p.grad\n", path="src/repro/optim/sgd.py", rules={"REP001"}
        )
        assert hits == []

    def test_noqa_suppression(self):
        hits = lint_snippet("x.data += delta  # noqa: REP001\n", rules={"REP001"})
        assert hits == []

    def test_bare_noqa_suppresses_all(self):
        hits = lint_snippet("x.data += delta  # noqa\n", rules={"REP001"})
        assert hits == []

    def test_out_of_place_not_flagged(self):
        assert lint_snippet("y = x.data + delta\n", rules={"REP001"}) == []


# ----------------------------------------------------------------------
# REP002 — communicator crossing a thread boundary
# ----------------------------------------------------------------------
class TestRep002:
    def test_target_free_variable_flagged(self):
        source = """
        import threading

        def launch(comm):
            def worker():
                comm.send(1.0, dest=0)
            return threading.Thread(target=worker)
        """
        hits = lint_snippet(source, rules={"REP002"})
        assert [v.rule for v in hits] == ["REP002"]
        assert "'comm'" in hits[0].message

    def test_endpoint_in_args_tuple_flagged(self):
        source = """
        import threading
        thread = threading.Thread(target=run, args=(router, 3))
        """
        hits = lint_snippet(source, rules={"REP002"})
        assert [v.rule for v in hits] == ["REP002"]

    def test_lambda_capture_flagged(self):
        source = """
        from threading import Thread
        t = Thread(target=lambda: comm.recv(source=0))
        """
        hits = lint_snippet(source, rules={"REP002"})
        assert [v.rule for v in hits] == ["REP002"]

    def test_endpoint_created_inside_thread_ok(self):
        source = """
        import threading

        def launch(router):
            def worker(rank):
                comm = WorldCommunicator(router, rank)
                comm.send(1.0, dest=0)
            return threading.Thread(target=worker, args=(0,))
        """
        # `router` is a free variable of worker, so the shared-transport
        # case still needs an explicit, documented suppression.
        hits = lint_snippet(source, rules={"REP002"})
        assert [v.rule for v in hits] == ["REP002"]
        assert "'router'" in hits[0].message

    def test_unrelated_thread_ok(self):
        source = """
        import threading

        def launch(items):
            def worker():
                items.append(1)
            return threading.Thread(target=worker)
        """
        assert lint_snippet(source, rules={"REP002"}) == []

    def test_noqa_suppression(self):
        source = """
        import threading
        t = threading.Thread(target=run, args=(router,))  # noqa: REP002
        """
        assert lint_snippet(source, rules={"REP002"}) == []


# ----------------------------------------------------------------------
# REP004 — loop-variable capture
# ----------------------------------------------------------------------
class TestRep004:
    def test_backward_closure_flagged(self):
        source = """
        for axis in range(ndim):
            def backward(grad):
                return unreduce(grad, axis)
            closures.append(backward)
        """
        hits = lint_snippet(source, rules={"REP004"})
        assert [v.rule for v in hits] == ["REP004"]
        assert "'axis'" in hits[0].message

    def test_lambda_flagged(self):
        source = """
        for i in range(3):
            fns.append(lambda g: g * i)
        """
        hits = lint_snippet(source, rules={"REP004"})
        assert [v.rule for v in hits] == ["REP004"]

    def test_default_argument_snapshot_ok(self):
        source = """
        for axis in range(ndim):
            def backward(grad, axis=axis):
                return unreduce(grad, axis)
            closures.append(backward)
        """
        assert lint_snippet(source, rules={"REP004"}) == []

    def test_tuple_loop_target(self):
        source = """
        for key, value in items:
            hooks[key] = lambda: handler(value)
        """
        hits = lint_snippet(source, rules={"REP004"})
        assert [v.rule for v in hits] == ["REP004"]
        assert "'value'" in hits[0].message

    def test_closure_not_using_loop_var_ok(self):
        source = """
        for i in range(3):
            fns.append(lambda g: g * 2)
        """
        assert lint_snippet(source, rules={"REP004"}) == []


# ----------------------------------------------------------------------
# REP005 — hand-rolled training loops outside the Engine
# ----------------------------------------------------------------------
class TestRep005:
    TRAINING_LOOP = """
    for epoch in range(epochs):
        for x, y in batches:
            optimizer.zero_grad()
            loss_fn(model(x), y).backward()
            optimizer.step()
    """

    def test_training_loop_flagged(self):
        hits = lint_snippet(self.TRAINING_LOOP, rules={"REP005"})
        assert hits and all(v.rule == "REP005" for v in hits)
        assert "Engine" in hits[0].message

    def test_while_loop_flagged(self):
        source = """
        while epoch < max_epochs:
            loss.backward()
            optimizer.step()
            epoch += 1
        """
        hits = lint_snippet(source, rules={"REP005"})
        assert [v.rule for v in hits] == ["REP005"]

    def test_engine_module_sanctioned(self):
        assert (
            lint_snippet(
                self.TRAINING_LOOP, path="src/repro/core/engine.py", rules={"REP005"}
            )
            == []
        )

    def test_backward_only_loop_ok(self):
        source = """
        for param in params:
            gradcheck(param).backward()
        """
        assert lint_snippet(source, rules={"REP005"}) == []

    def test_step_only_loop_ok(self):
        source = """
        for _ in range(epochs):
            schedule.step()
        """
        assert lint_snippet(source, rules={"REP005"}) == []

    def test_noqa_suppression(self):
        source = """
        for epoch in range(epochs):  # noqa: REP005
            loss.backward()
            optimizer.step()
        """
        assert lint_snippet(source, rules={"REP005"}) == []


# ----------------------------------------------------------------------
# REP006 — multiprocessing / SharedMemory outside the MPI runtime
# ----------------------------------------------------------------------
class TestRep006:
    def test_plain_import_flagged(self):
        hits = lint_snippet("import multiprocessing\n", rules={"REP006"})
        assert [v.rule for v in hits] == ["REP006"]
        assert "repro.mpi" in hits[0].message

    def test_submodule_import_flagged(self):
        hits = lint_snippet(
            "import multiprocessing.shared_memory\n", rules={"REP006"}
        )
        assert [v.rule for v in hits] == ["REP006"]

    def test_from_import_flagged(self):
        source = "from multiprocessing.shared_memory import SharedMemory\n"
        hits = lint_snippet(source, rules={"REP006"})
        assert [v.rule for v in hits] == ["REP006"]

    def test_aliased_import_flagged(self):
        hits = lint_snippet("import multiprocessing as mp\n", rules={"REP006"})
        assert [v.rule for v in hits] == ["REP006"]

    def test_mmap_flagged(self):
        for source in ("import mmap\n", "from mmap import mmap\n"):
            hits = lint_snippet(source, rules={"REP006"})
            assert [v.rule for v in hits] == ["REP006"]
            assert "shared_empty" in hits[0].message

    def test_mpi_runtime_sanctioned(self):
        for source in ("from multiprocessing import shared_memory\n", "import mmap\n"):
            assert (
                lint_snippet(
                    source, path="src/repro/mpi/process_backend.py", rules={"REP006"}
                )
                == []
            )

    def test_lookalike_modules_not_flagged(self):
        for source in (
            "import multiprocessing_utils\n",
            "import mmap_tools\n",
            "from concurrent.futures import ProcessPoolExecutor\n",
            "import threading\n",
        ):
            assert lint_snippet(source, rules={"REP006"}) == []

    def test_noqa_suppression(self):
        source = "import multiprocessing  # noqa: REP006\n"
        assert lint_snippet(source, rules={"REP006"}) == []


# ----------------------------------------------------------------------
# REP007 — Workspace construction outside the sanctioned modules
# ----------------------------------------------------------------------
class TestRep007:
    def test_bare_construction_flagged(self):
        hits = lint_snippet("ws = Workspace()\n", rules={"REP007"})
        assert [v.rule for v in hits] == ["REP007"]
        assert "get_workspace" in hits[0].message

    def test_qualified_construction_flagged(self):
        source = "from repro.tensor import workspace\nws = workspace.Workspace(name='mine')\n"
        hits = lint_snippet(source, rules={"REP007"})
        assert [v.rule for v in hits] == ["REP007"]

    def test_tensor_package_sanctioned(self):
        assert (
            lint_snippet(
                "ws = Workspace()\n",
                path="src/repro/tensor/workspace.py",
                rules={"REP007"},
            )
            == []
        )

    def test_inference_module_sanctioned(self):
        assert (
            lint_snippet(
                "plan_ws = Workspace(name='plan')\n",
                path="src/repro/core/inference.py",
                rules={"REP007"},
            )
            == []
        )

    def test_other_core_modules_flagged(self):
        hits = lint_snippet(
            "ws = Workspace()\n", path="src/repro/core/engine.py", rules={"REP007"}
        )
        assert [v.rule for v in hits] == ["REP007"]

    def test_request_calls_not_flagged(self):
        for source in (
            "buf = ws.request('slot', (4, 4), float)\n",
            "ws = get_workspace()\n",
            "stats = WorkspaceStats()\n",
        ):
            assert lint_snippet(source, rules={"REP007"}) == []

    def test_noqa_suppression(self):
        source = "ws = Workspace()  # noqa: REP007\n"
        assert lint_snippet(source, rules={"REP007"}) == []


# ----------------------------------------------------------------------
# REP008 — raw perf_counter timing outside the observability layer
# ----------------------------------------------------------------------
class TestRep008:
    def test_qualified_call_flagged(self):
        hits = lint_snippet(
            "import time\nt0 = time.perf_counter()\n", rules={"REP008"}
        )
        assert [v.rule for v in hits] == ["REP008"]
        assert "trace.clock" in hits[0].message

    def test_bare_call_and_import_flagged(self):
        source = "from time import perf_counter\nt0 = perf_counter()\n"
        hits = lint_snippet(source, rules={"REP008"})
        assert [v.rule for v in hits] == ["REP008", "REP008"]

    def test_ns_variant_flagged(self):
        hits = lint_snippet(
            "import time\nt = time.perf_counter_ns()\n", rules={"REP008"}
        )
        assert [v.rule for v in hits] == ["REP008"]

    def test_obs_package_sanctioned(self):
        assert (
            lint_snippet(
                "import time\nclock = time.perf_counter\nt = time.perf_counter()\n",
                path="src/repro/obs/trace.py",
                rules={"REP008"},
            )
            == []
        )

    def test_benchmarks_sanctioned(self):
        assert (
            lint_snippet(
                "import time\nstart = time.perf_counter()\n",
                path="benchmarks/bench_kernels.py",
                rules={"REP008"},
            )
            == []
        )

    def test_trace_clock_not_flagged(self):
        for source in (
            "from repro.obs import trace\nt0 = trace.clock()\n",
            "import time\ntime.sleep(0.1)\nt = time.monotonic()\n",
            "wall = time.time()\n",
        ):
            assert lint_snippet(source, rules={"REP008"}) == []

    def test_noqa_suppression(self):
        source = "import time\nt = time.perf_counter()  # noqa: REP008\n"
        assert lint_snippet(source, rules={"REP008"}) == []


# ----------------------------------------------------------------------
# noqa comment semantics (ruff-compatible)
# ----------------------------------------------------------------------
class TestNoqaSemantics:
    def test_comma_separated_code_list(self):
        source = "x.data += delta  # noqa: REP001, REP002\n"
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_listed_codes_do_not_suppress_other_rules(self):
        source = "x.data += delta  # noqa: REP002\n"
        hits = lint_snippet(source, rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_codes_followed_by_prose(self):
        # ruff reads leading code tokens and ignores trailing prose.
        source = "x.data += delta  # noqa: REP001 receiver lives outside the tree\n"
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_prose_after_other_code_is_not_a_blanket(self):
        source = "x.data += delta  # noqa: REP002 explained elsewhere\n"
        hits = lint_snippet(source, rules={"REP001"})
        assert [v.rule for v in hits] == ["REP001"]

    def test_colon_with_no_codes_is_blanket(self):
        source = "x.data += delta  # noqa:\n"
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_case_insensitive(self):
        source = "x.data += delta  # NOQA: rep001\n"
        assert lint_snippet(source, rules={"REP001"}) == []

    def test_space_separated_code_list(self):
        source = "x.data += delta  # noqa: REP002 REP001\n"
        assert lint_snippet(source, rules={"REP001"}) == []


def test_unknown_rule_id_rejected():
    from repro.analysis import lint_paths

    with pytest.raises(AnalysisError, match="unknown rule"):
        lint_paths(["src/repro"], rules=["REP999"])


# ----------------------------------------------------------------------
# REP013 — physics construction outside the scenario registry
# ----------------------------------------------------------------------
class TestRep013:
    def test_equation_constructor_flagged(self):
        hits = lint_snippet("eq = LinearizedEuler(dissipation=0.02)\n", rules={"REP013"})
        assert [v.rule for v in hits] == ["REP013"]
        assert "scenario registry" in hits[0].message

    def test_qualified_constructor_flagged(self):
        hits = lint_snippet("eq = solver.Diffusion2D(nu=0.1)\n", rules={"REP013"})
        assert [v.rule for v in hits] == ["REP013"]

    def test_ic_factory_flagged(self):
        hits = lint_snippet("ic = gaussian_pulse(grid, 1.0, 0.3)\n", rules={"REP013"})
        assert [v.rule for v in hits] == ["REP013"]

    def test_hardcoded_bc_lookup_flagged(self):
        hits = lint_snippet('bc = get_boundary_condition("outflow")\n', rules={"REP013"})
        assert [v.rule for v in hits] == ["REP013"]
        assert "'outflow'" in hits[0].message

    def test_hardcoded_equation_lookup_flagged(self):
        hits = lint_snippet('eq = get_equation("diffusion", nu=0.1)\n', rules={"REP013"})
        assert [v.rule for v in hits] == ["REP013"]

    def test_spec_driven_lookup_ok(self):
        # A name that comes from a Scenario field is the sanctioned
        # pattern — only string literals are "hardcoded".
        source = """
        spec = get_scenario(name)
        bc = get_boundary_condition(spec.boundary)
        eq = get_equation(spec.equation, **spec.equation_params)
        """
        assert lint_snippet(source, rules={"REP013"}) == []

    def test_registry_helpers_ok(self):
        source = """
        spec = get_scenario("diffusion")
        eq = build_equation(spec)
        state = build_initial_state(spec, grid)
        """
        assert lint_snippet(source, rules={"REP013"}) == []

    def test_scenarios_package_sanctioned(self):
        source = "eq = AllenCahn(epsilon=0.01)\n"
        assert (
            lint_snippet(source, path="src/repro/scenarios/build.py", rules={"REP013"})
            == []
        )

    def test_solver_package_sanctioned(self):
        source = 'bc = get_boundary_condition("outflow")\n'
        assert (
            lint_snippet(source, path="src/repro/solver/simulation.py", rules={"REP013"})
            == []
        )

    def test_noqa_suppression(self):
        source = "eq = Diffusion2D(nu=0.5)  # noqa: REP013 convergence study\n"
        assert lint_snippet(source, rules={"REP013"}) == []


# ----------------------------------------------------------------------
# REP014 — float dtype literals outside the precision policy
# ----------------------------------------------------------------------
class TestRep014:
    def test_np_float64_attribute_flagged(self):
        hits = lint_snippet("x = np.zeros(4, dtype=np.float64)\n", rules={"REP014"})
        assert [v.rule for v in hits] == ["REP014"]
        assert "precision policy" in hits[0].message

    def test_np_float32_attribute_flagged(self):
        hits = lint_snippet("y = arr.astype(np.float32)\n", rules={"REP014"})
        assert [v.rule for v in hits] == ["REP014"]

    def test_qualified_numpy_spelling_flagged(self):
        hits = lint_snippet("x = numpy.float64(0.0)\n", rules={"REP014"})
        assert [v.rule for v in hits] == ["REP014"]

    def test_dtype_string_literal_flagged(self):
        hits = lint_snippet('x = np.zeros(4, dtype="float32")\n', rules={"REP014"})
        assert [v.rule for v in hits] == ["REP014"]
        assert "'float32'" in hits[0].message

    def test_policy_helpers_ok(self):
        source = """
        x = np.zeros(4, dtype=default_dtype())
        y = arr.astype(compute_dtype())
        """
        assert lint_snippet(source, rules={"REP014"}) == []

    def test_other_dtypes_ok(self):
        # Only the two policy-managed float widths are guarded: bool
        # masks, index arrays and complex dtypes are out of scope.
        source = """
        m = np.zeros(4, dtype=np.bool_)
        i = np.zeros(4, dtype=np.int64)
        """
        assert lint_snippet(source, rules={"REP014"}) == []

    def test_tensor_package_sanctioned(self):
        source = "x = np.zeros(4, dtype=np.float64)\n"
        assert (
            lint_snippet(source, path="src/repro/tensor/precision.py", rules={"REP014"})
            == []
        )

    def test_noqa_suppression(self):
        source = "ref = np.zeros(4, dtype=np.float64)  # noqa: REP014 solver golden\n"
        assert lint_snippet(source, rules={"REP014"}) == []


# ----------------------------------------------------------------------
# REP015 — Parareal correction arithmetic outside the driver
# ----------------------------------------------------------------------
class TestRep015:
    def test_three_term_correction_flagged(self):
        source = "u = coarse_new + fine_prev - coarse_prev\n"
        hits = lint_snippet(source, rules={"REP015"})
        assert [v.rule for v in hits] == ["REP015"]
        assert "PararealDriver" in hits[0].message

    def test_attribute_operands_flagged(self):
        source = "u = sweep.coarse_new - sweep.coarse_old + sweep.fine_end\n"
        hits = lint_snippet(source, rules={"REP015"})
        assert [v.rule for v in hits] == ["REP015"]

    def test_four_term_chain_flagged_once(self):
        # Sub-expressions of one chain must not double-report.
        source = "u = coarse_new + fine_prev - coarse_prev + fine_drift\n"
        hits = lint_snippet(source, rules={"REP015"})
        assert [v.rule for v in hits] == ["REP015"]

    def test_two_terms_ok(self):
        # An error metric, not the three-term correction.
        assert lint_snippet("e = coarse_end - fine_end\n", rules={"REP015"}) == []

    def test_no_fine_counterpart_ok(self):
        source = "u = coarse_a + coarse_b - other\n"
        assert lint_snippet(source, rules={"REP015"}) == []

    def test_other_operator_breaks_chain(self):
        # Relaxation-style blend: the multiply subtree is opaque.
        source = "u = coarse_new + 0.5 * (fine_prev - coarse_prev)\n"
        assert lint_snippet(source, rules={"REP015"}) == []

    def test_driver_module_sanctioned(self):
        source = "u = coarse_new + fine_prev - coarse_prev\n"
        assert (
            lint_snippet(
                source, path="src/repro/solver/parareal.py", rules={"REP015"}
            )
            == []
        )

    def test_noqa_suppression(self):
        source = "u = coarse_new + fine_prev - coarse_prev  # noqa: REP015 teaching example\n"
        assert lint_snippet(source, rules={"REP015"}) == []


# ----------------------------------------------------------------------
# REP016 — metric instruments constructed outside the obs layer
# ----------------------------------------------------------------------
class TestRep016:
    def test_qualified_construction_flagged(self):
        source = """
        from repro.obs import metrics
        GAUGE = metrics.Gauge("train.loss")
        """
        hits = lint_snippet(source, rules={"REP016"})
        assert [v.rule for v in hits] == ["REP016"]
        assert "metrics.counter" in hits[0].message

    def test_deep_qualified_construction_flagged(self):
        source = "h = obs.metrics.Histogram('lat')\n"
        hits = lint_snippet(source, rules={"REP016"})
        assert [v.rule for v in hits] == ["REP016"]

    def test_bare_gauge_and_histogram_flagged(self):
        source = """
        from repro.obs.metrics import Gauge, Histogram
        g = Gauge("x")
        h = Histogram("y")
        """
        hits = lint_snippet(source, rules={"REP016"})
        assert [v.rule for v in hits] == ["REP016", "REP016"]

    def test_bare_counter_flagged_only_with_metrics_import(self):
        source = """
        from repro.obs.metrics import Counter
        c = Counter("x")
        """
        hits = lint_snippet(source, rules={"REP016"})
        assert [v.rule for v in hits] == ["REP016"]

    def test_collections_counter_ok(self):
        source = """
        from collections import Counter
        c = Counter("abcabc")
        """
        assert lint_snippet(source, rules={"REP016"}) == []

    def test_perf_counter_lookalike_ok(self):
        # Another module's Counter class: a qualified call through a
        # non-metrics module stays clean.
        source = "c = perf.Counter()\n"
        assert lint_snippet(source, rules={"REP016"}) == []

    def test_registry_factories_ok(self):
        source = """
        from repro.obs import metrics
        c = metrics.counter("x")
        g = metrics.gauge("y")
        h = metrics.histogram("z")
        """
        assert lint_snippet(source, rules={"REP016"}) == []

    def test_obs_package_sanctioned(self):
        source = "g = metrics.Gauge('x')\n"
        assert (
            lint_snippet(
                source, path="src/repro/obs/metrics_export.py", rules={"REP016"}
            )
            == []
        )

    def test_noqa_suppression(self):
        source = "g = metrics.Gauge('x')  # noqa: REP016 test fixture\n"
        assert lint_snippet(source, rules={"REP016"}) == []
