"""``BENCHMARK.json`` against the driver contract and the code."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import env, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert len((env.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_bounds(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_modules(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    for entry in spec["workloads"]:
        module = workloads.load(entry["name"])
        assert set(entry) == {"name", "why"}
        assert entry["why"] == module.WHY and len(module.WHY) <= 200 and "\n" not in module.WHY
        assert module.SHAPE.ranks <= 2  # never more ranks than the 2 reference cores


def test_bare_directory_exits_nonzero_without_a_result(spec):
    """The driver also runs the command where only BENCHMARK.json and
    ``paths`` exist: no ``src/``, so no result and a non-zero status."""
    bare = env.RESULTS / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            env.ROOT / "bench", bare / "bench",
            ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
        )  # fmt: skip
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rollout_comm32", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "{" not in done.stdout
