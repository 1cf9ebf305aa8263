"""``bench/compare.py`` verdicts on synthetic result files."""

import json

import numpy as np

from bench import compare, env


#: the synthetic numbers stand for the metric with the 10% bound
METRIC = "peak_rss_mb"


def result_file(values):
    """Untraced ``rollout_comm32`` runs reporting ``values`` for ``METRIC``."""
    return {
        "runs": [
            {
                "workload": "rollout_comm32",
                "seed": seed,
                "trace": 0,
                "metrics": {METRIC: {"value": float(value), "unit": "MB"}},
            }
            for seed, value in enumerate(values)
        ]
    }


def verdict_of(a, b):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    [row] = compare.compare(result_file(a), result_file(b), spec)
    return row["verdict"]


def test_noisy_pair_is_unresolved():
    rng = np.random.default_rng(0)
    a = 100 * (1 + 0.4 * rng.random(10))  # spread far beyond the 10% bound
    b = 100 * (1 + 0.4 * rng.random(10))
    assert verdict_of(a, b) == "unresolved"


def test_twenty_percent_regression_is_worse():
    rng = np.random.default_rng(1)
    a = 100 * (1 + 0.01 * rng.random(10))
    assert verdict_of(a, 1.2 * a) == "worse"


def test_quiet_equal_pair_is_unchanged_and_clear_win_is_better():
    rng = np.random.default_rng(2)
    a = 100 * (1 + 0.01 * rng.random(10))
    assert verdict_of(a, a[::-1]) == "unchanged"
    assert verdict_of(a, 0.8 * a) == "better"


def test_noisy_but_separated_runs_still_resolve():
    rng = np.random.default_rng(3)
    a = 100 * (1 + 0.4 * rng.random(10))
    assert verdict_of(a, a / 2) == "better"
    assert verdict_of(a, a * 2) == "worse"


def test_exit_status_flags_a_regression(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = [100.0 + i / 10 for i in range(10)]
    a.write_text(json.dumps(result_file(base)))
    b.write_text(json.dumps(result_file([1.3 * v for v in base])))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "worse" in capsys.readouterr().out
