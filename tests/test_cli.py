"""CLI integration tests (in-process, via ``repro.cli.main``)."""

import numpy as np
import pytest

from repro.analysis.gradcheck import GradcheckReport
from repro.cli import build_parser, main
from repro.core import PaddingStrategy, load_checkpoint_precision, load_parallel_models
from repro.tensor import get_precision


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            "generate",
            "train",
            "evaluate",
            "parareal",
            "scaling",
            "table1",
            "scenarios",
            "perf",
            "trace",
        ):
            if command == "generate":
                args = parser.parse_args([command, "out.npz"])
            elif command in ("train", "evaluate", "parareal"):
                args = parser.parse_args([command, "ckpt.npz"])
            elif command == "trace":
                args = parser.parse_args([command, "out.json"])
            else:
                args = parser.parse_args([command])
            assert args.command == command

    def test_trace_flag_on_train_evaluate_scaling(self):
        parser = build_parser()
        assert parser.parse_args(["train", "c.npz", "--trace", "t.json"]).trace == "t.json"
        assert parser.parse_args(["evaluate", "c.npz", "--trace", "t.json"]).trace == "t.json"
        assert parser.parse_args(["scaling", "--trace", "t.json"]).trace == "t.json"

    def test_log_level_is_global(self):
        args = build_parser().parse_args(["--log-level", "debug", "table1"])
        assert args.log_level == "debug"

    @pytest.mark.parametrize("command", ["train", "perf", "trace", "metrics"])
    def test_strategy_choices_are_the_padding_strategies(self, command, capsys):
        """Every ``--strategy`` offers exactly the enum's values, so a
        removed or misspelt name is argparse's one-line usage error."""
        positional = {"train": ["c.npz"], "trace": ["t.json"], "metrics": ["m.prom"]}
        argv = [command, *positional.get(command, []), "--strategy"]
        for strategy in (s.value for s in PaddingStrategy):
            assert build_parser().parse_args(argv + [strategy]).strategy == strategy
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["transpose"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'transpose'" in err
        assert "Traceback" not in err


class TestTable1Command:
    def test_prints_architecture(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "16" in out


class TestGenerateCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        path = tmp_path / "data.npz"
        code = main(
            ["generate", str(path), "--grid-size", "24", "--snapshots", "6"]
        )
        assert code == 0
        from repro.data import load_snapshots

        snaps, meta = load_snapshots(path)
        assert snaps.shape == (6, 4, 24, 24)
        assert meta["grid_size"] == 24
        assert "wrote 6 snapshots" in capsys.readouterr().out


class TestTrainEvaluateRoundtrip:
    def test_train_then_evaluate(self, tmp_path, capsys):
        data_path = tmp_path / "data.npz"
        ckpt_path = tmp_path / "model.npz"
        assert main(["generate", str(data_path), "--grid-size", "24", "--snapshots", "10"]) == 0
        assert (
            main(
                [
                    "train",
                    str(ckpt_path),
                    "--dataset",
                    str(data_path),
                    "--ranks",
                    "2",
                    "--epochs",
                    "1",
                    "--execution",
                    "serial",
                ]
            )
            == 0
        )
        assert ckpt_path.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "evaluate",
                    str(ckpt_path),
                    "--dataset",
                    str(data_path),
                    "--steps",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "relative L2" in out
        assert "halo messages" in out

    def test_train_with_augmentation(self, tmp_path, capsys):
        ckpt_path = tmp_path / "model_aug.npz"
        code = main(
            [
                "train",
                str(ckpt_path),
                "--grid-size",
                "24",
                "--snapshots",
                "6",
                "--ranks",
                "2",
                "--epochs",
                "1",
                "--execution",
                "serial",
                "--augment",
            ]
        )
        assert code == 0
        assert "D4 augmentation" in capsys.readouterr().out
        assert ckpt_path.exists()

    def test_train_generates_data_when_no_dataset(self, tmp_path, capsys):
        ckpt_path = tmp_path / "model.npz"
        code = main(
            [
                "train",
                str(ckpt_path),
                "--grid-size",
                "24",
                "--snapshots",
                "8",
                "--ranks",
                "2",
                "--epochs",
                "1",
                "--execution",
                "serial",
            ]
        )
        assert code == 0
        assert ckpt_path.exists()


@pytest.mark.default_precision
class TestPrecisionDefaults:
    """Training and inference default to float32; a checkpoint's record
    and ``repro check``'s float64 tier win over that default."""

    @staticmethod
    def train(path, *extra):
        argv = ["train", str(path), "--grid-size", "16", "--snapshots", "6",
                "--ranks", "1", "--epochs", "1", "--execution", "serial", *extra]  # fmt: skip
        assert main(argv) == 0

    def test_train_writes_a_float32_checkpoint(self, tmp_path):
        self.train(tmp_path / "model.npz")
        assert load_checkpoint_precision(tmp_path / "model.npz") == "float32"
        models, _, _ = load_parallel_models(tmp_path / "model.npz")
        assert all(p.dtype == np.float32 for p in models[0].parameters())

    def test_float64_checkpoint_evaluates_at_float64(self, tmp_path, capsys):
        self.train(tmp_path / "model.npz", "--precision", "float64")
        capsys.readouterr()
        assert main(["evaluate", str(tmp_path / "model.npz"), "--snapshots", "4",
                     "--steps", "1"]) == 0  # fmt: skip
        assert "precision: float64" in capsys.readouterr().out
        assert get_precision() == "float32"  # the command's mode ended with it

    def test_check_runs_the_float64_tier_unless_asked(self, monkeypatch, capsys):
        import repro.analysis

        seen = []

        def check_all_ops(rng):
            seen.append(get_precision())
            return GradcheckReport()

        monkeypatch.setattr(repro.analysis, "check_all_ops", check_all_ops)
        assert main(["check"]) == 0
        assert main(["check", "--precision", "float32"]) == 0
        assert seen == ["float64", "float32"]
        assert "precision: float64" in capsys.readouterr().out


class TestScalingCommand:
    def test_prints_table(self, capsys):
        code = main(
            [
                "scaling",
                "--grid-size",
                "24",
                "--snapshots",
                "8",
                "--epochs",
                "1",
                "--ranks",
                "1",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "speedup" in out


class TestPerfCommand:
    def test_prints_report(self, capsys):
        code = main(
            [
                "perf",
                "--grid-size",
                "16",
                "--steps",
                "2",
                "--repeats",
                "1",
                "--pgrid",
                "1",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "plan.run" in out
        assert "im2col" in out
        assert "workspace" in out


class TestTraceCommand:
    def test_traced_rollout_writes_all_three_artifacts(self, tmp_path, capsys):
        import json

        out = tmp_path / "rollout.json"
        code = main(
            [
                "trace",
                str(out),
                "--grid-size",
                "24",
                "--steps",
                "2",
                "--pgrid",
                "1",
                "2",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace summary" in printed
        assert "chrome://tracing" in printed
        # Chrome trace: valid JSON with per-rank process metadata.
        events = json.loads(out.read_text())["traceEvents"]
        process_names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert {"rank 0", "rank 1"} <= process_names
        assert any(e.get("name") == "rollout.step" for e in events)
        assert any(e.get("name") == "halo.exchange" for e in events)
        # Event log and per-rank summary alongside.
        assert out.with_suffix(".jsonl").exists()
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert {"0", "1"} <= set(summary)
        for row in summary.values():
            assert 0.0 <= row["comm_fraction"] <= 1.0

    def test_from_converts_an_existing_event_log(self, tmp_path, capsys):
        import json

        first = tmp_path / "first.json"
        main(["trace", str(first), "--grid-size", "24", "--steps", "1",
              "--pgrid", "1", "2"])
        capsys.readouterr()
        converted = tmp_path / "converted.json"
        code = main(
            ["trace", str(converted), "--from", str(first.with_suffix(".jsonl"))]
        )
        assert code == 0
        assert "trace summary" in capsys.readouterr().out
        assert json.loads(converted.read_text()) == json.loads(first.read_text())

    def test_traced_rollout_over_processes_merges_every_rank(self, tmp_path, capsys):
        import json

        out = tmp_path / "proc.json"
        code = main(
            [
                "trace",
                str(out),
                "--grid-size",
                "24",
                "--steps",
                "1",
                "--pgrid",
                "1",
                "2",
                "--execution",
                "processes",
            ]
        )
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert {"0", "1"} <= set(summary)


class TestTraceFlag:
    def test_scaling_with_trace_writes_merged_timeline(self, tmp_path, capsys):
        import json

        out = tmp_path / "scaling.json"
        code = main(
            [
                "scaling",
                "--grid-size",
                "24",
                "--snapshots",
                "8",
                "--epochs",
                "1",
                "--ranks",
                "1",
                "2",
                "--trace",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Fig. 4" in printed
        assert "trace summary" in printed
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e.get("name") == "engine.epoch" for e in events)
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert {"0", "1"} <= set(summary)
        assert out.with_suffix(".jsonl").exists()


class TestMetricsCommand:
    def test_metrics_flag_parses_on_train_evaluate_parareal_scaling(self):
        parser = build_parser()
        assert parser.parse_args(["train", "c.npz", "--metrics", "m.prom"]).metrics == "m.prom"
        assert parser.parse_args(["evaluate", "c.npz", "--metrics", "m.prom"]).metrics == "m.prom"
        assert parser.parse_args(["parareal", "c.npz", "--metrics", "m.prom"]).metrics == "m.prom"
        assert parser.parse_args(["scaling", "--metrics", "m.prom"]).metrics == "m.prom"
        assert parser.parse_args(["metrics", "m.prom"]).command == "metrics"

    def test_metrics_rollout_writes_prom_and_jsonl(self, tmp_path, capsys):
        from repro.obs import metrics_export

        out = tmp_path / "metrics.prom"
        code = main(
            ["metrics", str(out), "--grid-size", "24", "--steps", "2",
             "--pgrid", "1", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "metrics summary" in printed
        assert "rollout.step_seconds" in printed
        assert "p50" in printed and "p99" in printed
        text = out.read_text()
        assert "repro_rollout_step_seconds_bucket" in text
        assert 'rank="0"' in text and 'rank="1"' in text
        snap = metrics_export.read_metrics_jsonl(out.with_suffix(".jsonl"))
        assert "halo.exchanges" in snap
        assert "mpi.bytes_sent" in snap

    def test_metrics_over_four_process_ranks_merges_everything(self, tmp_path, capsys):
        # The acceptance-criterion run: a 4-rank process-backend rollout
        # must report per-rank step latency quantiles and comm bytes.
        from repro.obs import metrics_export

        out = tmp_path / "proc.prom"
        code = main(
            ["metrics", str(out), "--grid-size", "24", "--steps", "1",
             "--pgrid", "2", "2", "--execution", "processes"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rollout.step_seconds" in printed
        assert "mpi.bytes_sent" in printed
        snap = metrics_export.read_metrics_jsonl(out.with_suffix(".jsonl"))
        assert set(snap["rollout.step_seconds"]["ranks"]) == {0, 1, 2, 3}
        assert set(snap["mpi.bytes_sent"]["values"]) == {0, 1, 2, 3}

    def test_scaling_with_metrics_flag_records_engine_histograms(self, tmp_path, capsys):
        from repro.obs import metrics_export

        out = tmp_path / "scaling.prom"
        code = main(
            ["scaling", "--grid-size", "24", "--snapshots", "8", "--epochs", "1",
             "--ranks", "1", "2", "--metrics", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Fig. 4" in printed
        assert "metrics summary" in printed
        snap = metrics_export.read_metrics_jsonl(out.with_suffix(".jsonl"))
        assert "engine.step_seconds" in snap
        assert "engine.samples_per_s" in snap


class TestScenariosCommand:
    def test_text_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "euler-gaussian" in out
        assert "allen-cahn" in out

    def test_json_uses_shared_envelope(self, capsys):
        import json

        assert main(["scenarios", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-scenarios"
        assert payload["default"] == "euler-gaussian"
        assert payload["count"] == len(payload["scenarios"]) > 0
        by_name = {spec["name"]: spec for spec in payload["scenarios"]}
        # The machine-readable catalogue carries the parareal defaults.
        assert by_name["euler-gaussian"]["parareal_slices"] == 8
        assert by_name["diffusion"]["parareal_tolerance"] == 1e-4

    def test_json_single_name_round_trips(self, capsys):
        import json

        from repro.scenarios import Scenario

        assert main(["scenarios", "allen-cahn", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        spec = Scenario.from_dict(payload["scenarios"][0])
        assert spec.name == "allen-cahn"

    def test_unknown_name_errors(self, capsys):
        assert main(["scenarios", "no-such-scenario"]) == 2
        assert "error" in capsys.readouterr().err


class TestPararealCommand:
    def _train_checkpoint(self, tmp_path, ranks=1):
        dataset = tmp_path / "diff.npz"
        checkpoint = tmp_path / "diff-model.npz"
        assert (
            main(
                [
                    "generate",
                    str(dataset),
                    "--scenario",
                    "diffusion",
                    "--grid-size",
                    "24",
                    "--snapshots",
                    "8",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train",
                    str(checkpoint),
                    "--dataset",
                    str(dataset),
                    "--ranks",
                    str(ranks),
                    "--epochs",
                    "2",
                ]
            )
            == 0
        )
        return dataset, checkpoint

    def test_parareal_converges_and_reports_speedup(self, tmp_path, capsys):
        _, checkpoint = self._train_checkpoint(tmp_path, ranks=1)
        code = main(["parareal", str(checkpoint), "--slices", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario: diffusion" in out
        assert "3 slices" in out
        assert "converged" in out
        assert "vs serial fine" in out

    def test_parareal_with_ensemble_checkpoint(self, tmp_path, capsys):
        _, checkpoint = self._train_checkpoint(tmp_path, ranks=2)
        code = main(["parareal", str(checkpoint), "--slices", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 model(s) as G" in out

    def test_evaluate_parareal_flag(self, tmp_path, capsys):
        dataset, checkpoint = self._train_checkpoint(tmp_path, ranks=1)
        code = main(
            ["evaluate", str(checkpoint), "--dataset", str(dataset), "--parareal"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "relative L2" in out
        assert "parareal:" in out

    def test_parareal_flag_defaults(self):
        args = build_parser().parse_args(["parareal", "ckpt.npz"])
        assert args.slices is None
        assert args.execution == "threads"
        assert args.trace is None
