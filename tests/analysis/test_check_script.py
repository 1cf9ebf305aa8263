"""The one-shot lint gate (`make lint` / scripts/check.sh) runs clean."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_check_script_passes():
    proc = subprocess.run(
        ["bash", str(REPO / "scripts" / "check.sh")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"check.sh failed:\n{proc.stdout}\n{proc.stderr}"
    assert "repro lint src/repro" in proc.stdout
    assert "all passes clean" in proc.stdout


def test_cli_check_subcommand_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            # a run that asks for no bytecode writes none into src/
            **{k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"},
        },
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout
