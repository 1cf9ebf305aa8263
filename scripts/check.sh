#!/usr/bin/env bash
# One-shot static-analysis gate: ruff + mypy (when installed) +
# repro lint.
# Run from the repo root:  bash scripts/check.sh   (or: make lint)
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src
status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check src/repro tests =="
    ruff check src/repro tests || status=1
else
    echo "== ruff: not installed, skipping =="
fi

if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy --strict src/repro/tensor =="
    python -m mypy --strict src/repro/tensor || status=1
else
    echo "== mypy: not installed, skipping =="
fi

echo "== repro lint src/repro =="
python -m repro.cli lint src/repro --no-baseline || status=1

if [ "$status" -eq 0 ]; then
    echo "check.sh: all passes clean"
else
    echo "check.sh: FAILURES above"
fi
exit "$status"
