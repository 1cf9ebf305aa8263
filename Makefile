PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint analyze check test loc all

lint:
	bash scripts/check.sh

analyze:
	$(PYTHON) -m repro.cli analyze src/repro

check:
	$(PYTHON) -m repro.cli check --sanitize

test:
	$(PYTHON) -m pytest -x -q

# src/ line total, the count ROADMAP.md reports
loc:
	@find src -name '*.py' | xargs wc -l | tail -1

all: lint analyze check test
