# Convenience targets for the repro-enmc repository.

PYTHON ?= python

.PHONY: install test test-ids loc importtime setup-phases call-peak bench-smoke bench-pair bench-suite experiments examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/

# Test ids the working tree removes and adds against PARENT (default
# HEAD; HEAD^ once committed): pytest --collect-only on an archive of
# PARENT and on the tree.  Printed for review, not gated.
test-ids:
	python3 scripts/test_ids.py --parent $(PARENT)

# Code lines (non-blank, non-comment, non-docstring) per file and in
# total — the count simplicity PRs quote for "src/ measurably smaller" —
# then the line count of each design and history document, so doc
# growth shows next to code growth.
DOCS = DESIGN.md README.md ROADMAP.md CHANGES.md EXPERIMENTS.md
loc:
	python3 scripts/code_lines.py src
	python3 scripts/code_lines.py tests | tail -1
	wc -l $(DOCS)

# What a fresh process (a worker start, a respawn) pays to import the
# serving modules, slowest 15 by cumulative time.  Nothing is imported
# on the request path (tests/test_core_pipeline.py), so this is all of it.
importtime:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -X importtime \
		-c "import repro.core.pipeline, repro.distributed.parallel" 2>&1 \
		| sort -t '|' -k 2 -n -r | head -n 15

# Set-up of a single-node pipeline phase by phase (plane, calibration
# scores, calibration, first and second call, workspace allocations per
# call), once at 1 lane and once at 2: where a set-up claim's time sits.
# A caller's PYTHONPATH goes before this tree's src (here and in
# call-peak), so PYTHONPATH=<other tree>/src measures that tree.
L ?= 670000
K ?= 16
ROWS ?= 16
SELECTOR ?= threshold
setup-phases:
	PYTHONPATH=$${PYTHONPATH:+$$PYTHONPATH:}src $(PYTHON) scripts/setup_phases.py \
		--l $(L) --k $(K) --rows $(ROWS) --selector $(SELECTOR)

# tracemalloc peak of one warm forward_streaming call of ROWS rows, split
# into screen+select, exact and the whole call: where a call_peak_mb
# regression sits.  STORE is fp64, int8 or float16.
STORE ?= fp64
call-peak:
	PYTHONPATH=$${PYTHONPATH:+$$PYTHONPATH:}src $(PYTHON) scripts/call_peak.py \
		--l $(L) --k $(K) --rows $(ROWS) --selector $(SELECTOR) --store $(STORE)

# The repo's benchmark (BENCHMARK.json) at smoke sizes: all four
# workloads, untraced then traced, every correctness gate on.
bench-smoke:
	python3 bench/run.py --smoke

# Paired before/after runs of one workload: PARENT unpacked into a
# temporary directory (git archive | tar -x, nothing under .git is
# written), parent and working tree run alternately, medians,
# quartiles and pairs won per metric (choosing-metrics guide §8), plus the
# ok / WORSE / UNRESOLVED no-regression verdict per end-to-end metric.
# WORKLOAD=all runs every workload of BENCHMARK.json.
WORKLOAD ?= batch_topm
PAIRS ?= 10
PARENT ?= HEAD
bench-pair:
	python3 scripts/bench_pair.py --workload $(WORKLOAD) --pairs $(PAIRS) --parent $(PARENT)

# Paper-figure benchmark suite (pytest-benchmark).
bench-suite:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro.experiments.runner

examples:
	@for script in examples/*.py; do \
		echo "=== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
