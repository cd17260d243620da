# Convenience targets for the repro-enmc repository.

PYTHON ?= python

.PHONY: install test loc bench-smoke bench-pair bench bench-streaming bench-streaming-quant bench-trace bench-parallel bench-parallel-faults bench-serving bench-serving-zipf bench-serving-elastic bench-suite experiments examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/

# Code lines (non-blank, non-comment, non-docstring) per file and in
# total — the count simplicity PRs quote for "src/ measurably smaller".
loc:
	python3 scripts/code_lines.py src

# The repo's benchmark (BENCHMARK.json) at smoke sizes: all four
# workloads, untraced then traced, every correctness gate on.
bench-smoke:
	python3 bench/run.py --smoke

# Paired before/after runs of one workload: PARENT checked out into a
# temporary git worktree, parent and working tree run alternately, medians,
# quartiles and pairs won per metric (choosing-metrics guide §8).
WORKLOAD ?= batch_topm
PAIRS ?= 10
PARENT ?= HEAD
bench-pair:
	python3 scripts/bench_pair.py --workload $(WORKLOAD) --pairs $(PAIRS) --parent $(PARENT)

# Hot-path microbenchmark: seed pipeline vs vectorized engine.
# Writes BENCH_pipeline.json (the perf record future changes regress against).
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_pipeline.py BENCH_pipeline.json

# Blocked streaming forward vs the dense engine at extreme l (670K).
# Writes BENCH_streaming.json (wall-clock + peak incremental memory).
bench-streaming:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_pipeline.py --streaming BENCH_streaming.json

# Block-quantized exact-weight store vs FP64 residency at extreme l.
# Merges a "quantized_exact" section into BENCH_streaming.json, keeping
# the existing streaming-vs-dense numbers.
bench-streaming-quant:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_pipeline.py --quantized-exact BENCH_streaming.json

# Observability overhead (recorder off / metrics / metrics+trace) on the
# streaming forward.  Merges a "telemetry" block into BENCH_pipeline.json
# (keeping existing timings) and writes a schema-validated Chrome trace
# to BENCH_trace.json (open in chrome://tracing or Perfetto).
bench-trace:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_pipeline.py --trace BENCH_pipeline.json

# Process-parallel sharded serving vs the sequential backend.
# Writes BENCH_parallel.json (records host cpu count; speedup needs cores).
bench-parallel:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_parallel.py BENCH_parallel.json

# Availability and latency under a deterministic fault schedule (kill,
# delay, raise, wedge) against a degraded-mode fleet.  Merges a "faults"
# section into BENCH_parallel.json, keeping existing throughput numbers.
bench-parallel-faults:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_parallel.py --faults BENCH_parallel.json

# Serving front door under open-loop Zipfian load: throughput vs p99
# across micro-batch flush-window settings.  Writes BENCH_serving.json.
bench-serving:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_serving.py BENCH_serving.json

# Zipfian-aware serving comparison: uniform sharding vs a skew-balanced
# plan from observed candidate frequencies vs balanced + hot-shard
# replicas + the quantized result cache.  Merges a "skew" section into
# BENCH_serving.json, keeping the existing window sweep.
bench-serving-zipf:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_serving.py --zipf BENCH_serving.json

# Elastic replica scaling under a drifting Zipf mix: a statically
# provisioned fleet vs the AutoScaler following the load at equal
# worker budget.  Merges an "elastic" section into BENCH_serving.json
# with scale-event accounting (scale-ups/-downs, re-plans).
bench-serving-elastic:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_serving.py --elastic BENCH_serving.json

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
