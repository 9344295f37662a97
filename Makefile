# Developer entry points. Everything assumes the in-tree layout
# (PYTHONPATH=src); `pip install -e .` works too.

PYTEST := PYTHONPATH=src python -m pytest

# the full-scale benches whose committed BENCH_*.json records are the
# perf-gate baselines (perf-gate diffs against them, bench-baseline
# rewrites them)
PERF_GATE_BENCHES := benchmarks/test_cluster_scenarios.py \
	"benchmarks/test_fig01_headline.py::test_fig01_fused_speedup" \
	benchmarks/test_vec_replicates.py \
	benchmarks/test_mp_throughput.py \
	benchmarks/test_obs_overhead.py \
	benchmarks/test_serve_load.py \
	benchmarks/test_fleet_scale.py \
	benchmarks/test_eager_lstm_step.py

.PHONY: test tier1 doc-coverage bench bench-smoke cluster-smoke \
	matrix-smoke vec-smoke api-smoke mp-smoke obs-smoke serve-smoke \
	fleet-smoke autograd-smoke perfbench-smoke perfbench-ab perf-gate \
	bench-baseline example \
	cluster-example matrix-example

test:  ## fast unit tests only; a DeprecationWarning fails the run
	$(PYTEST) tests -q -W error::DeprecationWarning

tier1:  ## the full tier-1 gate: unit tests + benchmark suite, as CI runs it
	$(PYTEST) -x -q -W error::DeprecationWarning

doc-coverage:  ## public-API docstring gate for repro.optim / repro.sim
	$(PYTEST) tests/test_doc_coverage.py -q

bench:  ## full benchmark suite (BENCH_*.json records go to $REPRO_BENCH_DIR, else the temp dir)
	$(PYTEST) benchmarks -q -s

bench-smoke:  ## fig01 headline workload through the repro.bench harness, <60s
	REPRO_BENCH_SCALE=0.25 $(PYTEST) \
	    "benchmarks/test_fig01_headline.py::test_fig01_fused_speedup" -q -s

cluster-smoke:  ## cluster runtime, faults, bit-for-bit checkpoint gate, the fleet engine sharing its event loop, and the sharded server vs its reference queue walk, <60s
	$(PYTEST) tests/test_cluster_runtime.py tests/test_cluster_faults.py \
	    tests/test_cluster_checkpoint.py tests/test_fleet_equivalence.py \
	    tests/test_sim_sharded_ps.py -q
	REPRO_BENCH_SCALE=0.25 $(PYTEST) \
	    benchmarks/test_cluster_scenarios.py -q -s

matrix-smoke:  ## repro.xp orchestration gate: specs, runner, cache, CLI, <60s
	$(PYTEST) tests/test_xp_spec.py tests/test_xp_runner_cache.py \
	    tests/test_repro_cli.py tests/test_xp_compare.py -q
	PYTHONPATH=src python -m repro list examples/scenario_matrix.json
	@cache=$$(mktemp -d); status=0; \
	PYTHONPATH=src python -m repro run examples/scenario_matrix.json \
	    --jobs 2 --cache $$cache && \
	PYTHONPATH=src python -m repro run examples/scenario_matrix.json \
	    --jobs 2 --cache $$cache || status=$$?; \
	rm -rf $$cache; exit $$status

api-smoke:  ## unified-API gate: scalar + replicated specs through all four backends, records diffed, <60s
	$(PYTEST) tests/test_run_backends.py tests/test_run_api.py \
	    tests/test_registry.py tests/test_api_surface.py \
	    tests/test_repro_cli.py -q
	PYTHONPATH=src python -m repro bench examples/api_smoke.json \
	    --backends serial,parallel,fleet,mp --check

mp-smoke:  ## real multi-process backend: transport properties + differential oracle at smoke scale, <60s hard cap
	PYTHONPATH=src timeout 60 python -m pytest \
	    tests/test_mp_transport.py -q
	PYTHONPATH=src timeout 60 python -m pytest \
	    tests/test_mp_differential.py -k smoke -q

obs-smoke:  ## repro.obs gate: tracing on/off bit-identity on every backend + Chrome-trace validator round-trip, <60s
	$(PYTEST) tests/test_obs_differential.py tests/test_obs_trace.py \
	    tests/test_obs_tracer.py tests/test_obs_metrics.py \
	    tests/test_sim_metrics.py -q

serve-smoke:  ## tuning service gate: daemon up, 2 tenants, batched + cached (record in the submit response) + quota-rejected, prompt clean shutdown, and the state codec every served record takes vs its recursive reference, <60s
	PYTHONPATH=src timeout 60 python -m pytest \
	    tests/test_serve_daemon.py tests/test_serve_scheduler.py -q
	PYTHONPATH=src timeout 60 python -m pytest \
	    tests/test_serve_differential.py tests/test_serve_concurrency.py \
	    tests/test_property_serialization.py -q

vec-smoke:  ## batched replicate engine + the update rules and tuner it shares with the scalar optimizers: differential + property suites, the tuner's NumPy-row reference, perfbench's bindings, the registry and API-surface suites (twin lookup, vec/fleet exports), 8-replicate speedup gate, <60s
	$(PYTEST) tests/test_vec_equivalence.py \
	    tests/test_property_serialization.py \
	    tests/test_registry.py tests/test_api_surface.py \
	    tests/test_optim.py tests/test_fused_optim.py \
	    tests/test_core_yellowfin.py tests/test_core_closed_loop.py \
	    tests/test_core_clipping.py tests/test_core_measurements.py \
	    tests/test_tuner_reference.py tests/test_perfbench_bindings.py -q
	REPRO_BENCH_SCALE=0.25 $(PYTEST) \
	    benchmarks/test_vec_replicates.py -q -s

fleet-smoke:  ## worker-axis engine: differential suite + the cluster runtime sharing its event loop + quarter-scale 256-worker speedup gate, <60s
	$(PYTEST) tests/test_fleet_equivalence.py tests/test_cluster_runtime.py -q
	REPRO_BENCH_SCALE=0.25 $(PYTEST) \
	    benchmarks/test_fleet_scale.py -q -s

autograd-smoke:  ## eager tape and fused LSTM cell: bit-identity against the reference walk and the 17-node reference cell + autograd, RNN and model suites, <60s
	$(PYTEST) tests/test_autograd_*.py tests/test_property_autograd.py \
	    tests/test_nn_rnn.py tests/test_models.py -q \
	    -W error::DeprecationWarning

perfbench-smoke:  ## repository benchmark: every workload at a tiny length, canary digests vs perfbench/reference.json
	python3 perfbench/smoke.py

perfbench-ab:  ## this checkout vs git rev BASE: alternating repository-benchmark pairs, medians/quartiles/wins (ARGS="--workload W --pairs N --seconds S")
	@test -n "$(BASE)" || { echo "usage: make perfbench-ab BASE=<rev> [ARGS=...]"; exit 2; }
	python3 tools/perfbench_ab.py --base "$(BASE)" $(ARGS)

perf-gate:  ## full-scale smoke benches diffed against committed BENCH baselines; reports land in artifacts/
	@fresh=$$(mktemp -d); status=0; \
	mkdir -p artifacts; \
	REPRO_BENCH_DIR=$$fresh $(PYTEST) $(PERF_GATE_BENCHES) -q -s && \
	PYTHONPATH=src python -m repro diff --baseline . --fresh $$fresh \
	    --names cluster_scenarios,fig01,vec_replicates,mp_throughput,obs_overhead,serve,fleet_scale,eager_lstm_step \
	    --report artifacts/perf_report.json \
	    || status=$$?; \
	cp $$fresh/BENCH_vec_replicates.json \
	    artifacts/replicate_statistics.json 2>/dev/null || true; \
	rm -rf $$fresh; exit $$status

bench-baseline:  ## the one step that rewrites the committed BENCH_*.json perf-gate baselines in the checkout (full scale)
	REPRO_BENCH_DIR=$(CURDIR) $(PYTEST) $(PERF_GATE_BENCHES) -q -s

example:  ## sharded + fused async-training tour
	PYTHONPATH=src python examples/async_training.py

cluster-example:  ## heavy-tail delays + crash + checkpoint/resume tour
	PYTHONPATH=src python examples/cluster_training.py

matrix-example:  ## scenario-matrix + result-cache + baseline-diff tour
	PYTHONPATH=src python examples/scenario_matrix.py
