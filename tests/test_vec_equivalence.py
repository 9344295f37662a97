"""Differential suite: batched replicate execution == serial scalar runs.

The defining contract of :mod:`repro.vec`: for every fused optimizer
kernel, an R-replicate batched run produces per-replicate metrics and
series **bit-identical** to R independent serial runs of the scalar
path over the derived replicate seeds — fused and unfused, with and
without weight decay, across delivery disciplines, workloads, seeded
stochastic delays and fault plans (one worker schedule serves every
replicate, since it never depends on the replicate seed).  Also
pins the compatibility guarantees around the new ``replicates`` spec
field: single-replicate specs hash and run exactly as before the field
existed, reproducing the committed ``BENCH_cluster_scenarios.json``
records unchanged.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.run import execute_spec
from repro.fleet import supports_fleet
from repro.xp import ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_spec(replicates=3, **overrides):
    base = dict(name="vec-diff", workload="quadratic_bowl",
                workload_params={"dim": 48, "noise_horizon": 64},
                optimizer="momentum_sgd",
                optimizer_params={"lr": 0.02, "momentum": 0.5},
                delay={"kind": "constant", "delay": 1.0},
                workers=4, reads=40, seed=3, smooth=10,
                replicates=replicates)
    base.update(overrides)
    return ScenarioSpec(**base)


def assert_metrics_identical(batched, scalar, context):
    __tracebackhide__ = True
    assert set(batched) == set(scalar), context
    for key in scalar:
        a, b = batched[key], scalar[key]
        if np.isnan(b):
            assert np.isnan(a), (context, key, a, b)
        else:
            assert a == b, (context, key, a, b)


def assert_series_identical(batched, scalar, context):
    __tracebackhide__ = True
    assert set(batched) == set(scalar), context
    for key in scalar:
        assert np.array_equal(np.asarray(batched[key], dtype=float),
                              np.asarray(scalar[key], dtype=float),
                              equal_nan=True), (context, key)


def check_batched_equals_serial(spec, expect_strategy="fleet"):
    __tracebackhide__ = True
    batched = execute_spec(spec)
    assert batched.env["fleet_engine"] == expect_strategy, \
        (spec.name, batched.env["fleet_engine"])
    assert len(batched.replicate_metrics) == spec.replicates
    for r in range(spec.replicates):
        scalar = execute_spec(spec.replicate_spec(r))
        assert_metrics_identical(batched.replicate_metrics[r],
                                 scalar.metrics, (spec.name, r))
        if r == 0:
            assert_series_identical(batched.series, scalar.series,
                                    spec.name)
    return batched


OPTIMIZER_CASES = [
    ("sgd-plain", "sgd", {"lr": 0.05}),
    ("sgd-wd", "sgd", {"lr": 0.05, "weight_decay": 0.01}),
    ("sgd-fused-wd", "sgd",
     {"lr": 0.05, "weight_decay": 0.01, "fused": True}),
    ("momentum-unfused", "momentum_sgd", {"lr": 0.02, "momentum": 0.5}),
    ("momentum-fused-wd", "momentum_sgd",
     {"lr": 0.02, "momentum": 0.5, "weight_decay": 0.01, "fused": True}),
    ("momentum-nesterov", "momentum_sgd",
     {"lr": 0.02, "momentum": 0.5, "nesterov": True, "fused": True}),
    ("adam-unfused", "adam", {"lr": 0.01}),
    ("adam-fused-amsgrad", "adam",
     {"lr": 0.01, "amsgrad": True, "fused": True}),
    ("yellowfin-unfused", "yellowfin", {"beta": 0.99, "window": 5}),
    ("yellowfin-fused", "yellowfin",
     {"beta": 0.99, "window": 5, "fused": True}),
    ("yellowfin-ablated", "yellowfin",
     {"beta": 0.99, "window": 5, "fused": True, "adaptive_clip": False,
      "zero_debias": False, "log_space_curvature": False}),
    ("closed-loop-unfused", "closed_loop_yellowfin",
     {"staleness": 3, "beta": 0.99, "window": 5, "gamma": 0.01}),
    ("closed-loop-fused", "closed_loop_yellowfin",
     {"staleness": 3, "beta": 0.99, "window": 5, "gamma": 0.01,
      "fused": True}),
]


class TestOptimizerEquivalence:
    """Every batched kernel, bit-identical to R serial scalar runs."""

    @pytest.mark.parametrize("label,optimizer,params", OPTIMIZER_CASES,
                             ids=[c[0] for c in OPTIMIZER_CASES])
    def test_quadratic_workload(self, label, optimizer, params):
        series = ("loss",)
        if optimizer in ("yellowfin", "closed_loop_yellowfin"):
            series = ("loss", "lr", "momentum", "target_momentum")
        if optimizer == "closed_loop_yellowfin":
            series += ("total_momentum", "algorithmic_momentum")
        spec = make_spec(optimizer=optimizer, optimizer_params=params,
                         record_series=series)
        check_batched_equals_serial(spec)

    def test_depth_gated_fifo(self):
        spec = make_spec(queue_staleness=2, updates=30)
        check_batched_equals_serial(spec)

    def test_random_delivery_uses_per_replicate_streams(self):
        spec = make_spec(queue_staleness=3, delivery="random",
                         record_series=("loss", "staleness", "worker"))
        check_batched_equals_serial(spec)

    def test_generic_autograd_workload_with_shards(self):
        spec = make_spec(
            workload="toy_classifier",
            workload_params={"samples": 64, "features": 4, "hidden": 8,
                             "batch_size": 16},
            optimizer="momentum_sgd",
            optimizer_params={"lr": 0.05, "momentum": 0.9, "fused": True},
            num_shards=3, record_series=("loss", "staleness"))
        check_batched_equals_serial(spec)

    def test_derived_seed_specs_without_explicit_seed(self):
        spec = make_spec(seed=None, replicates=2)
        check_batched_equals_serial(spec)

    @pytest.mark.parametrize("optimizer", ["yellowfin",
                                           "closed_loop_yellowfin"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_yellowfin_family_on_autograd_workload(self, optimizer,
                                                   fused):
        # Linear weight gradients come out F-ordered: the scalar
        # per-tensor norm sums them in memory order, the batched one
        # over C-ordered row slices, and the two disagree in the last
        # bit — so unfused YellowFin-family kernels without a deferred
        # evaluator run serially; fused kernels batch exactly
        params = {"window": 5, "beta": 0.99}
        if fused:
            params["fused"] = True
        spec = make_spec(workload="toy_classifier", workload_params={},
                         optimizer=optimizer, optimizer_params=params,
                         reads=60)
        assert supports_fleet(spec) == fused
        check_batched_equals_serial(
            spec, expect_strategy="fleet" if fused else "serial")


class TestSharedSchedule:
    """Seeded stochastic delays and fault plans batch: their streams
    come from the delay and fault configs' own seeds, never from the
    replicate seed, so every replicate runs the same schedule."""

    def test_seeded_stochastic_delay_batches(self):
        spec = make_spec(
            delay={"kind": "uniform", "low": 0.5, "high": 1.5, "seed": 7})
        assert supports_fleet(spec)
        check_batched_equals_serial(spec)

    def test_scheduled_fault_plan_batches(self):
        spec = make_spec(
            workers=4,
            faults={"scheduled": [{"kind": "crash", "worker": 1,
                                   "time": 3.0, "downtime": 2.0}]})
        assert supports_fleet(spec)
        check_batched_equals_serial(spec)

    def test_scheduled_and_seeded_random_faults(self):
        spec = make_spec(
            workers=6, reads=90,
            record_series=("loss", "staleness", "crash", "restart"),
            faults={"crash_prob": 0.03, "straggler_prob": 0.05,
                    "pause_prob": 0.02, "seed": 11, "scheduled": [
                        {"kind": "crash", "worker": 2, "time": 3.0,
                         "downtime": 4.0},
                        {"kind": "straggler", "worker": 1, "start": 2.0,
                         "duration": 6.0, "factor": 3.0},
                        {"kind": "pause", "start": 5.0,
                         "duration": 2.5}]})
        batched = check_batched_equals_serial(spec)
        assert batched.series["crash"]

    @pytest.mark.parametrize("workload,workload_params", [
        ("quadratic_bowl", {"dim": 48, "noise_horizon": 64}),
        ("toy_classifier", {}),
    ], ids=["deferred", "eager"])
    def test_random_delivery_with_crash_releases_after_every_row(
            self, workload, workload_params):
        # each row draws its own delivery order, so a read leaves the
        # rows' queues at different commits; its gradient (a deferred
        # slot or an eager matrix) may only be dropped once the last
        # row has committed it
        spec = make_spec(
            workload=workload, workload_params=workload_params,
            replicates=4, workers=5, queue_staleness=3,
            delivery="random", reads=80,
            record_series=("loss", "staleness", "worker", "crash"),
            delay={"kind": "exponential", "mean": 1.0, "seed": 4},
            faults={"scheduled": [{"kind": "crash", "worker": 2,
                                   "time": 4.0, "downtime": 3.0}]})
        batched = check_batched_equals_serial(spec)
        assert batched.series["crash"]
        stalenesses = [m["staleness_mean"]
                       for m in batched.replicate_metrics]
        assert len(set(stalenesses)) > 1, "rows drew one delivery order"


class TestFallbackEquivalence:
    """Ineligible scenarios produce the same aggregated record shape
    through the serial path."""

    def test_replaced_scalar_optimizer_disables_batched_kernel(self,
                                                               monkeypatch):
        # a user-replaced scalar optimizer must not be shadowed by the
        # built-in batched twin — the engine falls back so records
        # still equal R serial runs of the replacement
        from repro.optim import MomentumSGD
        from repro.registry import registry

        calls = []

        def custom(params, lr=0.05, **kwargs):
            calls.append(1)
            return MomentumSGD(params, lr=lr * 0.5, **kwargs)

        original = registry.get("optimizer", "momentum_sgd")
        monkeypatch.setitem(registry._components["optimizer"],
                            "momentum_sgd",
                            original)  # restore original on teardown
        registry.register("optimizer", "momentum_sgd", custom,
                          skip_positional=1)
        spec = make_spec(replicates=2)
        assert not supports_fleet(spec)
        check_batched_equals_serial(spec, expect_strategy="serial")
        assert calls, "replacement factory never ran"

    def test_replaced_scalar_workload_disables_batched_evaluator(self,
                                                                 monkeypatch):
        from repro.fleet import FleetEngine
        from repro.registry import registry
        from repro.xp import workloads as xp_workloads

        replacement = xp_workloads.toy_classifier
        original = registry.get("workload", "quadratic_bowl")
        monkeypatch.setitem(registry._components["workload"],
                            "quadratic_bowl",
                            original)  # restore original on teardown
        registry.register("workload", "quadratic_bowl",
                          lambda **params: replacement(
                              samples=32, features=4, hidden=4,
                              batch_size=8))
        spec = make_spec(replicates=2, workload_params={})
        assert not FleetEngine(spec).deferred
        # still batched (the engine's per-replicate adapter runs the
        # replacement), and still bit-identical to serial runs of it
        check_batched_equals_serial(spec)

    @pytest.mark.parametrize("kind,name", [("optimizer", "momentum_sgd"),
                                           ("workload", "quadratic_bowl")])
    def test_twin_follows_the_registered_factory(self, monkeypatch, kind,
                                                 name):
        # the batched twin is keyed by the scalar factory object: the
        # built-in factory re-registered under its own name keeps it,
        # a wrapper around that factory is another factory and loses it
        from repro.fleet import FleetEngine
        from repro.registry import registry
        from repro.xp import register_optimizer, register_workload

        register = (register_optimizer if kind == "optimizer"
                    else register_workload)
        original = registry.get(kind, name)
        monkeypatch.setitem(registry._components[kind], name,
                            original)  # restore original on teardown
        spec = make_spec(replicates=2)

        register(name, original.factory)
        assert supports_fleet(spec)
        assert FleetEngine(spec).deferred
        assert execute_spec(spec).env["fleet_engine"] == "fleet"

        register(name, lambda *args, **kwargs: original.factory(*args,
                                                                **kwargs))
        if kind == "optimizer":
            assert not supports_fleet(spec)
            check_batched_equals_serial(spec, expect_strategy="serial")
        else:
            # batched on the eager adapter over the wrapper
            assert not FleetEngine(spec).deferred
            check_batched_equals_serial(spec)

    def test_diverging_replicate_falls_back_serially(self):
        # lr far above 2/hmax: every replicate blows past the 1e6
        # divergence threshold at its own read, which breaks lockstep
        # and must reroute through the serial path mid-run
        spec = make_spec(
            optimizer_params={"lr": 25.0, "momentum": 0.9, "fused": True},
            reads=60)
        assert supports_fleet(spec)
        batched = check_batched_equals_serial(spec,
                                              expect_strategy="serial")
        assert batched.metrics["diverged"] > 0.0


class TestAggregation:
    """Mean/std/CI aggregation over the per-replicate metrics."""

    def test_mean_std_ci_fields(self):
        spec = make_spec(replicates=4)
        result = execute_spec(spec)
        per = result.replicate_metrics
        finals = [m["final_loss"] for m in per]
        mean = sum(finals) / len(finals)
        assert result.metrics["final_loss"] == pytest.approx(mean,
                                                             rel=0, abs=0)
        std = np.std(finals, ddof=1)
        assert result.metrics["final_loss_std"] == pytest.approx(std)
        assert result.metrics["final_loss_ci95"] == pytest.approx(
            1.96 * std / np.sqrt(4))
        assert result.metrics["replicates"] == 4.0

    def test_replicate_prefix_stable_under_count_growth(self):
        small = execute_spec(make_spec(replicates=2))
        large = execute_spec(make_spec(replicates=4))
        assert large.replicate_metrics[:2] == small.replicate_metrics

    def test_result_round_trips_replicate_metrics(self):
        from repro.xp.runner import ScenarioResult

        result = execute_spec(make_spec(replicates=2))
        clone = ScenarioResult.from_dict(result.as_dict())
        assert clone.identity() == result.identity()
        assert clone.replicate_metrics == result.replicate_metrics

    def test_replicated_specs_through_pool_and_cache(self, tmp_path):
        from repro.run import run
        from repro.xp import ParallelRunner, ResultCache

        specs = [make_spec(replicates=2),
                 make_spec(replicates=2, seed=5)]
        serial = ParallelRunner(processes=1).run(specs)
        pooled = ParallelRunner(processes=2).run(specs)
        assert [r.identity() for r in serial] == \
            [r.identity() for r in pooled]

        cache = ResultCache(tmp_path / "cache")
        run(specs, backend="parallel", jobs=1, cache=cache)
        rerun = run(specs, backend="parallel", jobs=1, cache=cache)
        assert (rerun.hits, rerun.misses) == (2, 0)
        assert rerun.identities() == [r.identity() for r in serial]


class TestReplicatesOneCompatibility:
    """``replicates=1`` must be indistinguishable from the pre-field
    behavior: same hashes, same seeds, same records."""

    def test_hash_unchanged_by_default_replicates(self):
        spec = make_spec(replicates=1)
        data = spec.as_dict()
        del data["replicates"]
        # a canonical payload built without the field at all
        legacy = json.loads(spec.canonical_json())
        assert "replicates" not in json.dumps(legacy)
        assert spec.content_hash() == make_spec(
            replicates=1).content_hash()

    def test_scalar_path_taken_for_single_replicate(self):
        result = execute_spec(make_spec(replicates=1))
        assert result.replicate_metrics == []
        assert "fleet_engine" not in result.env
        assert "replicates" not in result.metrics

    def test_reproduces_committed_cluster_scenario_records(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_cluster_scenarios.json").read_text())
        base = dict(
            name="cluster_scenarios", workload="toy_classifier",
            workers=4, num_shards=2, reads=240, seed=0, smooth=25,
            delay={"kind": "constant", "delay": 1.0}, replicates=1)
        fixed = ScenarioSpec(
            **base, optimizer="momentum_sgd",
            optimizer_params={"lr": 0.05, "momentum": 0.9,
                              "fused": True})
        closed = ScenarioSpec(
            **base, optimizer="closed_loop_yellowfin",
            optimizer_params={"staleness": 3, "gamma": 0.01, "window": 5,
                              "beta": 0.99, "fused": True})
        assert execute_spec(fixed).metrics["final_loss"] == \
            committed["metrics"]["constant_fixed_final"]
        assert execute_spec(closed).metrics["final_loss"] == \
            committed["metrics"]["constant_closed_final"]


class TestReplicateSeeds:
    def test_replicate_zero_is_the_scenario_seed(self):
        spec = make_spec(replicates=3)
        assert spec.replicate_seeds()[0] == spec.resolved_seed()

    def test_env_seed_is_replicate_zeros_even_when_derived(self):
        # with seed=None, resolved_seed() hashes the replicated spec
        # and matches no run; the record must carry the seed replicate
        # 0 actually used
        spec = make_spec(seed=None, replicates=2)
        result = execute_spec(spec)
        assert result.env["seed"] == spec.replicate_seeds()[0]
        assert result.env["seed"] == \
            execute_spec(spec.replicate_spec(0)).env["seed"]

    def test_seeds_distinct_and_count_independent(self):
        spec8 = make_spec(replicates=8)
        spec4 = make_spec(replicates=4)
        seeds8 = spec8.replicate_seeds()
        assert len(set(seeds8)) == 8
        assert spec4.replicate_seeds() == seeds8[:4]

    def test_replicate_spec_validates_index(self):
        spec = make_spec(replicates=2)
        with pytest.raises(ValueError):
            spec.replicate_spec(2)

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            make_spec(replicates=0)
