"""The typed central component registry (:mod:`repro.registry`)."""

import pytest

from repro.registry import (ComponentSchema, ParamSpec, Registry,
                            registry, schema_from_callable)


def widget_factory(size: int = 4, rate: float = 0.5, name: str = "w",
                   flag: bool = False, **extras):
    """A widget (test factory)."""
    return ("widget", size, rate, name, flag, extras)


def strict_factory(size: int, rate: float = 0.5):
    """A strict widget (no defaults on size, no **kwargs)."""
    return ("strict", size, rate)


class TestSchemaDerivation:
    def test_scalar_annotations_become_checked_params(self):
        schema = schema_from_callable(strict_factory)
        by_name = {p.name: p for p in schema.params}
        assert by_name["size"].annotation is int
        assert by_name["size"].required
        assert by_name["rate"].annotation is float
        assert not by_name["rate"].required
        assert not schema.open_ended

    def test_var_keyword_makes_schema_open_ended(self):
        assert schema_from_callable(widget_factory).open_ended

    def test_skip_records_caller_supplied_positionals(self):
        def factory(params, lr: float = 0.1):
            return (params, lr)

        schema = schema_from_callable(factory, skip=1)
        assert schema.positional == ("params",)
        assert schema.names() == ["lr"]

    def test_string_annotations_resolve(self):
        # `from __future__ import annotations` modules expose string
        # annotations; the derivation must still type them
        def factory(lr: "float" = 0.1):
            return lr

        schema = schema_from_callable(factory)
        assert schema.params[0].annotation is float


class TestSchemaValidation:
    def schema(self):
        return ComponentSchema(params=(
            ParamSpec("size", annotation=int),
            ParamSpec("rate", annotation=float, default=0.5),
        ))

    def test_unknown_key_rejected_with_declared_list(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            self.schema().validate({"size": 1, "bogus": 2})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            self.schema().validate({"rate": 1.0})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expects int"):
            self.schema().validate({"size": "big"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValueError, match="expects float"):
            self.schema().validate({"size": 1, "rate": True})

    def test_int_satisfies_float(self):
        self.schema().validate({"size": 1, "rate": 2})

    def test_none_passes_any_annotation(self):
        self.schema().validate({"size": 1, "rate": None})

    def test_open_ended_accepts_unknown_keys(self):
        ComponentSchema(open_ended=True).validate({"anything": 1})


class TestRegistryStore:
    def test_register_build_roundtrip(self):
        reg = Registry()
        reg.register("thing", "widget", widget_factory)
        built = reg.build("thing", "widget", size=2, rate=1.5)
        assert built[:3] == ("widget", 2, 1.5)

    def test_unknown_name_lists_alternatives(self):
        reg = Registry()
        reg.register("thing", "widget", widget_factory)
        with pytest.raises(ValueError, match="choose from"):
            reg.get("thing", "nope")

    def test_reregistration_replaces(self):
        reg = Registry()
        reg.register("thing", "widget", widget_factory)
        reg.register("thing", "widget", strict_factory)
        assert reg.get("thing", "widget").factory is strict_factory

    def test_description_defaults_to_docstring(self):
        reg = Registry()
        comp = reg.register("thing", "widget", widget_factory)
        assert comp.description == "A widget (test factory)."

    def test_describe_lists_params(self):
        reg = Registry()
        reg.register("thing", "strict", strict_factory)
        (entry,) = reg.describe("thing")
        assert entry["name"] == "strict"
        assert entry["params"] == ["size", "rate"]
        assert not entry["open_ended"]

    def test_build_validates_before_instantiating(self):
        calls = []

        def factory(size: int = 1):
            calls.append(size)
            return size

        reg = Registry()
        reg.register("thing", "w", factory)
        with pytest.raises(ValueError, match="unknown config keys"):
            reg.build("thing", "w", wrong=1)
        assert calls == []

    def test_positional_args_pass_through(self):
        reg = Registry()
        reg.register("opt", "sgd", lambda params, lr=0.1: (params, lr),
                     skip_positional=1)
        params = [1, 2, 3]
        assert reg.build("opt", "sgd", params, lr=0.5) == (params, 0.5)

    def test_unregister_is_idempotent(self):
        reg = Registry()
        reg.register("thing", "w", widget_factory)
        reg.unregister("thing", "w")
        reg.unregister("thing", "w")
        assert not reg.has("thing", "w")

    def test_a_kind_leaves_kinds_with_its_last_component(self):
        reg = Registry()
        reg.register("thing", "w", widget_factory)
        assert "thing" in reg.kinds()
        reg.unregister("thing", "w")
        assert "thing" not in reg.kinds()
        assert reg.names("thing") == []


class TestGlobalRegistry:
    """The process-global instance every subsystem registers into."""

    BUILTIN_KINDS = {
        "optimizer": {"sgd", "momentum_sgd", "adam", "adagrad",
                      "rmsprop", "yellowfin", "closed_loop_yellowfin"},
        "workload": {"toy_classifier", "quadratic_bowl",
                     "cifar10_resnet", "cifar100_resnet"},
        "delay": {"constant", "uniform", "exponential", "pareto",
                  "heterogeneous", "trace"},
        "fault": {"crash", "straggler", "pause", "injector"},
        "sharding": {"hash", "round_robin", "balanced"},
        "backend": {"serial", "parallel", "fleet", "mp"},
    }

    @pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
    def test_builtins_registered(self, kind):
        # lazy provider loading: lookups work without pre-importing
        # the provider modules explicitly
        assert self.BUILTIN_KINDS[kind] <= set(registry.names(kind))

    def test_kinds_are_the_families_picked_by_name(self):
        # batched twins, the replicate aggregator and the obs
        # components are no registry entries: nothing picks them by name
        assert registry.kinds() == [
            "backend", "delay", "fault", "optimizer", "serve", "sharding",
            "topology", "workload"]

    def test_a_new_kind_round_trip_leaves_kinds_as_it_was(self):
        before = registry.kinds()
        registry.register("_registry_test_kind", "w", widget_factory)
        try:
            assert registry.kinds() == sorted(before
                                              + ["_registry_test_kind"])
        finally:
            registry.unregister("_registry_test_kind", "w")
        assert registry.kinds() == before

    def test_legacy_registration_helpers_share_the_store(self):
        from repro.xp.factories import register_optimizer

        def custom(params, lr: float = 0.1):
            """Custom optimizer for the registry test."""
            return ("custom", lr)

        register_optimizer("_registry_test_opt", custom)
        try:
            assert registry.has("optimizer", "_registry_test_opt")
            assert registry.build("optimizer", "_registry_test_opt",
                                  [], lr=0.3) == ("custom", 0.3)
        finally:
            registry.unregister("optimizer", "_registry_test_opt")

    def test_optimizer_param_typo_fails_with_declared_keys(self):
        from repro.xp.factories import build_optimizer

        with pytest.raises(ValueError, match="unknown config keys"):
            build_optimizer("adam", [], learning_rate=0.1)
