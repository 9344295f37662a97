"""Builders turning declarative spec fragments into runtime objects.

:class:`~repro.xp.spec.ScenarioSpec` stores delay models, fault plans,
and optimizers as plain JSON-able dicts/names so specs can be hashed,
cached, and shipped across process boundaries.  Since PR 5 the actual
name-to-factory mapping lives in the typed central registry
(:mod:`repro.registry`) under the ``"optimizer"``, ``"delay"``, and
``"fault"`` kinds; this module registers the built-ins and keeps the
spec-fragment entry points:

- :func:`build_delay_model` — ``{"kind": "pareto", ...}`` to a
  :class:`~repro.cluster.delays.DelayModel` instance.
- :func:`build_fault_injector` — crash/straggler/pause rates plus a
  scripted fault list to a :class:`~repro.cluster.faults.FaultInjector`.
- :func:`build_optimizer` / :func:`register_optimizer` — thin aliases
  over the registry, kept for source compatibility (``"momentum_sgd"``,
  ``"closed_loop_yellowfin"``, ...).
- :data:`VEC_KERNELS` — the batched kernel of each built-in optimizer
  factory, for the fleet engine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.delays import (ConstantDelay, DelayModel,
                                  ExponentialDelay, HeterogeneousDelay,
                                  ParetoDelay, TraceReplayDelay,
                                  UniformDelay, WorkerClassDelay)
from repro.cluster.faults import (FaultInjector, ShardPause, Straggler,
                                  WorkerCrash)
from repro.core import ClosedLoopYellowFin, YellowFin
from repro.optim import SGD, AdaGrad, Adam, MomentumSGD, Optimizer, RMSProp
from repro.registry import (ComponentSchema, ParamSpec, registry,
                            schema_from_callable)
from repro.vec.optim import (VecAdam, VecClosedLoopYellowFin,
                             VecMomentumSGD, VecSGD, VecYellowFin)

# ----------------------------------------------------------------- #
# delay models
# ----------------------------------------------------------------- #
_SIMPLE_DELAY_KINDS = ("constant", "uniform", "exponential", "pareto")


def _heterogeneous_delay(models=None) -> HeterogeneousDelay:
    """Per-worker delay models from a list of nested delay configs."""
    if not models:
        raise ValueError(
            'heterogeneous delay config needs a non-empty "models" list')
    return HeterogeneousDelay([build_delay_model(m) for m in models])


def _trace_delay(trace=None) -> TraceReplayDelay:
    """Replay recorded per-worker delays from a trace payload."""
    if trace is None:
        raise ValueError('trace delay config needs a "trace" payload')
    return TraceReplayDelay(trace)


def _worker_class_delay(counts=None, models=None) -> WorkerClassDelay:
    """Contiguous worker-id blocks from parallel count/config lists."""
    if not counts or not models:
        raise ValueError(
            'worker_classes delay config needs parallel non-empty '
            '"counts" and "models" lists')
    return WorkerClassDelay(counts, [build_delay_model(m) for m in models])


registry.register("delay", "constant", ConstantDelay)
registry.register("delay", "uniform", UniformDelay)
registry.register("delay", "exponential", ExponentialDelay)
registry.register("delay", "pareto", ParetoDelay)
registry.register("delay", "heterogeneous", _heterogeneous_delay)
registry.register("delay", "trace", _trace_delay)
registry.register("delay", "worker_classes", _worker_class_delay)


def delay_kinds() -> list:
    """Sorted registered delay kinds (error messages, CLI listings)."""
    return registry.names("delay")


def build_delay_model(config: dict) -> DelayModel:
    """Instantiate a delay model from its declarative config.

    Parameters
    ----------
    config : dict
        ``{"kind": <name>, **params}``.  Kinds: ``"constant"``,
        ``"uniform"``, ``"exponential"``, ``"pareto"`` (params forwarded
        to the class constructor, including ``seed``);
        ``"heterogeneous"`` with ``"models": [<config>, ...]``;
        ``"trace"`` with ``"trace": {...}`` (the
        :class:`~repro.cluster.delays.TraceReplayDelay` payload) — or
        any kind added via ``repro.registry``.

    Returns
    -------
    DelayModel
    """
    if not isinstance(config, dict) or "kind" not in config:
        raise ValueError(f'delay config needs a "kind" key: {config!r}')
    params = {k: v for k, v in config.items() if k != "kind"}
    kind = config["kind"]
    if not registry.has("delay", kind):
        raise ValueError(
            f"unknown delay kind {kind!r}; choose from {delay_kinds()}")
    return registry.build("delay", kind, **params)


# ----------------------------------------------------------------- #
# fault injectors
# ----------------------------------------------------------------- #
registry.register("fault", "crash", WorkerCrash)
registry.register("fault", "straggler", Straggler)
registry.register("fault", "pause", ShardPause)

# the injector itself is registered too, so spec validation can check
# the top-level fault keys (rates, downtimes, seed) against a schema
registry.register("fault", "injector", FaultInjector)


def fault_kinds() -> list:
    """Sorted scheduled-fault kinds (``"injector"`` is the envelope)."""
    return [name for name in registry.names("fault") if name != "injector"]


def build_fault_injector(config: Optional[dict]) -> Optional[FaultInjector]:
    """Instantiate a fault injector from its declarative config.

    Parameters
    ----------
    config : dict or None
        Keyword arguments of :class:`~repro.cluster.faults.FaultInjector`
        (rates, downtimes, ``seed``) plus an optional ``"scheduled"``
        list of ``{"kind": "crash"|"straggler"|"pause", **params}``
        entries.  ``None`` or ``{}`` means no injector (the runtime's
        default no-fault path).

    Returns
    -------
    FaultInjector or None
    """
    if not config:
        return None
    params = dict(config)
    scheduled = []
    for entry in params.pop("scheduled", []):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(
                f'scheduled fault needs a "kind" key: {entry!r}')
        kind = entry["kind"]
        if kind == "injector" or not registry.has("fault", kind):
            raise ValueError(
                f"unknown scheduled fault kind {kind!r}; choose from "
                f"{fault_kinds()}")
        kwargs = {k: v for k, v in entry.items() if k != "kind"}
        scheduled.append(registry.build("fault", kind, **kwargs))
    registry.validate("fault", "injector", params)
    return FaultInjector(scheduled=scheduled, **params)


# ----------------------------------------------------------------- #
# optimizers
# ----------------------------------------------------------------- #
OptimizerFactory = Callable[..., Optimizer]


def _sgd(params, lr: float = 0.05, **kwargs) -> SGD:
    """Vanilla SGD with a default ``lr`` so bare specs are runnable."""
    return SGD(params, lr=lr, **kwargs)


def _momentum_sgd(params, lr: float = 0.05, **kwargs) -> MomentumSGD:
    """Momentum SGD with a default ``lr`` so bare specs are runnable."""
    return MomentumSGD(params, lr=lr, **kwargs)


for _name, _factory in (("adam", Adam), ("adagrad", AdaGrad),
                        ("rmsprop", RMSProp), ("yellowfin", YellowFin),
                        ("closed_loop_yellowfin", ClosedLoopYellowFin)):
    # the leading positional argument is the model's parameter list,
    # supplied by the runner — not part of the keyword configuration
    registry.register("optimizer", _name, _factory, skip_positional=1)
# the sgd wrappers forward **kwargs to their class, which would make
# the derived schema open-ended; declare the class's own surface so a
# typo'd spec key still fails with the declared parameter list.  The
# wrapper supplies lr's default, so the schema must not require it.


def _wrapper_schema(cls) -> ComponentSchema:
    base = schema_from_callable(cls, skip=1)
    params = tuple(ParamSpec(p.name, p.annotation, 0.05)
                   if p.name == "lr" and p.required else p
                   for p in base.params)
    return ComponentSchema(params=params, open_ended=False,
                           positional=base.positional)


registry.register("optimizer", "sgd", _sgd,
                  schema=_wrapper_schema(SGD))
registry.register("optimizer", "momentum_sgd", _momentum_sgd,
                  schema=_wrapper_schema(MomentumSGD))

#: The batched kernel (:mod:`repro.vec.optim`) of each built-in scalar
#: factory it mirrors row for row, keyed by that factory object: a name
#: re-registered with another factory finds no kernel, so its replicated
#: specs run as ``R`` serial runs of the replacement.
VEC_KERNELS = {_sgd: VecSGD, _momentum_sgd: VecMomentumSGD, Adam: VecAdam,
               YellowFin: VecYellowFin,
               ClosedLoopYellowFin: VecClosedLoopYellowFin}


def register_optimizer(name: str, factory: OptimizerFactory) -> None:
    """Add (or replace) an optimizer under ``name``.

    Parameters
    ----------
    name : str
        Registry key used by ``ScenarioSpec.optimizer``.
    factory : callable
        ``factory(params, **optimizer_params) -> Optimizer``.
    """
    registry.register("optimizer", str(name), factory, skip_positional=1)


def optimizer_names() -> list:
    """Sorted registry keys (for error messages and CLI listings)."""
    return registry.names("optimizer")


def build_optimizer(name: str, params, **kwargs) -> Optimizer:
    """Instantiate the optimizer registered under ``name``.

    Parameters
    ----------
    name : str
        Registry key.
    params : list of Tensor
        Model parameters to optimize.
    **kwargs
        The spec's ``optimizer_params``.

    Returns
    -------
    Optimizer
    """
    if not registry.has("optimizer", name):
        raise ValueError(
            f"unknown optimizer {name!r}; choose from {optimizer_names()} "
            "or register_optimizer() your own")
    return registry.build("optimizer", name, params, **kwargs)
