"""Typed central registry for every pluggable component family.

Before PR 5, each subsystem grew its own name-to-factory dict —
optimizers and delay models in :mod:`repro.xp.factories`, workloads in
:mod:`repro.xp.workloads`, sharding policies in
:mod:`repro.sim.sharding` — with ad-hoc ``register_*`` / ``*_names`` /
``build_*`` triples and no shared validation.  This module is the
single store behind all of them:

- a component is ``(kind, name, factory, schema, description)``;
- the **kind** partitions the namespace (``"optimizer"``,
  ``"workload"``, ``"delay"``, ``"fault"``, ``"sharding"``,
  ``"topology"``, ``"backend"``, ``"serve"``), one per family a spec,
  config or caller picks a member of by name;
- the **schema** declares the factory's configuration surface.  By
  default it is derived from the factory signature
  (:func:`schema_from_callable`), so every registration is typed for
  free; an explicit schema overrides the derivation;
- :meth:`Registry.build` validates keyword configuration against the
  schema *before* instantiating, so a typo'd spec fails with the
  component's declared parameters instead of a deep ``TypeError``.

Provider modules register at import time; :data:`_PROVIDERS` lists, per
kind, the modules that must be imported before a lookup can be answered,
so ``registry.build("optimizer", ...)`` works without the caller
importing :mod:`repro.xp` first.

A batched twin of a component (a :mod:`repro.vec` kernel, a deferred
fleet evaluator) is no registry entry: its subsystem keys it by the
scalar factory object it mirrors (:data:`repro.xp.factories.VEC_KERNELS`,
:data:`repro.fleet.workloads.FLEET_TWINS`), so a replaced scalar entry
finds no twin.

The legacy helpers (``repro.xp.register_optimizer`` and friends) still
exist and now delegate here, so downstream registrations land in the
same store the new :mod:`repro.run` API resolves from.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

# Kinds whose components live in modules that register on import: the
# registry imports these lazily on first lookup, so `repro.registry` has
# no import-time dependency on the heavy subsystems it serves.
_PROVIDERS: Dict[str, Tuple[str, ...]] = {
    "optimizer": ("repro.xp.factories",),
    "delay": ("repro.xp.factories",),
    "fault": ("repro.xp.factories",),
    "workload": ("repro.xp.workloads",),
    "sharding": ("repro.sim.sharding",),
    "topology": ("repro.fleet.topology",),
    "backend": ("repro.run.backends",),
    "serve": ("repro.serve.policies",),
}

# Annotation types the schema checker actually enforces; anything more
# exotic (unions, containers, protocol classes) is recorded but passes
# validation untouched.
_CHECKED_TYPES = (bool, int, float, str)


@dataclass(frozen=True)
class ParamSpec:
    """One declared configuration parameter of a component factory.

    Attributes
    ----------
    name : str
        Keyword name as the spec/config dict spells it.
    annotation : type or None
        Declared type when the factory annotates it with a plain
        scalar type (``bool``/``int``/``float``/``str``); ``None``
        means unchecked.
    default : object
        Default value, or :data:`inspect.Parameter.empty` when the
        parameter is required.
    required : bool
        Whether a configuration must supply this parameter.
    """

    name: str
    annotation: Optional[type] = None
    default: Any = inspect.Parameter.empty

    @property
    def required(self) -> bool:
        """Whether the parameter has no default."""
        return self.default is inspect.Parameter.empty


@dataclass(frozen=True)
class ComponentSchema:
    """The declared configuration surface of a registered factory.

    Attributes
    ----------
    params : tuple of ParamSpec
        Accepted keyword parameters, in declaration order.
    open_ended : bool
        Whether the factory accepts arbitrary extra keywords
        (``**kwargs`` in its signature) — unknown keys then pass
        through unvalidated.
    positional : tuple of str
        Names of leading positional-style arguments the *caller*
        supplies (a parameter list, a buffer); these are not part of
        the keyword configuration surface.
    """

    params: Tuple[ParamSpec, ...] = ()
    open_ended: bool = False
    positional: Tuple[str, ...] = ()

    def names(self) -> List[str]:
        """Declared keyword parameter names, in declaration order."""
        return [p.name for p in self.params]

    def validate(self, config: Mapping[str, Any], *,
                 where: str = "component") -> None:
        """Check a configuration dict against the schema.

        Parameters
        ----------
        config : mapping
            Keyword configuration about to be passed to the factory.
        where : str
            Human-readable component label for error messages.

        Raises
        ------
        ValueError
            On unknown keys (unless the schema is open-ended), missing
            required keys, or a value whose type contradicts a checked
            scalar annotation.
        """
        declared = {p.name: p for p in self.params}
        if not self.open_ended:
            unknown = sorted(set(config) - set(declared))
            if unknown:
                raise ValueError(
                    f"{where}: unknown config keys {unknown}; declared "
                    f"keys are {sorted(declared)}")
        missing = [p.name for p in self.params
                   if p.required and p.name not in config]
        if missing:
            raise ValueError(
                f"{where}: missing required config keys {missing}")
        for key, value in config.items():
            spec = declared.get(key)
            if spec is None or spec.annotation is None or value is None:
                continue
            expected = spec.annotation
            ok = isinstance(value, expected)
            # ints are acceptable floats, but bools are neither
            if expected is float:
                ok = (isinstance(value, (int, float))
                      and not isinstance(value, bool))
            elif expected is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            if not ok:
                raise ValueError(
                    f"{where}: config key {key!r} expects "
                    f"{expected.__name__}, got {type(value).__name__} "
                    f"({value!r})")


def schema_from_callable(factory: Callable,
                         skip: int = 0) -> ComponentSchema:
    """Derive a :class:`ComponentSchema` from a factory's signature.

    Parameters
    ----------
    factory : callable
        The component factory (a function or a class).
    skip : int
        Leading positional parameters the caller supplies directly
        (e.g. the parameter list of an optimizer factory); they are
        recorded as :attr:`ComponentSchema.positional` rather than as
        configuration keys.

    Returns
    -------
    ComponentSchema
        Derived schema; factories whose signature cannot be inspected
        (some builtins) get an open-ended empty schema.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return ComponentSchema(open_ended=True)
    params: List[ParamSpec] = []
    positional: List[str] = []
    open_ended = False
    seen = 0
    # modules using `from __future__ import annotations` expose their
    # annotations as strings; map the scalar names back to types
    by_name = {t.__name__: t for t in _CHECKED_TYPES}
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            open_ended = True
            continue
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if seen < skip and parameter.kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD):
            positional.append(parameter.name)
            seen += 1
            continue
        annotation = parameter.annotation
        if isinstance(annotation, str):
            annotation = by_name.get(annotation, annotation)
        checked = annotation if (isinstance(annotation, type)
                                 and annotation in _CHECKED_TYPES) else None
        params.append(ParamSpec(name=parameter.name, annotation=checked,
                                default=parameter.default))
    return ComponentSchema(params=tuple(params), open_ended=open_ended,
                           positional=tuple(positional))


@dataclass(frozen=True)
class Component:
    """One registered component: identity, factory, schema, metadata.

    Attributes
    ----------
    kind : str
        Namespace the component lives in (``"optimizer"``, ...).
    name : str
        Registry key within the kind.
    factory : callable
        ``factory(*args, **config) -> instance``.
    schema : ComponentSchema
        Declared configuration surface (validated by ``build``).
    description : str
        One-line human-readable summary (CLI listings, docs).
    """

    kind: str
    name: str
    factory: Callable
    schema: ComponentSchema
    description: str = ""


class Registry:
    """Typed name-to-factory store partitioned by component kind.

    One process-global instance (:data:`registry`) backs every
    subsystem; tests may instantiate private registries.
    """

    def __init__(self):
        self._components: Dict[str, Dict[str, Component]] = {}
        self._loaded_kinds: set = set()

    # ------------------------------------------------------------- #
    # registration
    # ------------------------------------------------------------- #
    def register(self, kind: str, name: str, factory: Callable, *,
                 schema: Optional[ComponentSchema] = None,
                 skip_positional: int = 0,
                 description: str = "") -> Component:
        """Register (or replace) a component.

        Parameters
        ----------
        kind : str
            Component namespace.
        name : str
            Key within the namespace; re-registering replaces.
        factory : callable
            ``factory(*args, **config) -> instance``.
        schema : ComponentSchema, optional
            Explicit configuration schema; derived from the factory
            signature when omitted.
        skip_positional : int
            Leading positional arguments supplied by the caller (not
            configuration) when deriving the schema.
        description : str
            One-line summary; defaults to the factory docstring's
            first line.

        Returns
        -------
        Component
            The stored registration.
        """
        if schema is None:
            schema = schema_from_callable(factory, skip=skip_positional)
        if not description:
            doc = inspect.getdoc(factory) or ""
            description = doc.splitlines()[0] if doc else ""
        component = Component(kind=str(kind), name=str(name),
                              factory=factory, schema=schema,
                              description=description)
        self._components.setdefault(component.kind, {})[
            component.name] = component
        return component

    def unregister(self, kind: str, name: str) -> None:
        """Remove a registration (missing entries are a no-op); a kind
        whose last component goes leaves :meth:`kinds` unless a
        provider module declares it."""
        components = self._components.get(kind, {})
        components.pop(name, None)
        if not components:
            self._components.pop(kind, None)

    # ------------------------------------------------------------- #
    # lookup
    # ------------------------------------------------------------- #
    def _ensure_loaded(self, kind: str) -> None:
        if kind in self._loaded_kinds:
            return
        self._loaded_kinds.add(kind)
        for module in _PROVIDERS.get(kind, ()):
            try:
                importlib.import_module(module)
            except ImportError:
                # a broken provider (e.g. a missing dependency) is a
                # real environment error: surface the ImportError to
                # the caller rather than masking it as an unknown
                # name, but un-mark the kind so a fixed environment
                # retries the import on the next lookup
                self._loaded_kinds.discard(kind)
                raise

    def get(self, kind: str, name: str) -> Component:
        """The registration for ``(kind, name)``.

        Raises
        ------
        ValueError
            When no component of that kind/name exists, listing the
            registered alternatives.
        """
        self._ensure_loaded(kind)
        try:
            return self._components[kind][name]
        except KeyError:
            raise ValueError(
                f"unknown {kind} {name!r}; choose from "
                f"{self.names(kind)} or register your own via "
                f"repro.registry") from None

    def has(self, kind: str, name: str) -> bool:
        """Whether ``(kind, name)`` is registered."""
        self._ensure_loaded(kind)
        return name in self._components.get(kind, {})

    def names(self, kind: str) -> List[str]:
        """Sorted registered names of a kind."""
        self._ensure_loaded(kind)
        return sorted(self._components.get(kind, {}))

    def kinds(self) -> List[str]:
        """Sorted kinds with at least one registration or provider."""
        known = set(self._components) | set(_PROVIDERS)
        return sorted(known)

    # ------------------------------------------------------------- #
    # validation + construction
    # ------------------------------------------------------------- #
    def validate(self, kind: str, name: str,
                 config: Mapping[str, Any]) -> Component:
        """Check ``config`` against the component's declared schema.

        Returns
        -------
        Component
            The validated component (so callers can chain into its
            factory).
        """
        component = self.get(kind, name)
        component.schema.validate(config, where=f"{kind} {name!r}")
        return component

    def build(self, kind: str, name: str, *args, **config):
        """Validate ``config`` and instantiate the component.

        Parameters
        ----------
        kind, name : str
            Component identity.
        *args
            Caller-supplied positional arguments (a parameter list, a
            batched buffer) preceding the keyword configuration.
        **config
            Keyword configuration, validated against the schema.

        Returns
        -------
        object
            ``factory(*args, **config)``.
        """
        component = self.validate(kind, name, config)
        return component.factory(*args, **config)

    def describe(self, kind: str) -> List[Dict[str, Any]]:
        """Human-readable listing of a kind (for CLI/doc tooling).

        Returns
        -------
        list of dict
            One entry per component: name, description, declared
            parameter names, and whether extra keys are accepted.
        """
        out = []
        for name in self.names(kind):
            component = self.get(kind, name)
            out.append({
                "name": name,
                "description": component.description,
                "params": component.schema.names(),
                "open_ended": component.schema.open_ended,
            })
        return out

    def __repr__(self) -> str:
        sizes = {kind: len(items)
                 for kind, items in sorted(self._components.items())}
        return f"Registry({sizes})"


#: The process-global component registry every subsystem registers into.
registry = Registry()

__all__ = [
    "Component", "ComponentSchema", "ParamSpec", "Registry",
    "registry", "schema_from_callable",
]
