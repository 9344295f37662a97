"""Declarative scenario specifications and cross-product matrices.

The paper's headline claims are *matrix* results — optimizer x delay
model x worker count x fault profile — and every figure script used to
hand-roll its own nested loop.  This module gives the sweep a single
declarative form:

- :class:`ScenarioSpec` names one complete cluster experiment (workload,
  optimizer, delay model, fault plan, topology, budgets, seed) as plain
  JSON-able data, with a canonical serialization and a content hash that
  keys the result cache.
- :class:`Matrix` holds a base spec plus named axes of overrides and
  expands their cross product into concrete specs, in a deterministic
  order with human-readable derived names.

Specs round-trip through JSON via the tagged codec of
:mod:`repro.utils.serialization`, so anything the codec preserves
(tuples, ndarrays inside trace payloads) survives ``save`` / ``load``
exactly — and therefore hashes identically before and after a trip to
disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.utils.serialization import decode_state, encode_state

PathLike = Union[str, Path]

# Bumped whenever the spec schema or the result-record layout changes in
# a way that invalidates cached results; part of every content hash.
XP_FORMAT_VERSION = 1

_DELIVERIES = ("fifo", "random")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass
class ScenarioSpec:
    """One complete, reproducible cluster-experiment configuration.

    Every field is plain JSON-able data; the spec is the *whole* input
    of :func:`repro.run.run`, so equal specs produce
    bit-identical results and the content hash can key a result cache.

    Attributes
    ----------
    name : str
        Human-readable scenario name (matrix expansion derives
        ``base/label1/label2`` names automatically).
    workload : str
        Workload registry key (see :mod:`repro.xp.workloads`) or a
        ``"module:attribute"`` reference to a workload factory.
    workload_params : dict
        Keyword arguments for the workload factory (sizes, batch size).
    optimizer : str
        Optimizer registry key (see
        :func:`repro.xp.runner.register_optimizer`).
    optimizer_params : dict
        Keyword arguments for the optimizer factory.
    delay : dict
        Declarative delay-model config, ``{"kind": ..., ...}`` (see
        :func:`build_delay_model`).
    faults : dict
        Declarative fault-injector config (see
        :func:`build_fault_injector`); empty means no faults.
    workers, num_shards : int
        Cluster topology.
    shard_policy : str
        Shard-placement policy name (see :mod:`repro.sim.sharding`).
    queue_staleness : int
        Server-side depth gate ``tau`` (0 = commit on arrival).
    delivery : str
        ``"fifo"`` or ``"random"`` queue release.
    reads : int
        Gradient-computation budget of the run.
    updates : int, optional
        Update budget (``None`` commits whatever arrives in time).
    seed : int, optional
        Base seed for the workload builder and the server RNG.  ``None``
        derives a deterministic per-scenario seed from the content hash,
        so unnamed sweeps still get stable, distinct streams.
    record_series : tuple of str
        Log series to keep (verbatim) in the result record.
    smooth : int
        Window for the head/tail loss averages in the result metrics.
    replicates : int
        Independent seed-replicates of the scenario to run (default 1).
        Replicate 0 uses the scenario's own resolved seed; further
        replicates use seeds derived from the replicate-independent
        content hash, so growing ``replicates`` extends a sweep without
        changing earlier replicates.  ``replicates > 1`` aggregates
        mean/std/CI metrics into the result (see
        :func:`repro.fleet.runner.execute_rows`) and is part of the
        content hash;
        ``replicates == 1`` is canonicalized away so existing spec
        hashes, caches, and derived seeds are unchanged.
    fleet : dict
        Declarative fleet-topology config (see
        :mod:`repro.fleet.topology`): named worker classes with
        per-class delay sub-models and cost/power rates, plus
        correlated fault groups.  :func:`repro.fleet.topology.
        expand_fleet` rewrites it into concrete ``workers`` /
        ``delay`` / ``faults`` fields (pinning the original resolved
        seed) before execution.  Empty (the default) means no topology
        and is canonicalized away, so existing spec hashes are
        unchanged.
    """

    name: str
    workload: str = "toy_classifier"
    workload_params: Dict[str, object] = field(default_factory=dict)
    optimizer: str = "momentum_sgd"
    optimizer_params: Dict[str, object] = field(default_factory=dict)
    delay: Dict[str, object] = field(
        default_factory=lambda: {"kind": "constant", "delay": 1.0})
    faults: Dict[str, object] = field(default_factory=dict)
    workers: int = 4
    num_shards: int = 1
    shard_policy: str = "hash"
    queue_staleness: int = 0
    delivery: str = "fifo"
    reads: int = 200
    updates: Optional[int] = None
    seed: Optional[int] = None
    record_series: Tuple[str, ...] = ("loss",)
    smooth: int = 25
    replicates: int = 1
    fleet: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        """Validate field ranges and normalize container types."""
        _require(bool(self.name), "scenario name must be non-empty")
        _require(self.replicates >= 1,
                 f"replicates must be >= 1, got {self.replicates}")
        _require(self.workers >= 1,
                 f"workers must be >= 1, got {self.workers}")
        _require(self.num_shards >= 1,
                 f"num_shards must be >= 1, got {self.num_shards}")
        _require(self.reads >= 0, f"reads must be >= 0, got {self.reads}")
        _require(self.updates is None or self.updates >= 0,
                 f"updates must be >= 0, got {self.updates}")
        _require(self.queue_staleness >= 0,
                 f"queue_staleness must be >= 0, got {self.queue_staleness}")
        _require(self.delivery in _DELIVERIES,
                 f"delivery must be one of {_DELIVERIES}, "
                 f"got {self.delivery!r}")
        _require(self.smooth >= 1, f"smooth must be >= 1, got {self.smooth}")
        _require(isinstance(self.delay, dict) and "kind" in self.delay,
                 f'delay config needs a "kind" key, got {self.delay!r}')
        _require(isinstance(self.faults, dict),
                 f"faults config must be a dict, got {self.faults!r}")
        _require(isinstance(self.fleet, dict),
                 f"fleet config must be a dict, got {self.fleet!r}")
        self.record_series = tuple(self.record_series)

    # ------------------------------------------------------------- #
    # serialization + identity
    # ------------------------------------------------------------- #
    def as_dict(self) -> dict:
        """Plain-data mirror of the spec (JSON-able after the codec)."""
        data = asdict(self)
        data["record_series"] = list(self.record_series)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`as_dict` output.

        Unknown keys raise so stale cache entries or hand-edited files
        fail loudly instead of being silently reinterpreted.
        """
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**data)

    def canonical_json(self) -> str:
        """Canonical serialization: codec-encoded, sorted keys, no
        whitespace — equal specs always produce the same bytes.

        The default ``replicates == 1`` is canonicalized away, so
        single-replicate specs hash (and therefore cache, and derive
        seeds) exactly as they did before the field existed; any other
        replicate count is part of the hash and misses the cache
        cleanly.  An empty ``fleet`` config is canonicalized away for
        the same reason.
        """
        # the fields themselves, not asdict's deep copy: encode_state
        # copies every container it returns
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["record_series"] = list(self.record_series)
        if self.replicates == 1:
            del data["replicates"]
        if not self.fleet:
            del data["fleet"]
        payload = {"xp_format": XP_FORMAT_VERSION,
                   "spec": encode_state(data)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def content_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the result-cache key."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    def resolved_seed(self) -> int:
        """The seed the runner actually uses.

        Explicit seeds pass through; ``None`` derives a stable value
        from the content hash, so the same spec always reseeds
        identically while distinct scenarios get distinct streams.
        """
        if self.seed is not None:
            return int(self.seed)
        return int(self.content_hash()[:12], 16) % (2 ** 31)

    def replicate_seeds(self) -> List[int]:
        """Deterministic per-replicate seeds, one per replicate.

        Replicate 0 is the scenario's own :meth:`resolved_seed`;
        replicate ``r >= 1`` derives its seed by hashing the
        replicate-independent content hash (the spec with
        ``replicates`` canonicalized to 1) together with ``r``.  The
        derivation ignores the replicate *count*, so raising
        ``replicates`` from 8 to 16 keeps the first 8 trajectories
        bit-identical.
        """
        base = (self if self.replicates == 1
                else self.with_overrides({"replicates": 1}))
        scalar_hash = base.content_hash()
        seeds = [base.resolved_seed()]
        for r in range(1, self.replicates):
            digest = hashlib.sha256(
                f"{scalar_hash}/replicate/{r}".encode("utf-8")).hexdigest()
            seeds.append(int(digest[:12], 16) % (2 ** 31))
        return seeds

    def replicate_spec(self, r: int) -> "ScenarioSpec":
        """The single-replicate scenario that replicate ``r`` runs.

        Same spec with ``replicates = 1`` and the derived seed made
        explicit; running it through the scalar path reproduces
        replicate ``r`` of the batched run bit-for-bit (the
        differential-suite contract).
        """
        if not 0 <= r < self.replicates:
            raise ValueError(
                f"replicate index {r} outside [0, {self.replicates})")
        return self.with_overrides(
            {"replicates": 1, "seed": self.replicate_seeds()[r]})

    def validate_components(self) -> "ScenarioSpec":
        """Pre-flight the spec against the typed component registry.

        Checks that every named component exists — optimizer,
        workload (registry key or ``module:attr`` reference), delay
        kind, scheduled fault kinds, shard policy — and that the
        parameter dicts match the declared config schemas
        (:mod:`repro.registry`), so a typo'd spec fails with the
        component's parameter list instead of a mid-run ``TypeError``
        in a worker process.  Structural field checks happen at
        construction; this adds the registry-dependent half and is
        what :func:`repro.run.run` calls before executing.

        Returns
        -------
        ScenarioSpec
            ``self`` (for chaining).

        Raises
        ------
        ValueError
            Naming the offending component and its declared keys.
        """
        from repro.registry import registry
        from repro.xp.factories import (delay_kinds, fault_kinds,
                                        optimizer_names)
        from repro.xp.workloads import workload_names

        if not registry.has("optimizer", self.optimizer):
            raise ValueError(
                f"scenario {self.name!r}: unknown optimizer "
                f"{self.optimizer!r}; choose from {optimizer_names()}")
        registry.validate("optimizer", self.optimizer,
                          self.optimizer_params)
        if ":" not in self.workload:
            if not registry.has("workload", self.workload):
                raise ValueError(
                    f"scenario {self.name!r}: unknown workload "
                    f"{self.workload!r}; choose from {workload_names()} "
                    "or use a 'module:attr' reference")
            registry.validate("workload", self.workload,
                              self.workload_params)
        kind = self.delay.get("kind")
        if not registry.has("delay", kind):
            raise ValueError(
                f"scenario {self.name!r}: unknown delay kind {kind!r}; "
                f"choose from {delay_kinds()}")
        registry.validate("delay", kind,
                          {k: v for k, v in self.delay.items()
                           if k != "kind"})
        if self.faults:
            params = dict(self.faults)
            for entry in params.pop("scheduled", []):
                fk = entry.get("kind") if isinstance(entry, dict) else None
                if fk == "injector" or not registry.has("fault", fk):
                    raise ValueError(
                        f"scenario {self.name!r}: unknown scheduled "
                        f"fault kind {fk!r}; choose from {fault_kinds()}")
                registry.validate("fault", fk,
                                  {k: v for k, v in entry.items()
                                   if k != "kind"})
            registry.validate("fault", "injector", params)
        if isinstance(self.shard_policy, str) \
                and not registry.has("sharding", self.shard_policy):
            raise ValueError(
                f"scenario {self.name!r}: unknown shard policy "
                f"{self.shard_policy!r}; choose from "
                f"{registry.names('sharding')}")
        if self.fleet:
            from repro.fleet.topology import build_topology

            try:
                build_topology(self.fleet)
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(
                    f"scenario {self.name!r}: invalid fleet topology: "
                    f"{exc}") from None
        return self

    def with_overrides(self, overrides: Dict[str, object],
                       name: Optional[str] = None) -> "ScenarioSpec":
        """A copy with dotted-path field overrides applied.

        Parameters
        ----------
        overrides : dict
            ``{"field": value}`` or ``{"outer.inner": value}`` entries;
            dotted paths descend into dict-valued fields
            (``"optimizer_params.gamma"``).
        name : str, optional
            Name of the derived spec (keeps the current one if omitted).

        Returns
        -------
        ScenarioSpec
        """
        data = decode_state(encode_state(self.as_dict()))  # deep copy
        for path, value in overrides.items():
            _set_path(data, path, value)
        if name is not None:
            data["name"] = name
        return ScenarioSpec.from_dict(data)


def _set_path(tree: dict, path: str, value: object) -> None:
    parts = path.split(".")
    if parts[0] not in ScenarioSpec.__dataclass_fields__:
        raise ValueError(
            f"override path {path!r} does not start with a "
            "ScenarioSpec field")
    node = tree
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


@dataclass
class Matrix:
    """A base spec plus named override axes; expansion = cross product.

    Attributes
    ----------
    base : ScenarioSpec
        The configuration every scenario starts from.
    axes : dict
        ``{axis_name: {label: {field_path: value, ...}, ...}, ...}``.
        Axes expand in insertion order; within an axis, labels expand in
        insertion order; each expanded scenario applies one override
        set per axis and is named ``base.name/label1/label2/...``.
    """

    base: ScenarioSpec
    axes: Dict[str, Dict[str, Dict[str, object]]] = field(
        default_factory=dict)

    def __post_init__(self):
        """Validate axis shapes (every axis needs at least one label)."""
        for axis, labels in self.axes.items():
            _require(isinstance(labels, dict) and len(labels) > 0,
                     f"axis {axis!r} needs at least one labelled override")
            for label, overrides in labels.items():
                _require(isinstance(overrides, dict),
                         f"axis {axis!r} label {label!r}: overrides must "
                         f"be a dict, got {overrides!r}")

    def _combos(self) -> List[Tuple[Tuple[str, Dict[str, object]], ...]]:
        """One (label, overrides) pair per axis, cross-producted in
        axis order — the single enumeration :meth:`expand` and
        :meth:`labels` both consume, so their orders cannot drift."""
        combos: List[Tuple[Tuple[str, Dict[str, object]], ...]] = [()]
        for labels in self.axes.values():
            combos = [prefix + ((label, overrides),)
                      for prefix in combos
                      for label, overrides in labels.items()]
        return combos

    def expand(self) -> List[ScenarioSpec]:
        """Concrete specs for the full cross product, in axis order."""
        specs = []
        for combo in self._combos():
            merged: Dict[str, object] = {}
            for _, overrides in combo:
                merged.update(overrides)
            suffix = "/".join(label for label, _ in combo)
            name = f"{self.base.name}/{suffix}" if suffix else self.base.name
            specs.append(self.base.with_overrides(merged, name=name))
        return specs

    def labels(self) -> List[Tuple[str, ...]]:
        """Label tuples in the same order :meth:`expand` emits specs."""
        return [tuple(label for label, _ in combo)
                for combo in self._combos()]

    def as_dict(self) -> dict:
        """Plain-data mirror (``{"base": ..., "axes": ...}``)."""
        return {"base": self.base.as_dict(), "axes": self.axes}

    @classmethod
    def from_dict(cls, data: dict) -> "Matrix":
        """Rebuild a matrix from :meth:`as_dict` output."""
        return cls(base=ScenarioSpec.from_dict(data["base"]),
                   axes={str(axis): {str(label): dict(overrides)
                                     for label, overrides in labels.items()}
                         for axis, labels in data.get("axes", {}).items()})


# ----------------------------------------------------------------- #
# file round trip
# ----------------------------------------------------------------- #
def save_scenarios(obj: Union[Matrix, Sequence[ScenarioSpec]],
                   path: PathLike) -> None:
    """Write a matrix or a list of specs as a JSON scenario file.

    The file carries either ``{"base": ..., "axes": ...}`` (a matrix)
    or ``{"scenarios": [...]}`` (an explicit list), wrapped through the
    tagged codec so the round trip is lossless.
    """
    if isinstance(obj, Matrix):
        payload = obj.as_dict()
    else:
        payload = {"scenarios": [spec.as_dict() for spec in obj]}
    payload["xp_format"] = XP_FORMAT_VERSION
    # no sort_keys: axis/label insertion order is meaningful (it fixes
    # the expansion order), and JSON objects preserve it on reload
    Path(path).write_text(
        json.dumps(encode_state(payload), indent=2, allow_nan=False)
        + "\n")


def load_scenarios(path: PathLike) -> List[ScenarioSpec]:
    """Read a scenario file back as a concrete spec list.

    Matrix files are expanded; explicit lists pass through.  A recorded
    ``xp_format`` newer than this library's raises, so format drift is
    an error instead of a misread.
    """
    payload = decode_state(json.loads(Path(path).read_text()))
    recorded = payload.pop("xp_format", XP_FORMAT_VERSION)
    if recorded > XP_FORMAT_VERSION:
        raise ValueError(
            f"scenario file {path} has xp_format {recorded}, this "
            f"library supports <= {XP_FORMAT_VERSION}")
    if "scenarios" in payload:
        return [ScenarioSpec.from_dict(d) for d in payload["scenarios"]]
    if "base" in payload:
        return Matrix.from_dict(payload).expand()
    raise ValueError(
        f'scenario file {path} has neither "scenarios" nor "base"')
