"""`repro.run.run` — one entry point over every execution backend.

The public face of the unified execution API::

    from repro.run import run

    outcome = run(spec)                         # auto-selected backend
    outcome = run(matrix, backend="parallel",   # pinned backend
                  jobs=8, cache=ResultCache())
    outcome.result.metrics["final_loss"]

``run`` accepts a single :class:`~repro.xp.spec.ScenarioSpec`, a
:class:`~repro.xp.spec.Matrix`, a sequence of specs, or a path to a
scenario JSON file.  The API layer owns everything that used to be
scattered across entry points: component validation against the typed
registry, the worker-process budget, duplicate-spec collapsing, the
content-addressed result cache, and backend auto-selection.  Backends
receive only deduplicated, uncached, validated specs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import MetricsRegistry, ObsSession, Profiler, Tracer
from repro.obs.session import active as _obs_active
from repro.registry import registry
from repro.xp.cache import ResultCache
from repro.xp.runner import ScenarioResult, resolve_jobs
from repro.xp.spec import Matrix, ScenarioSpec, load_scenarios

from repro.run.result import RunOptions, RunResult, _Stopwatch

Runnable = Union[ScenarioSpec, Matrix, Sequence[ScenarioSpec], str, Path]


# worker count from which worker-axis batching pays for its setup;
# below it the existing selection order (parallel/serial) wins
_FLEET_AUTO_WORKERS = 64


def _normalize(scenarios: Runnable) -> List[ScenarioSpec]:
    """Expand any accepted input form into a concrete spec list.

    Fleet-topology specs expand here (:func:`repro.fleet.topology.
    expand_fleet`), before hashing, so the cache key, the record's
    ``spec_hash``, and the resolved seed are those of the expanded
    spec no matter which backend runs it.
    """
    if isinstance(scenarios, ScenarioSpec):
        specs = [scenarios]
    elif isinstance(scenarios, Matrix):
        specs = scenarios.expand()
    elif isinstance(scenarios, (str, Path)):
        specs = load_scenarios(scenarios)
    else:
        specs = list(scenarios)
        bad = [s for s in specs if not isinstance(s, ScenarioSpec)]
        if bad:
            raise TypeError(
                f"expected ScenarioSpec items, got "
                f"{type(bad[0]).__name__}")
    if any(s.fleet for s in specs):
        from repro.fleet.topology import expand_fleet

        specs = [expand_fleet(s) for s in specs]
    return specs


def select_backend(specs: Sequence[ScenarioSpec],
                   jobs: Optional[int] = None) -> Tuple[str, str]:
    """Pick the execution backend for a batch of specs.

    A policy over the built-in backend names (most specific
    opportunity first):

    1. ``fleet`` when every spec is fleet-eligible
       (:func:`repro.fleet.engine.supports_fleet`) and at least one
       carries ``replicates > 1`` or is fleet-scale (``workers >= 64``
       or a fleet topology) — replicate and worker-axis batching are
       the biggest single wins the system has.
    2. ``parallel`` when there are several scenarios and more than one
       worker process is available — scenario fan-out.
    3. ``serial`` otherwise — the in-process reference, which runs
       every spec (stochastic delays, fault plans, staleness gates
       included) through the general event-driven engine.

    ``mp`` is never chosen: real processes are opt-in by name.

    Parameters
    ----------
    specs : sequence of ScenarioSpec
        The batch about to run.
    jobs : int, optional
        Worker-process budget (see :func:`repro.xp.runner.resolve_jobs`).

    Returns
    -------
    (name, reason) : tuple of str
        The backend's registry key and a human-readable rationale.
    """
    if not specs:
        return "serial", "empty batch"
    from repro.fleet.engine import supports_fleet

    replicated = any(s.replicates > 1 for s in specs)
    at_scale = any(s.workers >= _FLEET_AUTO_WORKERS or s.fleet
                   for s in specs)
    if (replicated or at_scale) and all(supports_fleet(s) for s in specs):
        if replicated:
            return "fleet", ("fleet-eligible specs with replicates > 1 "
                             "batch on the replicate axis")
        return "fleet", ("fleet-eligible specs at fleet scale "
                         "batch on the worker axis")
    if len(specs) > 1 and resolve_jobs(jobs) > 1:
        return "parallel", (f"{len(specs)} scenarios fan out across "
                            "worker processes")
    return "serial", "in-process reference path"


def _resolve_obs(obs) -> Optional[ObsSession]:
    """Map the ``run(..., obs=...)`` argument to a session or ``None``.

    Accepted forms: ``None`` / ``False`` / ``"disabled"`` (no
    observability — the default), ``True`` / ``"enabled"`` (a new
    session with a tracer, metrics and a profiler), or an explicit
    :class:`ObsSession` (use its components, e.g. a metrics-only
    session with subscribers already attached).
    """
    if obs is None or obs is False or obs == "disabled":
        return None
    if obs is True or obs == "enabled":
        return ObsSession(tracer=Tracer(), metrics=MetricsRegistry(),
                          profiler=Profiler())
    if isinstance(obs, ObsSession):
        return obs
    raise TypeError(
        f"obs must be None/False/'disabled', True/'enabled', or an "
        f"ObsSession, got {type(obs).__name__}")


def run(scenarios: Runnable, backend: str = "auto", *,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        validate: bool = True, obs=None,
        on_iteration=None) -> RunResult:
    """Execute scenarios through one unified entry point.

    Parameters
    ----------
    scenarios : ScenarioSpec or Matrix or sequence or path
        What to run: a single spec, a matrix (expanded in axis order),
        an explicit spec list, or a scenario JSON file path.
    backend : str
        ``"auto"`` (:func:`select_backend`, the default) or a
        registered backend name — ``"serial"``, ``"parallel"``,
        ``"fleet"``, ``"mp"`` (where the platform supports it), or
        anything added via :func:`repro.run.register_backend`.
    jobs : int, optional
        Worker-process budget for fan-out backends (``None`` defers to
        ``$REPRO_XP_JOBS`` / CPU count; 0 or 1 runs in-process).
        Resolved once, before any backend is selected or run; a
        negative budget from either source raises ``ValueError``.
    cache : ResultCache, optional
        Content-addressed result store consulted before execution and
        updated after; ``None`` (default) recomputes everything.
    validate : bool
        Pre-flight every distinct spec's component names and
        parameters against the typed registry (clear errors instead
        of mid-run failures in a worker process).  Disable only for
        specs referencing components registered after fork.
    obs : bool or str or ObsSession, optional
        Observe the call: ``True`` / ``"enabled"`` installs a fresh
        full :class:`~repro.obs.session.ObsSession` for the
        duration of the run, an explicit session installs that one,
        and the default (``None`` / ``False`` / ``"disabled"``) runs
        unobserved.  The session's report is attached as
        :attr:`RunResult.obs`.  Observability never changes records:
        identities are bit-identical with ``obs`` on or off (the
        differential suite enforces this per backend).  The
        ``parallel`` backend's worker processes run uninstrumented —
        only coordinator-side orchestration is recorded there.
    on_iteration : callable, optional
        ``on_iteration(step, payload)`` invoked once per committed
        optimizer iteration, straight off the
        :meth:`~repro.obs.metrics.MetricsRegistry.emit` subscriber
        seam — the same streaming contract a
        :class:`repro.serve.Client` consumes remotely, so local and
        served runs share one iteration feed.  The payload carries
        ``step``, ``staleness``, ``worker``, ``sim_time``,
        ``queue_depth``, and ``updates``.  Works with or without
        ``obs=``: when no session was requested, a private
        metrics-only session carries the subscription and no report
        is attached.  Payloads come from the in-process scalar engine
        (``serial``, and the ``fleet`` fallback) and from single-row
        runs of the batched engine; ``parallel`` and ``mp``
        workers and replicated batched runs emit none.  The callback
        must only read — mutating run state would void the
        deterministic records contract.

    Returns
    -------
    RunResult
        Per-scenario records in input order plus backend identity,
        selection rationale, and cache statistics.

    Notes
    -----
    Records are **backend-independent**: the same spec yields the same
    deterministic identity (name, spec hash, metrics, series) on every
    backend — the cross-backend equivalence suite enforces it.
    Duplicate specs (same content hash) are computed once and share
    the record.
    """
    jobs = resolve_jobs(jobs)
    session = _resolve_obs(obs)
    report = session is not None
    if on_iteration is not None:
        if not callable(on_iteration):
            raise TypeError(
                f"on_iteration must be callable(step, payload), got "
                f"{type(on_iteration).__name__}")
        if session is None:
            from repro.obs.metrics import MetricsRegistry

            session = ObsSession(metrics=MetricsRegistry())
        elif session.metrics is None:
            from repro.obs.metrics import MetricsRegistry

            session.metrics = MetricsRegistry()
        session.metrics.subscribe(on_iteration)
    if session is None:
        return _run_specs(scenarios, backend, jobs=jobs, cache=cache,
                          validate=validate)
    try:
        with session:
            outcome = _run_specs(scenarios, backend, jobs=jobs,
                                 cache=cache, validate=validate)
    finally:
        if on_iteration is not None:
            session.metrics.unsubscribe(on_iteration)
    if report:
        outcome.obs = session.report()
    return outcome


def _run_specs(scenarios: Runnable, backend: str, *,
               jobs: Optional[int], cache: Optional[ResultCache],
               validate: bool) -> RunResult:
    """The orchestration core of :func:`run` (observed ambiently)."""
    watch = _Stopwatch()
    specs = _normalize(scenarios)
    # hash once per spec: hashing re-serializes the whole spec (trace
    # payloads included), so it must not be O(duplicates)
    keys = [spec.content_hash() for spec in specs]

    first_idx: Dict[str, int] = {}
    results: List[Optional[ScenarioResult]] = [None] * len(specs)
    hits = 0
    todo: List[int] = []
    for idx, (spec, key) in enumerate(zip(specs, keys)):
        if key in first_idx:
            continue
        first_idx[key] = idx
        if cache is not None:
            cached = cache.get(spec, key=key)
            if cached is not None:
                results[idx] = cached
                hits += 1
                continue
        todo.append(idx)

    if validate:
        for idx in todo:
            specs[idx].validate_components()

    if backend == "auto":
        name, reason = select_backend([specs[i] for i in todo] or specs,
                                      jobs=jobs)
    else:
        name, reason = backend, "explicitly requested"
    impl = registry.build("backend", name)
    if not hasattr(impl, "execute"):
        raise ValueError(
            f"backend {name!r} does not implement ExecutionBackend")

    session = _obs_active()
    if session is not None and session.metrics is not None:
        session.metrics.counter("run.cache_hits").inc(hits)
        session.metrics.counter("run.cache_misses").inc(len(todo))

    if todo:
        if session is not None and session.tracer is not None:
            with session.tracer.span("execute", "run.api", backend=name,
                                     specs=len(todo)):
                fresh = impl.execute([specs[i] for i in todo],
                                     RunOptions(jobs=jobs))
        else:
            fresh = impl.execute([specs[i] for i in todo],
                                 RunOptions(jobs=jobs))
        if len(fresh) != len(todo):
            raise RuntimeError(
                f"backend {name!r} returned {len(fresh)} records for "
                f"{len(todo)} specs")
        for idx, record in zip(todo, fresh):
            results[idx] = record
            if cache is not None:
                cache.put(specs[idx], record, key=keys[idx])

    for idx, key in enumerate(keys):
        if results[idx] is None:      # duplicate of an earlier spec
            results[idx] = results[first_idx[key]]
    assert all(r is not None for r in results)
    return RunResult(backend=name, reason=reason,
                     results=results,  # type: ignore[arg-type]
                     hits=hits, misses=len(todo),
                     wall_s=watch.elapsed())
