"""Batched execution: one engine run, or the serial fallback.

:func:`run_engine` is the one place the batched
:class:`~repro.fleet.engine.FleetEngine` runs and the one place it falls
back: a spec outside the eligible class
(:func:`~repro.fleet.engine.supports_fleet`) or a run in which any row
diverges returns ``None``, and the caller re-runs serially.  Each
fallback is counted by reason (``fleet.fallbacks.unsupported``,
``fleet.fallbacks.diverged``) and marked by a ``fallback:<reason>``
tracer instant.  Two entry points sit on top of it, each keeping its
own ``env`` label of the executed strategy — ``env`` never
participates in record identity, so the fallback is transparent:

- :func:`execute_fleet` — the ``fleet`` backend and replicated specs on
  ``serial`` (``env["fleet_engine"]``), one engine row per replicate
  through :func:`execute_rows`;
- :func:`repro.serve.batching.execute_group` — serve batch families
  (``env["serve_unit"]``).

Every record is bit-identical to running each replicate through the
scalar reference path (:func:`repro.run.backends.execute_scalar`);
``execute_rows(spec, batched=False)`` is that per-replicate reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.report import environment_info, replicate_statistics
from repro.obs.session import StepTimer, active as _obs_active
from repro.fleet.engine import FleetDiverged, FleetEngine, supports_fleet
from repro.fleet.topology import expand_fleet, fleet_accounting
from repro.xp.spec import ScenarioSpec


def run_engine(spec: ScenarioSpec,
               seeds: Sequence[int]) -> Optional[FleetEngine]:
    """Run ``spec`` on the batched engine, one row per seed.

    Parameters
    ----------
    spec : ScenarioSpec
        The scenario every row runs (rows differ only in seed).
    seeds : sequence of int
        One seed per row.

    Returns
    -------
    FleetEngine or None
        The finished engine, or ``None`` when the caller must run the
        rows serially: the spec is not fleet-eligible, or a row
        diverged (the serial run stops each row at its own diverged
        read).
    """
    session = _obs_active()
    if supports_fleet(spec):
        engine = FleetEngine(spec, seeds)
        try:
            if session is not None and session.tracer is not None:
                with session.tracer.span(
                        f"engine:{spec.name}", "fleet.engine",
                        rows=len(engine.seeds), workers=spec.workers):
                    engine.run()
            else:
                engine.run()
            return engine
        except FleetDiverged:
            reason = "diverged"
    else:
        reason = "unsupported"
    if session is not None:
        if session.tracer is not None:
            session.tracer.instant(f"fallback:{reason}", "fleet.engine",
                                   spec=spec.name)
        if session.metrics is not None:
            session.metrics.counter(f"fleet.fallbacks.{reason}").inc()
    return None


def execute_rows(spec: ScenarioSpec, batched: bool = True):
    """Run every replicate of a spec and assemble one record.

    Parameters
    ----------
    spec : ScenarioSpec
        The scenario; any ``replicates >= 1``.
    batched : bool
        Try the engine (one row per replicate seed) before falling back
        to one scalar run per replicate; ``False`` runs serially — the
        per-replicate reference the differential suites compare
        against.

    Returns
    -------
    ScenarioResult
        For ``replicates > 1`` the record carries aggregated
        mean/std/CI metrics (``replicate_statistics``),
        replicate 0's series, and the per-replicate metric dicts; a
        single replicate keeps the scalar record shape (plain metrics,
        no ``replicate_metrics``), interchangeable bit-for-bit with
        the scalar path.  ``env`` records the executed strategy under
        ``"fleet_engine"`` (``"fleet"`` or ``"serial"``) and the run's
        final simulated clock under ``"sim_time"``.
    """
    from repro.xp.runner import ScenarioResult, summarize_log

    seeds = spec.replicate_seeds()
    engine = run_engine(spec, seeds) if batched else None
    if engine is not None:
        rows = [summarize_log(spec, log, engine.reads_done,
                              engine.steps_applied, diverged=False)
                for log in engine.logs]
        sim_time = float(engine.clock)
    else:
        from repro.run.backends import execute_scalar

        results = [execute_scalar(spec.replicate_spec(r))
                   for r in range(spec.replicates)]
        rows = [(result.metrics, result.series) for result in results]
        sim_time = results[0].env["sim_time"]
    env = environment_info()
    # replicate 0's seed, which is what actually ran (resolved_seed()
    # would hash the spec WITH its replicate count and match no run)
    env["seed"] = seeds[0]
    env["sim_time"] = sim_time
    env["fleet_engine"] = "fleet" if engine is not None else "serial"
    metrics, series = rows[0]
    if spec.replicates == 1:
        return ScenarioResult(
            name=spec.name, spec_hash=spec.content_hash(),
            metrics=metrics, series=series, env=env)
    per_metrics = [m for m, _ in rows]
    return ScenarioResult(
        name=spec.name, spec_hash=spec.content_hash(),
        metrics=replicate_statistics(per_metrics), series=series,
        replicate_metrics=per_metrics, env=env)


def execute_fleet(spec: ScenarioSpec):
    """Run one scenario through the batched engine (or its fallback).

    The engine runs when the spec is fleet-eligible; an ineligible
    spec, or a run in which a row diverges, runs serially instead.

    Parameters
    ----------
    spec : ScenarioSpec
        The scenario; fleet-topology specs are expanded here.

    Returns
    -------
    ScenarioResult
        Record bit-identical to :func:`execute_rows` with
        ``batched=False`` on the expanded spec.  ``env`` records the
        executed strategy under ``"fleet_engine"`` and — for
        fleet-topology specs — the run's cost/energy accounting under
        ``"fleet_accounting"``, priced from the final simulated clock
        on either path.
    """
    spec = expand_fleet(spec)
    timer = StepTimer(f"fleet:{spec.name}", cat="fleet.runner").start()
    result = execute_rows(spec)
    result.wall_s = timer.stop(strategy=result.env["fleet_engine"])
    if spec.fleet:
        result.env["fleet_accounting"] = fleet_accounting(
            spec.fleet, result.env["sim_time"])
    return result
