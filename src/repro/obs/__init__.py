"""Unified tracing, metrics, and profiling across the execution backends.

``repro.obs`` is the observability layer of the stack: one
explicitly-scoped session (:class:`ObsSession`, usually entered via
:func:`observe` or ``run(..., obs=True)``) bundles up to three
components —

- :class:`Tracer` — nested spans and instant events with wall-time
  and (via ``args``) deterministic sim-time, recorded from the run
  API, the cluster event loop, the vec engine, and the mp runtime;
  exportable as JSONL and Chrome ``trace_event`` JSON for Perfetto;
- :class:`MetricsRegistry` — counters/gauges/histograms (cache
  hits, queue depth, staleness, respawns) plus the per-iteration
  subscriber hook that future streaming consumers attach to;
- :class:`Profiler` — accumulating timing for hot paths (fused
  optimizer kernels, mp transport and codec), summarised by the
  ``python -m repro trace`` CLI.

A session is a plain container: construct the components you want
and pass them to :class:`ObsSession` (or let :func:`observe` build all
three).

Two contracts every instrumentation site honours:

- **zero perturbation** — recording only reads run state and never
  touches any RNG, so records are bit-identical with observability on
  or off (``tests/test_obs_differential.py`` proves this for the
  serial, parallel, vec and real-process mp backends);
- **near-zero disabled cost** — sites are gated on a single
  :func:`active` check, measured by the committed
  ``BENCH_obs_overhead.json`` at <2% of the fig01 headline step.

See ``docs/observability.md`` for the tour.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.session import (ObsSession, StepTimer, active, enabled,
                               observe)
from repro.obs.tracer import Tracer, validate_chrome_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "Profiler",
    "StepTimer",
    "Tracer",
    "active",
    "enabled",
    "observe",
    "validate_chrome_trace",
]
