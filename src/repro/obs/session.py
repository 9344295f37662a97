"""Explicitly-scoped observability sessions and the shared step timer.

The central design constraint of ``repro.obs`` is that instrumentation
must cost (almost) nothing when nobody is looking.  Every
instrumentation site in the run API, cluster event loop, vec engine,
and mp runtime performs exactly one cheap check — :func:`active`
returning the module-level session or ``None`` — and only does
recording work when a session is installed.  The committed
``BENCH_obs_overhead.json`` record gates that disabled cost at <2% of
the fig01 headline optimizer step.

Sessions are *explicitly scoped*: :class:`ObsSession` is a context
manager that installs itself as the process-wide active session on
entry and restores the previous one on exit, so observability never
leaks past the ``with`` block (or the ``run(..., obs=...)`` call) that
requested it.  Nested sessions shadow outer ones; the innermost wins.

:class:`StepTimer` is the one wall-clock timer every backend uses for
its headline ``wall_s`` measurement — it replaces the four
copy-pasted ``time.perf_counter()`` blocks that previously lived in
``run/backends.py``, the replicate runner, ``mp/backend.py``, and
``mp/freerun.py``, and doubles as a tracer span + profiler sample when
a session is active.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer

_ACTIVE: Optional["ObsSession"] = None


def active() -> Optional["ObsSession"]:
    """The currently installed :class:`ObsSession`, or ``None``.

    This is the single guard every instrumentation site calls; its
    cost when no session is installed (one global read and a ``None``
    check) is what the disabled-overhead benchmark measures.
    """
    return _ACTIVE


def enabled() -> bool:
    """Whether an observability session is currently installed."""
    return _ACTIVE is not None


class ObsSession:
    """A scoped bundle of tracer, metrics registry, and profiler.

    Any component may be ``None``, in which case instrumentation
    sites skip that kind of recording — e.g. a metrics-only session
    collects counters without paying for span records.

    Parameters
    ----------
    tracer : Tracer, optional
        Span/instant recorder.
    metrics : MetricsRegistry, optional
        Counter/gauge/histogram store with the subscriber hook.
    profiler : Profiler, optional
        Hot-path timing accumulator.

    Examples
    --------
    >>> from repro.obs import ObsSession, Tracer
    >>> with ObsSession(tracer=Tracer()) as session:
    ...     pass  # instrumented code records into session.tracer
    >>> session.tracer.to_chrome_trace("trace.json")  # doctest: +SKIP
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profiler: Optional[Profiler] = None):
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self._previous: Optional["ObsSession"] = None

    def __enter__(self) -> "ObsSession":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None

    def report(self) -> dict:
        """Plain-dict summary of everything the session recorded.

        This is the payload :func:`repro.run.api.run` attaches to
        ``RunResult.obs``.  Keys are present only for components the
        session carries: ``"tracer"`` (event totals + per-category
        counts), ``"metrics"`` (the registry snapshot), and
        ``"profiler"`` (aggregate timings).
        """
        out: dict = {}
        if self.tracer is not None:
            out["tracer"] = self.tracer.summary()
        if self.metrics is not None:
            out["metrics"] = self.metrics.snapshot()
        if self.profiler is not None:
            out["profiler"] = self.profiler.summary()
        return out

    def __repr__(self) -> str:
        parts = [name for name, comp in (("tracer", self.tracer),
                                         ("metrics", self.metrics),
                                         ("profiler", self.profiler))
                 if comp is not None]
        return f"ObsSession({', '.join(parts) or 'empty'})"


@contextmanager
def observe(trace: bool = True, metrics: bool = True, profile: bool = True):
    """Install a new :class:`ObsSession` for the block.

    The one-line way to observe any instrumented code path::

        with observe() as session:
            outcome = run(specs, backend="serial")
        print(session.profiler.render_top())

    Parameters
    ----------
    trace, metrics, profile : bool
        Which components the session carries: a :class:`Tracer`, a
        :class:`MetricsRegistry` and a :class:`Profiler`; disabled ones
        stay ``None``.

    Yields
    ------
    ObsSession
        The installed session; it is uninstalled (and the previous
        session restored) when the block exits.
    """
    session = ObsSession(tracer=Tracer() if trace else None,
                         metrics=MetricsRegistry() if metrics else None,
                         profiler=Profiler() if profile else None)
    with session:
        yield session


class StepTimer:
    """The shared wall-clock timer for backend step/run measurement.

    Measures elapsed wall time with ``time.perf_counter`` exactly as
    the four per-backend copies it replaces did, and — only when an
    observability session is active at :meth:`stop` time — records the
    same interval as a tracer span and a profiler sample, so timing
    and tracing always agree on the measured window.

    Use as a context manager for straight-line regions, or via
    explicit :meth:`start`/:meth:`stop` with the live :attr:`elapsed`
    property for deadline loops (``mp.freerun`` polls ``elapsed``
    against its timeout).

    Parameters
    ----------
    name : str
        Measured-region label, e.g. ``"scenario:fig01"``.
    cat : str
        Subsystem category for the tracer span (``"run.backend"``,
        ``"mp.backend"``, ...).
    """

    def __init__(self, name: str, cat: str = "run"):
        self.name = name
        self.cat = cat
        self._start: Optional[float] = None
        self._stop: Optional[float] = None

    def start(self) -> "StepTimer":
        """Begin (or restart) timing; returns ``self`` for chaining."""
        self._start = time.perf_counter()
        self._stop = None
        return self

    @property
    def elapsed(self) -> float:
        """Seconds since :meth:`start` — live while running, frozen
        after :meth:`stop`, and 0.0 before the timer ever started."""
        if self._start is None:
            return 0.0
        end = self._stop if self._stop is not None else time.perf_counter()
        return end - self._start

    def stop(self, **args) -> float:
        """Stop the timer and return the elapsed seconds.

        When an observability session is active, also records the
        interval as a ``complete`` tracer span and a profiler sample
        (keyed ``"<cat>:<name>"``).  Extra keyword arguments become
        the span's ``args`` payload.  Idempotent: a second call
        returns the frozen elapsed time without re-recording.
        """
        if self._start is None:
            raise RuntimeError("StepTimer.stop() before start()")
        if self._stop is not None:
            return self.elapsed
        self._stop = time.perf_counter()
        session = active()
        if session is not None:
            if session.tracer is not None:
                session.tracer.complete(self.name, self.cat,
                                        self._start, self._stop, **args)
            if session.profiler is not None:
                session.profiler.add(f"{self.cat}:{self.name}", self.elapsed)
        return self.elapsed

    def __enter__(self) -> "StepTimer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = ("idle" if self._start is None
                 else "running" if self._stop is None else "stopped")
        return f"StepTimer({self.name!r}, cat={self.cat!r}, {state})"
