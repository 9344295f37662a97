"""The multi-tenant tuning daemon: HTTP front end, scheduler, pool.

``python -m repro serve`` runs one :class:`ServeDaemon`: a localhost
HTTP+JSON service accepting :class:`~repro.xp.spec.ScenarioSpec`
submissions from many concurrent clients and answering with records
bit-identical to a local :func:`repro.run.run`.  The daemon composes
the pieces this package and its ancestors already provide:

- every submission is fronted by the content-addressed
  :class:`~repro.xp.cache.ResultCache` (duplicate traffic is a file
  read) and an **in-flight dedup index** (concurrent duplicates attach
  to the one running job) — together, a spec is computed at most once;
- admission control and per-tenant quotas, scheduling (including
  cross-tenant vec-batching via :mod:`repro.serve.batching`), and
  autoscaling are pluggable ``"serve"``-kind registry components;
- execution happens on the pre-forked warm
  :class:`~repro.serve.pool.WorkerPool`, scaled live between
  ``min_workers`` and ``max_workers`` from queue depth;
- per-iteration metrics stream back through the PR 7
  :class:`~repro.obs.metrics.MetricsRegistry` subscriber seam, and the
  daemon's own registry carries the serve gauges (queue depth, active
  tenants, batch occupancy) plus per-tenant cache hit/miss counters.

Protocol (all JSON over HTTP/1.0, responses close-delimited):

====== =============== ==============================================
POST   ``/v1/submit``   ``{tenant, specs: [...]}`` (``encode_state``-
                        coded specs) → ``{tickets}``,
                        plus ``records`` (ticket id → record) for
                        the cache hits (429 + reason on admission
                        rejection)
GET    ``/v1/result``   ``?ticket=&timeout=`` → long-poll for the
                        record (``encode_state``-coded)
GET    ``/v1/events``   ``?ticket=&cursor=&timeout=`` → long-poll
                        replayable event history (the stream feed)
GET    ``/v1/status``   queue/tenant/worker stats + metrics snapshot
POST   ``/v1/shutdown`` clean stop; unfinished jobs fail
====== =============== ==============================================
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import MetricsRegistry
from repro.registry import registry
from repro.utils.serialization import decode_state, encode_state
from repro.xp.cache import ResultCache
from repro.xp.runner import ScenarioResult
from repro.xp.spec import ScenarioSpec

from repro.serve.batching import family_key
from repro.serve.client import AdmissionRejected
from repro.serve.jobs import ServeState, Ticket
from repro.serve.pool import WorkerPool


@dataclass
class ServeConfig:
    """Configuration of one :class:`ServeDaemon`.

    Attributes
    ----------
    host, port : str, int
        Bind address; port 0 picks a free port (read it back from
        :attr:`ServeDaemon.address`).
    cache_dir : str or None
        Result-cache directory fronting all execution; ``None``
        disables caching (every distinct spec computes).
    min_workers, max_workers : int
        Autoscaling bounds of the warm worker pool (all
        ``max_workers`` processes are pre-forked at startup).
    pool_mode : str
        ``"auto"`` / ``"fork"`` / ``"thread"`` (see
        :class:`~repro.serve.pool.WorkerPool`).
    scheduler, admission, autoscaler : str
        Registry names under the ``"serve"`` kind.
    scheduler_params, admission_params, autoscaler_params : dict
        Keyword configuration for the policy factories (validated
        against their registered schemas).
    tick : float
        Scheduler round period in seconds (reap, dispatch, autoscale,
        gauges); submissions and freed workers wake a dispatch pass in
        between.
    stream_every : int
        Forward every k-th per-iteration payload to streams.
    validate : bool
        Pre-flight submitted specs' component names against the
        registry (HTTP 400 instead of a worker-side failure).
    """

    host: str = "127.0.0.1"
    port: int = 0
    cache_dir: Optional[str] = None
    min_workers: int = 1
    max_workers: int = 4
    pool_mode: str = "auto"
    scheduler: str = "batching"
    admission: str = "quota"
    autoscaler: str = "queue_depth"
    scheduler_params: dict = field(default_factory=dict)
    admission_params: dict = field(default_factory=dict)
    autoscaler_params: dict = field(default_factory=dict)
    tick: float = 0.01
    stream_every: int = 1
    validate: bool = True


class ServeDaemon:
    """The serving loop: admission → queue → schedule → pool → settle.

    Life cycle: construct with a :class:`ServeConfig`, :meth:`start`
    (forks the pool, starts the scheduler/collector threads and the
    HTTP server), serve, :meth:`stop`.  All client-visible operations
    (:meth:`submit`, :meth:`result_payload`, :meth:`events_payload`,
    :meth:`status`) are plain methods, so tests drive the daemon
    in-process without sockets and the HTTP layer stays a thin codec.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        cfg = self.config
        self.state = ServeState()
        self.metrics = MetricsRegistry()
        self.cache = (ResultCache(cfg.cache_dir)
                      if cfg.cache_dir else None)
        self.admission = registry.build("serve", cfg.admission,
                                        **cfg.admission_params)
        self.scheduler = registry.build("serve", cfg.scheduler,
                                        **cfg.scheduler_params)
        self.autoscaler = registry.build("serve", cfg.autoscaler,
                                         **cfg.autoscaler_params)
        self.pool = WorkerPool(min_workers=cfg.min_workers,
                               max_workers=cfg.max_workers,
                               mode=cfg.pool_mode,
                               stream_every=cfg.stream_every)
        self._units: Dict[str, List[str]] = {}   # unit id -> job ids
        self._unit_seq = 0
        self._paused = False
        self._stopped = threading.Event()
        # set when there may be work to dispatch before the next tick
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._http: Optional[_Server] = None

    # ------------------------------------------------------------- #
    # lifecycle
    # ------------------------------------------------------------- #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after start)."""
        if self._http is not None:
            return (self._http.server_address[0],
                    self._http.server_address[1])
        return (self.config.host, self.config.port)

    def start(self) -> "ServeDaemon":
        """Fork the pool, start scheduling, and bind the HTTP server."""
        if self._threads:
            return self
        self._stopped.clear()
        self.pool.start()
        self._http = _Server((self.config.host, self.config.port), self)
        for name, target in (("serve-schedule", self._schedule_loop),
                             ("serve-collect", self._collect_loop),
                             ("serve-http", self._http.serve_until_woken)):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Shut down cleanly: HTTP off, loops joined, pool reaped.

        Unfinished jobs are failed with a shutdown error so every
        blocked client unblocks immediately.  Idempotent.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._wake.set()
        self.pool.interrupt()
        if self._http is not None:
            self._http.wake()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._threads = []
        if self._http is not None:
            self._http.server_close()
        self.pool.stop()
        self.state.abort_all("daemon shut down before completion")

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the CLI entry point's main wait)."""
        try:
            while not self._stopped.wait(0.2):
                pass
        except KeyboardInterrupt:
            self.stop()

    def pause(self) -> None:
        """Suspend dispatch (pending jobs accumulate; used by the
        load harness to form deterministic batch mixes)."""
        self._paused = True

    def resume(self) -> None:
        """Resume dispatch after :meth:`pause`."""
        self._paused = False
        self._wake.set()

    # ------------------------------------------------------------- #
    # submission (admission + cache + dedup, one locked transaction)
    # ------------------------------------------------------------- #
    def submit(self, tenant: str,
               specs: Union[ScenarioSpec, Sequence[ScenarioSpec]]
               ) -> List[Ticket]:
        """Admit and ticket a submission for ``tenant``.

        Each spec is answered from (in order): the result cache (a
        finished ticket, computation-free), the in-flight index (a
        ticket attached to the already-running job), or a fresh pending
        job.  Admission is all-or-nothing over the whole submission.

        Returns
        -------
        list of Ticket
            One per spec, in order.

        Raises
        ------
        AdmissionRejected
            The quota/saturation policy refused the submission.
        ValueError
            Empty submission or invalid component names.
        """
        tenant = str(tenant) or "default"
        if isinstance(specs, ScenarioSpec):
            specs = [specs]
        specs = list(specs)
        if not specs:
            raise ValueError("nothing to submit")
        if self.config.validate:
            for spec in specs:
                spec.validate_components()
        keys = [spec.content_hash() for spec in specs]

        # cache probes are disk reads: do them outside the state lock
        cached: Dict[str, ScenarioResult] = {}
        if self.cache is not None:
            for spec, key in zip(specs, keys):
                if key not in cached:
                    hit = self.cache.get(spec, key=key)
                    if hit is not None:
                        cached[key] = hit

        with self.state.lock:
            stats = self.state.tenant(tenant)
            new_jobs, new_tickets = 0, 0
            will_create = set()
            for key in keys:
                if key in cached:
                    continue
                new_tickets += 1
                if key in self.state.inflight or key in will_create:
                    continue
                will_create.add(key)
                new_jobs += 1
            decision = self.admission.admit(
                tenant_active=stats.active,
                queue_depth=len(self.state.pending),
                new_jobs=new_jobs, new_tickets=new_tickets)
            if not decision:
                stats.rejected += len(specs)
                self.metrics.counter("serve.rejected").inc(len(specs))
                self.metrics.counter(
                    f"serve.rejected.{tenant}").inc(len(specs))
                raise AdmissionRejected(decision.reason)

            tickets = []
            for spec, key in zip(specs, keys):
                if key in cached:
                    job = self.state.new_finished_job(
                        spec, key, cached[key].as_dict())
                    ticket = self.state.new_ticket(tenant, spec, key,
                                                   job, cached=True)
                    stats.cache_hits += 1
                    self.metrics.counter("serve.cache_hits").inc()
                    self.metrics.counter(
                        f"serve.cache_hits.{tenant}").inc()
                else:
                    running = self.state.inflight.get(key)
                    if running is not None:
                        job = self.state.jobs[running]
                        ticket = self.state.new_ticket(
                            tenant, spec, key, job, deduplicated=True)
                        self.metrics.counter("serve.deduplicated").inc()
                    else:
                        job = self.state.new_job(spec, key,
                                                 family_key(spec))
                        ticket = self.state.new_ticket(tenant, spec,
                                                       key, job)
                    stats.cache_misses += 1
                    self.metrics.counter("serve.cache_misses").inc()
                    self.metrics.counter(
                        f"serve.cache_misses.{tenant}").inc()
                tickets.append(ticket)
            self.metrics.gauge("serve.queue_depth").set(
                len(self.state.pending))
        if new_jobs:
            self._wake.set()
        return tickets

    # ------------------------------------------------------------- #
    # scheduler loop
    # ------------------------------------------------------------- #
    def _schedule_loop(self) -> None:
        """Run :meth:`_tick` every ``tick`` seconds, and a dispatch pass
        whenever a submission, a freed worker, :meth:`resume` or
        :meth:`stop` wakes the loop in between.  Reaping, autoscaling
        and the gauges keep the tick period, so the autoscaler's
        ``idle_ticks`` still counts ticks of time."""
        due = time.monotonic()
        while not self._stopped.is_set():
            self._wake.clear()  # before the pass: a later set is kept
            full = time.monotonic() >= due
            try:
                if full:
                    self._tick()
                else:
                    self._dispatch()
            except Exception:
                self.metrics.counter("serve.tick_errors").inc()
            if full:
                due = time.monotonic() + self.config.tick
            self._wake.wait(max(0.0, due - time.monotonic()))

    def _tick(self) -> None:
        """One scheduling round: reap, dispatch, autoscale, gauge."""
        orphans = self.pool.orphaned_units()
        respawned = self.pool.ensure_alive()
        if respawned:
            self.metrics.counter("serve.worker_respawns").inc(respawned)
        if orphans:
            with self.state.lock:
                for unit in orphans:
                    for job_id in self._units.pop(unit, []):
                        self.state.finish(
                            job_id, error="worker died mid-unit")

        self._dispatch()
        with self.state.lock:
            depth = len(self.state.pending)
            active_tenants = self.state.active_tenants()

        if not self._paused:
            target = self.autoscaler.target(
                queue_depth=depth, busy=self.pool.busy_count(),
                active=self.pool.active,
                min_workers=self.pool.min_workers,
                max_workers=self.pool.max_workers)
            self.pool.set_active(target)
        self.metrics.gauge("serve.queue_depth").set(depth)
        self.metrics.gauge("serve.active_workers").set(self.pool.active)
        self.metrics.gauge("serve.busy_workers").set(
            self.pool.busy_count())
        self.metrics.gauge("serve.active_tenants").set(active_tenants)

    def _dispatch(self) -> None:
        """Hand the scheduler's plan for the pending jobs to idle
        workers (nothing while paused)."""
        with self.state.lock:
            if self._paused:
                return
            plan = self.scheduler.plan(self.state.pending_jobs(),
                                       self.pool.idle_slots(),
                                       time.monotonic())
            for unit_jobs in plan:
                self._unit_seq += 1
                unit_id = f"u-{self._unit_seq:06d}"
                worker = self.pool.dispatch(
                    unit_id, [job.spec for job in unit_jobs])
                if worker is None:
                    break
                job_ids = [job.id for job in unit_jobs]
                self._units[unit_id] = job_ids
                self.state.take_pending(job_ids)
                size = len(unit_jobs)
                for job in unit_jobs:
                    self.state.append_event(job.id, {
                        "event": "started", "unit": unit_id,
                        "worker": worker, "batch_size": size})
                self.metrics.histogram(
                    "serve.batch_occupancy").observe(size)
                self.metrics.counter("serve.units_dispatched").inc()
                if size > 1:
                    self.metrics.counter("serve.batched_jobs").inc(size)

    # ------------------------------------------------------------- #
    # collector loop
    # ------------------------------------------------------------- #
    def _collect_loop(self) -> None:
        while not self._stopped.is_set():
            message = self.pool.next_message(timeout=self.config.tick)
            if message is None:
                continue
            try:
                self._settle(message)
            except Exception:
                self.metrics.counter("serve.collect_errors").inc()

    def _settle(self, message: dict) -> None:
        """Fold one worker message into state (event or unit result)."""
        unit = message["unit"]
        if message["kind"] == "event":
            with self.state.lock:
                for job_id in self._units.get(unit, []):
                    self.state.append_event(job_id, message["event"])
            return
        self.pool.complete(message["worker"])
        self._wake.set()
        with self.state.lock:
            job_ids = self._units.pop(unit, [])
        if not job_ids:
            return
        error = message.get("error")
        if error is not None:
            with self.state.lock:
                for job_id in job_ids:
                    self.state.finish(job_id, error=error)
            self.metrics.counter("serve.unit_errors").inc()
            return
        records = message["results"]
        # cache BEFORE finishing: the instant a client's long-poll
        # unblocks, a resubmission of the same spec must already hit
        with self.state.lock:
            pairs = [(self.state.jobs.get(job_id), record)
                     for job_id, record in zip(job_ids, records)]
        if self.cache is not None:
            for job, record in pairs:
                if job is None or job.finished:
                    continue
                try:
                    self.cache.put(job.spec,
                                   ScenarioResult.from_dict(record),
                                   key=job.key)
                except (ValueError, OSError):
                    # unserializable metrics (NaNs from a diverged
                    # run) or a full disk must not fail the job
                    self.metrics.counter("serve.cache_put_errors").inc()
        with self.state.lock:
            for job_id, record in zip(job_ids, records):
                self.state.finish(job_id, result=record)
            self.metrics.counter("serve.jobs_computed").inc(
                len(job_ids))

    # ------------------------------------------------------------- #
    # client-facing reads
    # ------------------------------------------------------------- #
    def submit_payload(self, tickets: Sequence[Ticket]) -> dict:
        """The ``/v1/submit`` payload for the tickets :meth:`submit` made.

        Every ticket answered from the result cache is finished already,
        so its record rides along under ``records`` (ticket id -> the
        record as :meth:`result_payload` codes it) and the client needs
        no ``/v1/result`` round trip; the key is absent when no ticket
        was a cache hit.
        """
        payload: dict = {"tickets": [ticket_dict(t) for t in tickets]}
        with self.state.lock:
            finished = {t.id: self.state.jobs[t.job_id].result
                        for t in tickets if t.cached}
        if finished:
            payload["records"] = {ticket_id: encode_state(result)
                                  for ticket_id, result in finished.items()}
        return payload

    def result_payload(self, ticket_id: str, timeout: float) -> dict:
        """Long-poll payload for ``/v1/result``.

        Raises ``KeyError`` for unknown tickets (HTTP 404).
        """
        job = self.state.wait_finished(ticket_id, timeout)
        with self.state.lock:
            ticket = self.state.tickets[ticket_id]
            if not job.finished:
                return {"done": False, "ticket": ticket_dict(ticket)}
            if job.error is not None:
                return {"done": True, "error": job.error,
                        "ticket": ticket_dict(ticket)}
            return {"done": True,
                    "record": encode_state(dict(job.result)),
                    "ticket": ticket_dict(ticket)}

    def events_payload(self, ticket_id: str, cursor: int,
                       timeout: float) -> dict:
        """Long-poll payload for ``/v1/events``.

        Raises ``KeyError`` for unknown tickets (HTTP 404).
        """
        events, cursor, finished = self.state.wait_events(
            ticket_id, cursor, timeout)
        return {"events": events, "cursor": cursor,
                "finished": finished}

    def status(self) -> dict:
        """The ``/v1/status`` payload: queue, tenants, pool, metrics."""
        with self.state.lock:
            tenants = {name: stats.as_dict()
                       for name, stats in self.state.tenants.items()}
            depth = len(self.state.pending)
            jobs = len(self.state.jobs)
        return {
            "queue_depth": depth,
            "jobs": jobs,
            "paused": self._paused,
            "pool": {"mode": self.pool.mode,
                     "active": self.pool.active,
                     "busy": self.pool.busy_count(),
                     "min": self.pool.min_workers,
                     "max": self.pool.max_workers,
                     "units_dispatched": self.pool.units_dispatched,
                     "scale_events": self.pool.scale_events},
            "cache": (str(self.cache.root)
                      if self.cache is not None else None),
            "tenants": tenants,
            "metrics": self.metrics.snapshot(),
        }


def ticket_dict(ticket: Ticket) -> dict:
    """A ticket as the JSON payload the protocol ships."""
    return {"id": ticket.id, "tenant": ticket.tenant,
            "name": ticket.name, "spec_hash": ticket.spec_hash,
            "job_id": ticket.job_id, "cached": ticket.cached,
            "deduplicated": ticket.deduplicated}


class _Server(ThreadingHTTPServer):
    """The daemon's HTTP server, whose accept loop sleeps until a
    connection arrives or :meth:`wake` is called: ``serve_forever``
    would notice a shutdown only at its next 0.5 s poll."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], daemon: ServeDaemon):
        super().__init__(address, _Handler)
        self.serve_daemon = daemon
        self._wake_read, self._wake_write = socket.socketpair()

    def serve_until_woken(self) -> None:
        """Accept and hand off connections until :meth:`wake`."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_read, selectors.EVENT_READ)
            while True:
                ready = selector.select()
                if any(key.fileobj is self._wake_read for key, _ in ready):
                    return
                self._handle_request_noblock()

    def wake(self) -> None:
        """Make :meth:`serve_until_woken` return (from any thread)."""
        self._wake_write.send(b"\0")

    def server_close(self) -> None:
        """Close the listening socket and the wake-up pair."""
        super().server_close()
        self._wake_read.close()
        self._wake_write.close()


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON codec over :class:`ServeDaemon`'s method surface."""

    protocol_version = "HTTP/1.0"

    @property
    def daemon(self) -> ServeDaemon:
        """The daemon this server fronts."""
        return self.server.serve_daemon   # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Silence the default stderr request log."""

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass    # client gave up on a long-poll; nothing to settle

    def do_POST(self) -> None:
        """``/v1/submit`` and ``/v1/shutdown``."""
        path = urlparse(self.path).path
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            self._reply(400, {"error": "malformed JSON body"})
            return
        if path == "/v1/shutdown":
            self._reply(200, {"ok": True})
            threading.Thread(target=self.daemon.stop,
                             daemon=True).start()
            return
        if path != "/v1/submit":
            self._reply(404, {"error": f"unknown endpoint {path}"})
            return
        try:
            tenant = str(payload.get("tenant") or "default")
            raw = payload.get("specs")
            if raw is None and "spec" in payload:
                raw = [payload["spec"]]
            if not isinstance(raw, list) or not raw:
                raise ValueError("submit body needs a 'specs' list")
            # specs arrive encode_state-coded, so a tuple in params stays
            # a tuple (and the spec keeps its hash); an untagged body from
            # an older client decodes to itself
            specs = [ScenarioSpec.from_dict(decode_state(d)) for d in raw]
            tickets = self.daemon.submit(tenant, specs)
        except AdmissionRejected as exc:
            self._reply(429, {"error": str(exc)})
            return
        except (ValueError, TypeError, KeyError) as exc:
            self._reply(400, {"error": f"invalid submission: {exc}"})
            return
        self._reply(200, self.daemon.submit_payload(tickets))

    def do_GET(self) -> None:
        """``/v1/result``, ``/v1/events``, and ``/v1/status``."""
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        try:
            if parsed.path == "/v1/status":
                self._reply(200, self.daemon.status())
            elif parsed.path == "/v1/result":
                payload = self.daemon.result_payload(
                    query.get("ticket", ""),
                    min(60.0, float(query.get("timeout", 30.0))))
                self._reply(200, payload)
            elif parsed.path == "/v1/events":
                payload = self.daemon.events_payload(
                    query.get("ticket", ""),
                    max(0, int(query.get("cursor", 0))),
                    min(60.0, float(query.get("timeout", 10.0))))
                self._reply(200, payload)
            else:
                self._reply(404,
                            {"error": f"unknown endpoint {parsed.path}"})
        except KeyError:
            self._reply(404,
                        {"error": f"unknown ticket "
                                  f"{query.get('ticket', '')!r}"})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
