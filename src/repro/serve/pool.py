"""Pre-forked warm worker pool with live activation scaling.

The pool follows the BLITZSCALE premise: the expensive part of adding
serving capacity is process startup (interpreter boot, imports, page
faults), so **all** ``max_workers`` processes are forked once at daemon
startup — inheriting the parent's already-imported, already-warmed
modules — and autoscaling merely changes how many of them are
*eligible for assignment* (:meth:`WorkerPool.set_active`).  Scale-up is
therefore instantaneous: no cold starts, ever.

Each worker owns a private task queue (assignment is an explicit
parent-side decision, one in-flight unit per worker) and shares one
message queue back to the parent carrying streamed per-iteration
events and unit results.  A **unit** is the pool's work granule: a
list of specs — a single spec executed as the ``serial`` backend runs
it (:func:`repro.run.backends.execute_spec`: the scalar engine, with
per-iteration events forwarded from the obs subscriber seam, or the
batched engine for a replicated spec), or a multi-member
batch family executed as one batched engine run
(:func:`repro.serve.batching.execute_group`).

Where ``fork`` is unavailable the pool degrades to threads.  Because
the observability session is process-global, thread workers serialize
execution under a shared lock — records stay bit-identical, the pool
just loses parallelism (mirroring how :mod:`repro.mp` capability-gates
itself rather than breaking).
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Dict, List, Optional, Sequence

from repro.xp.spec import ScenarioSpec

#: Modes the pool can run in.
MODES = ("auto", "fork", "thread")

#: Serializes thread-mode execution: the obs session install is
#: process-global, so concurrent in-process executions would cross
#: their streams (fork-mode workers each own their process global).
_THREAD_EXEC_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether the platform supports the pre-forked process pool."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _execute_unit(task: dict, out, worker_id: int) -> None:
    """Run one dispatch unit and report back on the message queue.

    Shared by fork and thread workers.  ``task`` carries the unit id,
    the member specs (as :meth:`ScenarioSpec.as_dict` payloads), and
    the streaming stride; every per-iteration payload the engine emits
    through the metrics subscriber seam is forwarded as an
    ``iteration`` message before the terminal ``result`` message.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.session import ObsSession
    from repro.run.backends import execute_spec
    from repro.serve.batching import execute_group

    unit = task["unit"]
    specs = [ScenarioSpec.from_dict(d) for d in task["specs"]]
    stride = max(1, int(task.get("stream_every", 1)))
    seen = [0]

    def forward(step: int, payload: dict) -> None:
        seen[0] += 1
        if (seen[0] - 1) % stride:
            return
        event = {"event": "iteration", "step": int(step)}
        event.update({k: v for k, v in payload.items() if k != "step"})
        out.put({"kind": "event", "unit": unit, "worker": worker_id,
                 "event": event})

    try:
        if len(specs) == 1:
            # one-spec unit: attach a metrics-only session so the
            # cluster runtime's per-commit emit reaches the client (a
            # replicated spec's multi-row engine run emits none)
            metrics = MetricsRegistry()
            metrics.subscribe(forward)
            with ObsSession(metrics=metrics):
                record = execute_spec(specs[0])
            # a replicated spec's rows ran as one batched engine run
            batched = record.env.get("fleet_engine") == "fleet"
            record.env["serve_unit"] = "batched:1" if batched else "scalar"
            results = [record]
        else:
            # batched unit: a multi-row engine run emits no
            # per-commit payloads; tenants get lifecycle events only
            results = execute_group(specs)
        out.put({"kind": "result", "unit": unit, "worker": worker_id,
                 "results": [r.as_dict() for r in results]})
    except Exception:
        out.put({"kind": "result", "unit": unit, "worker": worker_id,
                 "error": traceback.format_exc(limit=20)})


def _fork_worker_main(worker_id: int, tasks, out) -> None:
    """Child process loop: execute tasks until the ``None`` sentinel."""
    while True:
        task = tasks.get()
        if task is None:
            return
        _execute_unit(task, out, worker_id)


def _thread_worker_main(worker_id: int, tasks, out) -> None:
    """Thread loop: like the fork loop, but serialized under the
    module execution lock (the obs session global is per-process)."""
    while True:
        task = tasks.get()
        if task is None:
            return
        with _THREAD_EXEC_LOCK:
            _execute_unit(task, out, worker_id)


class WorkerPool:
    """Warm pool of ``max_workers`` executors with activation scaling.

    Parameters
    ----------
    min_workers, max_workers : int
        Activation bounds; all ``max_workers`` executors exist from
        :meth:`start` on, and :meth:`set_active` moves the eligible
        count within ``[min_workers, max_workers]``.
    mode : str
        ``"fork"`` (pre-forked processes), ``"thread"`` (serialized
        in-process fallback), or ``"auto"`` (fork where available).
    stream_every : int
        Forward every ``k``-th per-iteration payload from scalar units
        (1 = every committed iteration).
    """

    def __init__(self, min_workers: int = 1, max_workers: int = 4,
                 mode: str = "auto", stream_every: int = 1):
        if mode not in MODES:
            raise ValueError(f"unknown pool mode {mode!r}; one of {MODES}")
        if not 1 <= min_workers <= max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if mode == "auto":
            mode = "fork" if fork_available() else "thread"
        if mode == "fork" and not fork_available():
            raise ValueError("fork pool mode unavailable on this platform")
        self.mode = mode
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.stream_every = int(stream_every)
        self.active = int(min_workers)
        self._workers: List[object] = []
        self._tasks: List[object] = []
        self._out = None
        self._busy: Dict[int, str] = {}      # worker id -> unit id
        self._started = False
        #: lifetime counts the daemon folds into its status payload
        self.units_dispatched = 0
        self.scale_events = 0

    # ------------------------------------------------------------- #
    # lifecycle
    # ------------------------------------------------------------- #
    def start(self) -> "WorkerPool":
        """Fork (or spawn threads for) all ``max_workers`` executors."""
        if self._started:
            return self
        if self.mode == "fork":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self._out = ctx.Queue()
            for wid in range(self.max_workers):
                tasks = ctx.Queue()
                proc = ctx.Process(target=_fork_worker_main,
                                   args=(wid, tasks, self._out),
                                   daemon=True)
                proc.start()
                self._tasks.append(tasks)
                self._workers.append(proc)
        else:
            self._out = queue.Queue()
            for wid in range(self.max_workers):
                tasks: "queue.Queue" = queue.Queue()
                thread = threading.Thread(
                    target=_thread_worker_main, args=(wid, tasks, self._out),
                    name=f"serve-worker-{wid}", daemon=True)
                thread.start()
                self._tasks.append(tasks)
                self._workers.append(thread)
        self._started = True
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain sentinels to every executor and reap them."""
        if not self._started:
            return
        for tasks in self._tasks:
            tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=timeout)
            if self.mode == "fork" and worker.is_alive():
                worker.terminate()
        if self.mode == "fork" and self._out is not None:
            self._out.close()
            self._out.join_thread()
        self._workers, self._tasks = [], []
        self._busy.clear()
        self._started = False

    def ensure_alive(self) -> int:
        """Respawn dead fork workers in place; returns respawn count.

        A worker that died mid-unit leaves its unit without a result;
        the daemon times such units out via :meth:`orphaned_units`.
        """
        if self.mode != "fork" or not self._started:
            return 0
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        respawned = 0
        for wid, proc in enumerate(self._workers):
            if proc.is_alive():
                continue
            self._busy.pop(wid, None)
            fresh = ctx.Process(target=_fork_worker_main,
                                args=(wid, self._tasks[wid], self._out),
                                daemon=True)
            fresh.start()
            self._workers[wid] = fresh
            respawned += 1
        return respawned

    # ------------------------------------------------------------- #
    # scaling + assignment
    # ------------------------------------------------------------- #
    def set_active(self, n: int) -> int:
        """Set the eligible worker count (clamped to the bounds).

        Purely an assignment policy change — no processes start or
        stop, which is the whole point of the warm pool.  Returns the
        effective active count.
        """
        n = max(self.min_workers, min(self.max_workers, int(n)))
        if n != self.active:
            self.scale_events += 1
        self.active = n
        return n

    def idle_slots(self) -> int:
        """Active workers with no unit in flight."""
        return sum(1 for wid in range(self.active)
                   if wid not in self._busy)

    def busy_count(self) -> int:
        """Workers (active or draining) with a unit in flight."""
        return len(self._busy)

    def dispatch(self, unit_id: str,
                 specs: Sequence[ScenarioSpec]) -> Optional[int]:
        """Assign one unit to an idle active worker.

        Returns the worker id, or ``None`` when every active worker is
        busy (the caller retries next tick — one in-flight unit per
        worker is the pool's backpressure, and what lets pending jobs
        accumulate into batch families).
        """
        if not self._started:
            raise RuntimeError("WorkerPool.dispatch before start()")
        for wid in range(self.active):
            if wid in self._busy:
                continue
            self._busy[wid] = unit_id
            self._tasks[wid].put({
                "unit": unit_id,
                "specs": [s.as_dict() for s in specs],
                "stream_every": self.stream_every,
            })
            self.units_dispatched += 1
            return wid
        return None

    def complete(self, worker_id: int) -> None:
        """Mark a worker idle again (its result message arrived)."""
        self._busy.pop(worker_id, None)

    def orphaned_units(self) -> List[str]:
        """Units assigned to workers that are no longer alive."""
        if self.mode != "fork":
            return []
        return [unit for wid, unit in self._busy.items()
                if not self._workers[wid].is_alive()]

    # ------------------------------------------------------------- #
    # messages
    # ------------------------------------------------------------- #
    def next_message(self, timeout: float = 0.1) -> Optional[dict]:
        """Next worker message (``event`` or ``result``), or ``None``.

        Blocks up to ``timeout`` seconds; the daemon's collector loop
        calls this continuously.
        """
        try:
            return self._out.get(timeout=max(0.0, timeout))
        except queue.Empty:
            return None
        except Exception:
            return None       # queue closed during shutdown

    def interrupt(self) -> None:
        """Return a caller blocked in :meth:`next_message` at once
        (with ``None``); the daemon's :meth:`stop` uses it."""
        if self._out is not None:
            self._out.put(None)

    def __repr__(self) -> str:
        return (f"WorkerPool(mode={self.mode!r}, active={self.active}/"
                f"{self.max_workers}, busy={len(self._busy)})")
