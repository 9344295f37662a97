"""The batched event loop: replicates × workers on one schedule.

The serial :class:`~repro.cluster.runtime.ClusterRuntime` spends its
time on per-event Python work: one autograd read, one server push, one
optimizer step, and a handful of log appends *per simulated worker
event*, for one model.  This engine batches both axes of a campaign
for the **fleet-eligible** scenario class (:func:`supports_fleet`):

- the **row axis** — ``R`` models that differ only in their seed (a
  spec's replicates, or the members of a serve batch family) live in
  one ``(R, N)`` buffer stepped by the batched kernels of
  :mod:`repro.vec.optim`;
- the **worker axis** — one schedule serves every row, because delay
  samples, fault draws and crash/restart/pause events come from the
  delay and fault configs' own seeds, never from the row seed.  Read
  metadata (worker id, version at read) is shared too; each row keeps
  its own training log, losses and optimizer stats, and under
  ``delivery="random"`` its own server RNG and queue.

Two execution modes cover the class:

- **round mode** — constant delay, no fault injection, ``tau = 0``,
  FIFO delivery, and a deferred workload evaluator
  (:mod:`repro.fleet.workloads`).  All workers march in rounds; the
  engine drops the event heap entirely, defers every loss/gradient
  evaluation, and flushes one stacked matrix op per round.  This is the
  paper's round-robin protocol at fleet scale and the source of the
  engine's order-of-magnitude speedup.
- **event mode** — everything else in the class (stochastic seeded
  delays, fault plans, depth gates, random delivery, eager autograd
  workloads): a real :class:`~repro.cluster.events.EventQueue` driven
  by the serial runtime's own event handlers
  (:class:`~repro.cluster.events.EventLoop`), with per-dispatch delay
  sampling and fault draws in serial order.

**Contract**: every row's training log is bit-identical to the serial
runtime's run of that row's seed (``tests/test_fleet_equivalence.py``,
``tests/test_vec_equivalence.py``).  Divergence has one rule: if any
row's loss goes non-finite or past the divergence threshold, the run
raises :class:`FleetDiverged` and the caller re-runs serially, where
each row stops at its own diverged read.
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, List, Optional, Sequence, Set, Tuple,
                    Type)

import numpy as np

from repro.cluster.events import EventLoop, EventQueue
from repro.cluster.faults import FaultInjector
from repro.obs.session import active as _obs_active
from repro.registry import registry
from repro.sim.trainer import TrainerHooks
from repro.utils.logging import TrainLog
from repro.utils.rng import new_rng
from repro.vec.optim import VecOptimizer, VecYellowFin
from repro.fleet.workloads import build_fleet_evaluator, fleet_twin
from repro.xp.factories import (VEC_KERNELS, build_delay_model,
                                build_fault_injector)
from repro.xp.spec import ScenarioSpec

# the scalar path runs under default TrainerHooks; sharing its
# divergence threshold keeps the two paths from ever drifting (None
# means "non-finite only", which +inf reproduces in the comparisons)
_DEFAULT_STOP = TrainerHooks().stop_on_divergence
_DIVERGENCE_THRESHOLD = (float("inf") if _DEFAULT_STOP is None
                         else _DEFAULT_STOP)
_NEG_INF = float("-inf")
_POS_INF = float("inf")

# delay kinds whose stream is reproducible from the config alone:
# deterministic always, or deterministic given an explicit seed
_ALWAYS_DETERMINISTIC_DELAYS = ("constant", "trace")
_SEEDED_DELAYS = ("uniform", "exponential", "pareto")


class FleetDiverged(Exception):
    """A row's loss went non-finite or past the divergence threshold.

    The serial runtime stops that row at the diverged read, which takes
    it off the shared schedule; a deferred evaluator even discovers the
    loss only at flush time, after the engine simulated past the read.
    The engine aborts and the caller re-runs serially, where every row
    stops exactly where its scalar run would.
    """

    def __init__(self, read_step: int, row: int):
        super().__init__(f"row {row} diverged at read {read_step}")
        self.read_step = read_step
        self.row = row


def _deterministic_delay(config: dict) -> bool:
    """Whether a delay config replays identically when rebuilt."""
    kind = config.get("kind")
    if kind in _ALWAYS_DETERMINISTIC_DELAYS:
        return True
    if kind in _SEEDED_DELAYS:
        return config.get("seed") is not None
    if kind in ("heterogeneous", "worker_classes"):
        models = config.get("models") or []
        return bool(models) and all(
            isinstance(m, dict) and _deterministic_delay(m)
            for m in models)
    return False


def _deterministic_faults(config: dict) -> bool:
    """Whether a fault config replays identically when rebuilt.

    Scheduled-only plans are deterministic by construction; any
    non-zero random rate needs an explicit seed (an unseeded injector
    draws from entropy even on the serial path, so switching engines
    must not be what changes the records).
    """
    if not config:
        return True
    rates = (config.get("crash_prob", 0.0),
             config.get("straggler_prob", 0.0),
             config.get("pause_prob", 0.0))
    if any(float(r) > 0 for r in rates):
        return config.get("seed") is not None
    return True


def _vec_kernel(name: str) -> Optional[Type[VecOptimizer]]:
    """The batched kernel mirroring the optimizer registered as ``name``
    (:data:`~repro.xp.factories.VEC_KERNELS`), or ``None``."""
    if not registry.has("optimizer", name):
        return None
    return VEC_KERNELS.get(registry.get("optimizer", name).factory)


def _exact_kernel(spec: ScenarioSpec, kernel: Type[VecOptimizer]) -> bool:
    """Whether the batched kernel replays the scalar reductions here.

    Per-tensor (unfused) YellowFin-family kernels sum squared norms
    over C-ordered row slices, while the scalar path sums each
    ``p.grad`` in its memory order; autograd leaves some gradients
    F-ordered (``Linear`` weights), so the two can differ in the last
    bit.  A deferred evaluator hands the kernel the layout the scalar
    path reduces, so only the eager adapter is excluded.  Decided from
    the kernel class, not the optimizer name.
    """
    per_tensor = (issubclass(kernel, VecYellowFin)
                  and not spec.optimizer_params.get("fused"))
    return not per_tensor or fleet_twin(spec.workload) is not None


def supports_fleet(spec: ScenarioSpec) -> bool:
    """Whether a spec can run on the batched engine.

    The one eligibility predicate: the ``fleet`` backend, backend
    auto-selection and serve batching all consult it.  Requires
    an optimizer with a batched kernel that is exact on the spec's
    workload, and delay/fault configurations that rebuild to identical
    streams, so the engine's own component instances replay the serial
    run's draws — for every row at once, since none of those streams
    depends on the row seed.  Fleet-topology specs are judged on their
    expanded form.  Anything else runs serially
    (:func:`repro.fleet.runner.run_engine`).
    """
    if getattr(spec, "fleet", None):
        from repro.fleet.topology import expand_fleet
        spec = expand_fleet(spec)
    kernel = _vec_kernel(spec.optimizer)
    return (kernel is not None
            and _exact_kernel(spec, kernel)
            and _deterministic_delay(spec.delay)
            and _deterministic_faults(spec.faults))


class FleetEngine(EventLoop):
    """Batched event loop driving ``R`` rows under ``N`` simulated workers.

    Event mode runs :class:`~repro.cluster.events.EventLoop`'s handlers;
    this class supplies the batched read, the queue lanes, the commit
    and every row's log.

    Parameters
    ----------
    spec : ScenarioSpec
        The scenario (must satisfy :func:`supports_fleet`;
        fleet-topology specs are expanded on construction).
    seeds : sequence of int, optional
        One seed per row; defaults to ``spec.replicate_seeds()``.

    Attributes
    ----------
    logs : list of TrainLog
        One training log per row, filled by :meth:`run`.
    clock : float
        Final simulated time after :meth:`run` (feeds the topology
        cost/energy accounting).
    reads_done, steps_applied : int
        Budget counters, shared by every row, exactly as the serial
        runtime reports them.
    """

    def __init__(self, spec: ScenarioSpec,
                 seeds: Optional[Sequence[int]] = None):
        if getattr(spec, "fleet", None):
            from repro.fleet.topology import expand_fleet
            spec = expand_fleet(spec)
        if not supports_fleet(spec):
            raise ValueError(
                f"scenario {spec.name!r} is not fleet-eligible")
        self.spec = spec
        self.seeds = [int(s) for s in (
            spec.replicate_seeds() if seeds is None else seeds)]
        rows = len(self.seeds)
        # in-flight bound: one read per worker in the current round
        # plus one unflushed round behind it (deferred evaluators grow
        # on demand past it anyway)
        self.workload = build_fleet_evaluator(
            spec.workload, self.seeds,
            capacity=2 * spec.workers + 2, **spec.workload_params)
        self.deferred = bool(getattr(self.workload, "deferred", False))
        self.buffer = self.workload.buffer
        self.optimizer = _vec_kernel(spec.optimizer)(
            self.buffer, self.workload.offsets, **spec.optimizer_params)
        self.delay_model = build_delay_model(spec.delay)
        self.faults = build_fault_injector(spec.faults) or FaultInjector()
        self.faults.check_workers(spec.workers)
        self.random_delivery = spec.delivery == "random"
        self.tau = spec.queue_staleness

        # queue lanes of pending read steps.  The serial server pushes
        # every gradient to all of its non-empty shards, so its depth
        # gate reduces to len(queue) > tau.  FIFO delivery commits the
        # same read on every row: one lane (and one staleness/worker
        # series) serves them all.  Random delivery draws from each
        # row's own server RNG — the sharded server's seeded RNG, whose
        # only consumer is this draw — so lane contents (never their
        # lengths) differ per row.
        lanes = rows if self.random_delivery else 1
        self.queues: List[Deque[int]] = [deque() for _ in range(lanes)]
        # every lane holds as many reads: the first one's length is the
        # commit gate's count
        self.queue = self._queued = self.queues[0]
        self.server_rngs = ([new_rng(s) for s in self.seeds]
                            if self.random_delivery else [])

        self.logs = [TrainLog() for _ in range(rows)]
        self._loss = self._series("loss", rows)
        self._staleness = self._series("staleness", lanes)
        self._worker = self._series("worker", lanes)
        self._sim_time = self._series("sim_time", 1)[0]
        stats_names = getattr(self.optimizer, "stats_names", ())
        self._logs_stats = bool(stats_names)
        per_name = [self._series(name, rows) for name in stats_names]
        # per row: (name, values, steps) of every optimizer statistic
        self._stats = [[(name, *pairs[r])
                        for name, pairs in zip(stats_names, per_name)]
                       for r in range(rows)]

        # read metadata: step -> (worker_id, updates observed at read)
        self._inflight: Dict[int, Tuple[int, int]] = {}
        # delivered reads some lanes have yet to commit (random
        # delivery over several rows); absent means one lane left
        self._commits_left: Dict[int, int] = {}
        # eager mode: step -> (R, N) gradient awaiting commit
        self._grads: Dict[int, np.ndarray] = {}
        # deferred mode: step -> snapshot slot; reads not yet flushed
        # (ordered + membership set); reads lost to a crash, awaiting
        # their flush-time loss log before the slot is released
        self._slots: Dict[int, int] = {}
        self._unlogged: List[int] = []
        self._unflushed: Set[int] = set()
        self._lost: List[int] = []

        self.events = EventQueue()
        self.clock = 0.0
        self.reads_done = 0
        self.steps_applied = 0
        self._metrics = None

        self.mode = "round" if (
            self.deferred
            and spec.delay.get("kind") == "constant"
            and not self.faults.active
            and self.tau == 0
            and not self.random_delivery) else "event"

    def _series(self, name: str, lanes: int) -> List[Tuple[list, list]]:
        """``lanes`` (values, steps) list pairs for one series, put by
        reference into every row's log: one pair shared by all rows,
        or one pair per row."""
        pairs = [([], []) for _ in range(lanes)]
        for r, log in enumerate(self.logs):
            log.scalars[name], log.steps[name] = pairs[r % lanes]
        return pairs

    # ------------------------------------------------------------- #
    # deferred evaluation
    # ------------------------------------------------------------- #
    def _flush_losses(self) -> None:
        """Flush the evaluator and log pending losses in read order.

        Raises :class:`FleetDiverged` on the first loss the serial
        runtime would have stopped at; releases the slots of reads
        whose gradients were lost to a crash (their losses still log —
        the serial worker computed the gradient before the fault
        decision discarded it).
        """
        steps = self._unlogged
        if not steps:
            return
        self.workload.flush()
        values = self.workload.flushed_losses()
        for (value_list, step_list), row in zip(self._loss,
                                                values.T.tolist()):
            value_list.extend(row)
            step_list.extend(steps)
        # vectorized twin of the serial read-time stop condition
        bad = ~np.isfinite(values) | (values > _DIVERGENCE_THRESHOLD)
        if bad.any():
            read, row = np.argwhere(bad)[0]
            raise FleetDiverged(steps[int(read)], int(row))
        steps.clear()
        self._unflushed.clear()
        for step in self._lost:
            self.workload.release(self._slots.pop(step))
        self._lost.clear()

    # ------------------------------------------------------------- #
    # event mode: the engine's side of the shared event loop
    # ------------------------------------------------------------- #
    def _read(self, worker_id: int, step: int) -> Optional[np.ndarray]:
        """One worker reads every row: eager rows log their losses now
        and return the ``(R, N)`` gradient (raising :class:`FleetDiverged`
        where a serial row would stop); deferred rows log at a flush."""
        if self.deferred:
            self._slots[step] = self.workload.snapshot()
            self._unlogged.append(step)
            self._unflushed.add(step)
            return None
        grads = np.empty_like(self.buffer)
        losses = self.workload.read(grads)
        for (value_list, step_list), value in zip(self._loss, losses):
            value_list.append(value)
            step_list.append(step)
        for row, value in enumerate(losses):
            # non-finite or over the threshold (the explicit +inf
            # test matters when the threshold itself is +inf)
            if not (_NEG_INF < value <= _DIVERGENCE_THRESHOLD) \
                    or value == _POS_INF:
                raise FleetDiverged(step, row)
        return grads

    def _deliver(self, event) -> None:
        """Append the arrival's read to every queue lane."""
        step = event.payload["read_step"]
        if not self.deferred:
            self._grads[step] = event.payload["grads"]
        if len(self.queues) > 1:
            self._commits_left[step] = len(self.queues)
        for lane in self.queues:
            lane.append(step)

    def _lose_read(self, worker_id: int, step: int) -> None:
        if self.deferred:
            self._lost.append(step)

    def _gradient(self, step: int) -> np.ndarray:
        """The ``(R, N)`` gradient matrix of one delivered read."""
        if self.deferred:
            return self.workload.grad_row(self._slots[step])
        return self._grads[step]

    def _release(self, step: int) -> None:
        """Drop a read's state once every lane has committed it."""
        left = self._commits_left.pop(step, 1) - 1
        if left:
            self._commits_left[step] = left
            return
        del self._inflight[step]
        if self.deferred:
            self.workload.release(self._slots.pop(step))
        else:
            del self._grads[step]

    def _log_stats(self, log_step: int) -> None:
        """Per-commit optimizer statistics series, one set per row."""
        for stats, series in zip(self.optimizer.row_stats(), self._stats):
            for name, value_list, step_list in series:
                value_list.append(float(stats[name]))
                step_list.append(log_step)

    def _commit_one(self) -> None:
        """Commit one read per lane: the oldest under FIFO delivery, or
        one drawn from each row's own server RNG."""
        if self.random_delivery:
            steps = []
            for rng, lane in zip(self.server_rngs, self.queues):
                pos = int(rng.integers(len(lane)))
                steps.append(lane[pos])
                del lane[pos]
        else:
            steps = [self.queue.popleft()]
        if self.deferred and not self._unflushed.isdisjoint(steps):
            self._flush_losses()
        version = self.steps_applied
        log_step = self.reads_done - 1
        if len(steps) == 1:
            commit = self._gradient(steps[0])
        else:
            # every row commits its own lane's read
            commit = np.empty_like(self.buffer)
            for row, step in enumerate(steps):
                commit[row] = self._gradient(step)[row]
        self.workload.ensure_packed()
        self.optimizer.step(commit)
        self.steps_applied += 1
        time_list, time_steps = self._sim_time
        time_list.append(float(self.clock))
        time_steps.append(log_step)
        for step, (stal_list, stal_steps), (work_list, work_steps) in zip(
                steps, self._staleness, self._worker):
            worker_id, read_version = self._inflight[step]
            stal_list.append(float(version - read_version))
            stal_steps.append(log_step)
            work_list.append(float(worker_id))
            work_steps.append(log_step)
            self._release(step)
        if self._logs_stats:
            self._log_stats(log_step)
        if self._metrics is not None:
            self._emit_commit(self._metrics, log_step,
                              version - read_version, worker_id)

    def _run_events(self, reads: int, updates: Optional[int]) -> None:
        """The general loop: a real event queue, the serial decisions."""
        # initial dispatch burst: delays batch through sample_many
        # (stream-equivalent to per-dispatch sampling by the DelayModel
        # contract)
        burst = min(self.spec.workers, max(reads - self.reads_done, 0))
        delays = (self.delay_model.sample_many(range(burst), self.clock)
                  if burst else ())
        for worker_id in range(burst):
            self._read_and_dispatch(worker_id,
                                    delay=float(delays[worker_id]))
        self._drive(reads, updates)

    # ------------------------------------------------------------- #
    # round mode
    # ------------------------------------------------------------- #
    def _run_rounds(self, reads: int, updates: Optional[int]) -> None:
        """The fast loop for the constant-delay round-robin protocol.

        With one constant delay, no faults, ``tau = 0``, and FIFO
        delivery, the event heap's pop order is exactly round-robin:
        every in-flight read arrives one delay later, in worker order,
        commits immediately (budget permitting), and redispatches.  The
        heap, per-event payloads, and per-read evaluation all collapse
        into two lists and one flush per round.
        """
        delay = float(self.delay_model.delay)
        workload = self.workload
        optimizer_step = self.optimizer.step
        snapshot = workload.snapshot
        grad_row = workload.grad_row
        release = workload.release
        ensure_packed = workload.ensure_packed
        slots = self._slots
        unlogged = self._unlogged
        unflushed = self._unflushed
        ((stal_v, stal_s),) = self._staleness
        ((work_v, work_s),) = self._worker
        time_v, time_s = self._sim_time
        log_stats = self._log_stats if self._logs_stats else None
        # round tuples carry the read version so the commit below skips
        # the _inflight dict entirely (no crashes can reorder
        # arrivals); reads_done / steps_applied run as locals through
        # the hot loop and write back at every round boundary
        reads_done = self.reads_done
        steps_applied = self.steps_applied
        current: List[Tuple[int, int, int]] = []
        for worker_id in range(self.spec.workers):
            if reads_done >= reads:
                break
            step = reads_done
            slots[step] = snapshot()
            unlogged.append(step)
            unflushed.add(step)
            reads_done += 1
            current.append((worker_id, step, steps_applied))
        self.reads_done = reads_done
        while current:
            if reads_done >= reads and (
                    updates is None or steps_applied >= updates):
                break
            # arrivals of this round land one delay later; the serial
            # clock accumulates the same float sum event by event
            self.clock = clock = self.clock + delay
            if unlogged:
                self._flush_losses()
            next_round: List[Tuple[int, int, int]] = []
            stop = False
            for worker_id, step, read_version in current:
                if reads_done >= reads and (
                        updates is None or steps_applied >= updates):
                    stop = True
                    break
                # inline tau = 0 FIFO commit: the gate opens on every
                # push, so _commit_ready would pop exactly this step
                if updates is None or steps_applied < updates:
                    slot = slots.pop(step)
                    ensure_packed()
                    optimizer_step(grad_row(slot))
                    release(slot)
                    version = steps_applied
                    steps_applied = version + 1
                    log_step = reads_done - 1
                    stal_v.append(float(version - read_version))
                    stal_s.append(log_step)
                    work_v.append(float(worker_id))
                    work_s.append(log_step)
                    time_v.append(float(clock))
                    time_s.append(log_step)
                    if log_stats is not None:
                        log_stats(log_step)
                    if self._metrics is not None:
                        self.steps_applied = steps_applied
                        self._emit_commit(self._metrics, log_step,
                                          version - read_version,
                                          worker_id)
                else:
                    self.queue.append(step)
                if reads_done < reads:
                    new_step = reads_done
                    slots[new_step] = snapshot()
                    unlogged.append(new_step)
                    unflushed.add(new_step)
                    reads_done += 1
                    next_round.append((worker_id, new_step,
                                       steps_applied))
            self.reads_done = reads_done
            self.steps_applied = steps_applied
            if stop:
                break
            current = next_round

    # ------------------------------------------------------------- #
    # driving loop
    # ------------------------------------------------------------- #
    def run(self) -> List[TrainLog]:
        """Simulate the spec's budgets; one training log per row.

        Raises
        ------
        FleetDiverged
            If any row's loss goes non-finite or past the divergence
            threshold (the caller falls back to serial execution).
        """
        spec = self.spec
        reads, updates = spec.reads, spec.updates
        session = _obs_active()
        # per-commit payloads mirror one serial run, so only a
        # single-row run emits them
        self._metrics = (session.metrics
                         if session is not None and len(self.logs) == 1
                         else None)
        if self.mode == "round":
            self._run_rounds(reads, updates)
        else:
            self._run_events(reads, updates)
        if self.deferred and self._unlogged:
            # losses of reads that never delivered still logged at
            # read steps, exactly as the serial read-time log did
            self._flush_losses()
        return self.logs
