"""The ``mp`` execution backend: real processes behind ``repro.run``.

Registers the multi-process parameter server as an execution
backend.  Records honor the same contract as every other backend —
bit-identical to :func:`repro.run.backends.execute_scalar` for the
same spec — because the sequenced runtime replays the simulator's
deterministic event schedule on real worker processes (see
:mod:`repro.mp.runtime`).  The environment block additionally records
``mp_transport`` and ``mp_workers`` so a record always says whether
real processes produced it (``env`` is excluded from the identity the
bit-equality tests compare).

The backend is platform-gated: it is only registered on platforms
where :func:`repro.mp.worker.mp_available` holds, and auto-selection
never picks it — real processes are strictly opt-in via
``run(..., backend="mp")`` or the CLI's ``--backend mp``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mp.runtime import build_mp_runtime
from repro.obs.session import StepTimer
from repro.run.backends import ExecutionBackend
from repro.run.result import RunOptions
from repro.xp.runner import ScenarioResult, summarize_log
from repro.xp.spec import ScenarioSpec

#: Transports the backend accepts via ``RunOptions`` extension.
TRANSPORT_CHOICES = ("shm", "socket")


def execute_scalar_mp(spec: ScenarioSpec, transport: str = "shm"):
    """Execute one single-replicate spec on real worker processes.

    The multi-process mirror of
    :func:`repro.run.backends.execute_scalar`: identical build path,
    identical budgets, identical summarization — only the gradient
    computations happen in real worker processes.  On the same machine
    and NumPy build the returned record's identity (name, spec hash,
    metrics, series) is bit-identical to the scalar reference.

    Parameters
    ----------
    spec : ScenarioSpec
        A scenario with ``replicates == 1``.
    transport : str
        ``"shm"`` or ``"socket"``.

    Returns
    -------
    ScenarioResult
    """
    from repro.bench.report import environment_info

    runtime = build_mp_runtime(spec, transport=transport)
    try:
        with StepTimer(f"scenario:{spec.name}", cat="mp.backend") as timer:
            log = runtime.run(reads=spec.reads, updates=spec.updates)
        wall = timer.elapsed
        metrics, series = summarize_log(spec, log, runtime.reads_done,
                                        runtime.updates_done,
                                        runtime.diverged)
    finally:
        runtime.close()
    env = environment_info()
    env["seed"] = spec.resolved_seed()
    env["mp_transport"] = transport
    env["mp_workers"] = spec.workers
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash(),
                          metrics=metrics, series=series, env=env,
                          wall_s=wall)


class MPBackend(ExecutionBackend):
    """Real multi-process parameter-server backend.

    Each simulated worker is an actual OS process computing gradients
    over a shared-memory or socket transport; injected faults SIGKILL
    and respawn real PIDs.  Scheduling stays sequenced by the
    deterministic event queue, so records are bit-identical to the
    ``serial`` reference — the property the differential oracle
    (:mod:`repro.mp.oracle`) enforces.  Replicated specs run one
    sequenced multi-process execution per replicate seed and aggregate
    exactly as the serial replicate path does.

    Parameters
    ----------
    transport : str
        ``"shm"`` (default) or ``"socket"`` for every spawned channel.
    """

    name = "mp"

    def __init__(self, transport: str = "shm"):
        if transport not in TRANSPORT_CHOICES:
            raise ValueError(
                f"unknown transport {transport!r}; choose from "
                f"{TRANSPORT_CHOICES}")
        self.transport = transport

    def execute(self, specs: Sequence[ScenarioSpec],
                options: RunOptions) -> List[ScenarioResult]:
        """Run every spec, in order, on real worker processes."""
        return [self._execute_one(spec) for spec in specs]

    def _execute_one(self, spec: ScenarioSpec):
        from repro.bench.report import (environment_info,
                                        replicate_statistics)

        if spec.replicates == 1:
            return execute_scalar_mp(spec, transport=self.transport)
        timer = StepTimer(f"replicated:{spec.name}",
                          cat="mp.backend").start()
        per_metrics, series = [], {}
        for r in range(spec.replicates):
            result = execute_scalar_mp(spec.replicate_spec(r),
                                       transport=self.transport)
            per_metrics.append(result.metrics)
            if r == 0:
                series = result.series
        wall = timer.stop(replicates=spec.replicates)
        env = environment_info()
        env["seed"] = spec.replicate_seeds()[0]
        env["mp_transport"] = self.transport
        env["mp_workers"] = spec.workers
        return ScenarioResult(
            name=spec.name, spec_hash=spec.content_hash(),
            metrics=replicate_statistics(per_metrics), series=series,
            replicate_metrics=per_metrics, env=env, wall_s=wall)
