"""Batched optimizer kernels over the replicate axis.

The statistical claims of the paper — tuned-momentum robustness,
closed-loop gains under asynchrony — live across seeds and delay
realizations, so every headline number wants replicates with error
bars.  This package makes the replicate axis cheap: ``R`` models are
stacked into one extra leading axis of the flat parameter buffer and
stepped together by batched fused optimizer kernels.  The event loop
that drives them — one schedule for replicates × workers — is the
:class:`~repro.fleet.engine.FleetEngine`.

Layout
------
- :mod:`repro.vec.optim` — batched SGD / momentum / Adam / YellowFin /
  closed-loop YellowFin kernels; the YellowFin kernels run the scalar
  classes' own tuner and feedback controller over replicate rows.
  :data:`repro.xp.factories.VEC_KERNELS` pairs each kernel with the
  scalar factory it mirrors.
- :mod:`repro.vec.measurements` — the YellowFin oracle state of
  :mod:`repro.core.measurements` driven over replicate rows, and
  adaptive clipping per row.

Replicated specs run through :func:`repro.fleet.runner.execute_fleet`
(the ``fleet`` backend, and the ``replicates > 1`` branch of
:func:`repro.run.execute_spec`), with transparent serial fallback.

Contract
--------
Per-replicate records are **bit-identical** to ``R`` serial runs of the
scalar path (enforced by ``tests/test_vec_equivalence.py``); batching
buys speed, never different numbers.
"""

from repro.vec.optim import (VecAdam, VecClosedLoopYellowFin,
                             VecMomentumSGD, VecOptimizer, VecSGD,
                             VecYellowFin)

__all__ = [
    "VecOptimizer", "VecSGD", "VecMomentumSGD", "VecAdam",
    "VecYellowFin", "VecClosedLoopYellowFin",
]
