"""Batched fused optimizer kernels over the replicate axis.

Each class here steps ``R`` independent optimization runs at once on an
``(R, N)`` parameter matrix (rows = replicates, columns = one model's
packed :class:`~repro.autograd.flat.FlatParams` axis).
All elementwise state (velocities, Adam moments, gradient EMAs) is
carried as ``(R, N)`` matrices and advanced in single NumPy operations;
per-replicate tuned hyperparameters (YellowFin's learning rate and
momentum) are length-``R`` vectors passed down the rows as ``(R, 1)``
columns.  The update rules themselves are the scalar optimizers' own
functions (:func:`~repro.optim.sgd.sgd_update`,
:func:`~repro.optim.sgd.momentum_update`,
:func:`~repro.optim.adam.adam_update`), called once on the whole matrix.

Bit-identity contract
---------------------
Row ``r`` of a batched kernel evolves bit-for-bit like the corresponding
scalar optimizer from :mod:`repro.optim` / :mod:`repro.core` fed the
same gradients:

- elementwise updates are the same rule, and IEEE-identical under
  broadcasting;
- reductions (norms, dots, medians) run per row on contiguous row
  views, replaying the scalar path's exact kernel on the same layout;
- YellowFin's ``fused`` hyperparameter selects between the scalar fused
  and per-tensor reduction semantics, exactly as it does for the scalar
  classes (the elementwise kernels accept and ignore it: both modes of
  an elementwise rule agree bit for bit).

The differential suite (``tests/test_vec_equivalence.py``) enforces the
contract for every kernel.  Each kernel is paired with the scalar
factory it mirrors in :data:`repro.xp.factories.VEC_KERNELS`, keyed by
that factory object.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.closed_loop import MomentumFeedback
from repro.core.yellowfin import RowTuner
from repro.optim.adam import adam_update
from repro.optim.sgd import momentum_update, sgd_update
from repro.vec.measurements import (VecAdaptiveClipper, VecMeasurements,
                                    vec_single_step)


class VecOptimizer:
    """Base class: an optimizer stepping ``R`` replicates in lockstep.

    Parameters
    ----------
    buffer : numpy.ndarray
        The shared ``(R, N)`` parameter matrix, updated in place.
    offsets : sequence of int
        Per-tensor column boundaries (used by per-tensor reduction
        semantics); ``[0, N]`` for a single-tensor workload.

    Attributes
    ----------
    t : int
        Shared step counter (replicates commit in lockstep).
    """

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int]):
        if buffer.ndim != 2:
            raise ValueError(
                f"buffer must be (replicates, size), got {buffer.shape}")
        self.buffer = buffer
        self.offsets = list(offsets)
        self.replicates = int(buffer.shape[0])
        self.size = int(buffer.shape[1])
        self.t = 0

    def step(self, grads: np.ndarray) -> None:
        """Apply one lockstep update from the ``(R, N)`` gradients.

        ``grads`` may be modified in place (YellowFin clips it) —
        callers must treat it as consumed, mirroring the scalar fused
        kernels' reuse of their gather scratch.
        """
        self._kernel(grads)
        self.t += 1

    def _kernel(self, grads: np.ndarray) -> None:
        """Subclass hook: the actual batched update."""
        raise NotImplementedError


class VecSGD(VecOptimizer):
    """Batched vanilla SGD (mirrors :class:`repro.optim.SGD`)."""

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int],
                 lr: float = 0.05, weight_decay: float = 0.0,
                 fused: bool = False):
        super().__init__(buffer, offsets)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)

    def _kernel(self, grads: np.ndarray) -> None:
        sgd_update(self.buffer, grads, self.lr, self.weight_decay)


class VecMomentumSGD(VecOptimizer):
    """Batched Polyak/Nesterov momentum SGD
    (mirrors :class:`repro.optim.MomentumSGD`)."""

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int],
                 lr: float = 0.05, momentum: float = 0.9,
                 nesterov: bool = False, weight_decay: float = 0.0,
                 fused: bool = False):
        super().__init__(buffer, offsets)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(buffer)

    def _kernel(self, grads: np.ndarray) -> None:
        momentum_update(self.buffer, grads, self._velocity, self.momentum,
                        self.lr, self.nesterov, self.weight_decay)


class VecAdam(VecOptimizer):
    """Batched Adam with bias correction
    (mirrors :class:`repro.optim.Adam`)."""

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int],
                 lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 amsgrad: bool = False, fused: bool = False):
        super().__init__(buffer, offsets)
        if not -1.0 < beta1 < 1.0:
            raise ValueError(f"beta1 must be in (-1, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.amsgrad = bool(amsgrad)
        self._m = np.zeros_like(buffer)
        self._v = np.zeros_like(buffer)
        self._vmax = np.zeros_like(buffer)

    def _kernel(self, grads: np.ndarray) -> None:
        # self.t counts completed steps; bias correction uses this one's
        adam_update(self.buffer, grads, self._m, self._v, self._vmax,
                    self.lr, self.beta1, self.beta2, self.eps, self.t + 1,
                    self.amsgrad)


class VecYellowFin(RowTuner, VecOptimizer):
    """Batched YellowFin: the scalar class's
    :class:`~repro.core.yellowfin.RowTuner` over ``R`` replicate rows.

    Only the batched clip, the oracle update, the per-row SingleStep
    loop and the ``(R, 1)``-column momentum update are this path's own.
    Mirrors :class:`repro.core.yellowfin.YellowFin` row by row, in both
    fused and per-tensor reduction modes.
    """

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int],
                 lr: float = 1.0, momentum: float = 0.0,
                 beta: float = 0.999, window: int = 20,
                 adaptive_clip: bool = True, slow_start: bool = True,
                 lr_factor: float = 1.0,
                 prescribed_momentum: Optional[float] = None,
                 zero_debias: bool = True,
                 log_space_curvature: bool = True,
                 nesterov: bool = False, fused: bool = False):
        super().__init__(buffer, offsets)
        self._init_tuner(self.replicates, lr, momentum, window, slow_start,
                         lr_factor, prescribed_momentum, nesterov)
        self.fused = bool(fused)
        self.measurements = VecMeasurements(
            self.replicates, offsets, fused=self.fused, beta=beta,
            window=window, limit_envelope_growth=adaptive_clip,
            log_space_curvature=log_space_curvature,
            zero_debias=zero_debias)
        self.clipper: Optional[VecAdaptiveClipper] = (
            VecAdaptiveClipper(self.replicates, offsets, fused=self.fused)
            if adaptive_clip else None)
        self._velocity = np.zeros_like(buffer)

    def step(self, grads: np.ndarray) -> None:
        """One batched tuner + momentum-SGD lockstep (Algorithm 1)."""
        self._tune(grads)
        self._descend(grads, self._applied_momentum(), self._applied_lr())

    def _tune(self, grads: np.ndarray) -> None:
        """Clip every row in place, fold the rows into the oracles and
        smooth every row's SingleStep targets."""
        if self.clipper is not None:
            self.clipper.clip(grads, self._clip_threshold())
        snap = self.measurements.update(grads, self._unscaled_sq())
        self._fold_targets(*vec_single_step(
            variance=snap.variance, distance=snap.distance,
            hmax=snap.hmax, hmin=snap.hmin))

    def _descend(self, grads: np.ndarray, mu: List[float],
                 lr: List[float]) -> None:
        """Momentum SGD at every row's applied ``(mu, lr)``, passed to
        the scalar rule as ``(R, 1)`` columns; counts the step."""
        mu_column, lr_column = np.array((mu, lr))[:, :, None]
        momentum_update(self.buffer, grads, self._velocity, mu_column,
                        lr_column, self.nesterov)
        self.t += 1


class VecClosedLoopYellowFin(MomentumFeedback, VecYellowFin):
    """Batched closed-loop YellowFin (Algorithm 5, per replicate): the
    scalar class's :class:`~repro.core.closed_loop.MomentumFeedback` over
    the replicate rows.  Mirrors
    :class:`repro.core.closed_loop.ClosedLoopYellowFin` row by row.
    """

    def __init__(self, buffer: np.ndarray, offsets: Sequence[int],
                 gamma: float = 0.01, staleness: int = 0,
                 lr: float = 1e-4, momentum: float = 0.0,
                 momentum_bounds: tuple = (-0.9, 0.999),
                 feedback: bool = True, **kwargs):
        super().__init__(buffer, offsets, lr=lr, momentum=momentum,
                         **kwargs)
        self._init_feedback(gamma, staleness, momentum_bounds, feedback,
                            momentum, self.buffer)

    def step(self, grads: np.ndarray) -> None:
        """One closed-loop lockstep: tune, measure total momentum per
        replicate, close the feedback loop, update."""
        self._tune(grads)
        lr = self._applied_lr()
        self._close_loop(grads, lr)
        self._descend(grads, self._applied_momentum(), lr)
        self.estimator.record_iterate(self.buffer)

