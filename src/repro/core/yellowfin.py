"""The YellowFin optimizer (paper Algorithm 1).

Per step:

1. (optional) adaptively clip gradients at ``sqrt(hmax)`` (Section 3.3);
2. update the measurement oracles from the (clipped) gradients;
3. solve SingleStep for the target momentum and learning rate;
4. smooth the targets with zero-debiased EMAs and apply the slow-start
   learning-rate discount ``lr <- min(lr, t * lr / (10 w))`` (Appendix E);
5. take one Polyak-momentum SGD step.

The tuner is written once over ``R`` rows (:class:`RowTuner`): the
scalar :class:`YellowFin` is its ``R = 1`` row.

The class follows the ``torch.optim`` contract (``zero_grad`` / ``step``),
making it a drop-in replacement for any optimizer, as released by the
authors.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.clipping import AdaptiveClipper
from repro.core.measurements import GradientMeasurements
from repro.core.single_step import SingleStepResult, single_step
from repro.optim.optimizer import Optimizer
from repro.optim.sgd import momentum_update


class RowTuner:
    """Algorithm 1's tuner over ``R`` rows of independent runs.

    Owns the smoothed target rows, the clip threshold read, the applied
    ``(mu, lr)`` rows and the per-row statistics; the host provides
    ``t``, ``measurements`` with ``R`` rows, and its path's gradient
    reductions and update.  Every row is a list of ``R`` Python floats,
    worked out one row at a time, so row ``r`` evolves bit for bit like
    an ``R = 1`` tuner.
    """

    #: The statistics series the runtimes log, in log order.
    stats_names: Tuple[str, ...] = ("lr", "momentum", "target_momentum")

    def _init_tuner(self, rows: int, lr: float, momentum: float,
                    window: int, slow_start: bool, lr_factor: float,
                    prescribed_momentum: Optional[float],
                    nesterov: bool) -> None:
        if lr <= 0:
            raise ValueError(f"initial lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(
                f"initial momentum must be in [0, 1), got {momentum}")
        self.window = window
        self.slow_start = slow_start
        self.lr_factor = lr_factor
        self.prescribed_momentum = prescribed_momentum
        self.nesterov = nesterov
        # smoothed SingleStep targets, one per row
        self._mu_rows = [float(momentum)] * rows
        self._lr_rows = [float(lr)] * rows

    def _clip_threshold(self):
        """The clipper's ``hmax`` rows, or None before any measurement."""
        return self.measurements.hmax() if self.measurements.t else None

    def _unscaled_sq(self):
        """The clip's squared norms of the rows it left unscaled, for the
        oracles to reuse (None without a clipper)."""
        return None if self.clipper is None else self.clipper.unscaled_sq

    def _fold_targets(self, mu, lr) -> None:
        """Smooth this step's SingleStep outputs into the target rows."""
        self._mu_rows, self._lr_rows = self.measurements.smooth(mu, lr)

    def _applied_lr(self) -> List[float]:
        """Applied learning rates at step ``t``: the targets times
        ``lr_factor``, under the slow-start discount."""
        rows = [lr * self.lr_factor for lr in self._lr_rows]
        if self.slow_start:
            rows = [min(lr, (self.t + 1) * lr / (10.0 * self.window))
                    for lr in rows]
        return rows

    def _applied_momentum(self) -> List[float]:
        """Applied momenta: the prescribed one, or the targets."""
        if self.prescribed_momentum is not None:
            return [float(self.prescribed_momentum)] * len(self._mu_rows)
        return self._mu_rows

    def row_stats(self) -> List[dict]:
        """Every row's tuner statistics, at the current ``t`` (the
        runtimes read them after a step); oracles are NaN before one."""
        names = ("lr", "momentum", "target_momentum",
                 "hmax", "hmin", "variance", "distance")
        return [dict(zip(names, (lr, mu, target) + estimates))
                for lr, mu, target, estimates in zip(
                    self._applied_lr(), self._applied_momentum(),
                    self._mu_rows, self.measurements.estimates())]


class YellowFin(RowTuner, Optimizer):
    """Automatic tuner for momentum SGD: one global ``(lr, momentum)``.

    Parameters
    ----------
    params:
        Trainable tensors.
    lr, momentum:
        Initial values used before the oracles have enough signal
        (defaults 1.0 / 0.0 per the released implementation).
    beta:
        EMA smoothing for all running estimates (paper: 0.999).
    window:
        Curvature sliding-window width ``w`` (paper: 20).
    adaptive_clip:
        Enable adaptive gradient clipping at ``sqrt(hmax)``.
    slow_start:
        Apply the learning-rate discount over the first ``10 w`` steps.
    lr_factor:
        Manual multiplier on the auto-tuned learning rate (Appendix J.4,
        Fig. 11); 1.0 means fully automatic.
    prescribed_momentum:
        If set, the SingleStep momentum is still computed (and logged) but
        the underlying SGD uses this fixed value — the Fig. 9 ablation.
    zero_debias, log_space_curvature:
        Appendix-E estimator design choices, exposed so the ablation
        benches can switch them off individually.
    nesterov:
        Apply the tuned (lr, momentum) through Nesterov's update instead
        of Polyak's (as in the released implementation's option).
    fused:
        Pack parameters into one flat buffer and run the whole hot path
        (clip → measure → update) on packed vectors: one gradient gather
        per step instead of three per-tensor traversals.
    """

    slots = ("velocity",)

    def __init__(self, params: Iterable[Tensor], lr: float = 1.0,
                 momentum: float = 0.0, beta: float = 0.999, window: int = 20,
                 adaptive_clip: bool = True, slow_start: bool = True,
                 lr_factor: float = 1.0,
                 prescribed_momentum: Optional[float] = None,
                 zero_debias: bool = True, log_space_curvature: bool = True,
                 nesterov: bool = False, fused: bool = False):
        super().__init__(params, fused=fused)
        self._init_tuner(1, lr, momentum, window, slow_start, lr_factor,
                         prescribed_momentum, nesterov)
        self.beta = beta
        self.measurements = GradientMeasurements(
            beta=beta, window=window,
            limit_envelope_growth=adaptive_clip,
            log_space_curvature=log_space_curvature,
            zero_debias=zero_debias)
        self.clipper: Optional[AdaptiveClipper] = (
            AdaptiveClipper() if adaptive_clip else None)
        self.last_result: Optional[SingleStepResult] = None

    @property
    def lr(self) -> float:
        """Smoothed target learning rate (the tuner's one row)."""
        return self._lr_rows[0]

    @lr.setter
    def lr(self, value: float) -> None:
        self._lr_rows[0] = float(value)

    @property
    def momentum(self) -> float:
        """Smoothed target momentum (the tuner's one row)."""
        return self._mu_rows[0]

    def _tune(self) -> Optional[np.ndarray]:
        """Adaptive-clip, measure, solve SingleStep, smooth the targets;
        returns the clipped packed gradient when fused (per-tensor mode
        clips every ``p.grad`` in place and returns None)."""
        hmax = self._clip_threshold() if self.clipper is not None else None
        if self.fused:
            flat_grad = self._gather_flat_gradient()
            if self.clipper is not None:
                self.clipper.clip_flat(flat_grad, hmax)
            snap = self.measurements.update_flat(flat_grad,
                                                 self._unscaled_sq())
        else:
            flat_grad = None
            if self.clipper is not None:
                self.clipper.clip(self.params, hmax)
            snap = self.measurements.update(self.gradients(),
                                            self._unscaled_sq())
        result = self.last_result = single_step(
            variance=snap.variance, distance=snap.distance,
            hmax=snap.hmax, hmin=snap.hmin)
        self._fold_targets([result.mu], [result.lr])
        return flat_grad

    def effective_lr(self) -> float:
        """Learning rate actually applied: smoothing, slow start, lr_factor."""
        return self._applied_lr()[0]

    def effective_momentum(self) -> float:
        """Momentum actually applied (honours ``prescribed_momentum``)."""
        return self._applied_momentum()[0]

    def _raw_step(self) -> None:
        """One tuner + momentum-SGD step (Algorithm 1), inside the
        instrumented :meth:`~repro.optim.optimizer.Optimizer.step`."""
        flat_grad = self._tune()
        self._descend(flat_grad, self._applied_momentum(),
                      self._applied_lr())

    def _descend(self, flat_grad: Optional[np.ndarray], mu: List[float],
                 lr: List[float]) -> None:
        """Update every tensor at this step's ``(mu, lr)``; count it."""
        self._step_hyper = (mu[0], lr[0])
        self._apply(flat_grad)
        self.t += 1

    def _update(self, x, g, v) -> None:
        """Algorithm 1's last line: momentum SGD at the applied
        ``(mu, lr)``, on the clipped gradient."""
        momentum_update(x, g, v, *self._step_hyper, self.nesterov)

    def _extra_state(self) -> dict:
        return {
            "momentum": self.momentum,
            "measurements": self.measurements.get_state(),
            "clipper_steps": (self.clipper._steps
                              if self.clipper is not None else 0),
        }

    def _check_extra_state(self, extra: dict) -> None:
        self._require_keys(extra, ("momentum", "measurements",
                                   "clipper_steps"))
        self.measurements.check_state(
            extra["measurements"], sum(p.data.size for p in self.params),
            "extra['measurements']")

    def _load_extra_state(self, extra: dict) -> None:
        self._mu_rows[0] = float(extra["momentum"])
        self.measurements.set_state(extra["measurements"])
        if self.clipper is not None:
            self.clipper._steps = extra["clipper_steps"]

    def stats(self) -> dict:
        """Current tuner state for logging (Fig. 4-style momentum traces)."""
        return self.row_stats()[0]
