"""Closed-loop YellowFin for asynchronous training (Section 4, Algorithm 5).

Asynchrony with staleness ``tau`` behaves like extra momentum (Mitliagkas
et al., 2016).  Closed-loop YellowFin:

1. models the running system as
   ``E[x_{t+1} - x_t] = mu_T E[x_t - x_{t-1}] - alpha E grad f(x_t)`` (eq. 16);
2. estimates total momentum each step as the elementwise median

   ``mu_hat_T = median((x_{t-tau} - x_{t-tau-1} + alpha g) / (x_{t-tau-1} - x_{t-tau-2}))``

   where ``g`` is the freshly-delivered gradient evaluated at
   ``x_{t-tau-1}`` (eq. 37);
3. closes the loop: ``mu <- mu + gamma (mu_star - mu_hat_T)`` so measured
   total momentum tracks the SingleStep target ``mu_star``.  The resulting
   algorithmic momentum may legitimately go negative (Fig. 4, right).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.yellowfin import RowTuner, YellowFin
from repro.optim.optimizer import check_shape

# coordinates whose previous displacement is at most this are excluded
# from the median: their ratio is numerically meaningless
DENOM_EPS = 1e-30


class TotalMomentumEstimator:
    """Median-of-ratios estimator of total momentum (eq. 37) over the
    ``(R, N)`` iterate and gradient rows of ``R`` runs, one median each
    (an ``(N,)`` vector is one row).

    The last ``tau + 3`` iterates live in a preallocated
    ``(tau + 3, R, N)`` ring and the previous step's gradient and
    learning-rate rows in buffers of their own, all sized by the first
    rows seen: a step copies in what it keeps and allocates no other
    ``(R, N)`` array.

    Parameters
    ----------
    staleness:
        Gradient delay ``tau`` of the running system (0 = synchronous).
    """

    def __init__(self, staleness: int = 0):
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        self.staleness = staleness
        # need x_{t-tau}, x_{t-tau-1}, x_{t-tau-2}: keep tau + 3 iterates
        self._capacity = staleness + 3
        self._ring: Optional[np.ndarray] = None
        self._count = 0  # iterates held
        self._next = 0  # the ring slot the next iterate overwrites
        self._has_pending = False  # _grads/_lr hold the previous step

    def _allocate(self, rows) -> None:
        """Size the ring, the pending rows and the scratch for ``(R, N)``
        rows shaped like ``rows``, on first use."""
        if self._ring is not None:
            return
        shape = np.shape(rows)
        shape = (1,) * (2 - len(shape)) + shape
        self._ring = np.empty((self._capacity,) + shape)
        self._grads = np.empty(shape)
        self._lr = np.empty((shape[0], 1))
        self._numer = np.empty(shape)
        self._denom = np.empty(shape)
        self._tmp = np.empty(shape)
        self._mask = np.empty(shape, dtype=bool)
        self._kth = _median_kth(shape[1])  # a full row's

    def record_iterate(self, x: np.ndarray) -> None:
        """Record model rows ``x_t`` right after update ``t`` is applied."""
        self._allocate(x)
        np.copyto(self._ring[self._next], x)
        self._next = (self._next + 1) % self._capacity
        self._count = min(self._count + 1, self._capacity)

    def estimate(self, grads: np.ndarray, lr) -> List[Optional[float]]:
        """Every row's total-momentum estimate; None where a row has none.

        Call once per step, *before* applying the update, with the
        gradient rows being applied this step (evaluated at ``x_{t-tau}``
        in a system with delay ``tau``) and each row's learning rate.
        Internally the estimator uses the *previous* step's gradient —
        evaluated at ``x_{t-tau-1}`` — so that the ring's oldest three
        iterates line up with eq. (37) for every ``tau >= 0``:

            mu_hat = median( (x_{t-tau} - x_{t-tau-1} + lr * g) /
                             (x_{t-tau-1} - x_{t-tau-2}) ).

        A row has no estimate until the history fills, or when every
        denominator is masked; a NaN ratio gives a NaN estimate.
        """
        ready = self._has_pending and self._count == self._capacity
        estimates = self._medians() if ready else None
        self._keep_pending(grads, lr)
        return [None] * len(self._grads) if estimates is None else estimates

    def _keep_pending(self, grads, lr) -> None:
        """Copy this step's gradient and learning-rate rows for the next
        estimate (callers reuse their buffers)."""
        self._allocate(grads)
        np.copyto(self._grads, grads)
        self._lr[:, 0] = lr
        self._has_pending = True

    def _medians(self) -> List[Optional[float]]:
        """Eq. (37) per row from the pending step and the oldest three
        iterates, in the expressions and operand order of
        ``x_lag0 - x_lag1 + lr * g`` over ``x_lag1 - x_lag2``."""
        ring, oldest = self._ring, self._next  # a full ring's oldest slot
        x_lag2, x_lag1, x_lag0 = (ring[(oldest + i) % self._capacity]
                                  for i in range(3))
        numer, denom, tmp, mask = (self._numer, self._denom, self._tmp,
                                   self._mask)
        np.subtract(x_lag0, x_lag1, out=numer)
        numer += np.multiply(self._lr, self._grads, out=tmp)
        np.subtract(x_lag1, x_lag2, out=denom)
        np.greater(np.abs(denom, out=tmp), DENOM_EPS, out=mask)
        size = numer.shape[1]
        estimates: List[Optional[float]] = []
        for n, d, m in zip(numer, denom, mask):
            count = np.count_nonzero(m)
            if count == size:
                estimates.append(_median(np.divide(n, d, out=n), self._kth))
            elif count:
                ratios = n[m] / d[m]
                estimates.append(_median(ratios, _median_kth(count)))
            else:
                estimates.append(None)
        return estimates

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def get_state(self) -> dict:
        """The held iterates (oldest first) and the pending step's
        ``(gradient, lr)``, or None, as copies: ``(R, N)`` rows and a
        length-``R`` lr array, or at ``R = 1`` ``(N,)`` vectors and a
        float."""
        squeeze = self._ring is not None and len(self._grads) == 1

        def rows(block):
            return block[0].copy() if squeeze else block.copy()

        first = self._next - self._count
        iterates = [rows(self._ring[(first + i) % self._capacity])
                    for i in range(self._count)]
        pending = None
        if self._has_pending:
            lr = self._lr[:, 0]
            pending = (rows(self._grads),
                       float(lr[0]) if squeeze else lr.copy())
        return {"iterates": iterates, "pending": pending}

    def check_state(self, state: dict, size: int, key: str) -> None:
        """Raise ``ValueError`` naming ``key`` when a :meth:`get_state`
        tree holds more than ``tau + 3`` iterates or rows that are not
        ``size`` wide (an early checkpoint may hold fewer)."""
        iterates = state["iterates"]
        if len(iterates) > self._capacity:
            raise ValueError(
                f"state_dict {key}['iterates'] holds {len(iterates)} "
                f"iterates, more than staleness + 3 = {self._capacity}")
        rows = 1 if self._ring is None else len(self._grads)
        shape = (size,) if rows == 1 else (rows, size)
        for i, x in enumerate(iterates):
            check_shape(f"{key}['iterates'][{i}]", x, shape)
        if state["pending"] is not None:
            check_shape(f"{key}['pending'][0]", state["pending"][0], shape)

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` tree (see :meth:`check_state`)."""
        self._count = self._next = 0
        self._has_pending = False
        for x in state["iterates"]:
            self.record_iterate(x)
        if state["pending"] is not None:
            self._keep_pending(*state["pending"])


def _median_kth(size: int) -> list:
    """``np.median``'s partition points for ``size`` values: the middle
    one or two, and the last (NaN sorts last)."""
    half = size // 2
    return [half - 1, half, -1] if size % 2 == 0 else [half, -1]


def _median(values: np.ndarray, kth: list) -> float:
    """``np.median`` of a 1-d float array by its own steps, partitioning
    ``values`` in place: the partition at ``kth``, then a NaN in the
    last slot as the result, else the mean of the middle value(s) in
    Python floats as ``np.mean``'s ``add.reduce``-then-divide forms it.
    The reduce adds from +0.0, so a -0.0 middle (or two) gives +0.0."""
    values.partition(kth)
    last = values.item(-1)
    if math.isnan(last):
        return last
    half = values.size // 2
    if values.size % 2:
        return 0.0 + values.item(half)
    return ((0.0 + values.item(half - 1)) + values.item(half)) / 2


class MomentumFeedback:
    """Algorithm 5 over the rows of a :class:`RowTuner`: one
    :class:`TotalMomentumEstimator` over the ``(R, N)`` rows and the
    algorithmic-momentum rows its controller steps row by row.  Shared by
    :class:`ClosedLoopYellowFin` (``R = 1``) and the batched
    :class:`~repro.vec.optim.VecClosedLoopYellowFin`.
    """

    stats_names = RowTuner.stats_names + ("total_momentum",
                                          "algorithmic_momentum")

    def _init_feedback(self, gamma: float, staleness: int,
                       momentum_bounds: tuple, feedback: bool,
                       momentum: float, x: np.ndarray) -> None:
        """Validate and seed the controller: algorithmic momentum
        ``momentum`` on every row, iterate history at model rows ``x``."""
        lo, hi = momentum_bounds
        if not lo < hi:
            raise ValueError("momentum_bounds must be (low, high) with "
                             f"low < high, got {momentum_bounds!r}")
        self.gamma = gamma
        self.staleness = staleness
        self.feedback = feedback
        self.momentum_bounds = (float(lo), float(hi))
        self.estimator = TotalMomentumEstimator(staleness=staleness)
        self.estimator.record_iterate(x)
        rows = len(self._mu_rows)
        self._algorithmic_mu = [float(momentum)] * rows
        self._mu_hat: List[Optional[float]] = [None] * rows  # last, per row

    def _applied_momentum(self) -> List[float]:
        """The algorithmic momenta, unless one is prescribed."""
        if self.prescribed_momentum is None:
            return self._algorithmic_mu
        return super()._applied_momentum()

    def _close_loop(self, grads: np.ndarray, lr: List[float]) -> None:
        """Estimate every row's total momentum from this step's gradient
        and applied learning rate rows, then step each row's controller:
        ``mu <- clip(mu + gamma (target - mu_hat))``, or the SingleStep
        target open loop (feedback off, or no estimate for the row).

        The clip is ``np.clip``'s: a NaN passes through, and a value
        equal to a bound keeps its own sign of zero."""
        self._mu_hat = self.estimator.estimate(grads, lr)
        lo, hi = self.momentum_bounds
        mu = self._algorithmic_mu
        for r, (target, mu_hat) in enumerate(zip(self._mu_rows,
                                                 self._mu_hat)):
            if mu_hat is None or not self.feedback:
                mu[r] = target
            else:
                value = mu[r] + self.gamma * (target - mu_hat)
                mu[r] = lo if value < lo else hi if value > hi else value

    def row_stats(self) -> List[dict]:
        """Every row's tuner statistics plus its algorithmic and
        measured total momentum (NaN without an estimate)."""
        rows = super().row_stats()
        for row, mu, mu_hat in zip(rows, self._algorithmic_mu,
                                   self._mu_hat):
            row["algorithmic_momentum"] = mu
            row["total_momentum"] = math.nan if mu_hat is None else mu_hat
        return rows


class ClosedLoopYellowFin(MomentumFeedback, YellowFin):
    """YellowFin plus the negative-feedback momentum controller.

    Parameters
    ----------
    gamma:
        Feedback gain (Algorithm 5 uses 0.01).
    staleness:
        System staleness ``tau``; with 0 this still works and the controller
        simply keeps algorithmic momentum at the target.
    momentum_bounds:
        Clamp ``(low, high)`` for algorithmic momentum, ``low < high``;
        asynchrony compensation can push it below zero (paper Fig. 4
        shows approximately -0.2).
    feedback:
        With ``False`` the controller is disabled: algorithmic momentum
        tracks the SingleStep target exactly (plain YellowFin) while total
        momentum is still *measured* — the instrumented open-loop runs of
        Fig. 4 (left and middle panels).
    """

    def __init__(self, params: Iterable[Tensor], gamma: float = 0.01,
                 staleness: int = 0, lr: float = 1e-4, momentum: float = 0.0,
                 momentum_bounds: tuple = (-0.9, 0.999),
                 feedback: bool = True, **kwargs):
        super().__init__(params, lr=lr, momentum=momentum, **kwargs)
        self._init_feedback(gamma, staleness, momentum_bounds, feedback,
                            momentum, self._flat_params())

    def _flat_params(self) -> np.ndarray:
        if self.fused:
            return self._flat.buffer
        return np.concatenate([p.data.reshape(-1) for p in self.params])

    def _raw_step(self) -> None:
        """One closed-loop step: tune, measure total momentum, update."""
        fused_grad = self._tune()  # clipped flat grad, or None
        grad_flat = self.flat_gradient() if fused_grad is None else fused_grad
        lr = self._applied_lr()
        self._close_loop(grad_flat, lr)
        self._descend(fused_grad, self._applied_momentum(), lr)
        self.estimator.record_iterate(self._flat_params())

    def _extra_state(self) -> dict:
        extra = super()._extra_state()
        extra["algorithmic_mu"] = self._algorithmic_mu[0]
        extra.update(self.estimator.get_state())  # iterates, pending
        return extra

    def _check_extra_state(self, extra: dict) -> None:
        super()._check_extra_state(extra)
        self._require_keys(extra, ("algorithmic_mu", "iterates", "pending"))
        self.estimator.check_state(
            extra, sum(p.data.size for p in self.params), "extra")

    def _load_extra_state(self, extra: dict) -> None:
        super()._load_extra_state(extra)
        self._algorithmic_mu[0] = float(extra["algorithmic_mu"])
        self.estimator.set_state(extra)
