"""Workload evaluation for the batched engine.

The engine (:mod:`repro.fleet.engine`) steps ``R`` rows — one per seed
(replicates of one spec, or serve tenants of one batch family) — under
one shared worker schedule.  Every simulated read needs each row's loss
and gradient, and two evaluation strategies implement that contract:

- **Eager** (the universal fallback): a :class:`ModelReplicateAdapter`
  over the scalar workload, one ordinary model per seed.  ``read``
  evaluates each row's autograd closure immediately — it *is* the
  scalar computation, so losses and gradients are bit-identical to the
  serial path by construction, and the engine checks divergence at
  read time.
- **Deferred** (the twins in :data:`FLEET_TWINS`, ``deferred = True``): the
  evaluator snapshots the ``(R, dim)`` parameter rows per read
  (:meth:`~QuadraticBowlFleet.snapshot`) and batch-evaluates all
  pending snapshots in read order on :meth:`~QuadraticBowlFleet.flush`
  — one stacked matrix op per simulation round instead of one NumPy
  call chain per read and row.  Losses and gradients are bit-identical
  to the scalar builder because the batched math reduces each row with
  the same pairwise summation the scalar path uses.

``quadratic_bowl`` — the noisy quadratic of the paper's analysis
sections — is the built-in deferred evaluator.  :data:`FLEET_TWINS`
keys it by the scalar factory it mirrors, not by name: a workload name
re-registered with another factory finds no deferred evaluator and runs
on the eager adapter over the replacement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autograd.flat import FlatParams
from repro.registry import registry
from repro.xp.workloads import build_workload, quadratic_bowl

# builder: (seeds, capacity) -> deferred evaluator
FleetWorkloadBuilder = Callable[[Sequence[int], int], "object"]


def fleet_twin(name: str) -> Optional[Callable[..., FleetWorkloadBuilder]]:
    """The deferred evaluator factory mirroring the workload registered
    as ``name``, or ``None`` (unknown names, ``module:attr`` references,
    and names whose scalar factory has no twin in :data:`FLEET_TWINS`).
    """
    if not registry.has("workload", name):
        return None
    return FLEET_TWINS.get(registry.get("workload", name).factory)


def build_fleet_evaluator(name: str, seeds: Sequence[int],
                          capacity: int = 8, **params):
    """Build the best available evaluator for a workload.

    A workload whose registered scalar factory has a deferred twin
    (:func:`fleet_twin`) gets it; anything else gets an eager
    :class:`ModelReplicateAdapter` over the scalar builder
    (``deferred`` absent).

    Parameters
    ----------
    name : str
        Workload name (scalar registry key or ``module:attr``
        reference).
    seeds : sequence of int
        One seed per row.
    capacity : int
        Initial snapshot-slot capacity for deferred evaluators (they
        grow on demand); sized by the engine to the in-flight bound.
    **params
        The spec's ``workload_params`` (the scalar factory's keywords,
        which its twin takes too).
    """
    seeds = [int(s) for s in seeds]
    twin = fleet_twin(name)
    if twin is not None:
        return twin(**params)(seeds, int(capacity))
    return ModelReplicateAdapter(name, seeds, **params)


class ModelReplicateAdapter:
    """R scalar models sharing one batched parameter matrix.

    Evaluates each row's autograd closure per read (gradient
    computation is not batched), while exposing the packed ``(R, N)``
    buffer so the optimizer and simulation layers run batched.  The R
    models' tensors are packed as one :class:`FlatParams` list, model
    after model, so row ``r`` of :attr:`buffer` is model ``r``'s slice.

    Parameters
    ----------
    name : str
        Scalar workload registry key.
    seeds : sequence of int
        One seed per row, passed to the scalar builder.
    **params
        The spec's ``workload_params``.

    Attributes
    ----------
    buffer : numpy.ndarray
        The ``(R, N)`` view of the packed parameters.
    offsets : list of int
        One model's tensor boundaries: ``offsets[i]:offsets[i+1]`` is
        tensor ``i``'s column slice in every row.

    Raises
    ------
    ValueError
        When a seed's model has other parameter shapes than seed 0's.
    """

    def __init__(self, name: str, seeds: Sequence[int], **params):
        build = build_workload(name, **params)
        self.models = []
        self.loss_fns = []
        for seed in seeds:
            model, loss_fn = build(int(seed))
            self.models.append(model)
            self.loss_fns.append(loss_fn)
        per_model = [m.parameters() for m in self.models]
        self.flat = FlatParams([p for params in per_model for p in params])
        tensors = len(per_model[0])
        for r, params in enumerate(per_model):
            if [p.data.shape for p in params] != self.flat.shapes[:tensors]:
                raise ValueError(f"replicate {r} parameter shapes differ "
                                 "from replicate 0")
        self.offsets = self.flat.offsets[:tensors + 1]
        self.buffer = self.flat.buffer.reshape(len(per_model),
                                               self.offsets[-1])

    def ensure_packed(self) -> None:
        """Re-pack if any row's model rebound a parameter."""
        self.flat.ensure_packed()

    def read(self, out: np.ndarray) -> List[float]:
        """One read per row: losses returned, gradients into ``out``
        rows (a C-contiguous ``(R, N)`` array; missing gradients become
        zeros)."""
        losses = []
        for model, loss_fn in zip(self.models, self.loss_fns):
            model.zero_grad()
            loss = loss_fn()
            loss.backward()
            losses.append(float(loss.data))
        self.flat.gather_grads(out=out.reshape(-1))
        return losses


class QuadraticBowlFleet:
    """Deferred snapshot/flush evaluator of the noisy quadratic.

    The batched twin of the scalar ``quadratic_bowl`` workload
    (:mod:`repro.xp.workloads`): the ``R`` parameter vectors live in an
    ``(R, dim)`` buffer (stepped in place by a vec optimizer kernel),
    drawn with per-row noise tables from per-row generators in the
    scalar builder's draw order.  Each simulated read copies the rows
    into a snapshot slot and records its noise-stream tick, and
    :meth:`flush` evaluates every pending snapshot with three stacked
    elementwise ops plus one row-wise reduction.  Rows reduce along the
    contiguous last axis, so each row's loss uses the same pairwise
    summation as the scalar ``np.sum(hx * x)`` — losses and gradients
    are bit-identical to evaluating the snapshots one at a time.

    Slots are recycled through a free list and the arrays double when
    the in-flight read population outgrows them.
    """

    #: The engine calls snapshot()/flush()/grad_row() instead of
    #: read(); losses become available at flush time, not read time.
    deferred = True

    def __init__(self, seeds: Sequence[int], dim: int = 256,
                 hmin: float = 0.05, hmax: float = 2.0,
                 noise: float = 0.1, noise_horizon: int = 512,
                 capacity: int = 8):
        self.h = np.exp(np.linspace(np.log(hmin), np.log(hmax), dim))
        self.buffer = np.empty((len(seeds), dim))
        tables = []
        for r, seed in enumerate(seeds):
            # identical draw order to the scalar builder: parameter
            # vector first, then the noise table, from one generator
            rng = np.random.default_rng(int(seed))
            self.buffer[r] = rng.normal(size=dim)
            tables.append(noise * rng.normal(size=(noise_horizon, dim)))
        # (horizon, R, dim): one read's noise is one contiguous block
        self._table = np.ascontiguousarray(np.stack(tables, axis=1))
        self.noise_horizon = noise_horizon
        self.offsets = [0, dim]
        cap = max(int(capacity), 1)
        self._snaps = np.empty((cap,) + self.buffer.shape)
        self._grads = np.empty((cap,) + self.buffer.shape)
        # tick stored pre-modded: only ever read through `% horizon`
        self._ticks = np.empty(cap, dtype=np.int64)
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self._pending: List[int] = []
        self._tick = 0
        # flush scratch (grown on demand): gathered snapshots, h*x, and
        # gathered noise rows — reused so a flush allocates nothing big
        self._scratch = np.empty((0,) + self.buffer.shape)
        self._flushed = np.empty((0, len(seeds)))

    def ensure_packed(self) -> None:
        """No tensors alias the buffer; nothing to re-pack."""

    def _grow(self) -> None:
        """Double every slot array, freeing the new upper half."""
        cap = self._snaps.shape[0]
        for name in ("_snaps", "_grads", "_ticks"):
            old = getattr(self, name)
            grown = np.empty((2 * cap,) + old.shape[1:], dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)
        self._free.extend(range(2 * cap - 1, cap - 1, -1))

    def snapshot(self) -> int:
        """Record one read: copy the parameter rows, claim the next
        noise tick, and return the slot id."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._snaps[slot] = self.buffer
        self._ticks[slot] = self._tick % self.noise_horizon
        self._tick += 1
        self._pending.append(slot)
        return slot

    def flush(self) -> None:
        """Batch-evaluate every snapshot taken since the last flush.

        Works in preallocated scratch blocks: gather the snapshots and
        their noise-table blocks with :func:`np.take`, form ``h * x`` in
        place, and scatter gradients back.  The loss reduction stays
        ``(hx * x).sum(axis=-1)`` — the same contiguous-axis pairwise
        summation as the scalar ``np.sum(hx * x)``, so batching cannot
        perturb a single bit.
        """
        if not self._pending:
            return
        slots = np.asarray(self._pending, dtype=np.intp)
        n = slots.shape[0]
        if self._scratch.shape[0] < 3 * n:
            self._scratch = np.empty((3 * n,) + self.buffer.shape)
        HX = self._scratch[n:2 * n]
        start = int(slots[0])
        if n == 1 or (int(slots[-1]) == start + n - 1
                      and bool((np.diff(slots) == 1).all())):
            # round-mode steady state: slots recycle in snapshot order,
            # so the batch is one contiguous block — views, no gathers
            X = self._snaps[start:start + n]
            G = self._grads[start:start + n]
            ticks = self._ticks[start:start + n]
        else:
            X = self._scratch[:n]
            G = self._scratch[2 * n:3 * n]
            np.take(self._snaps, slots, axis=0, out=X)
            ticks = self._ticks[slots]
        np.multiply(self.h, X, out=HX)
        np.take(self._table, ticks, axis=0, out=G)
        G += HX
        if G.base is self._scratch:
            self._grads[slots] = G
        np.multiply(HX, X, out=HX)
        self._flushed = 0.5 * HX.sum(axis=-1)
        self._pending.clear()

    def flushed_losses(self) -> np.ndarray:
        """Losses of the last :meth:`flush`: an ``(n, R)`` array, one
        line per snapshot in snapshot order.

        Snapshot order is read order — the engine appends to its
        unlogged-step list and this evaluator to ``_pending`` in the
        same call — so the engine can log the whole batch without a
        per-read Python loop.
        """
        return self._flushed

    def grad_row(self, slot: int) -> np.ndarray:
        """The flushed ``(R, dim)`` gradient of one snapshot (a view,
        valid until the slot is released and reused)."""
        return self._grads[slot]

    def release(self, slot: int) -> None:
        """Return a slot to the free list."""
        self._free.append(slot)


def _quadratic_bowl_fleet(dim: int = 256, hmin: float = 0.05,
                          hmax: float = 2.0, noise: float = 0.1,
                          noise_horizon: int = 512
                          ) -> FleetWorkloadBuilder:
    """Factory mirroring the scalar ``quadratic_bowl`` signature."""
    def build(seeds: Sequence[int], capacity: int) -> QuadraticBowlFleet:
        return QuadraticBowlFleet(seeds, dim=dim, hmin=hmin, hmax=hmax,
                                  noise=noise,
                                  noise_horizon=noise_horizon,
                                  capacity=capacity)
    return build


#: The deferred evaluator factory of each built-in scalar workload
#: factory it mirrors bit for bit, keyed by that factory object.
FLEET_TWINS = {quadratic_bowl: _quadratic_bowl_fleet}
