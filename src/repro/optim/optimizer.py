"""Base optimizer API.

All optimizers operate on a list of :class:`~repro.nn.module.Parameter`
(or any gradient-carrying :class:`~repro.autograd.tensor.Tensor`), reading
``p.grad`` and updating ``p.data`` in place — the same contract as
``torch.optim``, so YellowFin is a drop-in replacement as the paper claims.

A subclass writes its update rule once, as ``_update(x, g, *state)`` over
arrays of any shape, and names its per-parameter state buffers in
:attr:`Optimizer.slots`.  The base runs the rule once per tensor, or —
with ``fused=True`` — once on every parameter packed into one contiguous
buffer (:class:`~repro.autograd.flat.FlatParams`) with the gathered
gradient, so the update is a handful of whole-model ndarray operations
instead of a Python loop over tensors.  Fused and per-tensor modes produce
the same trajectory (bit-for-bit for the pure elementwise rules; to float
tolerance for rules involving global reductions) — the flag trades
nothing but speed.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.flat import FlatParams
from repro.autograd.tensor import Tensor
from repro.obs.session import active as _obs_active


def check_shape(key: str, array, shape: Tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming entry ``key`` unless ``array`` has
    ``shape``."""
    if np.shape(array) != tuple(shape):
        raise ValueError(f"state_dict {key} has shape {np.shape(array)}, "
                         f"expected {tuple(shape)}")


class Optimizer:
    """Common functionality: parameter bookkeeping, ``zero_grad``, fusion.

    Parameters
    ----------
    params : iterable of Tensor
        Gradient-carrying tensors to optimize.  Must be non-empty and all
        require grad.
    fused : bool, optional
        Pack parameters into one flat buffer and run :meth:`_update`
        once on the whole model instead of once per tensor.

    Attributes
    ----------
    params : list of Tensor
        The optimized tensors, in registration order.
    t : int
        Global step counter, incremented by :meth:`step`.
    fused : bool
        Whether the fused kernel path is active.
    """

    #: Per-parameter state buffers, in the order :meth:`_update` takes
    #: them after ``x`` and ``g``.  Slot ``name`` starts at zero, lives
    #: in attribute ``_name`` (one flat vector when fused, else one array
    #: per tensor) and is checkpointed as a per-tensor list under
    #: ``extra[name]``.
    slots: Tuple[str, ...] = ()

    def __init__(self, params: Iterable[Tensor], fused: bool = False):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("all optimized tensors must require grad")
        self.t = 0  # global step counter
        self.fused = bool(fused)
        self._flat: Optional[FlatParams] = None
        self._flat_grad: Optional[np.ndarray] = None
        if self.fused:
            self._flat = FlatParams(self.params)
            self._flat_grad = self._flat.zeros()
        for name in self.slots:
            setattr(self, "_" + name,
                    self._flat.zeros() if self.fused
                    else [np.zeros_like(p.data) for p in self.params])

    def zero_grad(self) -> None:
        """Reset the gradient of every optimized tensor to ``None``."""
        for p in self.params:
            p.zero_grad()

    def gradients(self) -> List[np.ndarray]:
        """Collect current gradients; missing grads are zeros.

        Returns
        -------
        list of numpy.ndarray
            One array per parameter, in parameter order.
        """
        return [p.grad if p.grad is not None else np.zeros_like(p.data)
                for p in self.params]

    def flat_gradient(self) -> np.ndarray:
        """All gradients concatenated into one fresh vector.

        Always safe to hold across steps.  The fused hot path uses the
        internal :meth:`_gather_flat_gradient` (a reused buffer) instead.
        """
        if self.fused:
            return self._gather_flat_gradient().copy()
        return np.concatenate([g.reshape(-1) for g in self.gradients()])

    def _gather_flat_gradient(self) -> np.ndarray:
        """Gather grads into the persistent flat buffer (fused mode only)."""
        assert self._flat is not None
        self._flat.ensure_packed()
        return self._flat.gather_grads(out=self._flat_grad)

    def step(self) -> None:
        """Apply one update from the current gradients.

        Delegates the actual update to :meth:`_raw_step` — the kernel
        dispatch subclasses override (YellowFin does, to interleave its
        measurement/tuning pipeline).  When a :mod:`repro.obs` session
        is active, the kernel is additionally timed and recorded as an
        ``optimizer``-category span and a profiler sample; with no
        session the only extra cost over calling the kernel directly is
        one ``active()`` check (gated by ``BENCH_obs_overhead.json``).
        """
        session = _obs_active()
        if session is None:
            self._raw_step()
            return
        start = time.perf_counter()
        self._raw_step()
        end = time.perf_counter()
        name = (f"{type(self).__name__}."
                f"{'fused' if self.fused else 'per_tensor'}")
        if session.profiler is not None:
            session.profiler.add(f"optimizer.{name}", end - start)
        if session.tracer is not None:
            session.tracer.complete(name, "optimizer", start, end,
                                    t=self.t)

    def _raw_step(self) -> None:
        """The un-instrumented update: :meth:`_apply`, then the step
        count."""
        self._apply(self._gather_flat_gradient() if self.fused else None)
        self.t += 1

    def _apply(self, flat_grad: Optional[np.ndarray] = None) -> None:
        """Run :meth:`_update` once on the packed buffer with the
        gathered ``flat_grad`` (fused), or once per tensor with its
        gradient."""
        state = [getattr(self, "_" + name) for name in self.slots]
        if self.fused:
            self._update(self._flat.buffer, flat_grad, *state)
        else:
            for p, g, *tensor_state in zip(self.params, self.gradients(),
                                           *state):
                self._update(p.data, g, *tensor_state)

    def _update(self, x: np.ndarray, g: np.ndarray, *state) -> None:
        """The update rule, in place on parameters ``x`` and the slot
        buffers ``state``, from gradient ``g`` (only read); all share one
        shape.  Subclasses must implement."""
        raise NotImplementedError

    # hook for schedulers
    @property
    def lr(self) -> float:
        """Current learning rate (0.0 until a subclass sets it)."""
        return getattr(self, "_lr", 0.0)

    @lr.setter
    def lr(self, value: float) -> None:
        self._lr = float(value)

    # ------------------------------------------------------------- #
    # checkpointing
    # ------------------------------------------------------------- #
    def state_dict(self) -> dict:
        """Serializable optimizer state (not including parameters).

        Subclasses extend via :meth:`_extra_state`; each slot is stored
        as one array per parameter.  Restore with :meth:`load_state_dict`
        on an optimizer constructed over the same parameter list.  The
        format is identical in fused and per-tensor mode, so checkpoints
        move freely between the two.
        """
        extra = self._extra_state()
        for name in self.slots:
            buffers = getattr(self, "_" + name)
            extra[name] = (self._flat.split(buffers) if self.fused
                           else [np.array(b, copy=True) for b in buffers])
        return {"t": self.t, "lr": self.lr, "extra": extra}

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`.

        Every slot and the subclass state are checked before anything is
        assigned.

        Raises
        ------
        ValueError
            Naming the key (and index), when a slot is missing or does
            not hold one array per parameter, an array's shape differs
            from its parameter's, or the subclass state does not fit.
        """
        self._assign_state(state, self._checked_state(state))

    def _checked_state(self, state: dict) -> dict:
        """Check a :meth:`state_dict` tree against this optimizer, assigning
        nothing; return the copies of its slots that
        :meth:`_assign_state` takes."""
        extra = state["extra"]
        checked = {name: self._checked_slot(name, extra)
                   for name in self.slots}
        self._check_extra_state(extra)
        return checked

    def _assign_state(self, state: dict, slots: dict) -> None:
        """Load a tree that :meth:`_checked_state` passed, with the slot
        copies it returned."""
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        self._load_extra_state(state["extra"])
        for name, buffers in slots.items():
            setattr(self, "_" + name,
                    self._flat.gather(buffers) if self.fused else buffers)

    @staticmethod
    def _require_keys(extra: dict, names: Sequence[str]) -> None:
        """Raise ``ValueError`` naming the first of ``names`` that the
        checkpoint's ``extra`` tree lacks (another optimizer's tree)."""
        for name in names:
            if name not in extra:
                raise ValueError(f"state_dict extra[{name!r}] is missing: "
                                 f"the tree holds {sorted(extra)}")

    def _checked_slot(self, name: str, extra: dict) -> List[np.ndarray]:
        """Copies of checkpoint slot ``name``'s arrays, one per parameter
        with its parameter's shape."""
        self._require_keys(extra, (name,))
        key = f"extra[{name!r}]"
        buffers = extra[name]
        if len(buffers) != len(self.params):
            raise ValueError(
                f"state_dict {key} holds {len(buffers)} arrays, expected "
                f"{len(self.params)} (one per parameter)")
        for i, (b, p) in enumerate(zip(buffers, self.params)):
            check_shape(f"{key}[{i}]", b, p.data.shape)
        return [np.array(b, copy=True) for b in buffers]

    def _extra_state(self) -> dict:
        """Subclass hook: extra serializable state."""
        return {}

    def _check_extra_state(self, extra: dict) -> None:
        """Subclass hook: raise ``ValueError`` naming the key when
        :meth:`_extra_state` output does not fit this optimizer."""

    def _load_extra_state(self, extra: dict) -> None:
        """Subclass hook: restore :meth:`_extra_state` output."""
        pass
