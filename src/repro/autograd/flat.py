"""Flat-buffer parameter packing for fused optimizer kernels.

Per-tensor optimizer loops pay one round of Python/NumPy dispatch per
parameter per statistic — dozens of tiny vector ops per step on models
built from many small tensors (LSTM gates, ResNet block weights).
:class:`FlatParams` packs every parameter into one contiguous buffer and
re-points each tensor's ``.data`` at a view of it, so an optimizer can
express its whole update as a handful of ndarray operations regardless of
how many tensors the model has.  This is the same flattening trick
production parameter servers use to turn many small messages into one
large one.

Packing is transparent to the model: forward/backward see the same shapes,
and in-place updates on either side (``p.data -= ...`` or
``buffer -= ...``) are visible to both.  The one operation that breaks the
aliasing is *rebinding* ``p.data`` to a fresh array (as
``Module.load_state_dict`` does); :meth:`FlatParams.ensure_packed`
detects that cheaply by data pointer and re-packs.

The replicate axis needs no second class: ``R`` copies of one model
packed as one list put model ``r``'s tensors in the ``r``-th block of
``size / R`` entries, so the buffer reshaped to ``(R, size / R)`` holds
one model per row (:class:`~repro.fleet.workloads.ModelReplicateAdapter`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


class FlatParams:
    """One contiguous buffer aliasing a list of parameter tensors.

    Parameters
    ----------
    params:
        Gradient-carrying tensors to pack.  Each tensor's ``.data`` is
        replaced by a view into :attr:`buffer`; values are preserved.

    Attributes
    ----------
    buffer:
        The packed 1-D array.  In-place arithmetic on it updates every
        parameter simultaneously.
    offsets:
        ``offsets[i]:offsets[i+1]`` is parameter ``i``'s slice of the
        buffer.

    Examples
    --------
    >>> from repro.autograd import Tensor
    >>> a = Tensor([1.0, 2.0], requires_grad=True)
    >>> b = Tensor([[3.0], [4.0]], requires_grad=True)
    >>> flat = FlatParams([a, b])
    >>> flat.buffer
    array([1., 2., 3., 4.])
    >>> flat.buffer *= 2.0
    >>> a.data
    array([2., 4.])
    """

    def __init__(self, params: Sequence[Tensor]):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("cannot pack an empty parameter list")
        dtype = np.result_type(*(p.data.dtype for p in self.params))
        if dtype.kind not in "fc":
            raise TypeError(f"parameters must be floating, got {dtype}")
        self.shapes = [p.data.shape for p in self.params]
        sizes = [int(p.data.size) for p in self.params]
        self.offsets: List[int] = [0]
        for s in sizes:
            self.offsets.append(self.offsets[-1] + s)
        self.size = self.offsets[-1]
        self.buffer = np.empty(self.size, dtype=dtype)
        self._pack()

    # ------------------------------------------------------------------ #
    # packing
    # ------------------------------------------------------------------ #
    def _pack(self) -> None:
        """Copy current parameter values in and alias ``.data`` to views."""
        self._views: List[np.ndarray] = []
        for i, p in enumerate(self.params):
            start, stop = self.offsets[i], self.offsets[i + 1]
            self.buffer[start:stop] = np.asarray(p.data, dtype=self.buffer.dtype).ravel()
            p.data = self.buffer[start:stop].reshape(self.shapes[i])
            self._views.append(p.data)

    @property
    def packed(self) -> bool:
        """Whether every ``p.data`` is still the exact view we installed.

        An identity check per tensor — O(1) each, no NumPy calls — so it is
        cheap enough to run at the top of every fused optimizer step.
        """
        for p, view in zip(self.params, self._views):
            if p.data is not view:
                return False
        return True

    def ensure_packed(self) -> None:
        """Re-pack if any ``p.data`` was rebound (e.g. ``load_state_dict``).

        Values currently held by the parameters win: re-packing copies them
        back into the buffer before restoring the views.
        """
        if not self.packed:
            self._pack()

    # ------------------------------------------------------------------ #
    # gather / scatter
    # ------------------------------------------------------------------ #
    def view(self, index: int) -> np.ndarray:
        """The buffer slice of parameter ``index`` (1-D, no copy)."""
        return self.buffer[self.offsets[index]:self.offsets[index + 1]]

    def gather(self, arrays: Sequence[Optional[np.ndarray]],
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Concatenate per-parameter arrays (e.g. gradients) into ``out``.

        ``None`` entries (parameters with no gradient this step) become
        zeros.  With a preallocated ``out`` this is the only per-tensor
        work left on the fused hot path — one C-level copy per tensor.

        Raises
        ------
        ValueError
            When ``arrays`` does not hold one entry per parameter.
        """
        if len(arrays) != len(self.params):
            raise ValueError(f"gather got {len(arrays)} arrays for "
                             f"{len(self.params)} parameters")
        if out is None:
            out = np.empty(self.size, dtype=self.buffer.dtype)
        for i, a in enumerate(arrays):
            start, stop = self.offsets[i], self.offsets[i + 1]
            if a is None:
                out[start:stop] = 0.0
            else:
                out[start:stop] = np.asarray(a).reshape(-1)
        return out

    def gather_grads(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather ``p.grad`` of every packed parameter into one vector."""
        return self.gather([p.grad for p in self.params], out=out)

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """Split a flat vector back into per-parameter copies."""
        flat = np.asarray(flat)
        return [flat[self.offsets[i]:self.offsets[i + 1]]
                .reshape(self.shapes[i]).copy()
                for i in range(len(self.params))]

    def zeros(self) -> np.ndarray:
        """A zero vector matching the buffer (for flat optimizer state)."""
        return np.zeros(self.size, dtype=self.buffer.dtype)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> np.ndarray:
        """Copy of the packed parameter vector (for checkpoints).

        Re-packs first if any ``p.data`` was rebound, so the snapshot
        always reflects the live parameter values.
        """
        self.ensure_packed()
        return self.buffer.copy()

    def restore(self, vec: np.ndarray) -> None:
        """Load a :meth:`snapshot` back into the packed parameters.

        Writes through the shared buffer, so every aliased tensor sees
        the restored values without rebinding — fused optimizer state
        stays coherent across a restore.
        """
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise ValueError(
                f"snapshot has shape {vec.shape}, expected ({self.size},)")
        self.ensure_packed()
        self.buffer[:] = vec

    def __len__(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        return (f"FlatParams(tensors={len(self.params)}, size={self.size}, "
                f"dtype={self.buffer.dtype})")

