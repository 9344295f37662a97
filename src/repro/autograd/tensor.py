"""The :class:`Tensor` type: a NumPy array plus a reverse-mode tape.

Design notes
------------
Each differentiable operation records one node: its output holds an
``_edges`` tuple of ``(parent, vjp)`` pairs, one per grad-requiring
parent in argument order, where ``vjp`` maps the output gradient to that
parent's contribution; a tensor without edges is a leaf.  ``backward``
runs an iterative DFS over the edges in recorded order, then walks its
reverse post-order summing each parent's contributions in arrival
order.  Float addition does not associate, so this order is a contract,
pinned by ``tests/test_autograd_tape_reference.py``: it keeps the plain
walk (``grads[p] = grads[p] + c``, getitem backward as ``np.add.at``
into zeros) and the tape must match it bit for bit, strides included.
Broadcasting is handled once, in :func:`unbroadcast`, so individual ops
can assume NumPy semantics.

The walk owns the buffers it allocates and writes into them under two
rules, each of which stores the plain walk's bits:

(a) A getitem backward scatters into zeros with ``out[index] += g``
    when the index is basic (ints, slices, ``None``, ``Ellipsis``): it
    writes each cell once, so it equals ``np.add.at``, -0.0 included.
    Fancy indices keep ``np.add.at``, whose order matters for repeated
    indices.
(b) A basic-index scatter goes straight into its parent's accumulator
    as ``acc[index] += g`` when the walk allocated ``acc`` and ``acc``
    cannot hold -0.0: then ``acc + 0.0 == acc`` off the index and
    ``acc + (0.0 + g) == acc + g`` on it.  A scatter never yields -0.0,
    and a rounded sum is -0.0 only when both operands are, so a scatter
    buffer, or a sum with a scatter operand, qualifies.  An array a VJP
    returned never does: it may alias ``g`` (``__add__``'s VJP returns
    ``g`` itself) or hold -0.0.  A qualifying buffer is C-contiguous,
    like the zeros it replaces, because NumPy lays a sum with a C-ordered
    operand out in C order; so the write keeps the plain walk's layout
    too, which matters because gradient norms sum ``g * g`` in memory
    order.

These rules matter for recurrent models: without them each ``x[t]``
slice of an input sequence zero-fills its whole parent and adds it into
a fresh accumulator, O(T^2) bytes for O(T) data.  When they landed, the
LSTM cell still sliced its four gates through the tape as well; on the
LSTM LM at T=32, N=1024 (``benchmarks/test_eager_lstm_step.py``) the
rules took a training step from 1.47-1.66 s to 0.80-0.92 s on a 2-vCPU
box.  Adding the other contributions into walk-allocated buffers in
place as well measured no faster, and it needs a layout guard (``acc +
c`` of C- and F-ordered arrays is C-ordered), so every other sum stays
``acc + c``.

The engine is intentionally eager and simple (the scikit-learn performance
guide's advice: vectorized NumPy first, optimize only proven hotspots).  All
heavy math is delegated to BLAS via ``np.matmul``/``np.einsum``.  On the
tiny arrays of recurrent models, per-node bookkeeping is a large share
of a training step, so :meth:`Tensor._make` reads the grad mode once and
keeps float64 arrays as is, and an LSTM step is one composite op,
:func:`repro.autograd.functional.lstm_cell`: five nodes with
hand-written VJPs in place of seventeen elementwise and slice nodes,
with the same gradient bits.  ``BatchNorm2d`` (:mod:`repro.nn.norm`)
is likewise one node over ``[x, weight, bias]`` with the bits of its
five-node composition.  On a ResNet's batch-16 activations the cost is
passes and dispatch, not FLOPs: :meth:`Tensor.relu` stays on NumPy's
unbuffered loops and ``functional._col2im`` adds over contiguous runs,
each with the bits of the plain NumPy expression it stands for.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]
Edge = Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]
_FLOAT64 = np.dtype(np.float64)

# Grad recording is scoped per-context (not a module global) so
# `no_grad()` in one thread of the serve pool — or on thread-fallback
# platforms — cannot disable recording in a concurrently training
# thread.  contextvars give each thread/task its own value.
_GRAD_ENABLED: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_grad_enabled", default=True)


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the tape."""
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (evaluation mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
        if grad.shape == shape:
            return grad
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind in "fc":
        return arr.astype(dtype, copy=False)
    if arr.dtype.kind in "iub":
        return arr  # keep integer tensors (indices, targets) as-is
    raise TypeError(f"unsupported dtype {arr.dtype}")


def _matmul_vjp_a(g: np.ndarray, b: np.ndarray,
                 a_shape: Tuple[int, ...]) -> np.ndarray:
    """VJP of ``a @ b`` for ``a``, shared by ``Tensor.__matmul__`` and
    ``F.linear`` so both give equal bits."""
    if b.ndim == 1:
        ga = np.multiply.outer(g, b) if len(a_shape) > 1 else g * b
    else:
        ga = g @ b.swapaxes(-1, -2)
    if ga.shape != a_shape and ga.size == math.prod(a_shape):
        ga = ga.reshape(a_shape)
    return unbroadcast(ga, a_shape)


def _matmul_vjp_b(g: np.ndarray, a: np.ndarray,
                 b_shape: Tuple[int, ...]) -> np.ndarray:
    """VJP of ``a @ b`` for ``b``; see :func:`_matmul_vjp_a`."""
    if a.ndim == 1:
        gb = np.multiply.outer(a, g) if len(b_shape) > 1 else a * g
    else:
        gb = a.swapaxes(-1, -2) @ g
    if gb.shape != b_shape and gb.size == math.prod(b_shape):
        gb = gb.reshape(b_shape)
    return unbroadcast(gb, b_shape)


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


class _Scatter:
    """VJP of ``x[index]``: ``g`` added into zeros of ``x``'s shape.

    ``Tensor.backward`` recognizes it by type, so the buffer it returns
    counts as allocated by the walk, and a basic index may scatter
    straight into an accumulator instead (module notes, rule (b)).
    """

    __slots__ = ("index", "shape", "basic")

    def __init__(self, index, shape: Tuple[int, ...]):
        self.index = index
        self.shape = shape
        if type(index) is tuple:  # a loop, not all(): this runs per op
            basic = True
            for part in index:
                if not isinstance(part, _BASIC_INDEX):
                    basic = False
                    break
            self.basic = basic
        else:
            self.basic = isinstance(index, _BASIC_INDEX)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.basic:
            out[self.index] += g  # one write per cell, as np.add.at
        else:
            np.add.at(out, self.index, g)
        return out


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array contents; floats are stored as ``float64`` for gradient-check
        fidelity (models can still be small enough for this to be fast).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges", "name")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: Optional[np.ndarray] = None
        self._edges: Tuple[Edge, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor._make(self.data, ())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: ArrayLike, edges: Sequence[Edge]) -> "Tensor":
        """Create an op output, keeping the edges of grad-requiring parents.

        With no edges this builds a constant.  It skips ``__init__``,
        which op outputs never need.
        """
        out = object.__new__(Tensor)
        out.data = (data if type(data) is np.ndarray and data.dtype == _FLOAT64
                    else _as_array(data))
        out.grad = None
        out.name = ""
        if not _GRAD_ENABLED.get():
            edges = ()
        for parent, _ in edges:
            if not parent.requires_grad:
                edges = [e for e in edges if e[0].requires_grad]
                break
        out._edges = edges = tuple(edges)
        out.requires_grad = bool(edges)
        return out

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Accumulate ``d(self)/d(leaf)`` into every reachable leaf's ``grad``.

        ``grad`` defaults to 1 and must match ``self.shape``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        # iterative DFS post-order, edges visited in recorded order;
        # tensors hash by identity (no __eq__), so they key seen and grads
        topo: List[Tensor] = []
        seen = {self}
        stack = [(self, iter(self._edges))]
        while stack:
            node, it = stack[-1]
            for parent, _ in it:
                if parent not in seen:
                    seen.add(parent)
                    stack.append((parent, iter(parent._edges)))
                    break
            else:
                topo.append(node)
                stack.pop()

        # reverse post-order reaches a node after all its consumers, so
        # every node holds a gradient when it is reached.  `clean` holds
        # each parent whose accumulator this walk allocated and that
        # cannot hold -0.0 (module notes, rule (b))
        grads = {self: grad}
        clean = set()
        for node in reversed(topo):
            g = grads.pop(node)
            edges = node._edges
            if not edges:  # leaf
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, vjp in edges:
                scatter = type(vjp) is _Scatter
                if scatter and vjp.basic and parent in clean:
                    grads[parent][vjp.index] += g  # rule (b)
                    continue
                c = vjp(g)
                acc = grads.get(parent)
                if acc is None:
                    grads[parent] = c
                    if scatter:
                        clean.add(parent)
                    continue
                acc = grads[parent] = acc + c
                if type(acc) is not np.ndarray:  # 0-d operands sum to a scalar
                    clean.discard(parent)
                elif scatter:
                    clean.add(parent)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor._make(other, ())

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data + other.data,
            [(self, lambda g: unbroadcast(g, self.shape)),
             (other, lambda g: unbroadcast(g, other.shape))])

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, [(self, lambda g: -g)])

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data * other.data,
            [(self, lambda g: unbroadcast(g * other.data, self.shape)),
             (other, lambda g: unbroadcast(g * self.data, other.shape))])

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data / other.data,
            [(self, lambda g: unbroadcast(g / other.data, self.shape)),
             (other, lambda g: unbroadcast(-g * self.data / other.data ** 2,
                                           other.shape))])

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return Tensor._make(
            self.data ** exponent,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))])

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        return Tensor._make(a @ b,
                            [(self, lambda g: _matmul_vjp_a(g, b, a.shape)),
                             (other, lambda g: _matmul_vjp_b(g, a, b.shape))])

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__matmul__(self)

    # comparisons produce plain boolean arrays (non-differentiable)
    def __gt__(self, other):  # pragma: no cover - trivial
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):  # pragma: no cover - trivial
        return self.data < (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return Tensor._make(self.data.reshape(shape),
                            [(self, lambda g: g.reshape(original))])

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])  # accept t.transpose((1, 0)) like reshape
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        data = self.data.transpose(axes_t)  # validates the axes
        inverse = None
        if axes_t is not None:
            inverse = tuple(np.argsort([a % data.ndim for a in axes_t]))
        return Tensor._make(data, [(self, lambda g: g.transpose(inverse))])

    def __getitem__(self, index) -> "Tensor":
        return Tensor._make(self.data[index],
                            [(self, _Scatter(index, self.data.shape))])

    # ------------------------------------------------------------------ #
    # reductions & elementwise math
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy() if np.ndim(g) else np.full(shape, g)
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, axis)
            return np.broadcast_to(gg, shape).copy()

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                            [(self, grad_fn)])

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        # NumPy's mean of an empty slice is nan
        return self.sum(axis=axis, keepdims=keepdims) * (
            1.0 / count if count else math.nan)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._make(out_data, [(self, lambda g: g * out_data)])

    def log(self) -> "Tensor":
        return Tensor._make(np.log(self.data),
                            [(self, lambda g: g / self.data)])

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, [(self, lambda g: g * 0.5 / out_data)])

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, [(self, lambda g: g * (1.0 - out_data ** 2))])

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out_data,
                            [(self, lambda g: g * out_data * (1.0 - out_data))])

    def relu(self) -> "Tensor":
        """``max(x, 0)`` with the bytes and memory layout of
        ``np.where(x > 0, x, 0.0)``, off NumPy's buffered paths.

        ``np.fmax`` maps NaN to 0.0, and the added ``0.0`` turns the
        -0.0 that ``fmax`` keeps in some vector lanes into +0.0.  The
        VJP multiplies by the mask cast to float64 once, which gives the
        bool product's bits: past 8,192 elements ``np.where`` and a
        product with a bool mask take NumPy's buffered path.
        """
        out = np.fmax(self.data, 0.0)
        out += 0.0
        return Tensor._make(
            out, [(self, lambda g: g * (out > 0).astype(np.float64))])

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._make(np.abs(self.data), [(self, lambda g: g * sign)])

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor._make(np.clip(self.data, lo, hi),
                            [(self, lambda g: g * mask)])

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = out_data if (keepdims or axis is None) else np.expand_dims(out_data, axis)
        mask = (self.data == expanded)
        counts = mask.sum(axis=axis, keepdims=True)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(g, axis)
            return mask * gg / counts

        return Tensor._make(out_data, [(self, grad_fn)])


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        lo, hi = offsets[i], offsets[i + 1]

        def grad_fn(g: np.ndarray, lo=lo, hi=hi) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(lo, hi)
            return g[tuple(slicer)]

        parents.append((t, grad_fn))
    return Tensor._make(data, parents)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        def grad_fn(g: np.ndarray, i=i) -> np.ndarray:
            return np.take(g, i, axis=axis)

        parents.append((t, grad_fn))
    return Tensor._make(data, parents)
