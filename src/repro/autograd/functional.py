"""Neural-network operations built on :class:`~repro.autograd.tensor.Tensor`.

Everything is expressed with vectorized NumPy (im2col for convolution), per
the ml-systems guide: no per-element Python loops on hot paths.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.autograd.tensor import (Tensor, _matmul_vjp_a, _matmul_vjp_b,
                                   unbroadcast)


# --------------------------------------------------------------------- #
# activations / softmax family
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    softmax_data = np.exp(out_data)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return g - softmax_data * g.sum(axis=axis, keepdims=True)

    return Tensor._make(out_data, [(x, grad_fn)])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` ``(N, C)`` and integer ``targets`` ``(N,)``.

    This is the negative log-probability objective YellowFin's measurement
    functions assume (Section 3.2: Fisher information approximates the
    Hessian for such losses).
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
    n, c = logits.shape
    if targets.shape != (n,) or targets.dtype.kind not in "iu":
        raise ValueError(f"targets must be {n} integer class ids, got "
                         f"shape {targets.shape} dtype {targets.dtype}")
    if n and (targets.min() < 0 or targets.max() >= c):
        raise ValueError(f"targets must lie in [0, {c}), got "
                         f"[{targets.min()}, {targets.max()}]")
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    if reduction == "mean":
        return -picked.mean()
    if reduction == "sum":
        return -picked.sum()
    if reduction == "none":
        return -picked
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep
    return x * Tensor(mask)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    mask = x.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    return Tensor._make(x.data * scale, [(x, lambda g: g * scale)])


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))``, computed stably."""
    out = np.logaddexp(0.0, x.data)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(out, [(x, lambda g: g * sig)])


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)
    # d/dx [0.5 x (1 + tanh(u(x)))] with u' = c (1 + 3*0.044715 x^2)
    du = c * (1.0 + 3 * 0.044715 * x.data ** 2)
    grad_local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
    return Tensor._make(out, [(x, lambda g: g * grad_local)])


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two trailing dims of an NCHW array by ``p`` per side.

    The values and memory order of ``np.pad`` with constant zeros,
    without its per-call Python overhead.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype,
                   order="F" if x.flags.fnc else "C")
    out[:, :, p:p + h, p:p + w] = x
    return out


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing (spatial) dims of an NCHW tensor."""
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if padding == 0:
        return x
    p = padding
    out = _pad2d(x.data, p)
    return Tensor._make(out, [(x, lambda g: g[:, :, p:-p, p:-p])])


def split(x: Tensor, sections: int, axis: int = 0) -> list:
    """Differentiable ``np.split`` into equal sections."""
    size = x.shape[axis]
    if size % sections:
        raise ValueError(f"axis size {size} not divisible by {sections}")
    width = size // sections
    outs = []
    for i in range(sections):
        index = [slice(None)] * x.ndim
        index[axis] = slice(i * width, (i + 1) * width)
        outs.append(x[tuple(index)])
    return outs


# --------------------------------------------------------------------- #
# convolution (im2col) and pooling
# --------------------------------------------------------------------- #
def _im2col(x_padded: np.ndarray, kh: int, kw: int, stride: int,
            oh: int, ow: int) -> np.ndarray:
    """Gather conv windows of ``(N, C, Hp, Wp)`` into ``(N, C*KH*KW, OH*OW)``.

    The columns are copied out of a strided window view into a
    C-contiguous ``(C*KH*KW, OH*OW, N)`` buffer, returned transposed:
    batch innermost, the memory order a fancy-index gather
    ``x_padded[:, k, i, j]`` produces.  ``np.einsum`` sums in memory
    order, so the conv output and weight gradient depend on it to the
    last bit.  The result never aliases ``x_padded``, whose buffer the
    caller may reuse.
    """
    n, c = x_padded.shape[:2]
    sn, sc, sh, sw = x_padded.strides
    windows = as_strided(x_padded, shape=(c, kh, kw, oh, ow, n),
                         strides=(sc, sh, sw, stride * sh, stride * sw, sn),
                         writeable=False)
    cols = windows.copy()  # C order
    return cols.reshape(c * kh * kw, oh * ow, n).transpose(2, 0, 1)


def _col2im(dcols: np.ndarray, padded_shape: Tuple[int, int, int, int],
            kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Scatter-add ``(N, C*KH*KW, OH*OW)`` columns back onto ``padded_shape``.

    Adds the KH*KW window slices into zeros in ``(ki, kj)`` order, the
    order in which ``np.add.at`` over the gather's indices reaches each
    cell, so every sum matches it bit for bit, signed zeros included.
    The windows are copied once into ``(KH, KW, OH, OW, N, C)`` order
    and added into an ``(Hp, Wp, N, C)`` buffer, so each add runs over
    contiguous ``N*C`` rows rather than rows of ``OW`` floats; the
    result is copied back C-contiguous, the layout of the zeros the
    reference scatters into.  A 1x1 stride-1 kernel covers each cell
    exactly once, so its sum is ``0.0 + dcols``.
    """
    n, c, hp, wp = padded_shape
    if kh == kw == stride == 1:
        return np.add(dcols.reshape(padded_shape), 0.0, order="C")
    windows = dcols.reshape(n, c, kh, kw, oh, ow).transpose(
        2, 3, 4, 5, 0, 1).copy()
    dx = np.zeros((hp, wp, n, c))
    h_span = stride * (oh - 1) + 1
    w_span = stride * (ow - 1) + 1
    for ki in range(kh):
        for kj in range(kw):
            dx[ki:ki + h_span:stride, kj:kj + w_span:stride] += windows[ki, kj]
    return dx.transpose(2, 3, 0, 1).copy()  # C order


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW layout.

    Parameters
    ----------
    x: ``(N, C_in, H, W)``
    weight: ``(C_out, C_in, KH, KW)``
    bias: ``(C_out,)`` or None
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"kernel {kh}x{kw} is larger than the padded input "
            f"{h + 2 * padding}x{w + 2 * padding}")

    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    x_padded = _pad2d(x.data, padding) if padding else x.data
    cols = _im2col(x_padded, kh, kw, stride, out_h, out_w)  # (N, F, L)
    w_mat = weight.data.reshape(c_out, -1)             # (C_out, C*KH*KW)
    out = np.einsum("of,nfl->nol", w_mat, cols)        # (N, C_out, OH*OW)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    padded_shape = x_padded.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(n, c_out, -1)                    # (N, C_out, L)
        dcols = np.einsum("of,nol->nfl", w_mat, g_mat)     # (N, F, L)
        dx_padded = _col2im(dcols, padded_shape, kh, kw, stride,
                            out_h, out_w)
        if padding:
            return dx_padded[:, :, padding:-padding, padding:-padding]
        return dx_padded

    def grad_w(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(n, c_out, -1)
        dw = np.einsum("nol,nfl->of", g_mat, cols)
        return dw.reshape(weight.shape)

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return Tensor._make(out, parents)


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Average pooling with stride == kernel (used for ResNet downsampling)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = view.mean(axis=(3, 5))

    def grad_fn(g: np.ndarray) -> np.ndarray:
        g_expanded = g[:, :, :, None, :, None] / (kernel * kernel)
        return np.broadcast_to(
            g_expanded, (n, c, oh, kernel, ow, kernel)).reshape(n, c, h, w)

    return Tensor._make(out, [(x, grad_fn)])


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions: ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3))


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Max pooling with stride == kernel."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = view.max(axis=(3, 5))
    mask = view == out[:, :, :, None, :, None]
    counts = mask.sum(axis=(3, 5), keepdims=True)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        spread = mask * (g[:, :, :, None, :, None] / counts)
        return spread.reshape(n, c, h, w)

    return Tensor._make(out, [(x, grad_fn)])


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward."""
    indices = np.asarray(indices)
    out = weight.data[indices]
    shape = weight.shape

    def grad_fn(g: np.ndarray) -> np.ndarray:
        dw = np.zeros(shape, dtype=np.float64)
        np.add.at(dw, indices.reshape(-1),
                  g.reshape(-1, shape[1]))
        return dw

    return Tensor._make(out, [(weight, grad_fn)])


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` matching ``torch.nn.functional.linear``.

    One tape node with the composed ops' exact gradients: ``g @ weight``
    for ``x`` and the F-ordered ``(x.T @ g).T`` for ``weight``.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    a, wt = x.data, weight.data.T
    out = a @ wt
    shape = out.shape
    edges = [(x, lambda g: _matmul_vjp_a(unbroadcast(g, shape), wt, a.shape)),
             (weight, lambda g: _matmul_vjp_b(unbroadcast(g, shape), a,
                                              wt.shape).T)]
    if bias is not None:
        out = out + bias.data
        edges.append((bias, lambda g: unbroadcast(g, bias.shape)))
    return Tensor._make(out, edges)


class _SharedVJP:
    """One VJP handed to several edges of a node, computed once.

    The tape calls a node's edges in order with the same ``g``, so the
    first call computes ``fn(g)`` and the last of ``uses`` calls drops
    it, keeping no gradient alive past the walk.  A call with another
    ``g`` recomputes, so any calling order stays correct.
    """

    __slots__ = ("fn", "uses", "left", "g", "value")

    def __init__(self, fn):
        self.fn = fn
        self.uses = self.left = 0
        self.g = self.value = None

    def __call__(self, g: np.ndarray) -> np.ndarray:
        if self.g is not g:
            self.g, self.value, self.left = g, self.fn(g), self.uses
        value = self.value
        self.left -= 1
        if self.left <= 0:
            self.g = self.value = None
        return value


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_ih: Tensor,
              w_hh: Tensor, bias: Tensor) -> Tuple[Tensor, Tensor]:
    """One LSTM step; returns ``(h, c)``.

    Gates are laid out ``[input, forget, cell, output]`` along ``w_ih``'s
    and ``w_hh``'s rows.  The step records five tape nodes: the two
    :func:`linear` maps, the gate activations ``[σ(i), σ(f), tanh(g),
    σ(o)]`` of their sum plus ``bias``, ``c = f*c_prev + i*g`` and
    ``h = o*tanh(c)``.  Each node runs the NumPy expressions of the
    slice-and-activate cell it replaces, in the same order, and its
    gradients keep that cell's bits (``docs/architecture.md``, "The LSTM
    cell"): the ``c`` and ``h`` nodes fill the gate blocks they do not
    own with -0.0, the additive identity, the activation VJP adds ``0.0``
    as the slices' scatters into zeros did, and an output gate whose
    ``h`` sent no gradient keeps a zero one, as the unvisited slice did.
    """
    a1 = linear(x, w_ih)
    a2 = linear(h_prev, w_hh)
    if not isinstance(c_prev, Tensor):
        c_prev = Tensor(c_prev)
    hs = w_hh.shape[1]
    cell = slice(2 * hs, 3 * hs)
    pre = a1.data + a2.data + bias.data
    act = np.empty(pre.shape)
    np.divide(1.0, 1.0 + np.exp(-pre[:, :2 * hs]), out=act[:, :2 * hs])
    np.tanh(pre[:, cell], out=act[:, cell])
    np.divide(1.0, 1.0 + np.exp(-pre[:, 3 * hs:]), out=act[:, 3 * hs:])
    i, f, g, o = act[:, :hs], act[:, hs:2 * hs], act[:, cell], act[:, 3 * hs:]
    h_reached = [False]  # whether this walk's h node sent the gates a gradient

    def gate_grad(ga: np.ndarray) -> np.ndarray:
        d = ga * act * (1.0 - act)  # sigmoid' on every block ...
        np.multiply(ga[:, cell], 1.0 - g ** 2, out=d[:, cell])  # ... but tanh'
        d += 0.0  # -0.0 -> +0.0, as a scatter into zeros
        if not h_reached[0]:  # the output gate went unvisited: its zeros
            d[:, 3 * hs:] = 0.0
        h_reached[0] = False
        return d

    shared = _SharedVJP(gate_grad)
    a1_shape, a2_shape, b_shape = a1.shape, a2.shape, bias.shape
    gates = Tensor._make(act, [
        (a1, lambda ga: unbroadcast(shared(ga), a1_shape)),
        (a2, lambda ga: unbroadcast(shared(ga), a2_shape)),
        (bias, lambda ga: unbroadcast(shared(ga), b_shape))])
    shared.uses = len(gates._edges)

    cp = c_prev.data
    c_data = f * cp + i * g

    def c_to_gates(gc: np.ndarray) -> np.ndarray:
        d = np.empty(act.shape)
        np.multiply(gc, g, out=d[:, :hs])
        np.multiply(gc, cp, out=d[:, hs:2 * hs])
        np.multiply(gc, i, out=d[:, cell])
        d[:, 3 * hs:] = -0.0
        return d

    c = Tensor._make(c_data, [
        (gates, c_to_gates),
        (c_prev, lambda gc: unbroadcast(gc * f, c_prev.shape))])

    tc = np.tanh(c_data)

    def h_to_gates(gh: np.ndarray) -> np.ndarray:
        h_reached[0] = True
        d = np.full(act.shape, -0.0)
        np.multiply(gh, tc, out=d[:, 3 * hs:])
        return d

    h = Tensor._make(o * tc, [
        (gates, h_to_gates),
        (c, lambda gh: gh * o * (1.0 - tc ** 2))])
    return h, c
