"""BatchNorm2d's one tape node and ``Tensor.relu`` against the ops they
replaced, bit for bit.

``BatchNorm2d.forward`` records one node over ``[x, weight, bias]``.  This
file keeps the composition it replaced as ``reference_forward``: a
normalization node with the batch-statistics VJP, two ``reshape`` nodes,
a product and a sum (five nodes), with the mean and variance from
``np.mean`` and ``np.var``.  ``Tensor.relu`` runs ``np.fmax`` plus
``0.0`` and a float64 mask; ``reference_relu`` keeps ``np.where`` and the
bool mask.  Each case runs the same seeded graph once with each
implementation (the references patched in) and compares every output and
gradient by ``tobytes()`` and by strides: gradient norms sum ``g * g`` in
memory order, so the layout is part of the result.

The inputs mix ordinary values with +0.0, -0.0, +-inf, NaNs with
distinct payloads and subnormals, in C, F, transposed and strided
layouts.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.nn import BatchNorm2d, Conv2d

# NaN and inf inputs make NumPy warn on both sides
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def reference_normalize_train(x, mean, var, eps):
    """The normalization node of the composition."""
    n, c, h, w = x.shape
    m = n * h * w
    mean_r = mean.reshape(1, c, 1, 1)
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
    x_hat_data = (x.data - mean_r) * inv_std

    def grad_fn(g):
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat_data).sum(axis=(0, 2, 3), keepdims=True)
        return inv_std / m * (m * g - sum_g - x_hat_data * sum_gx)

    return Tensor._make(x_hat_data, [(x, grad_fn)])


def reference_forward(self, x):
    """``BatchNorm2d.forward`` as five tape nodes."""
    if x.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {x.shape}")
    if self.training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        self.update_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean + self.momentum * mean)
        self.update_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var + self.momentum * var)
        x_hat = reference_normalize_train(x, mean, var, self.eps)
    else:
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        x_hat = (x - Tensor(self.running_mean.reshape(1, -1, 1, 1))) \
            * Tensor(scale.reshape(1, -1, 1, 1))
    w = self.weight.reshape(1, -1, 1, 1)
    b = self.bias.reshape(1, -1, 1, 1)
    return x_hat * w + b


def reference_relu(self):
    """``Tensor.relu`` as ``np.where`` with a bool-mask VJP."""
    mask = self.data > 0
    return Tensor._make(np.where(mask, self.data, 0.0),
                        [(self, lambda g: g * mask)])


def use_reference(patch):
    patch.setattr(BatchNorm2d, "forward", reference_forward)
    patch.setattr(Tensor, "relu", reference_relu)


def fingerprint(value):
    """An array (or a tensor's data) as shape, strides and bytes.

    The stride of a unit dimension is left out: NumPy never steps along
    one, and ``np.where`` and a ufunc fill it in differently.
    """
    if isinstance(value, Tensor):
        value = value.data
    if value is None:
        return None
    value = np.asarray(value)
    strides = tuple(s if n > 1 else None
                    for s, n in zip(value.strides, value.shape))
    return value.shape, strides, value.tobytes()


def assert_same_bits(monkeypatch, run):
    """``run()`` equals ``run()`` with the references patched in.

    ``run`` builds everything afresh and returns ``(label, value)``
    pairs of arrays, tensors or ``None``.
    """
    new = run()
    with monkeypatch.context() as patch:
        use_reference(patch)
        old = run()
    assert [label for label, _ in new] == [label for label, _ in old]
    for (label, got), (_, want) in zip(new, old):
        assert fingerprint(got) == fingerprint(want), f"{label} differs"


def nan_with_payload(payload, negative=False):
    bits = np.uint64(0x7FF8000000000000 | payload)
    if negative:
        bits |= np.uint64(1 << 63)
    return bits.view(np.float64)


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072e-309, -1e-310,
                     nan_with_payload(0x1234), nan_with_payload(0x77, True)])


def draw(rng, shape, specials=0.0):
    """Normal draws with a ``specials`` share of :data:`SPECIALS`."""
    a = rng.normal(size=shape)
    if specials:
        pick = rng.random(shape) < specials
        a[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return a


def layout(a, kind):
    """``a``'s values in a ``kind`` memory layout."""
    if kind == "C":
        return np.ascontiguousarray(a)
    if kind == "F":
        return np.asfortranarray(a)
    if kind == "transposed":  # channels-last memory, NCHW view
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2)
    if kind == "strided":  # every other element of a wider buffer
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    raise ValueError(kind)


LAYOUTS = ("C", "F", "transposed", "strided")
SHAPES = [(4, 3, 5, 6), (1, 2, 1, 1), (3, 4, 1, 1), (1, 1, 3, 2),
          (2, 5, 4, 4), (16, 12, 8, 8)]


class TestBatchNormNode:
    def test_one_node_over_x_weight_bias(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        out = bn(x)
        assert [p for p, _ in out._edges] == [x, bn.weight, bn.bias]
        assert all(not p._edges for p, _ in out._edges)
        bn.eval()
        out = bn(x)
        assert [p for p, _ in out._edges] == [x, bn.weight, bn.bias]

    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_train_step_matches_composition(self, monkeypatch, shape, kind):
        def run():
            rng = np.random.default_rng(sum(shape) + len(kind))
            c = shape[1]
            bn = BatchNorm2d(c)
            bn.weight.data[:] = draw(rng, c)
            bn.bias.data[:] = draw(rng, c)
            x = Tensor(layout(draw(rng, shape), kind), requires_grad=True)
            out = bn(x)
            out.backward(layout(draw(rng, shape), kind))
            return [("out", out), ("dx", x.grad), ("dw", bn.weight.grad),
                    ("db", bn.bias.grad), ("mean", bn.running_mean),
                    ("var", bn.running_var)]

        assert_same_bits(monkeypatch, run)

    @pytest.mark.parametrize("seed", range(6))
    def test_special_values(self, monkeypatch, seed):
        # signed zeros, infinities, NaN payloads and subnormals in the
        # input, the affine parameters and the upstream gradient
        def run():
            rng = np.random.default_rng(100 + seed)
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                     int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            bn = BatchNorm2d(shape[1])
            bn.weight.data[:] = draw(rng, shape[1], 0.3)
            bn.bias.data[:] = draw(rng, shape[1], 0.3)
            kind = LAYOUTS[seed % len(LAYOUTS)]
            x = Tensor(layout(draw(rng, shape, 0.1), kind),
                       requires_grad=True)
            out = bn(x)
            out.backward(layout(draw(rng, shape, 0.1), kind))
            return [("out", out), ("dx", x.grad), ("dw", bn.weight.grad),
                    ("db", bn.bias.grad), ("mean", bn.running_mean),
                    ("var", bn.running_var)]

        assert_same_bits(monkeypatch, run)

    def test_all_zero_channels_keep_signed_zeros(self, monkeypatch):
        # constant channels: x - mean is +-0.0 throughout, var is 0
        def run():
            rng = np.random.default_rng(7)
            x = np.zeros((3, 2, 2, 2))
            x[:, 0] = -0.0
            x[:, 1] = 2.5
            bn = BatchNorm2d(2)
            xt = Tensor(x, requires_grad=True)
            out = bn(xt)
            g = draw(rng, x.shape)
            g[0] = -0.0
            out.backward(g)
            return [("out", out), ("dx", xt.grad), ("dw", bn.weight.grad),
                    ("db", bn.bias.grad)]

        assert_same_bits(monkeypatch, run)

    def test_running_buffers_and_eval(self, monkeypatch):
        # a conv -> bn -> relu stack trained for several steps, then
        # evaluated with and without the tape
        def run():
            rng = np.random.default_rng(11)
            conv = Conv2d(3, 4, 3, padding=1, seed=2)
            bn = BatchNorm2d(4, momentum=0.3)
            params = conv.parameters() + bn.parameters()
            out = []
            for step in range(5):
                x = Tensor(draw(rng, (4, 3, 5, 5), 0.02 * step))
                y = bn(conv(x)).relu()
                for p in params:
                    p.zero_grad()
                y.backward(draw(rng, y.shape))
                for p in params:
                    p.data -= 0.05 * np.nan_to_num(p.grad)
                out += [(f"y{step}", y), (f"mean{step}", bn.running_mean),
                        (f"var{step}", bn.running_var)]
            bn.eval()
            x = Tensor(draw(rng, (2, 3, 5, 5)), requires_grad=True)
            with no_grad():
                out.append(("eval_no_grad", bn(conv(x)).relu()))
            for p in params:
                p.zero_grad()
            y = bn(conv(x)).relu()
            y.backward(draw(rng, y.shape, 0.1))
            out += [("eval", y), ("eval_dx", x.grad)]
            out += [(f"eval_d{i}", p.grad) for i, p in enumerate(params)]
            return out

        assert_same_bits(monkeypatch, run)

    def test_eval_with_nan_running_mean(self, monkeypatch):
        # the composition subtracted the mean as x + (-mean), which
        # flips a NaN's sign bit
        def run():
            rng = np.random.default_rng(5)
            bn = BatchNorm2d(3).eval()
            bn.running_mean[:] = [nan_with_payload(0x55), 0.5, -np.inf]
            bn.running_var[:] = [1.0, np.inf, 0.25]
            x = Tensor(draw(rng, (2, 3, 2, 2), 0.2), requires_grad=True)
            out = bn(x)
            out.backward(draw(rng, out.shape, 0.2))
            return [("out", out), ("dx", x.grad), ("dw", bn.weight.grad),
                    ("db", bn.bias.grad)]

        assert_same_bits(monkeypatch, run)

    def test_input_with_other_consumers(self, monkeypatch):
        # BN's input also feeds a skip connection and a second BN, so
        # three contributions reach it; float addition does not
        # associate, so their arrival order is part of the result
        def run():
            rng = np.random.default_rng(21)
            a = Tensor(draw(rng, (4, 3, 3, 3)), requires_grad=True)
            s = Tensor(draw(rng, (1, 3, 1, 1)), requires_grad=True)
            bn1, bn2 = BatchNorm2d(3), BatchNorm2d(3)
            h = a * s
            y = (bn1(h) + h).relu() + bn2(h).relu() * h
            y.backward(draw(rng, y.shape))
            return [("y", y), ("da", a.grad), ("ds", s.grad)] + [
                (f"{k}{i}", getattr(bn, k).grad)
                for i, bn in enumerate((bn1, bn2))
                for k in ("weight", "bias")]

        assert_same_bits(monkeypatch, run)

    @pytest.mark.parametrize("training", [True, False])
    def test_computed_weight_and_bias(self, monkeypatch, training):
        # weight and bias computed from a leaf that also scales the
        # input: that leaf's three contributions arrive in the order the
        # walk reaches x, weight and bias
        def run():
            rng = np.random.default_rng(31)
            c = 4
            s = Tensor(draw(rng, c), requires_grad=True)
            bn = BatchNorm2d(c)
            bn.training = training
            bn.running_var[:] = 0.5 + rng.random(c)
            bn.weight = s * Tensor(draw(rng, c))
            bn.bias = s * Tensor(draw(rng, c))
            x = Tensor(draw(rng, (3, c, 2, 3)))
            y = bn(x * s.reshape(1, c, 1, 1))
            y.backward(draw(rng, y.shape))
            return [("y", y), ("ds", s.grad)]

        assert_same_bits(monkeypatch, run)

    def test_repeated_backward_accumulates(self, monkeypatch):
        # a second backward adds into the parameters' existing grads
        def run():
            rng = np.random.default_rng(41)
            bn = BatchNorm2d(2)
            x = Tensor(draw(rng, (3, 2, 2, 2)), requires_grad=True)
            out = bn(x)
            out.backward(draw(rng, out.shape))
            out.backward(draw(rng, out.shape))
            return [("dx", x.grad), ("dw", bn.weight.grad),
                    ("db", bn.bias.grad)]

        assert_same_bits(monkeypatch, run)


class TestRelu:
    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (16, 12, 8, 8),
                                       (1, 1, 1, 1), (5, 2, 1, 1)])
    def test_output_and_vjp(self, monkeypatch, shape, kind):
        # (16, 12, 8, 8) is past the 8,192 elements at which np.where and
        # a bool-mask product take NumPy's buffered path
        def run():
            rng = np.random.default_rng(len(kind) * 7 + shape[1])
            x = Tensor(layout(draw(rng, shape, 0.2), kind),
                       requires_grad=True)
            y = x.relu()
            g_kind = LAYOUTS[(LAYOUTS.index(kind) + 1) % len(LAYOUTS)]
            y.backward(layout(draw(rng, shape, 0.2), g_kind))
            return [("y", y), ("dx", x.grad)]

        assert_same_bits(monkeypatch, run)

    def test_every_special_value(self, monkeypatch):
        # each value in every vector-lane position of arrays of 1 to 24
        # floats: np.fmax keeps -0.0 in some positions only
        xs = np.tile(np.concatenate([SPECIALS, -SPECIALS, [1.5, -1.5]]), 3)
        gs = np.tile(np.concatenate([SPECIALS, SPECIALS[::-1], [-0.0, 2.0]]), 3)

        def run():
            out = []
            for n in range(1, 25):
                for start in range(22):
                    x = Tensor(xs[start:start + n], requires_grad=True)
                    y = x.relu()
                    y.backward(gs[start:start + n])
                    out += [(f"y{n},{start}", y), (f"dx{n},{start}", x.grad)]
            return out

        assert_same_bits(monkeypatch, run)

    def test_negative_zero_and_nan_become_positive_zero(self):
        # np.fmax keeps -0.0 in some vector lanes; the added 0.0 clears it
        x = np.full(37, -0.0)
        x[::5] = np.nan
        y = Tensor(x).relu().data
        assert y.tobytes() == np.zeros(37).tobytes()
