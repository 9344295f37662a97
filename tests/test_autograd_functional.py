"""Gradient checks for the neural-net functional ops."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.grad_check import check_gradients


def t(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _gather_indices(c, kh, kw, stride, oh, ow):
    """``(k, i, j)`` fancy indices of the im2col gather over ``(N, C, Hp, Wp)``."""
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = stride * np.repeat(np.arange(oh), ow)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(ow), oh)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def _reference_conv2d(x, w, b, stride, padding, g):
    """Reference conv2d: a fancy-index gather forward and an ``np.add.at``
    scatter backward, returning ``(out, dx, dw, db)`` for upstream ``g``.
    """
    n, c, _, _ = x.shape
    c_out, _, kh, kw = w.shape
    oh, ow = g.shape[2:]
    k, i, j = _gather_indices(c, kh, kw, stride, oh, ow)
    p = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = x_padded[:, k, i, j]
    w_mat = w.reshape(c_out, -1)
    out = np.einsum("of,nfl->nol", w_mat, cols).reshape(n, c_out, oh, ow)
    if b is not None:
        out = out + b.reshape(1, c_out, 1, 1)
    g_mat = g.reshape(n, c_out, -1)
    dcols = np.einsum("of,nol->nfl", w_mat, g_mat)
    dx_padded = np.zeros(x_padded.shape)
    np.add.at(dx_padded, (slice(None), k, i, j), dcols)
    dx = dx_padded[:, :, p:-p, p:-p] if p else dx_padded
    dw = np.einsum("nol,nfl->of", g_mat, cols).reshape(w.shape)
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def _nan_as_nan(a):
    """``a`` with every NaN as ``np.nan``: which of two NaNs a sum keeps
    is left open by IEEE 754, and ``np.add.at`` and ``+=`` run different
    compiled loops."""
    return np.where(np.isnan(a), np.nan, a)


def _conv_case(rng, family):
    """Random conv operands ``(x, w, b, g, stride, padding)``, ~15% -0.0."""
    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    n, c, c_out = draw(1, 4), draw(1, 4), draw(1, 4)
    kh, kw, stride, padding = draw(1, 4), draw(1, 4), draw(1, 3), draw(0, 2)
    if family == "1x1":
        kh = kw = stride = 1
        padding = 0
    elif family == "stride3":
        stride = 3
    h = draw(max(1, kh - 2 * padding), 9)
    w = draw(max(1, kw - 2 * padding), 9)
    if family == "full":  # kernel as large as the padded input
        padding = draw(0, (min(kh, kw) - 1) // 2)
        h, w = kh - 2 * padding, kw - 2 * padding
    elif family == "unit_dims":
        n, c, c_out, h, w = (1 if rng.random() < 0.5 else v
                             for v in (n, c, c_out, h, w))
        kh, kw = min(kh, h + 2 * padding), min(kw, w + 2 * padding)
    x = rng.normal(size=(n, c, h, w))
    x[rng.random(x.shape) < 0.15] = -0.0
    weight = rng.normal(size=(c_out, c, kh, kw))
    bias = rng.normal(size=c_out) if rng.random() < 0.5 else None
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    g = rng.normal(size=(n, c_out, oh, ow))
    g[rng.random(g.shape) < 0.15] = -0.0
    return x, weight, bias, g, stride, padding


class TestSoftmaxFamily:
    def test_log_softmax_grad(self):
        check_gradients(lambda a: F.log_softmax(a), [t((4, 5))])

    def test_log_softmax_rows_normalize(self):
        out = F.log_softmax(t((3, 6)))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_log_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]), requires_grad=True)
        out = F.log_softmax(x)
        assert np.isfinite(out.data).all()

    def test_softmax_grad(self):
        check_gradients(lambda a: F.softmax(a), [t((3, 4))], atol=1e-4)

    def test_cross_entropy_matches_manual(self):
        logits = t((5, 3))
        targets = np.array([0, 2, 1, 1, 0])
        ce = F.cross_entropy(logits, targets)
        logp = F.log_softmax(logits).data
        manual = -logp[np.arange(5), targets].mean()
        np.testing.assert_allclose(float(ce.data), manual)

    def test_cross_entropy_grad(self):
        targets = np.array([0, 2, 1, 1])
        check_gradients(lambda a: F.cross_entropy(a, targets), [t((4, 3))])

    def test_cross_entropy_reductions(self):
        logits = t((4, 3))
        targets = np.array([0, 1, 2, 0])
        mean = F.cross_entropy(logits, targets, reduction="mean")
        total = F.cross_entropy(logits, targets, reduction="sum")
        none = F.cross_entropy(logits, targets, reduction="none")
        np.testing.assert_allclose(float(total.data), 4 * float(mean.data))
        assert none.shape == (4,)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, targets, reduction="bogus")

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_cross_entropy_empty_batch(self, reduction):
        logits = Tensor(np.zeros((0, 3)), requires_grad=True)
        out = F.cross_entropy(logits, np.zeros(0, dtype=np.int64),
                              reduction=reduction)
        if reduction == "none":
            assert out.shape == (0,)
        else:
            assert out.shape == ()
            # NumPy's mean of nothing is nan, its sum is zero
            assert np.isnan(out.data) == (reduction == "mean")
        out.sum().backward()
        assert logits.grad.shape == (0, 3)

    def test_cross_entropy_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.cross_entropy(t((2, 3, 4)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("targets", [
        np.array([1]),               # would broadcast against every row
        np.array([0, -1, 2, 1]),     # would index from the end
        np.array([0, 3, 2, 1]),      # past the last class
        np.array([[0, 1], [2, 1]]),  # not 1-D
        np.array([0.0, 1.0, 2.0, 1.0]),
    ], ids=["length_1", "negative", "too_large", "two_d", "float"])
    def test_cross_entropy_rejects_bad_targets(self, targets):
        with pytest.raises(ValueError, match="targets"):
            F.cross_entropy(t((4, 3)), targets)

    def test_mse_loss(self):
        check_gradients(lambda a: F.mse_loss(a, np.zeros((3, 2))), [t((3, 2))])


class TestConvPool:
    def test_conv2d_grad(self):
        x = t((2, 3, 5, 5))
        w = t((4, 3, 3, 3), 1)
        b = t((4,), 2)
        check_gradients(lambda x, w, b: F.conv2d(x, w, b, padding=1),
                        [x, w, b], atol=1e-4)

    def test_conv2d_stride_grad(self):
        x = t((1, 2, 6, 6))
        w = t((3, 2, 3, 3), 1)
        check_gradients(lambda x, w: F.conv2d(x, w, stride=2, padding=1),
                        [x, w], atol=1e-4)

    def test_conv2d_output_shape(self):
        x = t((2, 3, 8, 8))
        w = t((5, 3, 3, 3), 1)
        assert F.conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_conv2d_matches_naive(self):
        # cross-check im2col against a direct quadruple loop
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((1, 3, 4, 4))
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    naive[0, o, i, j] = np.sum(
                        xp[0, :, i:i + 3, j:j + 3] * w[o])
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ValueError):
            F.conv2d(t((1, 3, 4, 4)), t((2, 4, 3, 3), 1))

    def test_conv2d_rejects_stride_below_one(self):
        with pytest.raises(ValueError, match="stride"):
            F.conv2d(t((1, 2, 4, 4)), t((3, 2, 3, 3), 1), stride=0)

    def test_conv2d_rejects_negative_padding(self):
        with pytest.raises(ValueError, match="padding"):
            F.conv2d(t((1, 2, 4, 4)), t((3, 2, 3, 3), 1), padding=-1)

    def test_conv2d_rejects_kernel_larger_than_padded_input(self):
        with pytest.raises(ValueError, match="larger"):
            F.conv2d(t((1, 2, 2, 5)), t((3, 2, 5, 5), 1), padding=1)
        with pytest.raises(ValueError, match="larger"):
            F.conv2d(t((1, 2, 5, 2)), t((3, 2, 5, 5), 1), padding=1)
        # a kernel exactly the padded size gives one output pixel
        out = F.conv2d(t((1, 2, 3, 3)), t((3, 2, 5, 5), 1), padding=1)
        assert out.shape == (1, 3, 1, 1)

    def test_conv2d_bit_identical_to_gather_reference(self):
        # every geometry family the strided-window fast path must get
        # exactly right, with -0.0 in the input and upstream gradient,
        # by bytes and by the strides of dx
        rng = np.random.default_rng(20260)
        families = ["random", "1x1", "stride3", "full", "unit_dims"]
        for trial in range(400):
            x, w, b, g, stride, padding = _conv_case(
                rng, families[trial % len(families)])
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            bt = None if b is None else Tensor(b, requires_grad=True)
            out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
            out.backward(g)
            got = [out.data, xt.grad, wt.grad]
            if bt is not None:
                got.append(bt.grad)
            # zip stops at ``got``, so db is compared only with a bias
            want = _reference_conv2d(x, w, b, stride, padding, g)
            geometry = (x.shape, w.shape, stride, padding)
            for name, a, e in zip(("out", "dx", "dw", "db"), got, want):
                assert a.shape == e.shape, (name, geometry)
                assert a.tobytes() == e.tobytes(), (name, geometry)
            # downstream reductions sum in memory order
            assert xt.grad.strides == want[1].strides, geometry

            # the scatter alone, fed signed zeros, infinities and NaNs
            # directly, in C and in F order
            n, c, h, wd = x.shape
            _, _, kh, kw = w.shape
            oh, ow = g.shape[2:]
            padded = (n, c, h + 2 * padding, wd + 2 * padding)
            dcols = rng.normal(size=(n, c * kh * kw, oh * ow))
            pick = rng.random(dcols.shape)
            dcols[pick < 0.3] = -0.0
            dcols[(pick >= 0.3) & (pick < 0.34)] = np.inf
            dcols[(pick >= 0.34) & (pick < 0.38)] = -np.inf
            dcols[(pick >= 0.38) & (pick < 0.4)] = np.nan
            k, i, j = _gather_indices(c, kh, kw, stride, oh, ow)
            expected = np.zeros(padded)
            with np.errstate(invalid="ignore"):  # inf + -inf
                np.add.at(expected, (slice(None), k, i, j), dcols)
                for cols in (dcols, np.asfortranarray(dcols)):
                    got_dx = F._col2im(cols, padded, kh, kw, stride, oh, ow)
                    assert (_nan_as_nan(got_dx).tobytes()
                            == _nan_as_nan(expected).tobytes()), geometry
                    assert got_dx.strides == expected.strides, geometry

    def test_avg_pool_grad(self):
        check_gradients(lambda x: F.avg_pool2d(x, 2), [t((2, 3, 4, 4))])

    def test_max_pool_grad(self):
        check_gradients(lambda x: F.max_pool2d(x, 2), [t((2, 2, 4, 4))],
                        atol=1e-4)

    def test_global_avg_pool(self):
        x = t((2, 3, 4, 4))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))

    def test_pool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            F.avg_pool2d(t((1, 1, 5, 5)), 2)


class TestEmbeddingDropoutLinear:
    def test_embedding_grad_accumulates_repeats(self):
        w = t((5, 3))
        idx = np.array([1, 1, 4])
        out = F.embedding(w, idx)
        out.sum().backward()
        expected = np.zeros((5, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_allclose(w.grad, expected)

    def test_embedding_2d_indices(self):
        w = t((6, 4))
        idx = np.array([[0, 1], [2, 3]])
        assert F.embedding(w, idx).shape == (2, 2, 4)

    def test_dropout_eval_identity(self):
        x = t((5, 5))
        rng = np.random.default_rng(0)
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_preserves_scale(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)), requires_grad=True)
        out = F.dropout(x, 0.25, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_linear(self):
        check_gradients(lambda x, w, b: F.linear(x, w, b),
                        [t((4, 3)), t((5, 3), 1), t((5,), 2)])
        check_gradients(lambda x, w: F.linear(x, w),
                        [t((2, 4, 3)), t((5, 3), 1)])

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_matches_composed_ops(self, bias):
        # one weight reused over 12 recurrent calls, as in an LSTM: the
        # order its gradient contributions are summed in sets the last bit
        def unrolled(linear):
            rng = np.random.default_rng(4)
            x = Tensor(rng.normal(size=(12, 8, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(6, 6)) / 3, requires_grad=True)
            b = Tensor(rng.normal(size=6), requires_grad=True) if bias else None
            h = Tensor(np.zeros((8, 6)))
            for step in range(12):
                h = (linear(h, w, b) + x[step]).tanh()
            (h * Tensor(rng.normal(size=(8, 6)))).sum().backward()
            return h, x, w, b

        def composed(h, w, b):
            out = h @ w.T
            return out if b is None else out + b

        got, want = unrolled(F.linear), unrolled(composed)
        assert got[0].data.tobytes() == want[0].data.tobytes()
        for new, old in zip(got[1:], want[1:]):
            if old is not None:
                assert new.grad.tobytes() == old.grad.tobytes()
        assert got[2].grad.flags.f_contiguous == want[2].grad.flags.f_contiguous
