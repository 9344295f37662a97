"""Normalization layers: BatchNorm2d (ResNets) and LayerNorm (RNN variants)."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, unbroadcast
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalization over ``(N, H, W)`` per channel.

    Tracks running statistics for evaluation mode, matching the behaviour of
    the ResNet layers in the paper's Table 3 architectures.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        xd = x.data
        n, c, h, w = xd.shape
        if self.training:
            # np.mean and np.var's own passes, with the mean and the
            # centred array computed once: the centred array serves both
            # the variance and x_hat
            m = n * h * w
            mean = xd.mean(axis=(0, 2, 3), keepdims=True)
            centred = xd - mean
            var = np.square(centred).sum(axis=(0, 2, 3)) / m
            self.update_buffer(
                "running_mean", (1 - self.momentum) * self.running_mean
                + self.momentum * mean.reshape(c))
            self.update_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * var)
            inv_std = (1.0 / np.sqrt(var + self.eps)).reshape(1, c, 1, 1)
            x_hat = centred  # scaled in place: the variance is taken
            x_hat *= inv_std

            def x_grad(g: np.ndarray) -> np.ndarray:
                # standard batchnorm backward through mean and variance
                sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                return inv_std / m * (m * g - sum_g - x_hat * sum_gx)
        else:
            scale = (1.0 / np.sqrt(self.running_var + self.eps)).reshape(
                1, c, 1, 1)
            # x + (-mean), as ``x - mean`` ran on the tape: a NaN mean
            # keeps the flipped sign bit it had there
            x_hat = (xd + -self.running_mean.reshape(1, c, 1, 1)) * scale

            def x_grad(g: np.ndarray) -> np.ndarray:
                return g * scale
        return _scale_shift(x, x_hat, x_grad, self.weight, self.bias)


def _scale_shift(x: Tensor, x_hat: np.ndarray, x_grad, weight: Tensor,
                 bias: Tensor) -> Tensor:
    """``x_hat * weight + bias`` per channel, one tape node over
    ``[x, weight, bias]``.

    It has the bits of the five-node composition ``x_hat *
    weight.reshape(1, C, 1, 1) + bias.reshape(1, C, 1, 1)`` over a
    normalization node whose VJP is ``x_grad``
    (``tests/test_autograd_batchnorm.py`` keeps it): each VJP runs the
    composed ops' expression, and the edges are in the order the
    composition's walk reaches ``x``, ``weight`` and ``bias``, so
    contributions arrive in the same order.
    """
    shape = (1, x_hat.shape[1], 1, 1)
    w = weight.data.reshape(shape)
    out = x_hat * w
    out += bias.data.reshape(shape)
    return Tensor._make(out, [
        (x, lambda g: x_grad(g * w)),
        (weight, lambda g: unbroadcast(g * x_hat, shape).reshape(
            weight.shape)),
        (bias, lambda g: unbroadcast(g, shape).reshape(bias.shape))])


class LayerNorm(Module):
    """Layer normalization across the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        d = x.shape[-1]
        mean = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat_data = (x.data - mean) * inv_std

        def grad_fn(g: np.ndarray) -> np.ndarray:
            sum_g = g.sum(axis=-1, keepdims=True)
            sum_gx = (g * x_hat_data).sum(axis=-1, keepdims=True)
            return inv_std / d * (d * g - sum_g - x_hat_data * sum_gx)

        x_hat = Tensor._make(x_hat_data, [(x, grad_fn)])
        return x_hat * self.weight + self.bias
