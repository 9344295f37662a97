"""Reverse-mode automatic differentiation over NumPy arrays.

This is the substrate that stands in for PyTorch/TensorFlow in the paper's
experiments: YellowFin only ever consumes minibatch gradients, so any
correct autodiff engine reproduces the optimizer's trajectory.

The public surface mirrors a minimal ``torch``:

>>> from repro.autograd import Tensor
>>> x = Tensor([1.0, 2.0], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4.])
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd.flat import FlatParams
from repro.autograd import functional

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "FlatParams",
           "functional"]
