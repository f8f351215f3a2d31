"""Parameterized layers: convolutions and a dense layer.

Weights use uniform Kaiming-style fan-in init, biases a uniform bound of
1/sqrt(fan_in); every layer takes a required ``rng=`` keyword so models
are reproducible from a seed.  Convolutions pad each axis by ``k // 2``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _Layer:
    """A weight of ``shape`` and a bias of ``n_out``, drawn from ``rng`` in that order."""

    def __init__(self, shape, n_out: int, fan_in: int, rng: np.random.Generator, dtype):
        self.weight = Tensor(kaiming_uniform(shape, fan_in, rng, dtype), requires_grad=True)
        bound = float(1.0 / np.sqrt(fan_in))
        self.bias = Tensor(rng.uniform(-bound, bound, size=(n_out,)).astype(dtype), requires_grad=True)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv3d(_Layer):
    def __init__(self, c_in, c_out, kernel, stride=(1, 1, 1), *, rng: np.random.Generator, dtype=np.float32):
        kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(k // 2 for k in kernel)
        super().__init__((c_out, c_in, *kernel), c_out, c_in * int(np.prod(kernel)), rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.weight, self.stride, self.padding, bias=self.bias)


class Conv1d(_Layer):
    def __init__(self, c_in, c_out, kernel: int, stride: int = 1, *, rng: np.random.Generator, dtype=np.float32):
        self.stride = int(stride)
        self.padding = kernel // 2
        super().__init__((c_out, c_in, kernel), c_out, c_in * kernel, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.stride, self.padding, bias=self.bias)


class Linear(_Layer):
    def __init__(self, n_in, n_out, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__((n_in, n_out), n_out, n_in, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)
