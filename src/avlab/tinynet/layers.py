"""Parameterized layers: convolutions and a dense layer.

Weights use uniform Kaiming-style fan-in init; every layer takes an
explicit rng so models are reproducible from a seed.  Convolutions pad
each axis by ``k // 2``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _bias_uniform(n: int, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    bound = float(1.0 / np.sqrt(fan_in))
    return rng.uniform(-bound, bound, size=(n,)).astype(dtype)


class Conv3d:
    def __init__(self, c_in, c_out, kernel, stride=(1, 1, 1),
                 rng: np.random.Generator | None = None, dtype=np.float32):
        kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(k // 2 for k in kernel)
        rng = rng or np.random.default_rng(0)
        fan_in = c_in * int(np.prod(kernel))
        self.weight = Tensor(kaiming_uniform((c_out, c_in, *kernel), fan_in, rng, dtype), requires_grad=True)
        self.bias = Tensor(_bias_uniform(c_out, fan_in, rng, dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.weight, self.stride, self.padding, bias=self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv1d:
    def __init__(self, c_in, c_out, kernel: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.stride = int(stride)
        self.padding = kernel // 2
        rng = rng or np.random.default_rng(0)
        fan_in = c_in * kernel
        self.weight = Tensor(kaiming_uniform((c_out, c_in, kernel), fan_in, rng, dtype), requires_grad=True)
        self.bias = Tensor(_bias_uniform(c_out, fan_in, rng, dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.stride, self.padding, bias=self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Linear:
    def __init__(self, n_in, n_out, rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(kaiming_uniform((n_in, n_out), n_in, rng, dtype), requires_grad=True)
        self.bias = Tensor(_bias_uniform(n_out, n_in, rng, dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]
