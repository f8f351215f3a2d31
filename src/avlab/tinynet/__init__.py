"""Minimal reverse-mode autodiff over numpy arrays.

Just enough machinery for the detector: 3D/1D convolutions, adaptive
average pooling, ReLU/sigmoid/softmax, binary cross-entropy and Adam.
float32 is the training dtype; the gradient-check harness runs the
same ops in float64.
"""

from .tensor import (
    Tensor,
    add,
    adaptive_avg_pool1d,
    adaptive_avg_pool3d,
    bce_loss,
    clip,
    conv1d,
    conv3d,
    exp,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    sub,
    tsum,
    transpose,
)
from .layers import Conv1d, Conv3d, Linear, kaiming_uniform
from .optim import Adam
from . import gradcheck

__all__ = [
    "Tensor", "no_grad", "add", "sub", "mul", "matmul", "relu", "sigmoid", "exp", "log",
    "sqrt", "clip", "tsum", "mean", "reshape", "transpose", "softmax",
    "conv3d", "conv1d", "adaptive_avg_pool3d", "adaptive_avg_pool1d",
    "bce_loss", "Conv3d", "Conv1d", "Linear", "kaiming_uniform", "Adam",
    "gradcheck",
]
