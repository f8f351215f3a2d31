"""Tensor type and differentiable operations.

Every op builds a node in a tape; ``Tensor.backward()`` walks the tape
in reverse topological order and accumulates gradients into every
tensor with ``requires_grad=True``.  Inside ``no_grad()`` ops build no
tape: outputs carry no parents and no backward closure, so inference and
finite-difference probes keep nothing alive for a backward pass that
never comes.  Ops preserve the input dtype, so the same graph code runs
in float32 for training and float64 for finite-difference checks.

``conv3d`` and ``conv1d`` share one GEMM kernel over N spatial axes.  It
pads the input channels-last, (B, *S, C), so each window copied into the
column matrix and each tap's gradient added back moves contiguous runs
of ``kw * C`` or ``C`` values, not the one to five values a
channels-first layout gives.  Only the taps of the last two spatial axes
go into the column matrix's K dimension.  The taps of a leading axis
(time, for conv3d) go into the GEMM's N dimension: one GEMM against a
(K, kt * O) weight block gives kt partial outputs for every input frame,
and shift-adding them along time gives the output, so the column matrix
of a kt = 3 conv3d is three times smaller.  conv1d has no leading axis,
so all its taps stay in K.  Each call's geometry (output sizes, padded
shape, index tuples, permutations and the byte strides of the
``as_strided`` views) is planned once per (shapes, stride, padding,
itemsize) and cached.  Public tensors stay (B, C, ...).
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError

BCE_EPS = 1e-7

# Cleared inside ``no_grad()``: ops then build no tape.
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Record no tape inside the block, for inference and probe-only forward passes.

    Op outputs get ``requires_grad=False``, no parents and no backward
    closure, so nothing a backward pass would need is kept alive.  Nests,
    and restores the previous state on exit, also on an exception.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# Finite differences are only valid where the graph is smooth.  When a
# KinkTracker is installed, the non-smooth ops (relu, sqrt, clip) record
# how close their arguments come to the kink so a checker can reject
# probe points that sit inside its step size.
_KINK_TRACKER = None


class KinkTracker:
    def __init__(self):
        self.min_distance = float("inf")

    def note(self, distance: float) -> None:
        if distance < self.min_distance:
            self.min_distance = distance


@contextmanager
def track_kinks(tracker: KinkTracker):
    global _KINK_TRACKER
    previous = _KINK_TRACKER
    _KINK_TRACKER = tracker
    try:
        yield tracker
    finally:
        _KINK_TRACKER = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar root, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # collapse gradient of a broadcast operand back to the operand shape
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    if _KINK_TRACKER is not None:
        _KINK_TRACKER.note(float(np.abs(x.data).min()))
    mask = x.data > 0
    data = x.data * mask

    def backward(g):
        _accum(x, g * mask)

    return _node(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf for very negative x, giving the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        _accum(x, g * s * (1.0 - s))

    return _node(s, (x,), backward)


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def backward(g):
        _accum(x, g * e)

    return _node(e, (x,), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g):
        _accum(x, g / x.data)

    return _node(data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    if _KINK_TRACKER is not None:
        _KINK_TRACKER.note(float(np.abs(x.data).min()))
    r = np.sqrt(x.data)

    def backward(g):
        # subgradient guard at exactly zero
        _accum(x, g * 0.5 / np.maximum(r, np.asarray(1e-12, dtype=r.dtype)))

    return _node(r, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    if _KINK_TRACKER is not None:
        _KINK_TRACKER.note(float(np.abs(x.data - lo).min()))
        _KINK_TRACKER.note(float(np.abs(x.data - hi).min()))
    data = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)

    def backward(g):
        _accum(x, g * mask)

    return _node(data, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.data.shape).copy())

    return _node(data, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    s = tsum(x, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _node(data, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    data = x.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(x, g.transpose(inv))

    return _node(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - dot))

    return _node(y, (x,), backward)


def bce_loss(y_pred: Tensor, y_true: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; predictions are probabilities, clamped
    to [BCE_EPS, 1 - BCE_EPS] before the logs."""
    y = np.asarray(y_true, dtype=y_pred.dtype)
    if y.shape != y_pred.data.shape:
        raise ShapeError(f"bce_loss: predictions {y_pred.shape} vs labels {y.shape}")
    p = clip(y_pred, BCE_EPS, 1.0 - BCE_EPS)
    pos = mul(log(p), y)
    neg = mul(log(sub(_as_tensor(np.asarray(1.0, dtype=y_pred.dtype)), p)), 1.0 - y)
    return mul(mean(add(pos, neg)), -1.0)


# ---------------------------------------------------------------------------
# convolutions and pooling


def _out_len(n: int, k: int, s: int, p: int) -> int:
    o = (n + 2 * p - k) // s + 1
    if o <= 0:
        raise ShapeError(f"conv output length {o} for input {n}, kernel {k}, stride {s}, pad {p}")
    return o


class _ConvPlan(NamedTuple):
    """Geometry of one conv call: shapes, views, permutations and byte strides."""

    xp_shape: tuple  # padded channels-last input (B, *Sp, C)
    inner: tuple  # where the unpadded input sits in xp, channel axis left open
    cols_shape: tuple  # as_strided view of xp: (B, *lead rows, *trail So, *trail taps, C)
    cols_strides: tuple
    gemm: tuple  # (K, N): K = trail taps * C, N = lead taps * O
    w_axes: tuple  # (O, C, *ks) -> (*trail taps, C, *lead taps, O), the (K, N) GEMM operand
    w_back: tuple  # the inverse permutation, for the weight gradient
    y_shape: tuple  # GEMM result (B, *lead rows, *trail So, *lead taps, O)
    sum_shape: tuple  # as_strided view of y: (B, O, *So, *lead taps)
    sum_strides: tuple
    lead_taps: tuple  # index of each lead tap's (B, O, *So) slice in that view
    gcols_shape: tuple  # input gradient (trail taps, B, *lead rows, *trail So, C)
    taps: tuple  # per trailing tap, its destination in the padded input gradient


def _c_strides(shape, itemsize: int) -> tuple:
    return tuple(itemsize * math.prod(shape[i + 1:]) for i in range(len(shape)))


@functools.lru_cache(maxsize=128)
def _conv_plan(x_shape, w_shape, stride, padding, itemsize: int) -> _ConvPlan:
    B, C, *S = x_shape
    O, _, *ks = w_shape
    n = len(S)
    m = max(0, n - 2)  # leading axes whose taps join the GEMM's N dimension
    So = [_out_len(*dims) for dims in zip(S, ks, stride, padding)]
    Sp = [s + 2 * p for s, p in zip(S, padding)]
    rows = [(o - 1) * s + k for o, s, k in zip(So[:m], stride[:m], ks[:m])]  # lead positions read
    xs = _c_strides((B, *Sp, C), itemsize)
    y_shape = (B, *rows, *So[m:], *ks[:m], O)
    ys = _c_strides(y_shape, itemsize)
    lead, trail = range(m), range(m, n)
    w_axes = (*range(2 + m, 2 + n), 1, *range(2, 2 + m), 0)
    return _ConvPlan(
        xp_shape=(B, *Sp, C),
        inner=(slice(None), *(slice(p, p + s) for p, s in zip(padding, S))),
        cols_shape=(B, *rows, *So[m:], *ks[m:], C),
        cols_strides=(xs[0], *xs[1:1 + m], *(xs[1 + i] * stride[i] for i in trail), *xs[1 + m:1 + n], itemsize),
        gemm=(math.prod(ks[m:]) * C, math.prod(ks[:m]) * O),
        w_axes=w_axes,
        w_back=tuple(int(a) for a in np.argsort(w_axes)),
        y_shape=y_shape,
        # out[b, o, *pos] = sum over lead taps t of y[b, pos_lead * stride + t, pos_trail, t, o]
        sum_shape=(B, O, *So, *ks[:m]),
        sum_strides=(ys[0], itemsize, *(ys[1 + i] * stride[i] for i in lead), *ys[1 + m:1 + n],
                     *(ys[1 + i] + ys[1 + n + i] for i in lead)),
        lead_taps=tuple((Ellipsis, *tap) for tap in np.ndindex(*ks[:m])),
        gcols_shape=(-1, B, *rows, *So[m:], C),
        taps=tuple(
            (slice(None), *(slice(0, r) for r in rows),
             *(slice(t, t + o * s, s) for t, o, s in zip(tap, So[m:], stride[m:])))
            for tap in np.ndindex(*ks[m:])
        ),
    )


def _conv(op: str, x: Tensor, w: Tensor, stride: tuple[int, ...], padding: tuple[int, ...]) -> Tensor:
    # (B, C, *S) cross-correlated with (O, C, *K) as one GEMM of cols (rows, K) by the
    # (K, N) weight block; trailing-axis taps sit in K, leading-axis taps in N
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"{op} channel mismatch: input {x.shape} vs kernel {w.shape}")
    dtype = np.result_type(x.data, w.data)  # the GEMM's dtype, whose itemsize the plan's strides assume
    p = _conv_plan(x.data.shape, w.data.shape, stride, padding, dtype.itemsize)
    C = x.data.shape[1]

    xp = np.zeros(p.xp_shape, dtype=dtype)
    for c in range(C):  # per channel: one moveaxis copy walks C-value runs, 2.5x slower at C=3
        xp[(*p.inner, c)] = x.data[:, c]
    cols = as_strided(xp, p.cols_shape, p.cols_strides).reshape(-1, p.gemm[0])
    wt = w.data.transpose(p.w_axes)
    wmat = wt.reshape(p.gemm)
    shifted = as_strided(cols @ wmat, p.sum_shape, p.sum_strides)
    out = shifted[p.lead_taps[0]].copy()
    for tap in p.lead_taps[1:]:
        out += shifted[tap]

    def backward(g):
        gy = np.zeros(p.y_shape, dtype=dtype)
        shifted = as_strided(gy, p.sum_shape, p.sum_strides)
        for tap in p.lead_taps:
            shifted[tap] = g
        gymat = gy.reshape(-1, p.gemm[1])
        if w.requires_grad:
            _accum(w, (cols.T @ gymat).reshape(wt.shape).transpose(p.w_back))
        if x.requires_grad:
            # tap-major (trailing taps, B, *rows, *So_trail, C), so each tap's block is contiguous
            gcols = (gymat @ wmat.reshape(-1, C, p.gemm[1]).transpose(0, 2, 1)).reshape(p.gcols_shape)
            gxp = np.zeros_like(xp)
            for k, dst in enumerate(p.taps):
                gxp[dst] += gcols[k]
            _accum(x, np.moveaxis(gxp[p.inner], -1, 1))

    return _node(out, (x, w), backward)


def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Cross-correlation of (B, C, T, H, W) with (O, C, kt, kh, kw)."""
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise ShapeError(f"conv3d expects 5-d input/kernel, got {x.shape} and {w.shape}")
    return _conv("conv3d", x, w, tuple(stride), tuple(padding))


def conv1d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (B, C, L) with (O, C, k)."""
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input/kernel, got {x.shape} and {w.shape}")
    return _conv("conv1d", x, w, (stride,), (padding,))


def _pool_bins(n: int, bins: int) -> list[tuple[int, int]]:
    # near-equal partition; bins may overlap by one when bins does not divide n
    return [((k * n) // bins, -((-(k + 1) * n) // bins)) for k in range(bins)]


def _avg_pool_axis(x: Tensor, axis: int, bins: int) -> Tensor:
    n = x.data.shape[axis]
    if bins < 1:
        raise ShapeError(f"adaptive pool needs >= 1 output bin, got {bins}")
    if bins > n:
        raise ShapeError(f"adaptive pool cannot upsample: {bins} bins for length {n}")
    spans = _pool_bins(n, bins)
    pieces = [
        x.data.take(np.arange(s, e), axis=axis).mean(axis=axis, keepdims=True) for s, e in spans
    ]
    data = np.concatenate(pieces, axis=axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        src = [slice(None)] * x.data.ndim
        dst = [slice(None)] * x.data.ndim
        for k, (s, e) in enumerate(spans):
            dst[axis] = slice(k, k + 1)
            src[axis] = slice(s, e)
            gx[tuple(src)] += g[tuple(dst)] / (e - s)
        _accum(x, gx)

    return _node(data, (x,), backward)


def adaptive_avg_pool3d(x: Tensor, out_shape: tuple[int, int, int]) -> Tensor:
    """Adaptive average pooling of (B, C, T, H, W) to (B, C, *out_shape).

    Each axis is partitioned into near-equal bins independently, so the
    pooled value of a cell is the exact mean over its box.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"adaptive_avg_pool3d expects 5-d input, got {x.shape}")
    out = x
    for axis, bins in zip((2, 3, 4), out_shape):
        out = _avg_pool_axis(out, axis, bins)
    return out


def adaptive_avg_pool1d(x: Tensor, out_len: int) -> Tensor:
    """Adaptive average pooling of (B, C, L) to (B, C, out_len)."""
    if x.data.ndim != 3:
        raise ShapeError(f"adaptive_avg_pool1d expects 3-d input, got {x.shape}")
    return _avg_pool_axis(x, 2, out_len)
