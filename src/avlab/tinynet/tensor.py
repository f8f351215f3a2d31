"""Tensor type and differentiable operations.

Every op gives its output, its inputs and a gradient formula that maps
the output's gradient to one gradient per input, None for an input that
needs none; the tape node adds them into the inputs.  The node holds
only the inputs that take a gradient, and what its formula reads, so a
training step's tape does not keep the clip batch alive.
``Tensor.backward()`` walks the tape in reverse topological order.  The
walk consumes the tape: once a node's closure has run, the node drops
its closure, its parents and its gradient, so a training step does not
hold the last step's activations while it runs its own forward.  Leaves
(parameters and inputs) keep ``.grad``; a second ``backward()`` through
a consumed node raises RuntimeError.  Inside ``no_grad()`` ops build no
tape: outputs carry no parents and no backward closure, so inference and
finite-difference probes keep nothing alive for a backward pass that
never comes.  Ops preserve the input dtype, so the same graph code runs
in float32 for training and float64 for finite-difference checks.

``conv3d`` and ``conv1d`` share one GEMM kernel over N spatial axes.  It
pads the input channels-last, (B, *S, C), so each window copied into the
column matrix and each tap's gradient added back moves contiguous runs
of ``kw * C`` or ``C`` values, not the one to five values a
channels-first layout gives.  It writes its output channels-last too, a
(B, *So, O) buffer behind the (B, O, *So) transposed view it returns, and
elementwise ops keep that memory order.  So a conv fed by another conv
(through relu or a residual add) finds its input's channels innermost in
memory and pads it with one copy; other inputs (the stem's clip batch,
the waveform) are copied one channel at a time.  The strides choose the
path.  Tensors may therefore be non-contiguous views.  Only the taps of
the last two spatial axes go into the column matrix's K dimension.  The
taps of a leading axis (time, for conv3d, when kt > 1) go into the GEMM's
N dimension: one GEMM against a (K, kt * O) weight block gives kt partial
outputs for every input frame read.  Time padding never enters the buffer
or the GEMM: each tap adds its partial outputs into the output frames it
reaches, through an output slice and a source slice, and a tap that
reaches every output frame goes first as a copy.  With kt = 1, and for
conv1d, every axis is a trailing one and the GEMM result is the output.
An optional (O,) ``bias`` is added in place in the same tape node.  A
batch whose padded input fits ``SLAB_BYTES`` (1 MiB) is padded in one
buffer that lives only until the column matrix is copied from it (with a
1x1 stride-1 kernel the columns are a view that keeps it).  A larger
batch is padded slab by slab: one zeroed buffer of as many entries as
fit the budget (at least one) is refilled for each slab, whose border
stays zero, and each slab's windows are copied into the full column
matrix while the slab is still in cache.  The columns, and so the one
GEMM and its bits, are the same either way.  1 MiB is half the 2 MiB L2
of a core on the benchmark's VM; a 2 MiB budget lost most of the gain,
and 256 KiB to 1 MiB measured alike.  Only the stem takes the slab path
at the detector's shapes (its padded clip batch is 2 MB at batch 8).
The backward allocates the padded input gradient from the planned shape.
Each call's geometry (output sizes, padded shape, slab size, index
tuples, tap slices, permutations and the byte strides of the column
view) is planned once per (shapes, stride, padding, itemsize) and cached.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from ..errors import ShapeError

BCE_EPS = 1e-7
# Largest padded conv input, in bytes, built in one piece; a larger batch is
# padded and copied into its column matrix this many bytes of entries at a time.
SLAB_BYTES = 1 << 20

# Cleared inside ``no_grad()``: ops then build no tape.
_GRAD_ENABLED = True
# Inside ``record()`` every outermost public op call appends ``(op name,
# args, kwargs, output)`` here; the ops an op calls are part of its call.
_CALLS: list[tuple] | None = None


@contextmanager
def _set(name: str, value):
    """Set the module global ``name`` to ``value`` for the block and yield it; restores on exit."""
    previous = globals()[name]
    globals()[name] = value
    try:
        yield value
    finally:
        globals()[name] = previous


def no_grad():
    """Record no tape inside the block, for inference and probe-only forward passes.

    Op outputs get ``requires_grad=False``, no parents and no backward
    closure, so nothing a backward pass would need is kept alive.  Nests,
    and restores the previous state on exit, also on an exception.
    """
    return _set("_GRAD_ENABLED", False)


def record():
    """Yield a fresh list of the outermost op calls made in the block, for the
    gradient check to replay; nests, and restores the previous list on exit."""
    return _set("_CALLS", [])


# Finite differences are only valid where the graph is smooth.  Per
# non-smooth op, its argument and the points where its slope jumps;
# bce_loss's inner clip is part of its call, so it has an entry of its own.
_KINK_POINTS = {
    "relu": lambda x: (x, 0.0),
    "sqrt": lambda x: (x, 0.0),
    "clip": lambda x, lo, hi: (x, lo, hi),
    "bce_loss": lambda y_pred, y_true: (y_pred, BCE_EPS, 1.0 - BCE_EPS),
}


@contextmanager
def track_kinks():
    """Yield a list that, on exit, holds how close each non-smooth op call of the
    block came to each of its kinks, in call order, so a checker can reject probe
    points that sit inside its step size.  Reads the calls ``record()`` logs, so it
    nests like ``record()``."""
    kinks: list[float] = []
    with record() as calls:
        yield kinks
    for name, args, kwargs, _ in calls:
        if name in _KINK_POINTS:
            x, *points = _KINK_POINTS[name](*args, **kwargs)
            kinks.extend(float(np.abs(x.data - p).min()) for p in points)


def _op(fn):
    name = fn.__name__

    @functools.wraps(fn)
    def op(*args, **kwargs):
        global _CALLS
        calls = _CALLS
        if calls is None:
            return fn(*args, **kwargs)
        _CALLS = None  # the ops this one calls are not logged
        try:
            out = fn(*args, **kwargs)
        finally:
            _CALLS = calls
        calls.append((name, args, kwargs, out))
        return out

    return op


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
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            # consume the node: its closure, its inputs and its gradient are garbage now
            node._backward, node._parents, node.grad = _consumed, (), None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _consumed(g) -> None:
    raise RuntimeError("backward() through a graph that an earlier backward() consumed")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], grads) -> Tensor:
    # grads(g) gives one gradient per parent, None for none.  The closure adds them
    # in itself, so a wrapper of ``_backward`` (a tracer's) may drop its return value.
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        # the closure holds only the parents it adds into: an input that takes no
        # gradient (a clip batch) dies with its caller's last reference
        targets = tuple(p if p.requires_grad else None for p in parents)

        # defaults, not free variables: cells would cost every untaped call of _node
        def backward(g, targets=targets, grads=grads):
            for p, gp in zip(targets, grads(g)):
                if p is not None and gp is not None:
                    p.grad = gp if p.grad is None else p.grad + gp

        out._backward = backward
    return out


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


@_op
def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


@_op
def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


@_op
def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)))


@_op
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


@_op
def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    return _node(data, (x,), lambda g: (g * (data > 0),))


@_op
def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf for very negative x, giving the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


@_op
def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    return _node(e, (x,), lambda g: (g * e,))


@_op
def log(x: Tensor) -> Tensor:
    return _node(np.log(x.data), (x,), lambda g: (g / x.data,))


@_op
def sqrt(x: Tensor) -> Tensor:
    r = np.sqrt(x.data)
    # subgradient guard at exactly zero
    return _node(r, (x,), lambda g: (g * 0.5 / np.maximum(r, np.asarray(1e-12, dtype=r.dtype)),))


@_op
def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data > lo) & (x.data < hi)
    return _node(np.clip(x.data, lo, hi), (x,), lambda g: (g * mask,))


@_op
def tsum(x: Tensor, axis=None) -> Tensor:
    def grads(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _node(x.data.sum(axis=axis), (x,), grads)


@_op
def mean(x: Tensor) -> Tensor:
    """Mean over every element."""
    return mul(tsum(x), 1.0 / x.data.size)


@_op
def reshape(x: Tensor, shape) -> Tensor:
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


@_op
def transpose(x: Tensor, axes) -> Tensor:
    return _node(x.data.transpose(axes), (x,), lambda g: (g.transpose(np.argsort(axes)),))


@_op
def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return _node(y, (x,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


@_op
def bce_loss(y_pred: Tensor, y_true: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; predictions are probabilities, clamped
    to [BCE_EPS, 1 - BCE_EPS] before the logs."""
    y = np.asarray(y_true, dtype=y_pred.dtype)
    if y.shape != y_pred.data.shape:
        raise ShapeError(f"bce_loss: predictions {y_pred.shape} vs labels {y.shape}")
    p = clip(y_pred, BCE_EPS, 1.0 - BCE_EPS)
    pos = mul(log(p), y)
    neg = mul(log(sub(Tensor(np.asarray(1.0, dtype=y_pred.dtype)), p)), 1.0 - y)
    return mul(mean(add(pos, neg)), -1.0)


# ---------------------------------------------------------------------------
# convolutions and pooling


def _out_len(n: int, k: int, s: int, p: int) -> int:
    o = (n + 2 * p - k) // s + 1
    if o <= 0:
        raise ShapeError(f"conv output length {o} for input {n}, kernel {k}, stride {s}, pad {p}")
    return o


class _ConvPlan(NamedTuple):
    """Geometry of one conv call: shapes, views, permutations, slices and byte strides."""

    xp_shape: tuple  # channels-last input (B, *Sp, C), padded on the trailing axes only
    inner: tuple  # where the input sits in xp, channel axis left open
    to_last: tuple  # (B, C, *S) -> (B, *S, C)
    to_first: tuple  # the inverse permutation
    cols_shape: tuple  # strided view of xp: (B, *lead rows, *trail So, *trail taps, C)
    cols_strides: tuple
    slab: int  # batch entries per padded slab; the whole batch when it fits SLAB_BYTES
    gemm: tuple  # (K, N): K = trail taps * C, N = lead taps * O
    w_axes: tuple  # (O, C, *ks) -> (*trail taps, C, *lead taps, O), the (K, N) GEMM operand
    w_back: tuple  # the inverse permutation, for the weight gradient
    y_shape: tuple  # GEMM result (B, *lead rows, *trail So, *lead taps, O); the output if no lead axis
    out_shape: tuple  # channels-last output (B, *So, O)
    lead_taps: tuple | None  # per lead tap, (output slice, GEMM-result slice); None with no lead axis
    cover: bool  # lead_taps[0] writes every output, so the sum starts with its copy
    bias_index: np.ndarray  # picks the (O,) bias for one row of the output's last two axes
    gcols_shape: tuple  # input gradient (trail taps, B, *lead rows, *trail So, C)
    taps: tuple  # per trailing tap, its destination in the padded input gradient


def _c_strides(shape, itemsize: int) -> tuple:
    return tuple(itemsize * math.prod(shape[i + 1:]) for i in range(len(shape)))


@functools.lru_cache(maxsize=128)
def _conv_plan(x_shape, w_shape, stride, padding, itemsize: int) -> _ConvPlan:
    B, C, *S = x_shape
    O, _, *ks = w_shape
    n = len(S)
    m = int(n > 2 and ks[0] > 1)  # a lead (time) axis whose taps join the GEMM's N dimension
    So = [_out_len(*dims) for dims in zip(S, ks, stride, padding)]
    pads = (0,) * m + padding[m:]  # the lead axis' padding never reaches the buffer or the GEMM
    Sp = [s + 2 * p for s, p in zip(S, pads)]
    rows = [max(1, min(S[0], (So[0] - 1) * stride[0] + ks[0] - padding[0]))] * m  # frames read, at least one
    lead_taps, cover = None, False
    if m:  # tap t adds GEMM-result frame i into output frame (i + p - t) / s, for outputs a..b-1
        s, p, R, To = stride[0], padding[0], rows[0], So[0]
        spans = [(t, max(0, -((t - p) // s)), min(To, (R - 1 + p - t) // s + 1)) for t in range(ks[0])]
        spans = sorted((sp for sp in spans if sp[1] < sp[2]), key=lambda sp: sp[1:] != (0, To))
        cover = bool(spans) and spans[0][1:] == (0, To)
        lead_taps = tuple(((slice(None), slice(a, b)),
                           (slice(None), slice(a * s + t - p, b * s + t - p, s), Ellipsis, t, slice(None)))
                          for t, a, b in spans)
    xs = _c_strides((B, *Sp, C), itemsize)
    slab = min(B, max(1, SLAB_BYTES // xs[0]))
    trail = range(m, n)
    w_axes = (*range(2 + m, 2 + n), 1, *range(2, 2 + m), 0)
    to_last = (0, *range(2, n + 2), 1)
    return _ConvPlan(
        xp_shape=(B, *Sp, C),
        inner=(slice(None), *(slice(p, p + s) for p, s in zip(pads, S))),
        to_last=to_last,
        to_first=tuple(int(a) for a in np.argsort(to_last)),
        cols_shape=(B, *rows, *So[m:], *ks[m:], C),
        cols_strides=(xs[0], *xs[1:1 + m], *(xs[1 + i] * stride[i] for i in trail), *xs[1 + m:1 + n], itemsize),
        slab=slab,
        gemm=(math.prod(ks[m:]) * C, math.prod(ks[:m]) * O),
        w_axes=w_axes,
        w_back=tuple(int(a) for a in np.argsort(w_axes)),
        y_shape=(B, *rows, *So[m:], *ks[:m], O),
        out_shape=(B, *So, O),
        lead_taps=lead_taps,
        cover=cover,
        bias_index=np.arange(math.prod(So[-2:]) * O) % O,
        gcols_shape=(-1, B, *rows, *So[m:], C),
        taps=tuple(
            (slice(None), *(slice(0, r) for r in rows),
             *(slice(t, t + o * s, s) for t, o, s in zip(tap, So[m:], stride[m:])))
            for tap in np.ndindex(*ks[m:])
        ),
    )


def _pad(x: np.ndarray, p: _ConvPlan, xp: np.ndarray) -> np.ndarray:
    # copy x (b, C, *S) into the interior of the zeroed channels-last buffer xp (b, *Sp, C)
    if x.strides[1] == x.itemsize:  # channels innermost in memory: one copy
        xp[p.inner] = x.transpose(p.to_last)
    else:  # per channel: one transposed copy would walk C-value runs, 2.5x slower at C=3
        for c in range(x.shape[1]):
            xp[(*p.inner, c)] = x[:, c]
    return xp


def _conv(op: str, x: Tensor, w: Tensor, stride: tuple[int, ...], padding: tuple[int, ...],
          bias: Tensor | None) -> Tensor:
    # (B, C, *S) cross-correlated with (O, C, *K) as one GEMM of cols (rows, K) by the
    # (K, N) weight block; trailing-axis taps sit in K, lead-axis taps in N
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"{op} channel mismatch: input {x.shape} vs kernel {w.shape}")
    if bias is not None and bias.data.shape != w.data.shape[:1]:
        raise ShapeError(f"{op} bias {bias.shape} does not match kernel {w.shape}")
    dtype = np.result_type(x.data, w.data)  # the GEMM's dtype, whose itemsize the plan's strides assume
    p = _conv_plan(x.data.shape, w.data.shape, stride, padding, dtype.itemsize)
    B, C = x.data.shape[:2]
    need_gx, need_gw = x.requires_grad, w.requires_grad  # read here, so the closure holds neither

    if p.slab == B:
        xp = _pad(x.data, p, np.zeros(p.xp_shape, dtype=dtype))
        # a strided view that numpy checks against xp's size, unlike as_strided
        cols = np.ndarray(p.cols_shape, dtype, buffer=xp, offset=0, strides=p.cols_strides).reshape(-1, p.gemm[0])
        # the reshape copied the windows, unless they are a view of xp (1x1 stride-1 kernels),
        # which then keeps xp's buffer alive itself; the backward needs only xp's shape
        del xp
    else:  # slab by slab through one zeroed buffer: each slab's copies stay in cache
        cols = np.empty(p.cols_shape, dtype)
        xp = np.zeros((p.slab, *p.xp_shape[1:]), dtype)  # refills overwrite the interior; the border stays 0
        for b in range(0, B, p.slab):
            n = min(p.slab, B - b)
            _pad(x.data[b:b + n], p, xp[:n])
            cols[b:b + n] = np.ndarray((n, *p.cols_shape[1:]), dtype, buffer=xp, offset=0, strides=p.cols_strides)
        del xp
        cols = cols.reshape(-1, p.gemm[0])
    wt = w.data.transpose(p.w_axes)
    wmat = wt.reshape(p.gemm)
    out = y = (cols @ wmat).reshape(p.y_shape)
    if p.lead_taps is not None:  # sum the lead taps' partial outputs, from a copy of one covering all
        out = y[p.lead_taps[0][1]].copy() if p.cover else np.zeros(p.out_shape, dtype=dtype)
        for dst, src in p.lead_taps[p.cover:]:
            out[dst] += y[src]
    if bias is not None:  # by long rows: a broadcast over the short channel axis is 3x slower
        flat = out.reshape(-1, len(p.bias_index))
        flat += bias.data[p.bias_index]

    def grads(g):
        gl = g.transpose(p.to_last)
        gmat = gl.reshape(-1, gl.shape[-1])
        # a GEMV: numpy's column sum over (rows, O) is 10x slower
        gb = None if bias is None else np.ones(len(gmat), dtype=dtype) @ gmat
        if p.lead_taps is None:
            gymat = gmat
        else:
            gy = np.zeros(p.y_shape, dtype=dtype)
            for dst, src in p.lead_taps:
                gy[src] = gl[dst]
            gymat = gy.reshape(-1, p.gemm[1])
        gx = gw = None
        if need_gw:
            gw = (cols.T @ gymat).reshape(wt.shape).transpose(p.w_back)
        if need_gx:
            # tap-major (trailing taps, B, *rows, *So_trail, C), so each tap's block is contiguous
            gcols = (gymat @ wmat.reshape(-1, C, p.gemm[1]).transpose(0, 2, 1)).reshape(p.gcols_shape)
            gxp = np.zeros(p.xp_shape, dtype)  # allocated here: the step holds no padded input for it
            for k, dst in enumerate(p.taps):
                gxp[dst] += gcols[k]
            gx = gxp[p.inner].transpose(p.to_first)
        return (gx, gw) if bias is None else (gx, gw, gb)

    return _node(out.transpose(p.to_first), (x, w) if bias is None else (x, w, bias), grads)


@_op
def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0), bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of (B, C, T, H, W) with (O, C, kt, kh, kw), plus an optional (O,) bias."""
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise ShapeError(f"conv3d expects 5-d input/kernel, got {x.shape} and {w.shape}")
    return _conv("conv3d", x, w, tuple(stride), tuple(padding), bias)


@_op
def conv1d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of (B, C, L) with (O, C, k), plus an optional (O,) bias."""
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input/kernel, got {x.shape} and {w.shape}")
    return _conv("conv1d", x, w, (stride,), (padding,), bias)


def _pool_bins(n: int, bins: int) -> list[tuple[int, int]]:
    # near-equal partition; bins may overlap by one when bins does not divide n
    return [((k * n) // bins, -((-(k + 1) * n) // bins)) for k in range(bins)]


@functools.lru_cache(maxsize=128)
def _pool_matrix(n: int, bins: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (n, bins) averaging matrix: column k holds 1 / len over bin k's span."""
    if bins < 1:
        raise ShapeError(f"adaptive pool needs >= 1 output bin, got {bins}")
    if bins > n:
        raise ShapeError(f"adaptive pool cannot upsample: {bins} bins for length {n}")
    m = np.zeros((n, bins), dtype=dtype)
    for k, (s, e) in enumerate(_pool_bins(n, bins)):
        m[s:e, k] = 1.0 / (e - s)
    m.flags.writeable = False
    return m


def _contract(a: np.ndarray, steps) -> np.ndarray:
    # per (axis, m): the axis swapped to the end for one matmul with m, and back
    for axis, m in steps:
        a = (a.swapaxes(-1, axis) @ m).swapaxes(-1, axis)
    return a


def _adaptive_avg_pool(x: Tensor, bins: tuple[int, ...]) -> Tensor:
    # one tape node over the last len(bins) axes: the last axis is contracted first,
    # so a spatial axis pooled to one bin shrinks the data before the time axis
    mats = [_pool_matrix(n, b, x.data.dtype) for n, b in zip(x.data.shape[-len(bins):], bins)]
    steps = list(zip(range(-len(bins), 0), mats))[::-1]
    # the backward applies the transposes in reverse order: the small gradient grows last
    return _node(_contract(x.data, steps), (x,),
                 lambda g: (_contract(g, [(axis, m.T) for axis, m in reversed(steps)]),))


@_op
def adaptive_avg_pool3d(x: Tensor, out_shape: tuple[int, int, int]) -> Tensor:
    """Adaptive average pooling of (B, C, T, H, W) to (B, C, *out_shape).

    Each axis is partitioned into near-equal bins independently, and
    pooled by a matmul with a cached (n, bins) averaging matrix whose
    column k holds 1 / len over bin k's span, so a cell is the mean over
    its box up to rounding.  The backward pass applies the transposes.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"adaptive_avg_pool3d expects 5-d input, got {x.shape}")
    return _adaptive_avg_pool(x, tuple(out_shape))


@_op
def adaptive_avg_pool1d(x: Tensor, out_len: int) -> Tensor:
    """Adaptive average pooling of (B, C, L) to (B, C, out_len), as one averaging matmul."""
    if x.data.ndim != 3:
        raise ShapeError(f"adaptive_avg_pool1d expects 3-d input, got {x.shape}")
    return _adaptive_avg_pool(x, (out_len,))
