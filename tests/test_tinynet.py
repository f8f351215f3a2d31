"""Autodiff stack: hand-computable values, gradient checks, Adam behavior."""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from avlab.detector import Detector, tiny_config
from avlab.errors import ShapeError
from avlab.rng import substream
from avlab.tinynet import Adam, Conv3d, gradcheck
from avlab.tinynet import tensor as tn
from avlab.tinynet.tensor import Tensor


def test_conv1d_hand_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]], np.float64))
    w = Tensor(np.ones((1, 1, 3), np.float64))
    out = tn.conv1d(x, w, stride=1, padding=1)
    assert out.data.reshape(-1).tolist() == [3.0, 6.0, 9.0, 7.0]


def test_conv3d_identity_kernel():
    rng = substream(1, "conv3d-id")
    x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)))
    w = np.zeros((1, 1, 1, 1, 1))
    w[0, 0, 0, 0, 0] = 1.0
    out = tn.conv3d(x, Tensor(w), (1, 1, 1), (0, 0, 0))
    assert np.allclose(out.data, x.data)


def test_adaptive_pool_constant_and_means():
    c = 2.75
    x = Tensor(np.full((1, 3, 6, 5, 4), c))
    out = tn.adaptive_avg_pool3d(x, (1, 1, 1))
    assert out.data.shape == (1, 3, 1, 1, 1)
    assert np.allclose(out.data, c)

    # uneven bins still average exactly over their spans
    v = np.arange(10, dtype=np.float64).reshape(1, 1, 10)
    out = tn.adaptive_avg_pool1d(Tensor(v), 4)
    spans = [(0, 3), (2, 5), (5, 8), (7, 10)]
    expected = [v[0, 0, s:e].mean() for s, e in spans]
    assert np.allclose(out.data.reshape(-1), expected)


def _pool_boxes(lengths, bins):
    """(output cell, input box) index pairs over the trailing axes, one bin span per axis."""
    spans = [[((k * n) // b, -((-(k + 1) * n) // b)) for k in range(b)] for n, b in zip(lengths, bins)]
    for cell in np.ndindex(*bins):
        yield (Ellipsis, *cell), (Ellipsis, *(slice(*spans[i][k]) for i, k in enumerate(cell)))


def _naive_pool(x, bins):
    """Per-box mean over the trailing axes."""
    axes = tuple(range(-len(bins), 0))
    out = np.empty(x.shape[:-len(bins)] + tuple(bins))
    for cell, box in _pool_boxes(x.shape[-len(bins):], bins):
        out[cell] = x[box].mean(axis=axes)
    return out


def _naive_pool_grad(x_shape, bins, g):
    """Input gradient of sum(g * pool(x)): each cell's g / box size over its box."""
    gx = np.zeros(x_shape)
    for cell, box in _pool_boxes(x_shape[-len(bins):], bins):
        region = gx[box]
        region += np.expand_dims(g[cell], tuple(range(-len(bins), 0))) / math.prod(region.shape[-len(bins):])
    return gx


POOL_CASES = {
    "1d_11_to_4": ((2, 3, 11), (4,)),
    "1d_25_to_8": ((2, 3, 25), (8,)),
    "1d_7_to_3": ((2, 2, 7), (3,)),
    "1d_bins_equal_n": ((2, 3, 6), (6,)),
    "1d_one_bin": ((2, 3, 9), (1,)),
    "3d_uneven": ((2, 3, 11, 7, 25), (4, 3, 8)),
    "3d_like_detector": ((2, 4, 8, 3, 3), (8, 1, 1)),
    "3d_bins_equal_n": ((1, 2, 4, 3, 2), (4, 3, 2)),
    "3d_one_bin": ((1, 2, 5, 4, 3), (1, 1, 1)),
}
POOL_TOL = {np.float64: 1e-12, np.float32: 1e-6}


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_adaptive_pool_matches_naive_bin_means(case, layout):
    # uneven and overlapping bins, bins == n and one bin, on a contiguous input and
    # on a channels-last view like a conv's output; forward and input gradient
    x_shape, bins = POOL_CASES[case]
    rng = substream(13, "pool-reference", case)
    x64 = rng.standard_normal(x_shape)
    g64 = rng.standard_normal(x_shape[:2] + bins)
    pool = tn.adaptive_avg_pool3d if len(bins) == 3 else (lambda x, b: tn.adaptive_avg_pool1d(x, b[0]))
    for dtype in (np.float64, np.float32):
        x, g = x64.astype(dtype), g64.astype(dtype)
        if layout == "channels_last":
            x = _channels_last_view(x)
        xt = Tensor(x, requires_grad=True)
        out = pool(xt, bins)
        tn.tsum(tn.mul(out, Tensor(g))).backward()
        ref = _naive_pool(x.astype(np.float64), bins)
        ref_gx = _naive_pool_grad(x_shape, bins, g.astype(np.float64))
        for got, want in ((out.data, ref), (xt.grad, ref_gx)):
            assert got.shape == want.shape and got.dtype == dtype
            assert np.abs(got - want).max() <= POOL_TOL[dtype] * np.abs(want).max()


def test_adaptive_pool_one_tape_node_and_read_only_matrices():
    x = Tensor(np.ones((1, 2, 7, 3, 3)), requires_grad=True)
    out = tn.adaptive_avg_pool3d(x, (3, 1, 1))
    assert out._parents == (x,)
    m = tn._pool_matrix(7, 3, np.dtype(np.float64))
    assert not m.flags.writeable
    assert m is tn._pool_matrix(7, 3, np.dtype(np.float64))
    assert np.array_equal(m.sum(axis=0), np.ones(3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relu_matches_masked_product(dtype):
    rng = substream(14, "relu")
    a = rng.standard_normal((3, 4, 5)).astype(dtype)
    a[0, 0, :3] = (0.0, -0.0, np.nan)
    g = rng.standard_normal(a.shape).astype(dtype)
    x = Tensor(a, requires_grad=True)
    out = tn.relu(x)
    tn.tsum(tn.mul(out, Tensor(g))).backward()
    mask = a > 0
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, a * mask, equal_nan=True)
    assert np.array_equal(x.grad, g * mask)


def test_probe_pattern_unchanged():
    for shape, dtype in (((2, 3, 4), np.float64), ((5,), np.float32)):
        out = Tensor(np.ones(shape, dtype))
        with tn.record() as calls:
            total = gradcheck.probe_sum(out)
        pattern = calls[0][1][1].data  # mul(out, pattern)
        old = (np.cos(np.arange(int(np.prod(shape))) * 0.7) + 1.5).reshape(shape).astype(dtype)
        assert pattern.dtype == dtype and pattern.tobytes() == old.tobytes()
        assert total.data == old.sum(dtype=dtype)


def test_softmax_basics():
    out = tn.softmax(Tensor(np.zeros((1, 3))))
    assert np.allclose(out.data, 1.0 / 3.0)

    rng = substream(2, "softmax")
    x = rng.standard_normal((5, 9))
    a = tn.softmax(Tensor(x)).data
    b = tn.softmax(Tensor(x + 13.7)).data
    assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(a - b).max() < 1e-6
    assert (a > 0).all()


def test_softmax_runs_over_the_last_axis_of_a_3d_input():
    x = substream(2, "softmax-3d").standard_normal((2, 3, 5))
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(tn.softmax(Tensor(x)).data, e / e.sum(axis=-1, keepdims=True), rtol=1e-12, atol=0)
    assert gradcheck.check_op(lambda ts: gradcheck.probe_sum(tn.softmax(ts[0])), [x]) < gradcheck.OPS_TOLERANCE


def test_bce_loss_values():
    half = Tensor(np.array([0.5]))
    assert float(tn.bce_loss(half, np.array([1.0])).data) == pytest.approx(np.log(2), rel=1e-6)
    assert float(tn.bce_loss(half, np.array([0.0])).data) == pytest.approx(np.log(2), rel=1e-6)
    # clamped at the boundary, stays finite
    hard = Tensor(np.array([0.0, 1.0]))
    assert np.isfinite(float(tn.bce_loss(hard, np.array([1.0, 0.0])).data))


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as err:
        tn.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        tn.conv1d(Tensor(np.ones((1, 2, 8))), Tensor(np.ones((1, 3, 3))))
    assert "(1, 2, 8)" in str(err.value) and "(1, 3, 3)" in str(err.value)


def test_backward_accumulates_shared_node():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = tn.mul(x, x)  # d/dx x^2 = 2x
    tn.tsum(y).backward()
    assert np.allclose(x.grad, [6.0])


def test_backward_consumes_its_graph():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = tn.mul(x, 2.0)
    loss = tn.tsum(h)
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])  # the leaf keeps its gradient
    for node in (h, loss):
        assert node.grad is None and node._parents == ()


def test_second_backward_raises_and_keeps_leaf_grads():
    # unconsumed, a second walk would leave x.grad == [6, 6]: h.grad accumulates across walks
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = tn.tsum(tn.mul(x, 2.0))
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # a new graph over a consumed node cannot reach the leaves through it either
    h = tn.mul(x, 3.0)
    tn.tsum(h).backward()
    with pytest.raises(RuntimeError, match="consumed"):
        tn.tsum(tn.mul(h, h)).backward()


@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 1, 1)], ids=["3x3x3", "1x1x1"])
def test_taped_conv_keeps_no_input_that_takes_no_gradient(kernel):
    # a clip batch fed to a stem conv dies once the caller drops it, though the taped output lives
    rng = np.random.default_rng(0)
    clip = rng.standard_normal((2, 3, 4, 6, 6)).astype(np.float32)
    ref = weakref.ref(clip)
    w = Tensor(rng.standard_normal((4, 3, *kernel)).astype(np.float32), requires_grad=True)
    out = tn.conv3d(Tensor(clip), w, padding=tuple(k // 2 for k in kernel))
    del clip
    assert ref() is None and out.requires_grad
    tn.tsum(out).backward()  # the weight gradient needs only the columns
    assert w.grad.shape == w.data.shape and np.isfinite(w.grad).all()


def test_adam_zero_grad_no_move():
    p = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2, np.float32)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude():
    for g in (1e-4, 1.0, 50.0):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=1e-3)
        p.grad = np.array([g])
        opt.step()
        assert float(p.data[0]) == pytest.approx(-1e-3, rel=1e-3)


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(100):
        p.grad = 2.0 * p.data
        opt.step()
    assert abs(float(p.data[0])) < 0.5


def _reference_adam_step(state, params, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    # per-tensor Adam as in Kingma & Ba 2015, with coupled L2 decay
    for name, p in params:
        m, v = state.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        g = p.grad + wd * p.data
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data = p.data - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


def test_adam_owns_parameters_in_one_buffer():
    model = Detector(tiny_config(), seed=3)
    before = {name: t.data.copy() for name, t in model.params()}
    opt = Adam(model.params())
    assert opt.flat.size == sum(t.data.size for _, t in model.params())
    for name, t in model.params():
        assert np.shares_memory(t.data, opt.flat), name
        assert np.array_equal(t.data, before[name]), name


def test_adam_steps_match_per_tensor_reference_bitwise():
    model, ref = Detector(tiny_config(), seed=4), Detector(tiny_config(), seed=4)
    opt = Adam(model.params(), lr=1e-2, weight_decay=1e-3)
    rng = substream(9, "adam-ref")
    state: dict = {}
    for t in range(1, 6):
        for (_, p), (_, q) in zip(model.params(), ref.params()):
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            q.grad = p.grad.copy()
        opt.step()
        _reference_adam_step(state, ref.params(), t, lr=1e-2, wd=1e-3)
        for (name, p), (_, q) in zip(model.params(), ref.params()):
            assert p.data.dtype == np.float32 and p.data.tobytes() == q.data.tobytes(), (t, name)


def test_adam_rejects_missing_or_misshapen_gradient():
    a = Tensor(np.zeros(3, np.float32), requires_grad=True)
    b = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
    opt = Adam([("a", a), ("b", b)])
    a.grad = np.ones(3, np.float32)
    with pytest.raises(ValueError, match="no gradient for b"):
        opt.step()
    b.grad = np.ones(4, np.float32)
    with pytest.raises(ValueError, match=r"gradient shape \(4,\) != param shape \(2, 2\) for b"):
        opt.step()
    assert opt.step_count == 0 and not opt.flat.any()


def test_layer_init_deterministic():
    a = Conv3d(2, 3, (3, 3, 3), rng=substream(5, "init"))
    b = Conv3d(2, 3, (3, 3, 3), rng=substream(5, "init"))
    assert np.array_equal(a.weight.data, b.weight.data)
    assert np.array_equal(a.bias.data, b.bias.data)


def test_forward_deterministic_bits():
    rng = substream(6, "det")
    x = rng.standard_normal((2, 2, 6, 8, 8)).astype(np.float32)
    layer = Conv3d(2, 4, (3, 3, 3), (1, 2, 2), rng=substream(7, "w"))
    y1 = layer(Tensor(x)).data
    y2 = layer(Tensor(x)).data
    assert y1.tobytes() == y2.tobytes()


def test_linear_layer_gradients():
    rng = substream(8, "layergrad")
    x = rng.standard_normal((5, 4))

    def build(ts):
        out = tn.add(tn.matmul(Tensor(x), ts[0]), tn.reshape(ts[1], (1, -1)))
        return gradcheck.probe_sum(tn.relu(out))

    err = gradcheck.check_op(build, [rng.standard_normal((4, 3)), rng.standard_normal(3) + 2.0])
    assert err < 1e-4


def test_gradcheck_suite_ops_small():
    results = gradcheck.run_suite(seed=3, instances=2, include_model=False)
    for name, err in results.items():
        assert err < gradcheck.OPS_TOLERANCE, (name, err)


def test_conv1d_vs_conv3d_cross_check():
    # a (1, k) kernel conv3d on a (1, 1, L) volume equals conv1d
    rng = substream(9, "cross")
    x = rng.standard_normal((2, 3, 15))
    w = rng.standard_normal((4, 3, 5))
    out1 = tn.conv1d(Tensor(x), Tensor(w), stride=2, padding=2).data
    out3 = tn.conv3d(
        Tensor(x[:, :, None, None, :]), Tensor(w[:, :, None, None, :]),
        stride=(1, 1, 2), padding=(0, 0, 2),
    ).data
    assert np.allclose(out1, out3[:, :, 0, 0, :], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_warning(dtype):
    x = np.array([-1000.0, -100.0, -1.5, 0.0, 2.0, 100.0, 1000.0], dtype=dtype)
    with np.errstate(over="ignore"):
        reference = 1.0 / (1.0 + np.exp(-x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tn.sigmoid(Tensor(x))
    assert out.data.dtype == dtype
    assert out.data.tobytes() == reference.tobytes()
    assert out.data[0] == 0.0 and out.data[-1] == 1.0


def _naive_conv(x, w, stride, padding, g):
    """Loop-over-positions cross-correlation of (B, C, *S) with (O, C, *K):
    returns the output and, for the output gradient ``g``, the input and
    weight gradients."""
    ks = w.shape[2:]
    pad = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
    xp = np.pad(x, pad)
    out_sizes = [(n + 2 * p - k) // s + 1 for n, k, s, p in zip(x.shape[2:], ks, stride, padding)]
    out = np.zeros((x.shape[0], w.shape[0], *out_sizes))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for pos in np.ndindex(*out_sizes):
        box = (slice(None), slice(None)) + tuple(
            slice(o * s, o * s + k) for o, s, k in zip(pos, stride, ks)
        )
        patch = xp[box]
        taps = tuple(range(1, w.ndim))
        out[(slice(None), slice(None)) + pos] = np.tensordot(patch, w, axes=(taps, taps))
        gpos = g[(slice(None), slice(None)) + pos]
        gxp[box] += np.tensordot(gpos, w, axes=(1, 0))
        gw += np.tensordot(gpos, patch, axes=(0, 0))
    inner = (slice(None), slice(None)) + tuple(slice(p, p + n) for p, n in zip(padding, x.shape[2:]))
    return out, gxp[inner], gw


# Relative to the largest reference magnitude.  float64 keeps its bound; the
# float32 one is about 84 ulps at 1.0 (eps 1.19e-7), room for sums of up to a
# few hundred rounded products in any order.
CONV_REFERENCE_TOL = {np.float64: 1e-12, np.float32: 1e-5}

# (input shape, kernel shape, stride, padding): every layer geometry of the
# default detector (visual stem, residual convs and their 1x1x1 projections,
# the five audio convs and the k=1 attention projections), the two gradcheck
# suite shapes, and a non-cubic single-channel case.
CONV_CASES = {
    "visual.0": ((2, 3, 4, 9, 10), (8, 3, 3, 5, 5), (1, 4, 4), (1, 2, 2)),
    "visual.1.conv1": ((2, 8, 4, 5, 6), (8, 8, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
    "visual.1.conv2": ((2, 8, 2, 3, 3), (8, 8, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "visual.1.proj": ((2, 8, 4, 5, 6), (8, 8, 1, 1, 1), (2, 2, 2), (0, 0, 0)),
    "visual.2.conv1": ((2, 8, 3, 5, 4), (16, 8, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    "visual.2.conv2": ((2, 16, 3, 3, 2), (16, 16, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "visual.2.proj": ((2, 8, 3, 5, 4), (16, 8, 1, 1, 1), (1, 2, 2), (0, 0, 0)),
    "audio.0": ((2, 1, 50), (8, 1, 9), (4,), (4,)),
    "audio.1": ((2, 8, 13), (8, 8, 9), (4,), (4,)),
    "audio.2": ((2, 8, 11), (16, 8, 5), (2,), (2,)),
    "audio.3": ((2, 16, 6), (16, 16, 5), (2,), (2,)),
    "audio.4": ((2, 16, 5), (16, 16, 3), (1,), (1,)),
    "attn": ((2, 16, 8), (4, 16, 1), (1,), (0,)),
    "gradcheck.conv3d": ((2, 3, 5, 6, 6), (4, 3, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    "gradcheck.conv1d": ((2, 3, 17), (4, 3, 5), (2,), (2,)),
    "non_cubic": ((1, 1, 4, 5, 7), (1, 1, 2, 3, 2), (1, 2, 1), (0, 1, 1)),
}


def _run_conv(x_arr, w_arr, b_arr, stride, padding, g):
    """Output and input, weight and bias gradients of one taped conv call for output gradient ``g``."""
    x, w = Tensor(x_arr, requires_grad=True), Tensor(w_arr, requires_grad=True)
    b = None if b_arr is None else Tensor(b_arr, requires_grad=True)
    if x_arr.ndim == 5:
        out = tn.conv3d(x, w, stride, padding, bias=b)
    else:
        out = tn.conv1d(x, w, stride[0], padding[0], bias=b)
    tn.tsum(tn.mul(out, Tensor(g))).backward()
    return out.data, x.grad, w.grad, None if b is None else b.grad


def _out_shape(x_shape, w_shape, stride, padding):
    sizes = [(n + 2 * p - k) // s + 1 for n, k, s, p in zip(x_shape[2:], w_shape[2:], stride, padding)]
    return (x_shape[0], w_shape[0], *sizes)


def _channels_last_view(a):
    """The same values as ``a`` (B, C, *S), stored (B, *S, C) in memory."""
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1)
    assert np.moveaxis(view, 1, -1).flags.c_contiguous and np.array_equal(view, a)
    return view


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_matches_naive_reference(case):
    # float64 -> float32 -> float64 on one geometry, starting from an empty plan
    # cache: each dtype must get its own plan, never the other itemsize's strides.
    # Each dtype runs without a bias, with one, and on a channels-last view of the
    # input, which takes the kernel's one-copy pad path and must not move a bit.
    x_shape, w_shape, stride, padding = CONV_CASES[case]
    rng = substream(10, "conv-reference", case)
    x64, w64 = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    g64, b64 = rng.standard_normal(_out_shape(x_shape, w_shape, stride, padding)), rng.standard_normal(w_shape[0])
    tn._conv_plan.cache_clear()
    for dtype in (np.float64, np.float32, np.float64):
        x, w, g, b = (a.astype(dtype) for a in (x64, w64, g64, b64))
        out, gx, gw, _ = _run_conv(x, w, None, stride, padding, g)

        # reference in float64 on the very values the kernel saw
        ref_out, ref_gx, ref_gw = _naive_conv(
            x.astype(np.float64), w.astype(np.float64), stride, padding, g.astype(np.float64)
        )
        bias_shape = (1, -1) + (1,) * (len(x_shape) - 2)
        bout, bgx, bgw, bgb = _run_conv(x, w, b, stride, padding, g)
        checks = [(out, ref_out), (gx, ref_gx), (gw, ref_gw),
                  (bout, ref_out + b.astype(np.float64).reshape(bias_shape)), (bgx, ref_gx), (bgw, ref_gw),
                  (bgb, g.astype(np.float64).sum(axis=(0, *range(2, len(x_shape)))))]
        for got, ref in checks:
            assert got.shape == ref.shape and got.dtype == dtype
            assert np.abs(got - ref).max() <= CONV_REFERENCE_TOL[dtype] * np.abs(ref).max()

        for got, want in zip(_run_conv(_channels_last_view(x), w, None, stride, padding, g), (out, gx, gw)):
            assert got.tobytes() == want.tobytes()
    assert tn._conv_plan.cache_info().misses == 2


# Time-axis geometries the detector does not use: an even kernel under "same"
# padding, where no time tap reaches every output frame, and a stride so large
# that the only output frame reads nothing but padding.
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
    ((2, 2, 4, 3, 3), (3, 2, 2, 3, 3), (1, 1, 1), (1, 1, 1)),
    ((1, 2, 1, 3, 3), (2, 2, 3, 1, 1), (7, 1, 1), (3, 0, 0)),
], ids=["even_kernel", "padding_only_output"])
def test_conv_without_a_covering_time_tap(x_shape, w_shape, stride, padding):
    assert not tn._conv_plan(x_shape, w_shape, stride, padding, 8).cover
    rng = substream(12, "conv-uncovered", str(x_shape))
    x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])
    g = rng.standard_normal(_out_shape(x_shape, w_shape, stride, padding))
    out, gx, gw, gb = _run_conv(x, w, b, stride, padding, g)
    ref_out, ref_gx, ref_gw = _naive_conv(x, w, stride, padding, g)
    for got, ref in ((out, ref_out + b.reshape(1, -1, 1, 1, 1)), (gx, ref_gx), (gw, ref_gw),
                     (gb, g.sum(axis=(0, 2, 3, 4)))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.fixture
def slab_bytes(monkeypatch):
    """A setter of the conv kernel's ``SLAB_BYTES``; the cached plans, which read it, are
    dropped on every set and once more after the test has restored it."""
    def set_bytes(n):
        monkeypatch.setattr(tn, "SLAB_BYTES", n)
        tn._conv_plan.cache_clear()

    yield set_bytes
    monkeypatch.undo()
    tn._conv_plan.cache_clear()


def _entry_bytes(x_shape, w_shape, stride, padding, itemsize):
    """Bytes of one batch entry of the conv's padded input."""
    return math.prod(tn._conv_plan(x_shape, w_shape, stride, padding, itemsize).xp_shape[1:]) * itemsize


# batch 7, each case as (layout, input shape, kernel shape, stride, padding): the stem on a
# channels-first view of a (B, T, C, H, W) clip batch and a conv1d (both padded channel by
# channel), and a conv fed by a conv, whose channels are innermost in memory (one copy)
SLAB_CASES = {
    "stem_view": (lambda a: a.transpose(0, 2, 1, 3, 4), (7, 4, 3, 9, 10), (8, 3, 3, 5, 5), (1, 4, 4), (1, 2, 2)),
    "channels_last": (_channels_last_view, (7, 8, 4, 5, 6), (8, 8, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
    "conv1d": (np.asarray, (7, 8, 13), (8, 8, 9), (4,), (4,)),
}


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_slab_path_gives_the_one_pass_bits(slab_bytes, case):
    layout, shape, w_shape, stride, padding = SLAB_CASES[case]
    rng = substream(13, "conv-slabs", case)
    a, w, b = (rng.standard_normal(s).astype(np.float32) for s in (shape, w_shape, w_shape[:1]))
    x = layout(a)
    g = rng.standard_normal(_out_shape(x.shape, w_shape, stride, padding)).astype(np.float32)
    runs = {}  # by slab size: the whole batch, then a budget of three entries and a bit (slabs 3, 3, 1)
    for budget in (tn.SLAB_BYTES, 3 * _entry_bytes(x.shape, w_shape, stride, padding, 4) + 100):
        slab_bytes(budget)
        runs[tn._conv_plan(x.shape, w_shape, stride, padding, 4).slab] = _run_conv(x, w, b, stride, padding, g)
    assert sorted(runs) == [3, 7]
    for got, want in zip(runs[3], runs[7]):  # output, x, w and bias gradients
        assert np.array_equal(got, want)


def _traced_peak(x, w, stride, padding):
    """tracemalloc's peak over one tape-free conv3d call whose plan is cached already."""
    with tn.no_grad():
        tn.conv3d(x, w, stride, padding)
        tracemalloc.start()
        try:
            tn.conv3d(x, w, stride, padding)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("out_channels", [1, 8])
def test_stem_slab_path_never_holds_the_full_padded_input(slab_bytes, out_channels):
    # the stem at evaluate's batch of 16: a view of a (16, 16, 3, 32, 32) float32 clip batch,
    # whose padded input is 3.8 MiB, against one slab of 4 entries (0.95 MiB)
    rng = substream(14, "conv-slab-peak")
    x = Tensor(rng.standard_normal((16, 16, 3, 32, 32)).astype(np.float32).transpose(0, 2, 1, 3, 4))
    w = Tensor(rng.standard_normal((out_channels, 3, 3, 5, 5)).astype(np.float32))
    stride, padding, budget = (1, 4, 4), (1, 2, 2), tn.SLAB_BYTES
    slab_bytes(1 << 40)
    one_pass = _traced_peak(x, w, stride, padding)
    slab_bytes(budget)
    p = tn._conv_plan(x.shape, w.shape, stride, padding, 4)
    peak = _traced_peak(x, w, stride, padding)
    padded = math.prod(p.xp_shape) * 4
    assert p.slab == 4 and padded > 2 * budget
    if out_channels == 1:  # the column build is the peak: one slab of it instead of the padded input
        assert one_pass - peak >= padded - budget
    else:  # the detector's 8 channels: the columns, the GEMM result and the output, not the padding
        gemm_phase = sum(math.prod(shape) * 4 for shape in (p.cols_shape, p.y_shape, p.out_shape))
        assert peak <= 1.01 * gemm_phase < one_pass


def test_no_grad_builds_no_tape():
    rng = substream(11, "no-grad")
    x = Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    with tn.no_grad():
        outs = [tn.conv1d(x, w, 1, 1), tn.relu(x), tn.sigmoid(tn.mul(x, x)), tn.tsum(x)]
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None
    taped = tn.conv1d(x, w, 1, 1)
    assert taped.requires_grad and taped._parents == (x, w) and taped._backward is not None
    assert taped.data.tobytes() == outs[0].data.tobytes()


def test_no_grad_nests_and_restores():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    with tn.no_grad():
        with tn.no_grad():
            assert not tn.mul(x, x).requires_grad
        assert not tn.mul(x, x).requires_grad  # the inner exit keeps the outer block off
    assert tn.mul(x, x).requires_grad
    with pytest.raises(RuntimeError, match="probe"):
        with tn.no_grad():
            raise RuntimeError("probe failed")
    y = tn.tsum(tn.mul(x, x))
    y.backward()
    assert np.array_equal(x.grad, [3.0, -4.0])


def test_track_kinks_collects_nests_and_restores():
    x = Tensor(np.array([0.25, -3.0, 4.0]))
    with tn.track_kinks() as outer:
        tn.relu(x)
        with tn.track_kinks() as inner:
            tn.sqrt(Tensor(np.array([0.5, 9.0])))
            tn.clip(x, -1.0, hi=3.5)
        tn.relu(Tensor(np.array([-0.125])))
        p = np.array([0.5, 0.75])
        tn.bce_loss(Tensor(p), np.array([0.0, 1.0]))  # its inner clip is part of its call
    bce = [float(np.abs(p - tn.BCE_EPS).min()), float(np.abs(p - (1.0 - tn.BCE_EPS)).min())]
    assert outer == [0.25, 0.125, *bce]  # the inner block's ops go to the inner list only
    assert inner == [0.5, 1.25, 0.5]  # clip appends its distance to lo, then to hi
    with pytest.raises(RuntimeError, match="probe"):
        with tn.track_kinks():
            raise RuntimeError("probe failed")
    assert tn._CALLS is None


def _nan_grad_op(x: Tensor) -> Tensor:
    """The identity, with a backward that multiplies the gradient by NaN.

    Its forward is a public op, so the check's recorded pass sees it."""
    out = tn.mul(x, 1.0)
    if out._backward is not None:  # only the taped pass; probes run under no_grad

        def backward(g):
            x.grad = g * np.nan

        out._backward = backward
    return out


def test_nan_gradient_fails_the_check():
    x = substream(13, "nan-grad").standard_normal((3, 4))
    err = gradcheck.check_op(lambda ts: gradcheck.probe_sum(_nan_grad_op(ts[0])), [x])
    assert err == math.inf
    assert not gradcheck.suite_passed({"x": err})
    assert "FAIL" in gradcheck.format_report({"x": err})
    assert gradcheck.rel_error(np.ones(2), np.array([1.0, np.inf])) == math.inf


def test_max_grad_error_checks_every_tensor():
    rng = substream(14, "max-grad-error")
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4,)), requires_grad=True)
    err = gradcheck.max_grad_error(lambda: gradcheck.probe_sum(tn.add(a, b)), [a, b])
    assert err < gradcheck.OPS_TOLERANCE
    assert b.grad.shape == (4,)


def test_record_logs_outermost_op_calls_only():
    x = Tensor(np.array([0.2, 0.7]))
    with tn.record() as outer:
        m = tn.mean(x)  # calls tsum and mul
        with tn.record() as inner:
            loss = tn.bce_loss(x, np.array([0.0, 1.0]))  # calls clip, log, sub, mul, mean, add
        y = tn.relu(m)
    assert [(name, out) for name, _, _, out in outer] == [("mean", m), ("relu", y)]
    assert [(name, args[0], out) for name, args, _, out in inner] == [("bce_loss", x, loss)]
    assert outer[1][1] == (m,) and outer[1][2] == {}
    with pytest.raises(RuntimeError, match="probe"):
        with tn.record():
            raise RuntimeError("probe failed")
    assert tn._CALLS is None


def _captured_losses(monkeypatch, seed):
    """(loss, tensors, h) of every check ``run_suite`` makes for one instance, the tiny detector's last."""
    cases = []

    def capture_op(build, inputs):
        leaves = [Tensor(arr, requires_grad=True) for arr in inputs]
        cases.append((lambda: build(leaves), leaves, gradcheck.FD_STEP))
        return 0.0

    monkeypatch.setattr(gradcheck, "check_op", capture_op)
    monkeypatch.setattr(gradcheck, "max_grad_error", lambda loss, ts, h: cases.append((loss, ts, h)) or 0.0)
    gradcheck.run_suite(seed=seed, instances=1, include_model=True)
    return cases


@pytest.mark.parametrize("seed", [0, 5])
def test_replayed_probes_equal_full_recompute_bitwise(monkeypatch, seed):
    cases = _captured_losses(monkeypatch, seed)
    assert len(cases) == 13  # twelve ops and the tiny detector
    for i, (loss, tensors, h) in enumerate(cases):
        for t, probe in zip(tensors, gradcheck.replayed_losses(loss, tensors)):
            replayed = gradcheck.numerical_grad(probe, t.data, h)
            full = gradcheck.numerical_grad(lambda: float(loss().data), t.data, h)
            assert replayed.tobytes() == full.tobytes(), (i, t.shape)


def test_replay_misses_a_dependency_built_outside_the_ops():
    rng = substream(15, "hidden-dependency")
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4,)), requires_grad=True)

    def loss():
        h = tn.mul(a, b)
        hidden = Tensor(h.data * 2.0)  # depends on a and b, but no recorded call shows it
        return gradcheck.probe_sum(tn.add(h, hidden))

    with pytest.raises(RuntimeError, match=r"tensor 0 of shape \(3, 4\) is perturbed"):
        gradcheck.max_grad_error(loss, [a, b])


def _counting(monkeypatch, name):
    calls = [0]
    op = getattr(tn, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return op(*args, **kwargs)

    monkeypatch.setattr(tn, name, counted)
    return calls


def test_run_suite_calls_every_op(monkeypatch):
    # every op ``_op`` wraps runs the one code object of its wrapper
    ops = [name for name, f in vars(tn).items()
           if hasattr(f, "__wrapped__") and getattr(f, "__code__", None) is tn.add.__code__]
    assert {"conv3d", "bce_loss", "exp"} <= set(ops)
    calls = {name: _counting(monkeypatch, name) for name in ops}
    gradcheck.run_suite(seed=0, instances=1)
    # exp: the model does not use it, and the benchmark tracer wraps it by name, so it stays for now
    assert [name for name in ops if calls[name][0] == 0] == ["exp"]


def test_replays_call_ops_through_the_tensor_module(monkeypatch):
    # a wrapper installed on ``tensor.conv3d``, as the benchmark tracer installs one,
    # sees every replayed call: one per probe, two probes per element
    calls = _counting(monkeypatch, "conv3d")
    rng = substream(16, "counted-replay")
    x, w = rng.standard_normal((1, 2, 3, 4, 4)), 0.5 * rng.standard_normal((2, 2, 3, 3, 3))
    gradcheck.check_op(lambda ts: gradcheck.probe_sum(tn.conv3d(ts[0], ts[1], (1, 1, 1), (1, 1, 1))), [x, w])
    # the backward pass, the recorded pass, the probes, and each tensor's full first probe
    assert calls[0] == 1 + 1 + 2 * (x.size + w.size) + 2


def test_replay_runs_only_the_calls_downstream_of_the_tensor(monkeypatch):
    calls = _counting(monkeypatch, "relu")
    rng = substream(17, "downstream")
    a, b = rng.standard_normal((3, 4)) + 3.0, rng.standard_normal((3, 4))  # mul(a, a) far from relu's kink
    err = gradcheck.check_op(lambda ts: gradcheck.probe_sum(tn.add(tn.relu(tn.mul(ts[0], ts[0])), ts[1])), [a, b])
    assert err < gradcheck.OPS_TOLERANCE
    # b enters after the relu, so its probes replay only add, mul and tsum
    assert calls[0] == 1 + 1 + 2 * a.size + 2
