"""Autodiff stack: hand-computable values, gradient checks, Adam behavior."""

import warnings

import numpy as np
import pytest

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


def test_softmax_basics():
    out = tn.softmax(Tensor(np.zeros((1, 3))), axis=1)
    assert np.allclose(out.data, 1.0 / 3.0)

    rng = substream(2, "softmax")
    x = rng.standard_normal((5, 9))
    a = tn.softmax(Tensor(x), axis=1).data
    b = tn.softmax(Tensor(x + 13.7), axis=1).data
    assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(a - b).max() < 1e-6
    assert (a > 0).all()


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


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_matches_naive_reference(case):
    # float64 -> float32 -> float64 on one geometry, starting from an empty plan
    # cache: each dtype must get its own plan, never the other itemsize's strides
    x_shape, w_shape, stride, padding = CONV_CASES[case]
    rng = substream(10, "conv-reference", case)
    x64, w64 = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    g64 = None
    tn._conv_plan.cache_clear()
    for dtype in (np.float64, np.float32, np.float64):
        x = Tensor(x64.astype(dtype), requires_grad=True)
        w = Tensor(w64.astype(dtype), requires_grad=True)
        if len(x_shape) == 5:
            out = tn.conv3d(x, w, stride, padding)
        else:
            out = tn.conv1d(x, w, stride[0], padding[0])
        if g64 is None:
            g64 = rng.standard_normal(out.shape)
        g = g64.astype(dtype)
        tn.tsum(tn.mul(out, Tensor(g))).backward()

        # reference in float64 on the very values the kernel saw
        ref_out, ref_gx, ref_gw = _naive_conv(
            x.data.astype(np.float64), w.data.astype(np.float64), stride, padding, g.astype(np.float64)
        )
        for got, ref in ((out.data, ref_out), (x.grad, ref_gx), (w.grad, ref_gw)):
            assert got.shape == ref.shape and got.dtype == dtype
            assert np.abs(got - ref).max() <= CONV_REFERENCE_TOL[dtype] * np.abs(ref).max()
    assert tn._conv_plan.cache_info().misses == 2


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
