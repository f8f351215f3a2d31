"""Detector architecture: shape contracts, map invariants, checkpoints."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from avlab import container
from avlab.detector import (
    Detector,
    DetectorConfig,
    attention_map,
    distance_map,
    full_model_gradcheck,
    load_checkpoint,
    save_checkpoint,
    tiny_config,
)
from avlab.errors import ConfigError, ShapeError
from avlab.rng import substream
from avlab.tinynet import Adam
from avlab.tinynet import tensor as tn
from avlab.tinynet.layers import Conv1d
from avlab.tinynet.tensor import Tensor


def toy_model(seed=0, **overrides):
    cfg = DetectorConfig(**overrides)
    return Detector(cfg, seed=seed)


def rand_inputs(rng, b=2, t_v=16, c=3, hw=32, t_a=1600):
    v = rng.uniform(0, 1, (b, t_v, c, hw, hw)).astype(np.float32)
    a = rng.uniform(-1, 1, (b, t_a)).astype(np.float32)
    return v, a


def test_extractor_output_shapes():
    m = toy_model()
    rng = substream(0, "shapes")
    v, a = rand_inputs(rng)
    fv = m.extract_visual(v)
    fa = m.extract_audio(a)
    assert fv.data.shape == (2, 8, 16)
    assert fa.data.shape == (2, 8, 16)
    assert np.isfinite(fv.data).all() and np.isfinite(fa.data).all()


def test_zero_input_finite():
    m = toy_model()
    y, dm, am = m.forward(np.zeros((1, 16, 3, 32, 32), np.float32), np.zeros((1, 1600), np.float32))
    assert np.isfinite(y.data).all() and np.isfinite(dm.data).all() and np.isfinite(am.data).all()


def test_batch_independence():
    m = toy_model()
    rng = substream(1, "batchind")
    v, a = rand_inputs(rng, b=1)
    y1, _, _ = m.forward(v, a)
    y2, _, _ = m.forward(np.repeat(v, 4, axis=0), np.repeat(a, 4, axis=0))
    assert np.allclose(y2.data, y1.data[0], atol=1e-6)


def test_distance_map_zero_iff_equal():
    rng = substream(2, "dist")
    f = Tensor(rng.standard_normal((2, 4, 3)).astype(np.float32))
    m = distance_map(f, f)
    assert (m.data == 0).all()

    fv = np.zeros((1, 4, 3), np.float32)
    fa = np.zeros((1, 4, 3), np.float32)
    fa[0, 3, 1] = -1.0  # unit difference at t=3 only
    m = distance_map(Tensor(fv), Tensor(fa))
    assert np.allclose(m.data, [[0, 0, 0, 1]])
    assert (m.data >= 0).all()


def test_distance_map_matches_bruteforce():
    rng = substream(3, "dist-oracle")
    fv = rng.standard_normal((5, 4, 3))
    fa = rng.standard_normal((5, 4, 3))
    m = distance_map(Tensor(fv), Tensor(fa)).data
    for b in range(5):
        for t in range(4):
            expected = np.sqrt(((fv[b, t] - fa[b, t]) ** 2).sum())
            assert abs(m[b, t] - expected) < 1e-6


def test_distance_map_shape_mismatch():
    with pytest.raises(ShapeError):
        distance_map(Tensor(np.zeros((1, 4, 3))), Tensor(np.zeros((1, 5, 3))))


def test_attention_uniform_on_zero_features():
    rng = substream(4, "attn")
    pv = Conv1d(8, 2, 1, rng=rng)
    pa = Conv1d(8, 2, 1, rng=rng)
    z = Tensor(np.zeros((3, 5, 8), np.float32))
    a = attention_map(z, z, pv, pa, 8)
    assert np.allclose(a.data, 0.2, atol=1e-6)


def test_attention_normalized_random():
    rng = substream(5, "attn-rand")
    pv = Conv1d(8, 2, 1, rng=rng)
    pa = Conv1d(8, 2, 1, rng=rng)
    for _ in range(100):
        fv = Tensor(rng.standard_normal((2, 6, 8)).astype(np.float32))
        fa = Tensor(rng.standard_normal((2, 6, 8)).astype(np.float32))
        a = attention_map(fv, fa, pv, pa, 8)
        assert np.abs(a.data.sum(axis=1) - 1.0).max() < 1e-6
        assert (a.data > 0).all()


def test_classifier_zero_weights_half():
    m = toy_model()
    m.fc1.weight.data[:] = 0
    m.fc1.bias.data[:] = 0
    m.fc2.weight.data[:] = 0
    m.fc2.bias.data[:] = 0
    y = m.classify(Tensor(substream(6, "cls").standard_normal((4, 8)).astype(np.float32)))
    assert np.allclose(y.data, 0.5)


def test_output_strictly_in_unit_interval_fuzz():
    m = toy_model()
    rng = substream(7, "fuzz")
    for _ in range(500):  # 1000 fuzz samples at batch 2
        v, a = rand_inputs(rng, b=2, t_v=16)
        y, dm, am = m.forward(v, a)
        assert ((y.data > 0) & (y.data < 1)).all()
        assert np.isfinite(dm.data).all() and np.isfinite(am.data).all()


def test_one_adam_step_decreases_loss():
    # a single optimization step on a fixed batch should reduce BCE for
    # nearly every init seed
    from avlab.tinynet import Adam
    from avlab.tinynet.tensor import bce_loss

    cfg = DetectorConfig(
        t_prime=4,
        c_prime=8,
        visual_in_channels=1,
        visual_blocks=[
            {"type": "conv", "out": 4, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
            {"type": "res", "out": 8, "kernel": [3, 3, 3], "stride": [2, 2, 2]},
        ],
        audio_blocks=[{"out": 4, "kernel": 9, "stride": 4}, {"out": 8, "kernel": 5, "stride": 4}],
        classifier_hidden=8,
    )
    rng = substream(13, "onestep")
    v = rng.uniform(0, 1, (4, 8, 1, 12, 12)).astype(np.float32)
    a = rng.uniform(-1, 1, (4, 320)).astype(np.float32)
    labels = np.array([0, 1, 0, 1], np.float32)

    improved = 0
    for seed in range(100):
        model = Detector(cfg, seed=seed)
        opt = Adam(model.params(), lr=1e-3)
        y, _, _ = model.forward(v, a)
        loss0 = bce_loss(y, labels)
        opt.zero_grad()
        loss0.backward()
        opt.step()
        y1, _, _ = model.forward(v, a)
        improved += float(bce_loss(y1, labels).data) < float(loss0.data)
    assert improved >= 95, improved


def tape_nodes(root):
    """The nodes with a backward closure that ``root`` reaches."""
    nodes, seen, todo = [], set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


def test_train_step_tape_has_one_node_per_conv_layer():
    m = toy_model()
    v, a = rand_inputs(substream(0, "tape"))
    y, _, _ = m.forward(v, a)
    loss = tn.bce_loss(y, np.array([0.0, 1.0], np.float32))
    assert len(tape_nodes(loss)) == 59

    # the stem's input needs no gradient; the next conv's input does
    stem, block = m.visual_layers[0][1], m.visual_layers[1][1]
    h = stem(Tensor(v.transpose(0, 2, 1, 3, 4)))
    assert h._parents == (stem.weight, stem.bias)
    out = block.conv1(h)
    assert out._parents == (h, block.conv1.weight, block.conv1.bias)


def test_backward_frees_the_activations():
    # with the outputs still referenced, every other array of the tape dies in backward()
    m = toy_model()
    y, dmap, amap = m.forward(*rand_inputs(substream(0, "free")))
    loss = tn.bce_loss(y, np.array([0.0, 1.0], np.float32))
    refs = [weakref.ref(node.data) for node in tape_nodes(loss)]
    loss.backward()
    alive = {id(r()) for r in refs if r() is not None}
    assert len(refs) == 59 and alive == {id(t.data) for t in (loss, y, dmap, amap)}


def test_closures_accumulate_so_a_wrapper_may_drop_their_return():
    # a tracer that wraps each node's closure and returns None, as perfbench's does,
    # leaves every parameter gradient bit-identical
    v, a = rand_inputs(substream(0, "wrapped"))
    labels = np.array([0.0, 1.0], np.float32)

    def dropping(closure):
        def backward(g):
            closure(g)

        return backward

    def param_grads(wrap):
        m = toy_model()
        y, _, _ = m.forward(v, a)
        loss = tn.bce_loss(y, labels)
        if wrap:
            for node in tape_nodes(loss):
                node._backward = dropping(node._backward)
        loss.backward()
        return [(name, p.grad.tobytes()) for name, p in m.params()]

    assert param_grads(wrap=True) == param_grads(wrap=False)


def test_train_steps_do_not_hold_the_last_tape():
    # step k's forward runs while y and loss still name step k-1's: three steps
    # need little more memory than one
    m = toy_model()
    v, a = rand_inputs(substream(0, "steps"), b=4)
    labels = np.array([0.0, 1.0, 0.0, 1.0], np.float32)
    opt = Adam(m.params(), lr=1e-3)

    def peak(steps):
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(steps):
                y, _, _ = m.forward(v, a)
                loss = tn.bce_loss(y, labels)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm the conv plans
    one, three = peak(1), peak(3)
    assert three <= 1.25 * one, (one, three)


def test_conv_activations_stay_channels_last():
    # the stem's output, after relu, is stored (B, T, H, W, C), so visual.1
    # takes the kernel's one-copy pad path
    m = toy_model()
    v, _ = rand_inputs(substream(0, "layout"))
    h = tn.relu(m.visual_layers[0][1](Tensor(v.transpose(0, 2, 1, 3, 4))))
    assert h.data.shape == (2, 8, 16, 8, 8)
    assert h.data.strides[1] == h.data.itemsize
    assert np.moveaxis(h.data, 1, -1).flags.c_contiguous


def test_conv_plans_have_no_padding_only_gemm_rows(monkeypatch):
    # score geometry: a batch of 16 clips of 16 frames at the synthetic default size
    calls = []
    plan = tn._conv_plan

    def recording(x_shape, w_shape, stride, padding, itemsize):
        calls.append((x_shape, w_shape, stride, plan(x_shape, w_shape, stride, padding, itemsize)))
        return calls[-1][-1]

    monkeypatch.setattr(tn, "_conv_plan", recording)
    m = toy_model()
    with tn.no_grad():
        m.forward(*rand_inputs(substream(0, "plans"), b=16))

    def gemm_rows(p):
        return math.prod(p.cols_shape) // p.gemm[0]

    visual = [c for c in calls if len(c[0]) == 5]
    x_shape, _, _, stem = visual[0]
    B, T, (Ho, Wo) = x_shape[0], x_shape[2], stem.out_shape[2:4]
    assert (B, T) == (16, 16) and stem.cols_shape[:2] == (B, T)
    assert gemm_rows(stem) == B * T * Ho * Wo  # every frame read once, no padding frames
    for x_shape, w_shape, stride, p in visual:
        if w_shape[2] > 1:  # time taps in the GEMM's N: one row per input frame
            assert p.cols_shape[1] == x_shape[2]
    (_, _, _, proj), = [c for c in visual if c[1][2:] == (1, 1, 1) and c[2] == (2, 2, 2)]
    assert proj.lead_taps is None and proj.cols_shape[1] == 8  # 8 rows per 16-frame clip
    assert gemm_rows(proj) == math.prod(proj.out_shape[:-1])


def test_no_grad_forward_bit_identical():
    m = toy_model()
    v, a = rand_inputs(substream(0, "no-grad"))
    taped = m.forward(v, a)
    with tn.no_grad():
        plain = m.forward(v, a)
    for t, p in zip(taped, plain):
        assert t.requires_grad and t._backward is not None
        assert not p.requires_grad and p._parents == () and p._backward is None
        assert p.data.tobytes() == t.data.tobytes()
    scores, dmap, amap = m.infer(v, a)
    assert scores.dtype == np.float64 and scores.tobytes() == taped[0].data.astype(np.float64).tobytes()
    assert dmap.shape == amap.shape == (2, 8)
    assert dmap.tobytes() == taped[1].data.tobytes() and amap.tobytes() == taped[2].data.tobytes()
    assert m.score_batch(v, a).tobytes() == scores.tobytes()


def test_attention_off_uses_uniform_map():
    rng = substream(8, "attnoff")
    v, a = rand_inputs(rng, b=2)
    m = toy_model(attention=False)
    y, dm, am = m.forward(v, a)
    assert np.allclose(am.data, 1.0 / 8)
    assert m.proj_v is None and m.proj_a is None


def test_t_prime_one_single_global_distance():
    m = toy_model(t_prime=1)
    rng = substream(9, "t1")
    v, a = rand_inputs(rng, b=3)
    y, dm, am = m.forward(v, a)
    assert dm.data.shape == (3, 1)
    assert np.allclose(am.data, 1.0)  # softmax over one position
    assert y.data.shape == (3,)


def test_temporal_permutation_equivariance():
    # per-timestep ops: permuting both feature maps permutes m and a alike
    rng = substream(10, "perm")
    pv = Conv1d(8, 2, 1, rng=rng)
    pa = Conv1d(8, 2, 1, rng=rng)
    fv = rng.standard_normal((1, 6, 8)).astype(np.float32)
    fa = rng.standard_normal((1, 6, 8)).astype(np.float32)
    perm = substream(11, "p").permutation(6)

    m1 = distance_map(Tensor(fv), Tensor(fa)).data[:, perm]
    m2 = distance_map(Tensor(fv[:, perm]), Tensor(fa[:, perm])).data
    assert np.allclose(m1, m2, atol=1e-6)

    a1 = attention_map(Tensor(fv), Tensor(fa), pv, pa, 8).data[:, perm]
    a2 = attention_map(Tensor(fv[:, perm]), Tensor(fa[:, perm]), pv, pa, 8).data
    assert np.allclose(a1, a2, atol=1e-6)


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(c_prime=6).validate()  # not a multiple of 4
    with pytest.raises(ConfigError):
        DetectorConfig(t_prime=0).validate()
    with pytest.raises(ConfigError):
        DetectorConfig(attention_kernel=2).validate()
    bad = DetectorConfig()
    bad.visual_blocks[-1]["out"] = 12
    with pytest.raises(ConfigError):
        bad.validate()


@pytest.mark.parametrize(
    "path, block, message",
    [
        ("visual", {"out": 16}, r"visual_blocks\[0\]\.kernel must be a list of 3 positive ints"),
        ("visual", {"out": 4, "kernel": [3, 3], "stride": [1, 1, 1]}, r"visual_blocks\[0\]\.kernel"),
        ("visual", {"out": 4, "kernel": [3, 3, 3], "stride": [1, 0, 1]}, r"visual_blocks\[0\]\.stride"),
        ("visual", {"type": "dense", "out": 4, "kernel": [3, 3, 3], "stride": [1, 1, 1]},
         r"visual_blocks\[0\]\.type must be 'conv' or 'res'"),
        ("visual", {"out": 0, "kernel": [3, 3, 3], "stride": [1, 1, 1]}, r"visual_blocks\[0\] must be an object"),
        ("audio", {"out": 4, "kernel": 9}, r"audio_blocks\[0\]\.stride must be a positive int"),
        ("audio", {"out": 4, "kernel": [9], "stride": 4}, r"audio_blocks\[0\]\.kernel must be a positive int"),
        ("audio", {"out": True, "kernel": 9, "stride": 4}, r"audio_blocks\[0\] must be an object"),
        ("audio", [4, 9, 4], r"audio_blocks\[0\] must be an object"),
        ("visual", {"out": 8, "kernel": [3, 3, 3], "stride": [1, 2, 2], "padding": [0, 0, 0]},
         r"visual_blocks\[0\] has unknown key 'padding'"),
        ("audio", {"type": "conv", "out": 4, "kernel": 9, "stride": 4}, r"audio_blocks\[0\] has unknown key 'type'"),
        ("audio", {"out": 4, "kernel": 9, "stride": 4, "dilation": 2}, r"audio_blocks\[0\] has unknown key 'dilation'"),
    ],
    ids=["no_kernel", "short_kernel", "zero_stride", "bad_type", "zero_out",
         "audio_no_stride", "audio_list_kernel", "audio_bool_out", "audio_not_object",
         "visual_padding", "audio_type", "audio_dilation"],
)
def test_config_rejects_malformed_block(path, block, message):
    cfg = DetectorConfig()
    getattr(cfg, f"{path}_blocks")[0] = block
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


def test_input_shape_validation():
    m = toy_model()
    with pytest.raises(ShapeError):
        m.extract_visual(np.zeros((2, 16, 1, 32, 32), np.float32))  # wrong channels
    with pytest.raises(ShapeError):
        m.extract_audio(np.zeros((2, 3, 100), np.float32))


def test_checkpoint_round_trip(tmp_path):
    m = toy_model(seed=42)
    rng = substream(12, "ckpt")
    v, a = rand_inputs(rng)
    y_before, _, _ = m.forward(v, a)
    path = tmp_path / "ckpt.avtc"
    save_checkpoint(path, m, extra_meta={"step": "17"})
    back, meta = load_checkpoint(path)
    assert meta["step"] == "17"
    assert meta["config_hash"] == m.config.hash()
    y_after, _, _ = back.forward(v, a)
    assert np.array_equal(y_before.data, y_after.data)


def test_checkpoint_rejects_config_hash_mismatch(tmp_path):
    path = tmp_path / "ckpt.avtc"
    save_checkpoint(path, toy_model(seed=3))
    tensors, meta = container.read_container(path)
    meta["config_hash"] = DetectorConfig(t_prime=4).hash()
    container.write_container(path, tensors, meta)
    with pytest.raises(ConfigError, match="config_hash"):
        load_checkpoint(path)


def test_checkpoint_rejects_unexpected_tensor(tmp_path):
    path = tmp_path / "ckpt.avtc"
    save_checkpoint(path, toy_model(seed=3))
    tensors, meta = container.read_container(path)
    tensors["fc3.weight"] = np.ones((4, 1), np.float32)
    container.write_container(path, tensors, meta)
    with pytest.raises(ConfigError, match="fc3.weight"):
        load_checkpoint(path)


def test_full_model_gradcheck_single_instance():
    err = full_model_gradcheck(seed=1, instance=0)
    assert err < 1e-3


def test_tiny_config_valid():
    cfg = tiny_config()
    cfg.validate()
    assert cfg.t_prime == 2 and cfg.c_prime == 4
