"""Temporal distance-map detector.

Two shallow extractors map a video clip and a waveform to features of
shape (T', C') on a shared temporal grid.  The per-timestep L2
distance between the modalities forms a distance map; a cross-modal
attention map (softmax over time of the scaled per-timestep dot
product of channel-reduced projections) reweights it; a small MLP on
the attended map outputs the probability that the pair is fake.

The visual path is a shallow residual 3D-conv stack ending in adaptive
average pooling to spatial size 1 and temporal size T'; the audio path
is a strided 1D-conv stack pooled to T'.  Both stacks are config-driven
block lists, not hard-coded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import container
from .errors import ConfigError, ShapeError
from .rng import substream
from .schema import decode
from .tinynet import tensor as tn
from .tinynet.layers import Conv1d, Conv3d, Linear
from .tinynet.tensor import Tensor


def default_visual_blocks(c_prime: int) -> list[dict]:
    mid = max(4, c_prime // 2)
    return [
        {"type": "conv", "out": mid, "kernel": [3, 5, 5], "stride": [1, 4, 4]},
        {"type": "res", "out": mid, "kernel": [3, 3, 3], "stride": [2, 2, 2]},
        {"type": "res", "out": c_prime, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
    ]


def default_audio_blocks(c_prime: int) -> list[dict]:
    mid = max(4, c_prime // 2)
    return [
        {"out": mid, "kernel": 9, "stride": 4},
        {"out": mid, "kernel": 9, "stride": 4},
        {"out": c_prime, "kernel": 5, "stride": 2},
        {"out": c_prime, "kernel": 5, "stride": 2},
        {"out": c_prime, "kernel": 3, "stride": 1},
    ]


def _positive_int(v) -> bool:
    return type(v) is int and v >= 1


def _check_block(where: str, block, visual: bool) -> None:
    """Every block needs an int ``out`` >= 1.  A visual block needs ``kernel``
    and ``stride`` as 3 positive ints and a ``type`` of conv (the default) or
    res; an audio block needs them as positive ints.  No other key is allowed."""
    if not isinstance(block, dict) or not _positive_int(block.get("out")):
        raise ConfigError(f"{where} must be an object with an int out >= 1, got {block!r}")
    unknown = block.keys() - {"out", "kernel", "stride"} - ({"type"} if visual else set())
    if unknown:
        raise ConfigError(f"{where} has unknown key {min(unknown, key=str)!r}")
    for key in ("kernel", "stride"):
        v = block.get(key)
        if visual and not (isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_positive_int, v))):
            raise ConfigError(f"{where}.{key} must be a list of 3 positive ints, got {v!r}")
        if not visual and not _positive_int(v):
            raise ConfigError(f"{where}.{key} must be a positive int, got {v!r}")
    if visual and block.get("type", "conv") not in ("conv", "res"):
        raise ConfigError(f"{where}.type must be 'conv' or 'res', got {block['type']!r}")


@dataclass
class DetectorConfig:
    """Shapes and block lists for the detector.

    ``t_prime`` controls detection granularity (1 = one global
    distance).  ``attention=False`` swaps the learned attention map for
    the uniform map 1/T', which is the ablation baseline.
    """

    t_prime: int = 8
    c_prime: int = 16
    visual_in_channels: int = 3
    visual_blocks: list = field(default_factory=list)
    audio_blocks: list = field(default_factory=list)
    attention: bool = True
    attention_kernel: int = 1
    classifier_hidden: int = 32

    def __post_init__(self):
        if not self.visual_blocks:
            self.visual_blocks = default_visual_blocks(self.c_prime)
        if not self.audio_blocks:
            self.audio_blocks = default_audio_blocks(self.c_prime)

    def validate(self) -> None:
        if self.t_prime < 1:
            raise ConfigError(f"t_prime must be >= 1, got {self.t_prime}")
        if self.c_prime < 4 or self.c_prime % 4 != 0:
            raise ConfigError(f"c_prime must be a positive multiple of 4, got {self.c_prime}")
        if self.visual_in_channels < 1:
            raise ConfigError(f"visual_in_channels must be >= 1, got {self.visual_in_channels}")
        if self.attention_kernel < 1 or self.attention_kernel % 2 == 0:
            raise ConfigError(f"attention_kernel must be odd and >= 1, got {self.attention_kernel}")
        if self.classifier_hidden < 1:
            raise ConfigError(f"classifier_hidden must be >= 1, got {self.classifier_hidden}")
        for blocks, last_key in ((self.visual_blocks, "visual"), (self.audio_blocks, "audio")):
            if not blocks:
                raise ConfigError(f"{last_key}_blocks must be nonempty")
            for n, block in enumerate(blocks):
                _check_block(f"{last_key}_blocks[{n}]", block, last_key == "visual")
            if blocks[-1]["out"] != self.c_prime:
                raise ConfigError(
                    f"last {last_key} block must output c_prime={self.c_prime} channels, "
                    f"got {blocks[-1]['out']}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]


def _prefixed(named_layers) -> list:
    """``(prefix, layer)`` pairs -> every layer's ``(name, tensor)`` params, named ``prefix.name``."""
    return [(f"{prefix}.{n}", t) for prefix, layer in named_layers for n, t in layer.params()]


class _ResBlock3d:
    def __init__(self, c_in, c_out, kernel, stride, rng, dtype):
        self.conv1 = Conv3d(c_in, c_out, kernel, stride, rng=rng, dtype=dtype)
        self.conv2 = Conv3d(c_out, c_out, kernel, (1, 1, 1), rng=rng, dtype=dtype)
        if c_in == c_out and tuple(stride) == (1, 1, 1):
            self.proj = None
        else:
            self.proj = Conv3d(c_in, c_out, (1, 1, 1), stride, padding=(0, 0, 0), rng=rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.conv2(tn.relu(self.conv1(x)))
        shortcut = x if self.proj is None else self.proj(x)
        return tn.relu(tn.add(h, shortcut))

    def params(self):
        named = [("conv1", self.conv1), ("conv2", self.conv2)]
        return _prefixed(named if self.proj is None else named + [("proj", self.proj)])


def distance_map(fv: Tensor, fa: Tensor) -> Tensor:
    """Per-timestep L2 distance between (B, T', C') feature maps."""
    if fv.data.shape != fa.data.shape:
        raise ShapeError(f"distance_map: feature shapes differ, {fv.shape} vs {fa.shape}")
    d = tn.sub(fv, fa)
    return tn.sqrt(tn.tsum(tn.mul(d, d), axis=2))


def attention_map(fv: Tensor, fa: Tensor, proj_v: Conv1d, proj_a: Conv1d, c_prime: int) -> Tensor:
    """Cross-modal attention over time.

    Projections reduce channels to C'/4; the per-timestep dot product
    of the projected features is divided by C' and softmax-normalized
    over the T' positions.
    """
    pv = proj_v(tn.transpose(fv, (0, 2, 1)))  # (B, C'/4, T')
    pa = proj_a(tn.transpose(fa, (0, 2, 1)))
    scores = tn.mul(tn.tsum(tn.mul(pa, pv), axis=1), 1.0 / c_prime)  # (B, T')
    return tn.softmax(scores, axis=1)


class Detector:
    def __init__(self, config: DetectorConfig, seed: int = 0, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = substream(seed, "detector-init")

        self.visual_layers = []
        c_in = config.visual_in_channels
        for spec in config.visual_blocks:
            kernel, stride = tuple(spec["kernel"]), tuple(spec["stride"])
            if spec.get("type", "conv") == "res":
                self.visual_layers.append(("res", _ResBlock3d(c_in, spec["out"], kernel, stride, rng, dtype)))
            else:
                self.visual_layers.append(("conv", Conv3d(c_in, spec["out"], kernel, stride, rng=rng, dtype=dtype)))
            c_in = spec["out"]

        self.audio_layers = []
        c_in = 1
        for spec in config.audio_blocks:
            self.audio_layers.append(Conv1d(c_in, spec["out"], spec["kernel"], spec["stride"], rng=rng, dtype=dtype))
            c_in = spec["out"]

        if config.attention:
            reduced = config.c_prime // 4
            self.proj_v = Conv1d(config.c_prime, reduced, config.attention_kernel, 1, rng=rng, dtype=dtype)
            self.proj_a = Conv1d(config.c_prime, reduced, config.attention_kernel, 1, rng=rng, dtype=dtype)
        else:
            self.proj_v = self.proj_a = None

        self.fc1 = Linear(config.t_prime, config.classifier_hidden, rng=rng, dtype=dtype)
        self.fc2 = Linear(config.classifier_hidden, 1, rng=rng, dtype=dtype)

    # ----------------------------------------------------------------- params

    def params(self):
        named = [(f"visual.{i}", layer) for i, (_, layer) in enumerate(self.visual_layers)]
        named += [(f"audio.{i}", layer) for i, layer in enumerate(self.audio_layers)]
        if self.proj_v is not None:
            named += [("attn_v", self.proj_v), ("attn_a", self.proj_a)]
        return _prefixed(named + [("fc1", self.fc1), ("fc2", self.fc2)])

    # --------------------------------------------------------------- forward

    def extract_visual(self, x) -> Tensor:
        """(B, T, C, H, W) clip batch -> (B, T', C') features."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 5 or x.shape[2] != self.config.visual_in_channels:
            raise ShapeError(
                f"visual input must be (B, T, {self.config.visual_in_channels}, H, W), got {x.shape}"
            )
        h = Tensor(np.ascontiguousarray(x.transpose(0, 2, 1, 3, 4)))
        for kind, layer in self.visual_layers:
            h = layer(h) if kind == "res" else tn.relu(layer(h))
        h = tn.adaptive_avg_pool3d(h, (self.config.t_prime, 1, 1))
        b = h.data.shape[0]
        h = tn.reshape(h, (b, self.config.c_prime, self.config.t_prime))
        return tn.transpose(h, (0, 2, 1))

    def extract_audio(self, x) -> Tensor:
        """(B, T_a) waveform batch -> (B, T', C') features."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2:
            raise ShapeError(f"audio input must be (B, T_a), got {x.shape}")
        h = Tensor(x[:, None, :])
        for layer in self.audio_layers:
            h = tn.relu(layer(h))
        h = tn.adaptive_avg_pool1d(h, self.config.t_prime)
        return tn.transpose(h, (0, 2, 1))

    def classify(self, m_hat: Tensor) -> Tensor:
        """Attended map (B, T') -> fake probability (B,), strictly in (0, 1)."""
        h = tn.relu(self.fc1(m_hat))
        z = self.fc2(h)
        return tn.sigmoid(tn.reshape(z, (z.data.shape[0],)))

    def forward(self, visual, audio) -> tuple[Tensor, Tensor, Tensor]:
        """Batched forward; returns (fake probability, distance map, attention map)."""
        fv = self.extract_visual(visual)
        fa = self.extract_audio(audio)
        m = distance_map(fv, fa)
        if self.config.attention:
            a = attention_map(fv, fa, self.proj_v, self.proj_a, self.config.c_prime)
        else:
            a = Tensor(np.full(m.data.shape, 1.0 / self.config.t_prime, dtype=self.dtype))
        m_hat = tn.mul(m, a)
        y = self.classify(m_hat)
        return y, m, a

    def forward_pair(self, pair) -> tuple[float, np.ndarray, np.ndarray]:
        """Single AVPair -> (fake probability, distance map, attention map)."""
        with tn.no_grad():
            y, m, a = self.forward(pair.visual.data[None], pair.audio.data[None])
        return float(y.data[0]), m.data[0].copy(), a.data[0].copy()

    def score_batch(self, visuals: np.ndarray, audios: np.ndarray) -> np.ndarray:
        """Fake probabilities (B,) as float64, computed without a tape."""
        with tn.no_grad():
            y, _, _ = self.forward(visuals, audios)
        return np.asarray(y.data, dtype=np.float64)


# ------------------------------------------------------------------- storage


def save_checkpoint(path, model: Detector, extra_meta: dict[str, str] | None = None) -> None:
    """Parameters as an AVTC container; config JSON and hash in the meta."""
    tensors = {name: np.asarray(t.data, dtype=np.float32) for name, t in model.params()}
    meta = {
        "kind": "avlab-checkpoint",
        "detector_config": json.dumps(model.config.to_dict(), sort_keys=True),
        "config_hash": model.config.hash(),
    }
    meta.update(extra_meta or {})
    container.write_container(path, tensors, meta)


def load_checkpoint(path, dtype=np.float32) -> tuple[Detector, dict[str, str]]:
    """Rebuild a saved model; a stale ``config_hash`` or a missing, extra or wrong-shaped tensor is a ConfigError."""
    tensors, meta = container.read_container(path)
    if "detector_config" not in meta:
        raise ConfigError(f"{path}: checkpoint meta has no detector_config entry")
    try:
        config = decode(DetectorConfig, json.loads(meta["detector_config"]), "checkpoint detector_config")
    except ValueError as exc:  # not JSON, or not a DetectorConfig
        raise ConfigError(f"{path}: {exc}") from exc
    if meta.get("config_hash") != config.hash():
        raise ConfigError(f"{path}: checkpoint config_hash {meta.get('config_hash')!r} != {config.hash()!r}")
    model = Detector(config, seed=0, dtype=dtype)
    extra = sorted(set(tensors) - {name for name, _ in model.params()})
    if extra:
        raise ConfigError(f"{path}: checkpoint holds tensors the model has no parameter for: {extra}")
    for name, t in model.params():
        if name not in tensors:
            raise ConfigError(f"{path}: checkpoint missing parameter {name!r}")
        if tensors[name].shape != t.data.shape:
            raise ConfigError(
                f"{path}: checkpoint parameter {name!r} has shape {tensors[name].shape}, expected {t.data.shape}"
            )
        t.data = tensors[name].astype(dtype)
    return model, meta


# ----------------------------------------------------------------- gradcheck


def tiny_config() -> DetectorConfig:
    """Smallest full architecture (T'=2, C'=4) used by the gradient suite."""
    return DetectorConfig(
        t_prime=2,
        c_prime=4,
        visual_in_channels=1,
        visual_blocks=[
            {"type": "conv", "out": 4, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
            {"type": "res", "out": 4, "kernel": [3, 3, 3], "stride": [2, 1, 1]},
        ],
        audio_blocks=[{"out": 4, "kernel": 5, "stride": 2}, {"out": 4, "kernel": 3, "stride": 2}],
        classifier_hidden=4,
    )


def full_model_gradcheck(seed: int = 0, instance: int = 0) -> float:
    """Finite-difference check of every parameter gradient of the tiny
    detector under a BCE loss; returns the max relative error.

    Central differences are only valid where the loss is smooth, so a
    probe point closer than ``gradcheck.MODEL_KINK_MARGIN`` to a relu,
    sqrt or clip kink is redrawn: the analytic gradient there is a legal
    subgradient that finite differences cannot certify.
    """
    from .tinynet import gradcheck as gc

    model = Detector(tiny_config(), seed=seed * 7919 + instance, dtype=np.float64)
    rng = substream(seed, "fullmodel", instance)

    def loss() -> Tensor:
        y, _, _ = model.forward(visual, audio)
        return tn.bce_loss(y, label)

    for _ in range(64):
        visual = rng.uniform(0.0, 1.0, size=(1, 6, 1, 6, 6))
        audio = rng.uniform(-1.0, 1.0, size=(1, 16))
        label = np.array([float(rng.integers(0, 2))])
        with tn.track_kinks(tn.KinkTracker()) as tracker:
            loss()
        if tracker.min_distance > gc.MODEL_KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not find a probe point away from activation kinks")

    loss().backward()
    worst = 0.0
    for _, p in model.params():
        numeric = gc.numerical_grad(lambda: float(loss().data), p.data, h=gc.MODEL_FD_STEP)
        worst = max(worst, gc.rel_error(p.grad, numeric))
        p.grad = None
    return worst
