"""Audio-visual data model and synthetic correlated pair generator.

Real datasets are replaced by a synthetic generator at desk scale: a
smooth latent envelope drives both modalities of a *real* pair, so the
frame-wise brightness of the video and the frame-wise RMS of the audio
carry the same signal.  Fakes break that coupling either globally
(independent envelopes) or locally (one envelope chunk swapped out).

Conventions:
    visual clip   (T_v, C_v, H, W) float32 in [0, 1]
    audio clip    (T_a,) float32 in [-1, 1], T_a a multiple of T_v
    alignment     uniform ratio, samples_per_frame = T_a // T_v
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .errors import ConfigError
from .pseudofake import ChunkParams, ManipulationSpec, apply_manipulation, sample_chunk
from .rng import substream

LABELS = ("real", "fake")

# Carrier tone for the audio track, in cycles per waveform sample.  The
# period (20 samples) divides the samples-per-frame ratio for the stock
# configs, which keeps per-frame RMS exactly proportional to the envelope.
CARRIER_CYCLES_PER_SAMPLE = 0.05


@dataclass
class _Clip:
    """Float32 clip, time on axis 0; a subclass sets its message name, rank, shape text and value range."""

    data: np.ndarray

    def validate(self) -> None:
        d, (lo, hi) = self.data, self.RANGE
        if d.ndim != self.NDIM or d.shape[0] < 2 or min(d.shape) < 1:
            raise ConfigError(f"{self.KIND} clip needs shape {self.SHAPE}, got {d.shape}")
        if d.dtype != np.float32:
            raise ConfigError(f"{self.KIND} clip must be float32, got {d.dtype}")
        if not np.isfinite(d).all() or d.min() < lo or d.max() > hi:
            raise ConfigError(f"{self.KIND} samples must be finite and in [{lo}, {hi}]")

    def replace_data(self, arr: np.ndarray) -> "_Clip":
        return type(self)(np.asarray(arr, dtype=np.float32))

    @property
    def t(self) -> int:
        return self.data.shape[0]


class VisualClip(_Clip):
    """Video tensor of shape (T_v, C_v, H, W), float32, values in [0, 1]."""

    KIND, NDIM, SHAPE, RANGE = "visual", 4, "(T>=2, C, H, W)", (0, 1)


class AudioClip(_Clip):
    """Waveform of shape (T_a,), float32, values in [-1, 1]."""

    KIND, NDIM, SHAPE, RANGE = "audio", 1, "(T>=2,)", (-1, 1)


@dataclass
class PairMeta:
    """Provenance: source id, generator origin, manipulation records."""

    source_id: str = "synth"
    origin: str = "real"  # real | global_desync | local_desync | pseudo_fake
    visual_manipulations: list[ManipulationSpec] = field(default_factory=list)
    audio_manipulations: list[ManipulationSpec] = field(default_factory=list)

    def to_strings(self) -> dict[str, str]:
        return {
            "source_id": self.source_id,
            "origin": self.origin,
            "visual_manipulations": json.dumps([s.to_dict() for s in self.visual_manipulations]),
            "audio_manipulations": json.dumps([s.to_dict() for s in self.audio_manipulations]),
        }

    @classmethod
    def from_strings(cls, d: dict[str, str]) -> "PairMeta":
        def records(key: str) -> list[ManipulationSpec]:
            stored = json.loads(d.get(key, "[]"))
            if not isinstance(stored, list):
                raise ConfigError(f"{key} must be a JSON list of manipulation records, got {stored!r}")
            return [ManipulationSpec.from_dict(s) for s in stored]

        return cls(
            source_id=d.get("source_id", "unknown"),
            origin=d.get("origin", "real"),
            visual_manipulations=records("visual_manipulations"),
            audio_manipulations=records("audio_manipulations"),
        )


@dataclass
class AVPair:
    visual: VisualClip
    audio: AudioClip
    label: str
    meta: PairMeta = field(default_factory=PairMeta)

    def validate(self) -> None:
        if self.label not in LABELS:
            raise ConfigError(f"label must be one of {LABELS}, got {self.label!r}")
        self.visual.validate()
        self.audio.validate()
        if not self.label_consistent():
            raise ConfigError(
                f"label {self.label!r} inconsistent with origin {self.meta.origin!r} "
                f"and manipulation records"
            )

    def label_consistent(self) -> bool:
        manipulated = bool(self.meta.visual_manipulations or self.meta.audio_manipulations)
        independent = self.meta.origin == "global_desync"
        return (self.label == "fake") == (manipulated or independent)


@dataclass
class SynthConfig:
    """Shapes and knobs of the synthetic generator."""

    t_v: int = 16
    c_v: int = 3
    h: int = 32
    w: int = 32
    t_a: int = 1600
    envelope_bandwidth: float = 4.0  # max cycles per clip; also the sinusoid count
    noise_std: float = 0.02
    # Second-harmonic distortion mixed into globally-desynced fakes only;
    # plays the role of the synthesis artifacts real dataset fakes carry.
    # Locally-desynced fakes splice real material and stay artifact-free.
    fake_audio_artifact: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        dims = (self.t_v, self.c_v, self.h, self.w, self.t_a)
        if any(int(d) <= 0 for d in dims):
            raise ConfigError(f"all dimensions must be positive, got {self}")
        if self.t_v < 2 or self.t_a < 2:
            raise ConfigError(f"need t_v >= 2 and t_a >= 2, got {self}")
        if self.t_a % self.t_v != 0:
            raise ConfigError(f"t_a must be a multiple of t_v, got t_a={self.t_a}, t_v={self.t_v}")
        if self.noise_std < 0 or self.envelope_bandwidth < 0:
            raise ConfigError(f"noise_std and envelope_bandwidth must be >= 0, got {self}")
        if self.fake_audio_artifact < 0:
            raise ConfigError(f"fake_audio_artifact must be >= 0, got {self}")

    @property
    def samples_per_frame(self) -> int:
        return self.t_a // self.t_v


def envelope(n: int, bandwidth: float, rng: np.random.Generator) -> np.ndarray:
    """Smooth latent envelope in [0, 1]: a random low-frequency sinusoid
    mixture, min-max normalized.  ``bandwidth < 1`` degenerates to the
    constant 0.5 envelope."""
    k = int(np.floor(bandwidth))
    if k < 1:
        return np.full(n, 0.5)
    freqs = rng.uniform(0.5, max(0.5, bandwidth), size=k)
    amps = rng.uniform(0.5, 1.0, size=k)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    t = np.arange(n) / n
    e = np.sum(amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]), axis=0)
    lo, hi = e.min(), e.max()
    if hi - lo < 1e-9:
        return np.full(n, 0.5)
    return (e - lo) / (hi - lo)


@dataclass
class _BaseDraws:
    # One real-pair generation, split into its random ingredients so a
    # locally-desynced fake can rebuild one modality while staying
    # bit-identical to the real pair everywhere else.
    env: np.ndarray
    blob: np.ndarray
    noise_v: np.ndarray


def _draw_base(cfg: SynthConfig, rng: np.random.Generator) -> _BaseDraws:
    env = envelope(cfg.t_v, cfg.envelope_bandwidth, rng)
    cy = rng.uniform(0.35, 0.65) * cfg.h
    cx = rng.uniform(0.35, 0.65) * cfg.w
    sigma = rng.uniform(cfg.h / 8.0, cfg.h / 5.0)
    yy = np.arange(cfg.h)[:, None]
    xx = np.arange(cfg.w)[None, :]
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    noise_v = rng.standard_normal((cfg.t_v, cfg.c_v, cfg.h, cfg.w), dtype=np.float32)
    return _BaseDraws(env=env, blob=blob, noise_v=noise_v)


def _render_visual(cfg: SynthConfig, env: np.ndarray, base: _BaseDraws) -> VisualClip:
    frames = env[:, None, None, None].astype(np.float32) * base.blob.astype(np.float32)[None, None, :, :]
    frames = frames + np.float32(cfg.noise_std) * base.noise_v
    return VisualClip(np.clip(frames, 0.0, 1.0).astype(np.float32))


def _render_audio(cfg: SynthConfig, env: np.ndarray, artifact: float = 0.0) -> AudioClip:
    e_up = np.repeat(env, cfg.samples_per_frame)  # zero-order hold keeps chunk edges exact
    theta = 2.0 * np.pi * CARRIER_CYCLES_PER_SAMPLE * np.arange(cfg.t_a)
    carrier = np.sin(theta)
    if artifact > 0.0:
        carrier = carrier + artifact * np.sin(2.0 * theta)
    wave = (e_up * carrier).astype(np.float32)
    return AudioClip(np.clip(wave, -1.0, 1.0).astype(np.float32))


def synth_real_pair(cfg: SynthConfig, rng: np.random.Generator, source_id: str = "synth") -> AVPair:
    """One correlated real pair: both modalities driven by the same envelope."""
    cfg.validate()
    base = _draw_base(cfg, rng)
    return AVPair(
        visual=_render_visual(cfg, base.env, base),
        audio=_render_audio(cfg, base.env),
        label="real",
        meta=PairMeta(source_id=source_id, origin="real"),
    )


def synth_fake_pair(
    cfg: SynthConfig,
    mode: str,
    rng: np.random.Generator,
    chunk: ChunkParams | None = None,
    source_id: str = "synth",
) -> AVPair:
    """One fake pair.

    ``global_desync`` builds the two modalities from independent
    envelopes, and its audio additionally carries the configured
    synthesis artifact (``fake_audio_artifact``).  ``local_desync``
    starts from a real pair and swaps one contiguous envelope chunk of
    one modality (chosen uniformly) for an independent segment; it is
    spliced from real material, so it carries no artifact, and outside
    the chunk the pair is bit-identical to the real generation under
    the same rng state.
    """
    cfg.validate()
    if mode not in ("global_desync", "local_desync"):
        raise ConfigError(f"unknown fake mode {mode!r}")
    base = _draw_base(cfg, rng)

    if mode == "global_desync":
        env_audio = envelope(cfg.t_v, cfg.envelope_bandwidth, rng)
        return AVPair(
            visual=_render_visual(cfg, base.env, base),
            audio=_render_audio(cfg, env_audio, artifact=cfg.fake_audio_artifact),
            label="fake",
            meta=PairMeta(source_id=source_id, origin="global_desync"),
        )

    chunk = chunk or ChunkParams()
    modality = ("visual", "audio")[int(rng.integers(0, 2))]
    i, l = sample_chunk(cfg.t_v, chunk, rng)
    donor_env = envelope(cfg.t_v, cfg.envelope_bandwidth, rng)
    env_mod = base.env.copy()
    env_mod[i : i + l] = donor_env[i : i + l]

    meta = PairMeta(source_id=source_id, origin="local_desync")
    if modality == "visual":
        visual = _render_visual(cfg, env_mod, base)
        audio = _render_audio(cfg, base.env)
        meta.visual_manipulations.append(
            ManipulationSpec(kind="replace", i=i, l=l, donor_id="independent-envelope")
        )
    else:
        spf = cfg.samples_per_frame
        visual = _render_visual(cfg, base.env, base)
        audio = _render_audio(cfg, env_mod)
        meta.audio_manipulations.append(
            ManipulationSpec(kind="replace", i=i * spf, l=l * spf, donor_id="independent-envelope")
        )
    return AVPair(visual=visual, audio=audio, label="fake", meta=meta)


def iter_pairs(
    cfg: SynthConfig,
    n: int,
    fake_fraction: float,
    fake_mode: str = "global_desync",
    chunk: ChunkParams | None = None,
    seed: int | None = None,
    id_prefix: str = "pair",
) -> Iterator[AVPair]:
    """Yield a deterministic dataset pair by pair: sample ``i`` always
    comes from the rng substream ``(seed, "sample", i)``, so generation
    order cannot change the data.  Fakes occupy the tail indices."""
    cfg.validate()
    if not (0.0 <= fake_fraction <= 1.0):
        raise ConfigError(f"fake_fraction must lie in [0, 1], got {fake_fraction}")
    seed = cfg.seed if seed is None else seed
    n_fake = int(round(n * fake_fraction))
    for i in range(n):
        rng = substream(seed, "sample", i)
        sid = f"{id_prefix}-{i:05d}"
        if i < n - n_fake:
            yield synth_real_pair(cfg, rng, source_id=sid)
        else:
            yield synth_fake_pair(cfg, fake_mode, rng, chunk=chunk, source_id=sid)


def make_pairs(
    cfg: SynthConfig,
    n: int,
    fake_fraction: float,
    fake_mode: str = "global_desync",
    chunk: ChunkParams | None = None,
    seed: int | None = None,
    id_prefix: str = "pair",
) -> list[AVPair]:
    """The dataset of :func:`iter_pairs` as a list."""
    return list(iter_pairs(cfg, n, fake_fraction, fake_mode, chunk, seed, id_prefix))


def apply_to_pair(
    pair: AVPair, modality: str, spec: ManipulationSpec, donor: AVPair | None = None
) -> AVPair:
    """Return a pseudo-fake copy of ``pair`` with ``spec`` applied to the
    ``"visual"`` or ``"audio"`` clip and added to its manipulation records.
    ``donor`` supplies the chunk of a ``replace`` spec, and its source id
    is recorded as the spec's ``donor_id``."""
    donor_clip = None
    if donor is not None:
        spec = replace(spec, donor_id=donor.meta.source_id)
        donor_clip = getattr(donor, modality)
    clips = {"visual": pair.visual, "audio": pair.audio}
    clips[modality] = apply_manipulation(clips[modality], spec, donor_clip)
    meta = PairMeta(source_id=pair.meta.source_id, origin="pseudo_fake")
    meta.visual_manipulations += pair.meta.visual_manipulations
    meta.audio_manipulations += pair.meta.audio_manipulations
    getattr(meta, f"{modality}_manipulations").append(spec)
    return AVPair(**clips, label="fake", meta=meta)


def save_pair(path, pair: AVPair) -> None:
    meta = {"label": pair.label}
    meta.update(pair.meta.to_strings())
    container.write_container(
        path, {"visual": pair.visual.data, "audio": pair.audio.data}, meta
    )


def load_pair(path) -> AVPair:
    """Read and validate a stored pair; a missing entry or an invalid pair is a ConfigError naming ``path``."""
    tensors, meta = container.read_container(path)
    try:
        pair = AVPair(
            visual=VisualClip(tensors["visual"]),
            audio=AudioClip(tensors["audio"]),
            label=meta["label"],
            meta=PairMeta.from_strings(meta),
        )
        pair.validate()
    except KeyError as exc:
        raise ConfigError(f"{path}: stored pair has no {exc} tensor or meta entry") from exc
    except ValueError as exc:  # a manipulation record that is not JSON, or any ConfigError
        raise ConfigError(f"{path}: {exc}") from exc
    return pair
