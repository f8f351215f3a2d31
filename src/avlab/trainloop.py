"""Training harness: pseudo-fake augmentation policy and the optimization loop.

Each real sample is, with probability ``pseudo_fake_prob``, swapped for
a pseudo-fake built by manipulating one or both modalities; the combo
(fake audio, fake visual, or both) is drawn from ``combo_weights``.
Augmentation is re-sampled every epoch from per-sample rng substreams
``(seed, "aug", epoch, index)``, so results do not depend on batch
partitioning.

The loop is plain Adam on mean BCE; the checkpoint kept is the epoch
with the lowest mean per-sample training loss (ties break to the
earliest epoch).

A step holds only what its backward reads: the stacked clips go straight
into the forward and the batch's pseudo-fakes are dropped before the
backward, which frees the step's tape.  So that freed steps are reused,
not handed back to the kernel and faulted in by the next forward,
:func:`train` pins glibc's mmap and trim thresholds once per process (a
no-op off glibc); the process keeps that heap after training.

:class:`RunConfig` is read from JSON by :func:`avlab.schema.decode`: an
unknown key or a wrong-typed value is a ``ConfigError`` naming its path.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .avdata import FAKE_MODES, AVPair, SynthConfig, apply_to_pair, check_uniform
from .detector import Detector, DetectorConfig, must_fit, save_checkpoint
from .errors import ChunkRejected, ConfigError, DivergenceError
from .pseudofake import KINDS, ChunkParams, check_weights, sample_manipulation
from .rng import derive_seed, substream
from .schema import decode
from .tinynet import Adam
from .tinynet.tensor import BCE_EPS, bce_loss

COMBOS = ("audio", "visual", "both")  # which modality is replaced by a pseudo-fake

# mallopt(3) parameters of glibc's malloc.h, and the values train() sets once per
# process: every step frees its tape, and with glibc's defaults the freed heap top
# goes back to the kernel and the next forward faults it in again.  Arrays up to
# 32 MiB then come from the heap, which keeps up to 512 MiB of free top untrimmed.
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 32 << 20
M_TRIM_THRESHOLD, TRIM_THRESHOLD = -1, 512 << 20


@dataclass
class DataSpec:
    """Synthetic dataset sizing for CLI/ablation runs."""

    n: int = 400
    fake_fraction: float = 0.5
    fake_mode: str = "global_desync"

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"dataset size must be >= 1, got {self.n}")
        if not (0.0 <= self.fake_fraction <= 1.0):
            raise ConfigError(f"fake_fraction must lie in [0, 1], got {self.fake_fraction}")
        if self.fake_mode not in FAKE_MODES:
            raise ConfigError(f"unknown fake_mode {self.fake_mode!r}")


@dataclass
class EvalSpec:
    """Evaluation split sizing; the fine-grained split uses short chunks."""

    n: int = 120
    fine_chunk: ChunkParams = field(default_factory=lambda: ChunkParams(r_min=0.2, r_max=0.5))

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError(f"eval split size must be >= 2, got {self.n}")
        self.fine_chunk.validate()


@dataclass
class RunConfig:
    """Everything one experiment needs, serializable to JSON."""

    epochs: int = 50
    batch_size: int = 8
    lr: float = 1e-3
    weight_decay: float = 1e-5
    pseudo_fake_prob: float = 0.5
    combo_weights: dict = field(default_factory=lambda: dict.fromkeys(COMBOS, 1.0 / 3.0))
    kind_policy: dict = field(default_factory=lambda: {"replace": 1.0})
    chunk: ChunkParams = field(default_factory=ChunkParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    seed: int = 0
    checkpoint_dir: str | None = None
    train_data: DataSpec = field(default_factory=DataSpec)
    eval_data: EvalSpec = field(default_factory=EvalSpec)

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"need epochs >= 1 and batch_size >= 1, got {self.epochs}, {self.batch_size}")
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigError(f"lr and weight_decay must be >= 0, got {self.lr}, {self.weight_decay}")
        if not (0.0 <= self.pseudo_fake_prob <= 1.0):
            raise ConfigError(f"pseudo_fake_prob must lie in [0, 1], got {self.pseudo_fake_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_weights("combo_weights", self.combo_weights, COMBOS)
        check_weights("kind_policy", self.kind_policy, KINDS)
        self.chunk.validate()
        self.detector.validate()
        self.synth.validate()
        self.train_data.validate()
        self.eval_data.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return decode(cls, d)

    def copy(self) -> "RunConfig":
        return RunConfig.from_dict(self.to_dict())


def augment_sample(
    pair: AVPair,
    donors: list[AVPair],
    cfg: RunConfig,
    rng: np.random.Generator,
    counters: dict[str, int] | None = None,
) -> AVPair:
    """With probability ``pseudo_fake_prob`` turn a real pair into a
    labeled pseudo-fake; otherwise return the pair unchanged.

    Draw order: gate, combo, then per manipulated modality (visual
    first for "both"): manipulation spec, then donor index for
    replace.  Replace donors come from the real pool; never the pair
    itself unless it is the only donor.  A chunk-sampling rejection
    returns the pair unchanged and bumps ``counters["rejected"]``.
    """
    if pair.label != "real":
        raise ValueError("augment_sample expects a real pair")
    counters = counters if counters is not None else {}
    if rng.uniform() >= cfg.pseudo_fake_prob:
        counters["real"] = counters.get("real", 0) + 1
        return pair
    probs = np.array([cfg.combo_weights.get(c, 0.0) for c in COMBOS], dtype=np.float64)
    combo = COMBOS[int(rng.choice(len(COMBOS), p=probs / probs.sum()))]
    targets = ("visual", "audio") if combo == "both" else (combo,)

    result = pair
    try:
        for modality in targets:
            spec = sample_manipulation(cfg.kind_policy, getattr(pair, modality).t, cfg.chunk, rng)
            donor = None
            if spec.kind == "replace":
                if not donors:
                    raise ChunkRejected("no donors available for replace")
                j = int(rng.integers(0, len(donors)))
                if donors[j] is pair and len(donors) > 1:
                    j = (j + 1) % len(donors)
                donor = donors[j]
            result = apply_to_pair(result, modality, spec, donor)
    except ChunkRejected:
        counters["rejected"] = counters.get("rejected", 0) + 1
        counters["real"] = counters.get("real", 0) + 1
        return pair
    counters["pseudofake"] = counters.get("pseudofake", 0) + 1
    return result


def _bce_values(y: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = np.clip(y.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    t = labels.astype(np.float64)
    return -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))


@dataclass
class TrainResult:
    model: Detector
    best_epoch: int
    best_loss: float
    metrics: list[dict]
    steps_per_epoch: int

    def write_metrics(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.metrics:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def save(self, checkpoint_dir) -> None:
        out = Path(checkpoint_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(
            out / "checkpoint.avtc",
            self.model,
            extra_meta={
                "best_epoch": str(self.best_epoch),
                "step": str(self.best_epoch * self.steps_per_epoch),
            },
        )
        self.write_metrics(out / "metrics.jsonl")


@functools.cache
def _pin_heap() -> None:
    """Set glibc's mmap and trim thresholds once per process; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without this name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def check_fake_source(cfg: RunConfig, has_real: bool, has_fake: bool, what: str = "train set") -> None:
    """The rule for a train set with or without real and fake pairs: it needs real pairs, and
    fakes or ``pseudo_fake_prob > 0``; ConfigError naming ``what`` otherwise."""
    if not has_real or not (has_fake or cfg.pseudo_fake_prob > 0):
        raise ConfigError(f"{what} must contain real pairs and a source of fakes "
                          "(dataset fakes or pseudo_fake_prob > 0)")


def train(cfg: RunConfig, train_set: list[AVPair]) -> TrainResult:
    """Run the optimization protocol and return the lowest-loss checkpoint.

    The per-epoch loss recorded (and minimized over) is the mean
    per-sample BCE accumulated in dataset order, so it is independent
    of batch partitioning.  The train set is checked before the model is
    built: ConfigError for an empty set, pairs whose shapes differ from the
    first pair's, no real pairs or no source of fakes, or a first pair the
    detector does not fit (one tape-free forward of a fresh model).
    """
    cfg.validate()
    if not train_set:
        raise ConfigError("train set is empty")
    check_uniform(train_set, "visual and audio shapes", lambda p: (p.visual.data.shape, p.audio.data.shape))
    check_fake_source(cfg, any(p.label == "real" for p in train_set), any(p.label == "fake" for p in train_set))
    with must_fit(f"train pair {train_set[0].meta.source_id!r}"):
        Detector(cfg.detector).infer(train_set[0].visual.data[None], train_set[0].audio.data[None])
    _pin_heap()
    model = Detector(cfg.detector, seed=derive_seed(cfg.seed, "init"), dtype=np.float32)
    opt = Adam(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    donors = [p for p in train_set if p.label == "real"]
    n = len(train_set)
    steps_per_epoch = math.ceil(n / cfg.batch_size)

    best_loss = math.inf
    best_epoch = -1
    best = opt.flat.copy()
    metrics: list[dict] = []

    for epoch in range(1, cfg.epochs + 1):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        sample_loss = np.zeros(n, dtype=np.float64)
        counters: dict[str, int] = {}
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            ids = order[start : start + cfg.batch_size]
            batch = [
                augment_sample(p, donors, cfg, substream(cfg.seed, "aug", epoch, int(j)), counters)
                if p.label == "real" else p
                for j in ids for p in (train_set[int(j)],)
            ]
            labels = np.array([1.0 if s.label == "fake" else 0.0 for s in batch], dtype=np.float32)
            # no name holds the stacked clips, and the pseudo-fakes go before the backward:
            # the step keeps only what its backward reads
            y, _, _ = model.forward(np.stack([s.visual.data for s in batch]), np.stack([s.audio.data for s in batch]))
            del batch
            loss = bce_loss(y, labels)
            lv = float(loss.data)
            if not math.isfinite(lv):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}; "
                    f"augmentation substreams (seed={cfg.seed}, 'aug', {epoch}, <sample index>)"
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            sample_loss[ids] = _bce_values(np.asarray(y.data), labels)

        epoch_loss = float(sample_loss.mean())
        metrics.append(
            {
                "epoch": epoch,
                "loss": epoch_loss,
                "n_pseudofake": counters.get("pseudofake", 0),
                "n_real": counters.get("real", 0),
            }
        )
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_epoch = epoch
            best = opt.flat.copy()

    opt.flat[...] = best

    result = TrainResult(
        model=model,
        best_epoch=best_epoch,
        best_loss=best_loss,
        metrics=metrics,
        steps_per_epoch=steps_per_epoch,
    )
    if cfg.checkpoint_dir:
        result.save(cfg.checkpoint_dir)
    return result
