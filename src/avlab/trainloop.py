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

:class:`RunConfig` is read from JSON by :func:`avlab.schema.decode`: an
unknown key or a wrong-typed value is a ``ConfigError`` naming its path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .avdata import AVPair, SynthConfig, apply_to_pair
from .detector import Detector, DetectorConfig, save_checkpoint
from .errors import ChunkRejected, ConfigError, DivergenceError
from .pseudofake import ChunkParams, sample_manipulation
from .rng import derive_seed, substream
from .schema import decode
from .tinynet import Adam
from .tinynet.tensor import BCE_EPS, bce_loss

COMBOS = ("audio", "visual", "both")  # which modality is replaced by a pseudo-fake


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
        if self.fake_mode not in ("global_desync", "local_desync"):
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
        if set(self.combo_weights) - set(COMBOS):
            raise ConfigError(f"combo_weights keys must be among {COMBOS}, got {self.combo_weights}")
        total = sum(self.combo_weights.values())
        if abs(total - 1.0) > 1e-6 or any(v < 0 for v in self.combo_weights.values()):
            raise ConfigError(f"combo_weights must be a distribution, got {self.combo_weights}")
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
    aug_rejections: int

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


def train(cfg: RunConfig, train_set: list[AVPair]) -> TrainResult:
    """Run the optimization protocol and return the lowest-loss checkpoint.

    The per-epoch loss recorded (and minimized over) is the mean
    per-sample BCE accumulated in dataset order, so it is independent
    of batch partitioning.
    """
    cfg.validate()
    if not train_set:
        raise ConfigError("train set is empty")
    has_real = any(p.label == "real" for p in train_set)
    has_fake_source = any(p.label == "fake" for p in train_set) or cfg.pseudo_fake_prob > 0
    if not has_real or not has_fake_source:
        raise ConfigError(
            "train set must contain real pairs and a source of fakes "
            "(dataset fakes or pseudo_fake_prob > 0)"
        )

    model = Detector(cfg.detector, seed=derive_seed(cfg.seed, "init"), dtype=np.float32)
    opt = Adam(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    donors = [p for p in train_set if p.label == "real"]
    n = len(train_set)
    steps_per_epoch = math.ceil(n / cfg.batch_size)

    best_loss = math.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {}
    metrics: list[dict] = []
    rejections = 0

    for epoch in range(1, cfg.epochs + 1):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        sample_loss = np.zeros(n, dtype=np.float64)
        counters: dict[str, int] = {}
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            ids = order[start : start + cfg.batch_size]
            batch = []
            for j in ids:
                p = train_set[int(j)]
                if p.label == "real":
                    q = augment_sample(p, donors, cfg, substream(cfg.seed, "aug", epoch, int(j)), counters)
                else:
                    q = p
                batch.append(q)
            visuals = np.stack([s.visual.data for s in batch])
            audios = np.stack([s.audio.data for s in batch])
            labels = np.array([1.0 if s.label == "fake" else 0.0 for s in batch], dtype=np.float32)

            y, _, _ = model.forward(visuals, audios)
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
        rejections += counters.get("rejected", 0)
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
            best_state = {name: t.data.copy() for name, t in model.params()}

    for name, t in model.params():
        t.data = best_state[name]

    result = TrainResult(
        model=model,
        best_epoch=best_epoch,
        best_loss=best_loss,
        metrics=metrics,
        steps_per_epoch=steps_per_epoch,
        aug_rejections=rejections,
    )
    if cfg.checkpoint_dir:
        result.save(cfg.checkpoint_dir)
    return result
