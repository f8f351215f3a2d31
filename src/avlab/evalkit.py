"""Video-level AUC evaluation and the ablation runner.

Videos are split into fixed-length non-overlapping subsequences, every
subsequence is scored by the detector, and the video score is the mean
of its subsequence scores.  AUC is the rank-based (Mann-Whitney)
statistic with ties counted as one half, fake as the positive class.

Two synthetic eval splits stand in for the in-dataset and the harder
generalization settings: ``in_distribution`` uses globally desynced
fakes, ``fine_grained`` uses locally desynced fakes with short chunks.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict

import numpy as np

from .avdata import AVPair, SynthConfig, iter_pairs
from .detector import load_checkpoint
from .errors import ConfigError, MetricError
from .pseudofake import ChunkParams
from .rng import derive_seed
from .trainloop import EvalSpec, RunConfig, train

SPLITS = ("in_distribution", "fine_grained")


def _rank_average(x: np.ndarray) -> np.ndarray:
    # 1-based mid-ranks: the values tied in a group share the mean of its ranks
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _label_to_int(label) -> int:
    if isinstance(label, str):
        if label not in ("real", "fake"):
            raise MetricError(f"unknown label {label!r}")
        return 1 if label == "fake" else 0
    return int(bool(label))


def auc(scored) -> float:
    """Rank-based AUC of (score, label) items; fake is positive, ties count 1/2."""
    scored = list(scored)
    if not scored:
        raise MetricError("auc needs at least one scored item")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    if np.isnan(scores).any():
        raise MetricError("auc undefined for NaN scores")
    labels = np.array([_label_to_int(l) for _, l in scored], dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"auc undefined for single-class input ({n_pos} fake, {n_neg} real)")
    ranks = _rank_average(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class SubsequencePolicy:
    """Fixed-length splitting; ``stride`` defaults to ``length``
    (non-overlapping) and ``length=None`` scores whole videos."""

    length: int | None = None
    stride: int | None = None


@dataclass
class ScoredVideo:
    video_id: str
    scores: list[float]
    label: str
    padded: bool = False

    @property
    def video_score(self) -> float:
        return float(np.mean(self.scores))


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-align the cells of ``rows`` in columns two spaces apart."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


@dataclass
class EvalReport:
    auc: float
    subsequence_length: int | None
    stride: int | None
    videos: list[ScoredVideo]

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "n_videos": len(self.videos),
            "subsequence_length": self.subsequence_length,
            "stride": self.stride,
            "videos": [
                {
                    "video_id": v.video_id,
                    "label": v.label,
                    "n_subsequences": len(v.scores),
                    "video_score": v.video_score,
                    "padded": v.padded,
                    "subsequence_scores": v.scores,
                }
                for v in self.videos
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        rows = [("video", "label", "#subseq", "score", "padded")]
        for v in self.videos:
            rows.append(
                (v.video_id, v.label, str(len(v.scores)), f"{v.video_score:.4f}", "yes" if v.padded else "")
            )
        lines = _columns(rows)
        lines.append(f"AUC: {self.auc:.4f}  ({len(self.videos)} videos)")
        return "\n".join(lines)


def _pad_to_length(pair: AVPair, length: int) -> tuple[np.ndarray, np.ndarray]:
    # edge-replicate the last frame and its audio span
    spf = pair.audio.t // pair.visual.t
    missing = length - pair.visual.t
    v = np.concatenate([pair.visual.data, np.repeat(pair.visual.data[-1:], missing, axis=0)])
    a = np.concatenate([pair.audio.data, np.tile(pair.audio.data[-spf:], missing)])
    return v, a


def _windows(pair: AVPair, policy: SubsequencePolicy):
    """Yield (visual, audio) windows plus a padded flag."""
    t = pair.visual.t
    length = policy.length if policy.length is not None else t
    stride = policy.stride if policy.stride is not None else length
    if length < 1 or stride < 1:
        raise ConfigError(f"subsequence length/stride must be >= 1, got {policy}")
    if pair.audio.t % pair.visual.t != 0:
        raise ConfigError("audio length must be a multiple of the frame count")
    spf = pair.audio.t // pair.visual.t
    if t < length:
        v, a = _pad_to_length(pair, length)
        return [(v, a)], True
    wins = []
    for start in range(0, t - length + 1, stride):
        v = pair.visual.data[start : start + length]
        a = pair.audio.data[start * spf : (start + length) * spf]
        wins.append((v, a))
    return wins, False


def evaluate(
    model,
    eval_set: list[AVPair],
    policy: SubsequencePolicy | None = None,
    batch_size: int = 16,
) -> EvalReport:
    """Score every video of ``eval_set`` and compute the video-level AUC.

    ``model`` is a Detector or a checkpoint path.  Videos shorter than
    one subsequence are scored as a single edge-padded subsequence and
    flagged in the report.
    """
    if isinstance(model, (str, bytes)) or hasattr(model, "__fspath__"):
        model, _ = load_checkpoint(model)
    policy = policy or SubsequencePolicy()
    if not eval_set:
        raise ConfigError("eval set is empty")

    jobs = []  # (video index, visual window, audio window)
    padded_flags = []
    for vi, pair in enumerate(eval_set):
        wins, padded = _windows(pair, policy)
        padded_flags.append(padded)
        for v, a in wins:
            jobs.append((vi, v, a))

    window_scores: dict[int, list[float]] = {vi: [] for vi in range(len(eval_set))}
    for start in range(0, len(jobs), batch_size):
        chunk = jobs[start : start + batch_size]
        visuals = np.stack([c[1] for c in chunk])
        audios = np.stack([c[2] for c in chunk])
        scores = model.score_batch(visuals, audios)
        for (vi, _, _), s in zip(chunk, scores):
            window_scores[vi].append(float(s))

    videos = [
        ScoredVideo(
            video_id=pair.meta.source_id,
            scores=window_scores[vi],
            label=pair.label,
            padded=padded_flags[vi],
        )
        for vi, pair in enumerate(eval_set)
    ]
    value = auc([(v.video_score, v.label) for v in videos])
    return EvalReport(auc=value, subsequence_length=policy.length, stride=policy.stride, videos=videos)


def split_pairs(cfg: RunConfig, split: str, seed: int) -> Iterator[AVPair]:
    """Yield the pairs of ``split`` (``"train"`` or one of :data:`SPLITS`) from ``seed``.

    The one split policy: ``train`` follows ``cfg.train_data``, its
    ``local_desync`` fakes with the default :class:`ChunkParams`; an eval
    split is ``cfg.eval_data.n`` pairs, half fake, ``global_desync`` or
    ``local_desync`` with ``cfg.eval_data.fine_chunk``.  Source ids are
    ``train-NNNNN`` and ``eval-<split>-NNNNN``.
    """
    if split == "train":
        data = cfg.train_data
        return iter_pairs(
            cfg.synth, data.n, data.fake_fraction, data.fake_mode, seed=seed, id_prefix="train"
        )
    if split == "in_distribution":
        mode, chunk = "global_desync", None
    elif split == "fine_grained":
        mode, chunk = "local_desync", cfg.eval_data.fine_chunk
    else:
        raise ConfigError(f"unknown split {split!r}, expected 'train' or one of {SPLITS}")
    return iter_pairs(
        cfg.synth, cfg.eval_data.n, 0.5, mode, chunk=chunk, seed=seed, id_prefix=f"eval-{split}"
    )


def make_split(
    synth_cfg: SynthConfig,
    split: str,
    n: int,
    seed: int,
    fine_chunk: ChunkParams | None = None,
) -> list[AVPair]:
    """Balanced eval split of :func:`split_pairs`: half real, half fake of the split's kind."""
    if split not in SPLITS:
        raise ConfigError(f"unknown eval split {split!r}, expected one of {SPLITS}")
    eval_data = EvalSpec(n=n, fine_chunk=fine_chunk or EvalSpec().fine_chunk)
    return list(split_pairs(RunConfig(synth=synth_cfg, eval_data=eval_data), split, seed))


# ------------------------------------------------------------------ ablation


AXES = ("manipulation_kind", "t_prime", "attention")


def _variant(base: RunConfig, axis: str, value) -> RunConfig:
    cfg = base.copy()
    if axis == "manipulation_kind":
        if value == "none":
            cfg.pseudo_fake_prob = 0.0
        else:
            cfg.kind_policy = {str(value): 1.0}
    elif axis == "t_prime":
        cfg.detector.t_prime = int(value)
    elif axis == "attention":
        cfg.detector.attention = bool(value)
    else:
        raise ConfigError(f"unknown ablation axis {axis!r}, expected one of {AXES}")
    return cfg


def default_axis_values(base: RunConfig, axis: str) -> list:
    if axis == "manipulation_kind":
        return ["none", "replace", "repeat", "flip", "translate"]
    if axis == "t_prime":
        t = base.detector.t_prime
        return sorted({1, max(2, t // 2), t})
    if axis == "attention":
        return [True, False]
    raise ConfigError(f"unknown ablation axis {axis!r}, expected one of {AXES}")


@dataclass
class AblationTable:
    axis: str
    seeds: list[int]
    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        header = (self.axis, "AUC in-distribution", "AUC fine-grained")
        rows = [header]
        for r in self.rows:
            rows.append((str(r["value"]), f"{r['auc_in_distribution']:.4f}", f"{r['auc_fine_grained']:.4f}"))
        lines = _columns(rows)
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def ablation_run(
    base_cfg: RunConfig,
    axis: str,
    values: list | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> AblationTable:
    """Train one model per axis value over a shared seed set and report
    mean AUC on both synthetic eval splits."""
    values = default_axis_values(base_cfg, axis) if values is None else list(values)
    table = AblationTable(axis=axis, seeds=list(seeds))
    for value in values:
        per_seed = {"in_distribution": [], "fine_grained": []}
        for seed in seeds:
            cfg = _variant(base_cfg, axis, value)
            cfg.seed = int(seed)
            cfg.checkpoint_dir = None
            train_set = list(split_pairs(cfg, "train", derive_seed(int(seed), "train-data")))
            result = train(cfg, train_set)
            policy = SubsequencePolicy(length=cfg.synth.t_v)
            for split in SPLITS:
                eval_set = list(split_pairs(cfg, split, derive_seed(int(seed), "eval", split)))
                per_seed[split].append(evaluate(result.model, eval_set, policy).auc)
        table.rows.append(
            {
                "value": value,
                "auc_in_distribution": float(np.mean(per_seed["in_distribution"])),
                "auc_fine_grained": float(np.mean(per_seed["fine_grained"])),
                "per_seed_in_distribution": per_seed["in_distribution"],
                "per_seed_fine_grained": per_seed["fine_grained"],
            }
        )
    return table
