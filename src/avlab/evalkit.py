"""Video-level AUC evaluation and the ablation runner.

Videos are cut into non-overlapping fixed-length windows (subsequences),
and a video's score is the mean of the detector's window scores.  Audio is
one row of T_a / T_v samples per frame, so the same frame boundaries cut
both clips; a video shorter than a window repeats its last frame and that
frame's audio span, and is flagged ``padded``.  AUC is the rank-based
(Mann-Whitney) statistic with ties counted as one half, fake as the
positive class.

Two synthetic eval splits stand in for the in-dataset and the harder
generalization settings: ``in_distribution`` uses globally desynced
fakes, ``fine_grained`` uses locally desynced fakes with short chunks.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .avdata import AVPair, SynthConfig, check_uniform, iter_pairs
from .detector import Detector, load_checkpoint, must_fit
from .errors import ConfigError, MetricError
from .pseudofake import KINDS, ChunkParams
from .rng import derive_seed
from .trainloop import EvalSpec, RunConfig, check_fake_source, train

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
    """Non-overlapping windows of ``length`` frames."""

    length: int


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
    subsequence_length: int
    videos: list[ScoredVideo]

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "n_videos": len(self.videos),
            "subsequence_length": self.subsequence_length,
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


def _windows(pair: AVPair, length: int):
    """(visual, audio) windows of ``pair`` and a padded flag; with the audio viewed
    as one row per frame, one slice cuts, and one repeat pads, both clips."""
    t = pair.visual.t
    if pair.audio.t % t != 0:
        raise ConfigError("audio length must be a multiple of the frame count")
    clips = [pair.visual.data, pair.audio.data.reshape(t, -1)]
    if t < length:
        clips = [np.concatenate([c, np.repeat(c[-1:], length - t, axis=0)]) for c in clips]
    v, a = clips
    starts = range(0, len(v) - length + 1, length)
    return [(v[s : s + length], a[s : s + length].ravel()) for s in starts], t < length


def evaluate(
    model,
    eval_set: list[AVPair],
    policy: SubsequencePolicy,
    batch_size: int = 16,
) -> EvalReport:
    """Score every video of ``eval_set`` and compute the video-level AUC.

    ``model`` is a Detector or a checkpoint path.  Videos shorter than one
    subsequence are scored as a single edge-padded subsequence and flagged
    in the report.  Windows go to the model in batches of up to ``batch_size``
    consecutive windows, so videos may differ in length.  Windows the detector
    cannot take raise ConfigError; so do, before any window is scored, a
    subsequence length or ``batch_size`` below 1, a video whose frame shape or
    samples per frame differ from the first video's and an eval set without
    both real and fake videos.
    """
    length = policy.length
    if length < 1:
        raise ConfigError(f"subsequence length must be >= 1, got {length}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(model, (str, bytes)) or hasattr(model, "__fspath__"):
        model, _ = load_checkpoint(model)
    if not eval_set:
        raise ConfigError("eval set is empty")
    check_uniform(eval_set, "frame shape and samples per frame",
                  lambda p: (p.visual.data.shape[1:], p.audio.t // p.visual.t))
    n_fake = sum(p.label == "fake" for p in eval_set)
    if n_fake in (0, len(eval_set)):
        raise ConfigError(f"eval set needs real and fake videos, got {len(eval_set) - n_fake} real, {n_fake} fake")

    per_video = [_windows(pair, length) for pair in eval_set]
    jobs = [w for wins, _ in per_video for w in wins]
    scores = []
    with must_fit(f"eval windows of {length} frames"):
        for start in range(0, len(jobs), batch_size):
            visuals, audios = zip(*jobs[start : start + batch_size])
            scores += map(float, model.score_batch(np.stack(visuals), np.stack(audios)))
    it = iter(scores)
    videos = [
        ScoredVideo(pair.meta.source_id, [next(it) for _ in wins], pair.label, padded)
        for pair, (wins, padded) in zip(eval_set, per_video)
    ]
    value = auc([(v.video_score, v.label) for v in videos])
    return EvalReport(auc=value, subsequence_length=length, videos=videos)


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


def default_axis_values(base: RunConfig, axis: str) -> list:
    t = base.detector.t_prime
    table = dict(zip(AXES, (["none", *KINDS], sorted({1, max(2, t // 2), t}), [True, False])))
    if axis not in table:  # the one check of an axis name
        raise ConfigError(f"unknown ablation axis {axis!r}, expected one of {AXES}")
    return table[axis]


def _variant(base: RunConfig, axis: str, value) -> RunConfig:
    """``base`` with ``value`` on ``axis``, decoded and validated as a ``--set`` value is."""
    d = base.to_dict()
    if axis != "manipulation_kind":
        d["detector"][axis] = value
    elif isinstance(value, str):
        d.update({"pseudo_fake_prob": 0.0} if value == "none" else {"kind_policy": {value: 1.0}})
    else:
        raise ConfigError(f"manipulation_kind values must be strings, got {value!r}")
    cfg = RunConfig.from_dict(d)
    cfg.validate()
    return cfg


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


def check_seeds(seeds, name: str = "seeds") -> tuple[int, ...]:
    """The ablation seed rule: a nonempty list or tuple of ints (not bools), each >= 0;
    ConfigError naming ``name`` otherwise."""
    if not (isinstance(seeds, (list, tuple)) and seeds and all(type(s) is int for s in seeds)):
        raise ConfigError(f"{name} must be a nonempty list of ints, got {seeds!r}")
    if min(seeds) < 0:
        raise ConfigError(f"{name} must be >= 0, got {seeds!r}")
    return tuple(seeds)


def check_values(base: RunConfig, axis: str, values=None, name: str = "values") -> list[tuple]:
    """The ablation value rule: ``values`` (None for :func:`default_axis_values`) is a nonempty
    list or tuple whose values, each decoded onto ``base`` by :func:`_variant`, give distinct
    configs whose eval splits can be made (their iterators are built, no pair is), whose train
    sets pass :func:`~avlab.trainloop.check_fake_source`, and whose detectors fit their clips
    (one tape-free forward of a zero clip each); ConfigError naming ``name``, the split's fault
    or the value at fault, otherwise.  Returns the (value, config) pairs."""
    defaults = default_axis_values(base, axis)  # checks the axis name, also when values are given
    values = defaults if values is None else values
    if not (isinstance(values, (list, tuple)) and values):
        raise ConfigError(f"{name} must be a nonempty list, got {values!r}")
    variants = [(v, _variant(base, axis, v)) for v in values]
    for k, (value, variant) in enumerate(variants):
        if any(variant == earlier for _, earlier in variants[:k]):
            raise ConfigError(f"{name} must be distinct, got {value!r} twice in {list(values)!r}")
    for value, variant in variants:  # fit depends on shapes only: one zero clip each
        for split in SPLITS:
            split_pairs(variant, split, seed=0)
        data = variant.train_data
        n_fake = round(data.n * data.fake_fraction)  # as avdata.iter_pairs counts them
        check_fake_source(variant, n_fake < data.n, n_fake > 0, f"the train set of {axis} value {value!r}")
        s = variant.synth
        with must_fit(f"{axis} value {value!r} on clips of {s.t_v} frames"):
            Detector(variant.detector, seed=0).infer(
                np.zeros((1, s.t_v, s.c_v, s.h, s.w), np.float32), np.zeros((1, s.t_a), np.float32))
    return variants


def ablation_run(
    base_cfg: RunConfig,
    axis: str,
    values: list | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> AblationTable:
    """Train one model per axis value over a shared seed set and report
    mean AUC on both synthetic eval splits; each seed's train set is built
    once and shared by every value.  Seeds that break
    :func:`check_seeds` or values that break :func:`check_values` raise
    ConfigError before anything is trained."""
    seeds = check_seeds(seeds)
    variants = check_values(base_cfg, axis, values)
    per_seed = [{split: [] for split in SPLITS} for _ in variants]
    policy = SubsequencePolicy(length=base_cfg.synth.t_v)
    for seed in seeds:
        # no axis changes synth or train_data, so every value trains on one set per seed
        train_set = list(split_pairs(base_cfg, "train", derive_seed(seed, "train-data")))
        for (_, variant), aucs in zip(variants, per_seed):
            cfg = replace(variant, seed=seed, checkpoint_dir=None)
            model = train(cfg, train_set).model
            for split in SPLITS:
                eval_set = list(split_pairs(cfg, split, derive_seed(seed, "eval", split)))
                aucs[split].append(evaluate(model, eval_set, policy).auc)
    table = AblationTable(axis=axis, seeds=list(seeds))
    for (value, _), aucs in zip(variants, per_seed):
        table.rows.append(
            {
                "value": value,
                "auc_in_distribution": float(np.mean(aucs["in_distribution"])),
                "auc_fine_grained": float(np.mean(aucs["fine_grained"])),
                "per_seed_in_distribution": aucs["in_distribution"],
                "per_seed_fine_grained": aucs["fine_grained"],
            }
        )
    return table
