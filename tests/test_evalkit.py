"""AUC oracle equivalence, subsequence aggregation, ablation table structure."""

import numpy as np
import pytest

from avlab import avdata
from avlab.avdata import SynthConfig
from avlab.detector import Detector, DetectorConfig
from avlab.errors import MetricError
from avlab.evalkit import (
    ScoredVideo,
    SubsequencePolicy,
    ablation_run,
    auc,
    default_axis_values,
    evaluate,
    make_split,
)
from avlab.pseudofake import ChunkParams
from avlab.rng import substream
from avlab.trainloop import DataSpec, EvalSpec
from tests.test_trainloop import tiny_run_config


def brute_force_auc(scored) -> float:
    fakes = [s for s, l in scored if l in (1, "fake")]
    reals = [s for s, l in scored if l not in (1, "fake")]
    total = 0.0
    for f in fakes:
        for r in reals:
            if f > r:
                total += 1.0
            elif f == r:
                total += 0.5
    return total / (len(fakes) * len(reals))


def test_auc_perfect_separation():
    scored = [(0.9, "fake"), (0.8, "fake"), (0.2, "real"), (0.1, "real")]
    assert auc(scored) == 1.0
    assert auc([(s, "real" if l == "fake" else "fake") for s, l in scored]) == 0.0


def test_auc_all_ties_is_half():
    scored = [(0.5, "fake")] * 5 + [(0.5, "real")] * 7
    assert auc(scored) == 0.5


def test_auc_matches_bruteforce_with_ties():
    rng = substream(17, "auc")
    for trial in range(100):
        n = int(rng.integers(5, 40))
        scores = np.round(rng.uniform(0, 1, n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = list(zip(scores.tolist(), labels.tolist()))
        assert abs(auc(scored) - brute_force_auc(scored)) < 1e-9


def test_auc_invariant_under_monotone_transform():
    rng = substream(18, "mono")
    scores = rng.uniform(0.01, 0.99, 30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    base = auc(list(zip(scores, labels)))
    warped = auc(list(zip(np.log(scores / (1 - scores)), labels)))
    assert base == pytest.approx(warped, abs=1e-12)


def test_auc_label_flip_complement_no_ties():
    rng = substream(19, "flip")
    scores = rng.permutation(30) / 30.0  # distinct
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    a = auc(list(zip(scores, labels)))
    b = auc(list(zip(scores, 1 - labels)))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auc_single_class_error():
    with pytest.raises(MetricError):
        auc([(0.5, "fake"), (0.7, "fake")])


@pytest.mark.parametrize(
    "scored",
    [[(np.nan, "fake"), (np.nan, "real")], [(0.2, "fake"), (np.nan, "real"), (0.9, "real")]],
    ids=["all_nan", "one_nan"],
)
def test_auc_nan_score_error(scored):
    with pytest.raises(MetricError, match="NaN"):
        auc(scored)


def test_scored_video_mean():
    v = ScoredVideo("v0", [0.25, 0.5, 0.75], "fake")
    assert abs(v.video_score - 0.5) < 1e-9


class _StubModel:
    """Scores each window by its visual mean; avoids training in unit tests."""

    def score_batch(self, visuals, audios):
        return visuals.mean(axis=(1, 2, 3, 4)).astype(np.float64)


def _stub_pair(values, label, spf=10, source_id="v"):
    t = len(values)
    visual = np.ones((t, 1, 4, 4), np.float32) * np.asarray(values, np.float32)[:, None, None, None]
    audio = np.zeros(t * spf, np.float32)
    return avdata.AVPair(
        visual=avdata.VisualClip(visual),
        audio=avdata.AudioClip(audio),
        label=label,
        meta=avdata.PairMeta(source_id=source_id, origin="global_desync" if label == "fake" else "real"),
    )


def test_evaluate_single_subsequence_video_score():
    pairs = [
        _stub_pair([0.8] * 4, "fake", source_id="f0"),
        _stub_pair([0.2] * 4, "real", source_id="r0"),
    ]
    report = evaluate(_StubModel(), pairs, SubsequencePolicy(length=4))
    assert report.auc == 1.0
    for v in report.videos:
        assert len(v.scores) == 1
        assert v.video_score == v.scores[0]
        assert not v.padded


def test_evaluate_splits_and_aggregates():
    # 12 frames at length 4 -> 3 windows, mean of window means
    values = [0.0] * 4 + [0.6] * 4 + [0.9] * 4
    pair = _stub_pair(values, "fake", source_id="f0")
    other = _stub_pair([0.1] * 12, "real", source_id="r0")
    report = evaluate(_StubModel(), [pair, other], SubsequencePolicy(length=4))
    fake_row = next(v for v in report.videos if v.video_id == "f0")
    assert len(fake_row.scores) == 3
    assert fake_row.video_score == pytest.approx(0.5, abs=1e-6)


def test_evaluate_short_video_padded_and_flagged():
    short = _stub_pair([0.9, 0.9], "fake", source_id="s0")
    real = _stub_pair([0.1] * 8, "real", source_id="r0")
    report = evaluate(_StubModel(), [short, real], SubsequencePolicy(length=8))
    row = next(v for v in report.videos if v.video_id == "s0")
    assert row.padded and len(row.scores) == 1
    assert "yes" in report.to_text()


def test_evaluate_deterministic_and_serializable():
    pairs = [_stub_pair([0.7] * 4, "fake"), _stub_pair([0.3] * 4, "real", source_id="r")]
    r1 = evaluate(_StubModel(), pairs, SubsequencePolicy(length=4))
    r2 = evaluate(_StubModel(), pairs, SubsequencePolicy(length=4))
    assert r1.to_json() == r2.to_json()
    assert "auc" in r1.to_dict()


TINY_SYNTH = SynthConfig(t_v=8, c_v=1, h=12, w=12, t_a=320)
TINY_DETECTOR = DetectorConfig(
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


def test_random_weight_model_scores_at_chance():
    eval_set = make_split(TINY_SYNTH, "in_distribution", 40, seed=77)
    policy = SubsequencePolicy(length=TINY_SYNTH.t_v)
    aucs = [evaluate(Detector(TINY_DETECTOR, seed=s), eval_set, policy).auc for s in range(20)]
    assert 0.3 <= float(np.mean(aucs)) <= 0.7


class _TapedScorer:
    """Scores through ``Detector.forward`` with the tape on."""

    def __init__(self, model):
        self.model = model

    def score_batch(self, visuals, audios):
        y, _, _ = self.model.forward(visuals, audios)
        assert y.requires_grad
        return np.asarray(y.data, dtype=np.float64)


def test_evaluate_report_unchanged_by_no_grad():
    model = Detector(TINY_DETECTOR, seed=3)
    synth = SynthConfig(t_v=16, c_v=1, h=12, w=12, t_a=640)
    eval_set = make_split(synth, "fine_grained", 12, seed=78)
    policy = SubsequencePolicy(length=8)  # 2 windows per video, batches of 16 and 8
    report = evaluate(model, eval_set, policy)
    assert report.to_json() == evaluate(_TapedScorer(model), eval_set, policy).to_json()


def test_make_split_composition():
    cfg = SynthConfig(t_v=8, c_v=1, h=12, w=12, t_a=320)
    for split in ("in_distribution", "fine_grained"):
        pairs = make_split(cfg, split, 10, seed=3)
        labels = [p.label for p in pairs]
        assert labels.count("real") == 5 and labels.count("fake") == 5
        for p in pairs:
            p.validate()
    fines = [p for p in make_split(cfg, "fine_grained", 10, seed=3) if p.label == "fake"]
    assert all(p.meta.origin == "local_desync" for p in fines)


def test_ablation_table_structure_t_prime():
    cfg = tiny_run_config(epochs=1)
    cfg.train_data = DataSpec(n=12)
    cfg.eval_data = EvalSpec(n=8, fine_chunk=ChunkParams(0.25, 0.75))
    table = ablation_run(cfg, "t_prime", values=[1, 4], seeds=(0,))
    assert [r["value"] for r in table.rows] == [1, 4]
    for row in table.rows:
        assert 0.0 <= row["auc_in_distribution"] <= 1.0
        assert 0.0 <= row["auc_fine_grained"] <= 1.0
        assert len(row["per_seed_in_distribution"]) == 1
    text = table.to_text()
    assert "t_prime" in text and len(text.splitlines()) == 4


def test_ablation_attention_axis_two_rows():
    cfg = tiny_run_config(epochs=1)
    cfg.train_data = DataSpec(n=12)
    cfg.eval_data = EvalSpec(n=8, fine_chunk=ChunkParams(0.25, 0.75))
    table = ablation_run(cfg, "attention", seeds=(0,))
    assert [r["value"] for r in table.rows] == [True, False]


def test_default_axis_values():
    cfg = tiny_run_config()
    assert default_axis_values(cfg, "manipulation_kind") == [
        "none", "replace", "repeat", "flip", "translate",
    ]
    assert default_axis_values(cfg, "t_prime") == [1, 2, 4]
    assert default_axis_values(cfg, "attention") == [True, False]
