"""AUC oracle equivalence, subsequence aggregation, ablation table structure."""

from dataclasses import replace

import numpy as np
import pytest

from avlab import avdata, evalkit
from avlab.avdata import SynthConfig
from avlab.detector import Detector, DetectorConfig
from avlab.errors import ConfigError, MetricError
from avlab.evalkit import (
    SPLITS,
    ScoredVideo,
    SubsequencePolicy,
    ablation_run,
    auc,
    default_axis_values,
    evaluate,
    make_split,
    split_pairs,
)
from avlab.pseudofake import ChunkParams
from avlab.rng import derive_seed, substream
from avlab.trainloop import DataSpec, EvalSpec, train
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
    audio = np.linspace(-1.0, 1.0, t * spf, dtype=np.float32)  # every sample differs
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


@pytest.mark.parametrize("odd, what", [
    (dict(spf=12), r"\(\(1, 4, 4\), 12\)"),
    (dict(shape=(1, 4, 5)), r"\(\(1, 4, 5\), 10\)"),
])
def test_evaluate_mixed_frame_shapes_name_the_first_odd_video(odd, what):
    pairs = [_stub_pair([0.1] * 8, "real", source_id="r0"), _stub_pair([0.9] * 4, "fake", source_id="f0")]
    bad = _stub_pair([0.5] * 8, "fake", spf=odd.get("spf", 10), source_id="bad")
    if "shape" in odd:
        bad = replace(bad, visual=avdata.VisualClip(np.zeros((8, *odd["shape"]), np.float32)))
    with pytest.raises(ConfigError, match=rf"pair 'bad': frame shape and samples per frame {what} "
                                          r"differ from \(\(1, 4, 4\), 10\) of pair 'r0'"):
        evaluate(_StubModel(), pairs + [bad], SubsequencePolicy(length=4))


class _RecordingModel:
    """Returns each window's first visual sample as its score and records every batch."""

    def __init__(self):
        self.batches = []

    def score_batch(self, visuals, audios):
        self.batches.append((visuals.copy(), audios.copy()))
        return visuals[:, 0, 0, 0, 0].astype(np.float64)


def test_short_video_window_repeats_last_frame_and_its_audio_span():
    spf = 5
    short = _stub_pair([0.0, 0.1, 0.2], "fake", spf, source_id="s0")
    full = _stub_pair(np.linspace(0.3, 0.8, 6), "real", spf, source_id="r0")
    model = _RecordingModel()
    report = evaluate(model, [short, full], SubsequencePolicy(length=6))
    (visuals, audios), = model.batches
    v, a = short.visual.data, short.audio.data
    np.testing.assert_array_equal(visuals[0], np.concatenate([v] + [v[-1:]] * 3))
    np.testing.assert_array_equal(audios[0], np.concatenate([a] + [a[-spf:]] * 3))
    np.testing.assert_array_equal(visuals[1], full.visual.data)
    np.testing.assert_array_equal(audios[1], full.audio.data)
    assert [(r.padded, len(r.scores)) for r in report.videos] == [(True, 1), (False, 1)]


def test_strided_windows_cross_batches_in_order():
    spf, starts = 4, [0, 2, 4, 6]
    pairs = [_stub_pair(np.arange(10) / 20, "fake", spf, "f0"), _stub_pair(np.arange(10) / 30, "real", spf, "r0")]
    model = _RecordingModel()
    report = evaluate(model, pairs, SubsequencePolicy(length=4, stride=2), batch_size=3)
    assert [len(vis) for vis, _ in model.batches] == [3, 3, 2]
    visuals = np.concatenate([vis for vis, _ in model.batches])
    audios = np.concatenate([aud for _, aud in model.batches])
    windows = [(p, s) for p in pairs for s in starts]
    for (p, s), vis, aud in zip(windows, visuals, audios, strict=True):
        np.testing.assert_array_equal(vis, p.visual.data[s : s + 4])
        np.testing.assert_array_equal(aud, p.audio.data[s * spf : (s + 4) * spf])
    for p, row in zip(pairs, report.videos, strict=True):
        assert row.video_id == p.meta.source_id and not row.padded
        assert row.scores == [float(p.visual.data[s, 0, 0, 0]) for s in starts]


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


def test_whole_videos_of_different_lengths_score_as_alone():
    model = Detector(TINY_DETECTOR, seed=4)
    short, long = (make_split(SynthConfig(t_v=t, c_v=1, h=12, w=12, t_a=40 * t), "in_distribution", 2, seed=79)
                   for t in (16, 24))
    eval_set = [short[0], long[0], short[1], long[1]]  # each video a run of its own length
    report = evaluate(model, eval_set)  # whole videos
    for pair, row in zip(eval_set, report.videos, strict=True):
        alone = model.score_batch(pair.visual.data[None], pair.audio.data.reshape(1, -1))
        assert row.scores == [float(alone[0])]


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


def test_evaluate_rejects_windows_the_detector_does_not_fit():
    eval_set = make_split(SynthConfig(), "in_distribution", 2, seed=0)
    model = Detector(DetectorConfig(), seed=0)  # t_prime=8; 8-frame windows leave 4 feature steps
    with pytest.raises(ConfigError, match=r"does not fit eval windows of 8 frames: adaptive pool cannot upsample"):
        evaluate(model, eval_set, SubsequencePolicy(length=8))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    pairs = [_stub_pair([0.8] * 4, "fake"), _stub_pair([0.2] * 4, "real")]
    with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
        evaluate(_StubModel(), pairs, batch_size=batch_size)


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


def test_ablation_checks_every_variant_fits_before_training(monkeypatch):
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    with pytest.raises(ConfigError, match=r"does not fit t_prime value 16 on clips of 8 frames: adaptive pool"):
        ablation_run(tiny_run_config(), "t_prime", values=[2, 16], seeds=(0,))
    assert trained == []


# the rule `train` holds its train set to: with no dataset fakes, "none" leaves no source of fakes
@pytest.mark.parametrize("fake_fraction, value", [(0.0, "none"), (1.0, "replace")], ids=["no_fakes", "no_reals"])
def test_ablation_checks_every_train_set_has_reals_and_fakes_before_training(monkeypatch, fake_fraction, value):
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    cfg = tiny_run_config(train_data=DataSpec(n=12, fake_fraction=fake_fraction))
    with pytest.raises(ConfigError, match=f"^the train set of manipulation_kind value '{value}' must contain real"):
        ablation_run(cfg, "manipulation_kind", values=["replace", "none"], seeds=(0,))
    assert trained == []


# the rule `avlab ablate --seeds` applies: a float or bool seed is not truncated to an int
@pytest.mark.parametrize("seeds", [(), (0, -1), (0.5,), (True,)], ids=["empty", "negative", "float", "bool"])
def test_ablation_rejects_empty_seeds(monkeypatch, seeds):
    built = []
    monkeypatch.setattr(evalkit, "Detector", lambda *args, **kwargs: built.append(args))
    monkeypatch.setattr(evalkit, "train", lambda *args: built.append(args))
    with pytest.raises(ConfigError, match=r"^seeds must be "):
        ablation_run(tiny_run_config(), "attention", seeds=seeds)
    assert built == []


# the rule `avlab ablate --values` applies, checked on the decoded configs
@pytest.mark.parametrize(
    "values, message",
    [([], r"^values must be a nonempty list, got \[\]"),
     ([True, True], r"^values must be distinct, got True twice in \[True, True\]")],
    ids=["empty", "repeated"],
)
def test_ablation_rejects_empty_or_repeated_values(monkeypatch, values, message):
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    with pytest.raises(ConfigError, match=message):
        ablation_run(tiny_run_config(), "attention", values=values, seeds=(0,))
    assert trained == []


# the per-seed protocol the acceptance trends, perfbench's train and score workloads and demo 04 share
def test_ablation_run_trains_and_scores_the_seeded_splits(monkeypatch):
    cfg = tiny_run_config(epochs=1)
    cfg.train_data = DataSpec(n=12)
    cfg.eval_data = EvalSpec(n=16, fine_chunk=ChunkParams(0.25, 0.75))
    seed = 2
    reports = []
    monkeypatch.setattr(evalkit, "evaluate", lambda *args: reports.append(evaluate(*args)) or reports[-1])
    row = ablation_run(cfg, "t_prime", values=[cfg.detector.t_prime], seeds=(seed,)).rows[0]

    train_set = list(split_pairs(cfg, "train", derive_seed(seed, "train-data")))
    model = train(replace(cfg, seed=seed), train_set).model
    policy = SubsequencePolicy(length=cfg.synth.t_v)
    assert len(reports) == len(SPLITS)
    for split, report in zip(SPLITS, reports):
        expected = evaluate(model, list(split_pairs(cfg, split, derive_seed(seed, "eval", split))), policy)
        assert report.to_dict() == expected.to_dict()  # every window score, bit for bit
        assert row[f"per_seed_{split}"] == [expected.auc]


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
