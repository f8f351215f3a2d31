"""Training harness: augmentation policy statistics, loop behavior, determinism."""

import gc
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avlab import avdata
from avlab.avdata import SynthConfig
from avlab.detector import DetectorConfig
from avlab.errors import ConfigError, DivergenceError
from avlab.pseudofake import ChunkParams
from avlab.rng import derive_seed, substream
from avlab.trainloop import DataSpec, RunConfig, augment_sample, train


def tiny_run_config(**overrides) -> RunConfig:
    cfg = RunConfig(
        epochs=2,
        batch_size=4,
        synth=SynthConfig(t_v=8, c_v=1, h=12, w=12, t_a=320),
        detector=DetectorConfig(
            t_prime=4,
            c_prime=8,
            visual_in_channels=1,
            visual_blocks=[
                {"type": "conv", "out": 4, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
                {"type": "res", "out": 8, "kernel": [3, 3, 3], "stride": [2, 2, 2]},
            ],
            audio_blocks=[
                {"out": 4, "kernel": 9, "stride": 4},
                {"out": 8, "kernel": 5, "stride": 4},
            ],
            classifier_hidden=8,
        ),
        train_data=DataSpec(n=24),
        seed=3,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def tiny_train_set(cfg, n=24, fake_fraction=0.5, seed=5):
    return avdata.make_pairs(cfg.synth, n, fake_fraction, "global_desync", seed=seed, id_prefix="t")


def test_augment_prob_zero_identity():
    cfg = tiny_run_config(pseudo_fake_prob=0.0)
    pairs = tiny_train_set(cfg, n=6, fake_fraction=0.0)
    rng = substream(1, "aug0")
    for p in pairs:
        assert augment_sample(p, pairs, cfg, rng) is p


def test_augment_prob_one_both_combo():
    cfg = tiny_run_config(pseudo_fake_prob=1.0, combo_weights={"both": 1.0})
    pairs = tiny_train_set(cfg, n=6, fake_fraction=0.0)
    rng = substream(2, "aug1")
    for p in pairs:
        q = augment_sample(p, pairs, cfg, rng)
        assert q.label == "fake"
        assert q.meta.visual_manipulations and q.meta.audio_manipulations


def test_augment_requires_real():
    cfg = tiny_run_config()
    fake = tiny_train_set(cfg, n=2, fake_fraction=1.0)[0]
    with pytest.raises(ValueError):
        augment_sample(fake, [], cfg, substream(0, "x"))


def test_augment_statistics():
    cfg = tiny_run_config()  # prob 0.5, uniform combos, replace-only
    pairs = tiny_train_set(cfg, n=8, fake_fraction=0.0)
    rng = substream(3, "stats")
    n = 10_000
    counters: dict[str, int] = {}
    combos = {"audio": 0, "visual": 0, "both": 0}
    for k in range(n):
        q = augment_sample(pairs[k % len(pairs)], pairs, cfg, rng, counters)
        if q.label == "fake":
            if q.meta.visual_manipulations and q.meta.audio_manipulations:
                combos["both"] += 1
            elif q.meta.visual_manipulations:
                combos["visual"] += 1
            else:
                combos["audio"] += 1
    n_fake = counters["pseudofake"]
    sigma = math.sqrt(n * 0.25)
    assert abs(n_fake - n * 0.5) < 3 * sigma
    for combo, count in combos.items():
        p = 1.0 / 3.0
        sigma = math.sqrt(n_fake * p * (1 - p))
        assert abs(count - n_fake * p) < 3 * sigma, (combo, count, n_fake)
    assert counters.get("rejected", 0) == 0


def test_augment_records_sound_labels():
    cfg = tiny_run_config(pseudo_fake_prob=1.0)
    pairs = tiny_train_set(cfg, n=6, fake_fraction=0.0)
    rng = substream(4, "sound")
    for p in pairs:
        q = augment_sample(p, pairs, cfg, rng)
        q.validate()  # label=fake consistent with nonempty records
        assert q.label == "fake"


def test_augment_chunk_rejection_returns_unchanged():
    cfg = tiny_run_config(
        pseudo_fake_prob=1.0,
        combo_weights={"visual": 1.0},
        chunk=ChunkParams(r_min=0.01, r_max=0.2),  # floor(0.2 * 8) = 1 < 2
    )
    pairs = tiny_train_set(cfg, n=4, fake_fraction=0.0)
    counters: dict[str, int] = {}
    rng = substream(5, "rej")
    for p in pairs:
        assert augment_sample(p, pairs, cfg, rng, counters) is p
    assert counters["rejected"] == len(pairs)


def test_augment_does_not_mutate_source():
    cfg = tiny_run_config(pseudo_fake_prob=1.0)
    pairs = tiny_train_set(cfg, n=6, fake_fraction=0.0)
    before = [(p.visual.data.copy(), p.audio.data.copy()) for p in pairs]
    rng = substream(6, "nomut")
    for p in pairs:
        augment_sample(p, pairs, cfg, rng)
    for p, (v, a) in zip(pairs, before):
        assert np.array_equal(p.visual.data, v)
        assert np.array_equal(p.audio.data, a)
        assert p.label == "real"


def test_train_lr_zero_identity_and_first_epoch():
    cfg = tiny_run_config(lr=0.0, weight_decay=0.0, pseudo_fake_prob=0.0, epochs=3)
    train_set = tiny_train_set(cfg)
    from avlab.detector import Detector

    fresh = Detector(cfg.detector, seed=derive_seed(cfg.seed, "init"))
    result = train(cfg, train_set)
    for (name, trained), (_, init) in zip(result.model.params(), fresh.params()):
        assert np.array_equal(trained.data, init.data), name
    assert result.best_epoch == 1
    assert [m["loss"] for m in result.metrics] == [result.best_loss] * 3


def test_train_loss_decreases():
    cfg = tiny_run_config(epochs=6)
    result = train(cfg, tiny_train_set(cfg))
    assert result.metrics[-1]["loss"] < result.metrics[0]["loss"]
    assert result.best_loss == min(m["loss"] for m in result.metrics)


def test_train_metrics_deterministic():
    cfg = tiny_run_config(epochs=2)
    r1 = train(cfg, tiny_train_set(cfg))
    r2 = train(cfg, tiny_train_set(cfg))
    assert json.dumps(r1.metrics) == json.dumps(r2.metrics)
    for (n1, t1), (n2, t2) in zip(r1.model.params(), r2.model.params()):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()


def test_train_checkpoint_argmin_ties_earliest():
    cfg = tiny_run_config(lr=0.0, pseudo_fake_prob=0.0, epochs=4)
    result = train(cfg, tiny_train_set(cfg))
    assert result.best_epoch == 1


def test_train_restores_best_epoch_bitwise():
    # shuffle and augmentation substreams depend only on (seed, epoch), so the
    # first b epochs of a longer run are the b-epoch run
    cfg = tiny_run_config(lr=0.05, epochs=3)
    longer = train(cfg, tiny_train_set(cfg))
    assert longer.best_epoch == 2 < cfg.epochs
    shorter = train(tiny_run_config(lr=0.05, epochs=2), tiny_train_set(cfg))
    assert shorter.best_loss == longer.best_loss
    for (n1, t1), (n2, t2) in zip(longer.model.params(), shorter.model.params()):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes(), n1


def _default_train_set():
    return avdata.make_pairs(SynthConfig(), 64, 0.5, seed=0)


def test_train_epoch_holds_only_what_backward_reads():
    # one default-config batch-8 epoch: 10.7-11.6 MB while steps held padded conv inputs
    # and clip batches that their backward never reads
    pairs = _default_train_set()
    gc.collect()
    tracemalloc.start()
    try:
        train(RunConfig(epochs=1), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# a fresh process, so no earlier test has raised glibc's dynamic trim threshold
_RETRAIN = """
import gc, resource
from avlab import avdata, trainloop
pairs = avdata.make_pairs(avdata.SynthConfig(), 64, 0.5, seed=0)
cfg = trainloop.RunConfig(epochs=2)
trainloop.train(cfg, pairs)
gc.collect()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    trainloop.train(cfg, pairs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin sets glibc's malloc thresholds")
def test_repeated_training_does_not_refault_the_heap():
    # with glibc's default thresholds each train() handed freed steps back to the kernel
    # and faulted them in again: about 10.3K minor faults over the three repeats
    src = str(Path(avdata.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _RETRAIN], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 2000, faults


def test_train_validates_inputs():
    cfg = tiny_run_config()
    with pytest.raises(ConfigError, match="^train set is empty$"):
        train(cfg, [])
    only_real = tiny_train_set(cfg, fake_fraction=0.0)
    cfg_no_aug = tiny_run_config(pseudo_fake_prob=0.0)
    with pytest.raises(ConfigError, match=r"^train set must contain real pairs and a source of fakes \("):
        train(cfg_no_aug, only_real)


def test_train_mixed_shapes_name_the_first_odd_pair():
    cfg = tiny_run_config()
    small = tiny_train_set(cfg, n=4)
    big = avdata.make_pairs(SynthConfig(t_v=8, c_v=1, h=16, w=16, t_a=320), 2, 0.5, "global_desync",
                            seed=6, id_prefix="big")
    with pytest.raises(ConfigError, match=r"pair 'big-00000': visual and audio shapes "
                                          r"\(\(8, 1, 16, 16\), \(320,\)\) differ from .* of pair 't-00000'"):
        train(cfg, small + big + small)


def test_train_divergence_diagnostic():
    cfg = tiny_run_config(epochs=1, pseudo_fake_prob=0.0)
    train_set = tiny_train_set(cfg)
    train_set[3].visual.data[0, 0, 0, 0] = np.nan
    with pytest.raises(DivergenceError) as err:
        train(cfg, train_set)
    assert "epoch 1" in str(err.value)
    assert str(cfg.seed) in str(err.value)


def test_metrics_record_schema():
    cfg = tiny_run_config(epochs=2)
    result = train(cfg, tiny_train_set(cfg))
    for record in result.metrics:
        assert set(record) == {"epoch", "loss", "n_pseudofake", "n_real"}


def test_run_config_json_round_trip():
    cfg = tiny_run_config()
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()
    again.validate()


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(pseudo_fake_prob=1.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(combo_weights={"audio": 0.9}).validate()
    with pytest.raises(ConfigError):
        RunConfig(combo_weights={"sideways": 1.0}).validate()
    # one weight rule for both maps: allowed keys, ints or floats >= 0 (not bools, not NaN), sum 1
    for bad in ({"audio": "x"}, {"audio": True}, {"audio": float("nan"), "both": 1.0}, {"audio": -1, "both": 2}):
        with pytest.raises(ConfigError, match="combo_weights"):
            RunConfig(combo_weights=bad).validate()
    for bad in ({"replace": "x"}, {"bogus": 1.0}, {"replace": True}, {}, {"replace": float("inf")}):
        with pytest.raises(ConfigError, match="kind_policy"):
            RunConfig(kind_policy=bad).validate()
    RunConfig(combo_weights={"audio": 1}, kind_policy={"flip": 0.5, "repeat": 0.5}).validate()
    with pytest.raises(ConfigError):
        RunConfig(epochs=0).validate()
