"""Synthetic generator: determinism, ranges, correlation structure, locality."""

import numpy as np
import pytest

from avlab.avdata import (
    AVPair,
    AudioClip,
    CARRIER_CYCLES_PER_SAMPLE,
    PairMeta,
    SynthConfig,
    VisualClip,
    envelope,
    load_pair,
    make_pairs,
    save_pair,
    synth_fake_pair,
    synth_real_pair,
)
from avlab.errors import ConfigError
from avlab.pseudofake import ChunkParams
from avlab.rng import substream


def brightness_series(pair: AVPair) -> np.ndarray:
    return pair.visual.data.mean(axis=(1, 2, 3))


def rms_series(pair: AVPair) -> np.ndarray:
    spf = pair.audio.t // pair.visual.t
    frames = pair.audio.data.reshape(pair.visual.t, spf)
    return np.sqrt((frames.astype(np.float64) ** 2).mean(axis=1))


def test_determinism_bit_identical():
    cfg = SynthConfig(t_v=16, t_a=1600, seed=7)
    a = synth_real_pair(cfg, substream(7, "sample", 0))
    b = synth_real_pair(cfg, substream(7, "sample", 0))
    assert a.visual.data.tobytes() == b.visual.data.tobytes()
    assert a.audio.data.tobytes() == b.audio.data.tobytes()


def test_constant_envelope_pure_carrier():
    cfg = SynthConfig(noise_std=0.0, envelope_bandwidth=0.0)
    pair = synth_real_pair(cfg, substream(0, "const"))
    n = np.arange(cfg.t_a)
    expected = (0.5 * np.sin(2 * np.pi * CARRIER_CYCLES_PER_SAMPLE * n)).astype(np.float32)
    assert np.array_equal(pair.audio.data, np.clip(expected, -1, 1))
    assert abs(pair.audio.data).max() == pytest.approx(0.5, abs=1e-3)


def test_real_pair_brightness_tracks_rms():
    cfg = SynthConfig(t_v=32, t_a=3200, noise_std=0.0, envelope_bandwidth=5.0)
    rs = []
    for k in range(20):
        pair = synth_real_pair(cfg, substream(21, "corr", k))
        b, r = brightness_series(pair), rms_series(pair)
        rs.append(np.corrcoef(b, r)[0, 1])
    assert min(rs) > 0.9


def test_global_desync_uncorrelated():
    cfg = SynthConfig(t_v=32, t_a=3200, noise_std=0.0, envelope_bandwidth=5.0)
    rs = []
    for k in range(100):
        pair = synth_fake_pair(cfg, "global_desync", substream(22, "uncorr", k))
        rs.append(abs(np.corrcoef(brightness_series(pair), rms_series(pair))[0, 1]))
    assert np.mean(rs) < 0.3


def test_value_ranges_random_configs():
    rng = substream(30, "ranges")
    for _ in range(10):
        t_v = int(rng.integers(2, 12)) * 2
        cfg = SynthConfig(
            t_v=t_v,
            c_v=int(rng.integers(1, 4)),
            h=int(rng.integers(8, 40)),
            w=int(rng.integers(8, 40)),
            t_a=t_v * int(rng.integers(10, 120)),
            envelope_bandwidth=float(rng.uniform(0, 6)),
            noise_std=float(rng.uniform(0, 0.3)),
        )
        for mode in ("real", "global_desync", "local_desync"):
            if mode == "real":
                pair = synth_real_pair(cfg, substream(31, "r", t_v))
            else:
                pair = synth_fake_pair(cfg, mode, substream(31, mode, t_v))
            pair.validate()  # finite + range invariants


def test_local_desync_outside_chunk_bitwise_equal():
    cfg = SynthConfig(noise_std=0.05)
    for k in range(20):
        real = synth_real_pair(cfg, substream(40, "loc", k))
        fake = synth_fake_pair(cfg, "local_desync", substream(40, "loc", k))
        specs = fake.meta.visual_manipulations + fake.meta.audio_manipulations
        assert len(specs) == 1
        spec = specs[0]
        if fake.meta.visual_manipulations:
            changed, keep = fake.visual.data, real.visual.data
            assert np.array_equal(fake.audio.data, real.audio.data)
        else:
            changed, keep = fake.audio.data, real.audio.data
            assert np.array_equal(fake.visual.data, real.visual.data)
        assert np.array_equal(changed[: spec.i], keep[: spec.i])
        assert np.array_equal(changed[spec.i + spec.l :], keep[spec.i + spec.l :])
        assert not np.array_equal(changed[spec.i : spec.i + spec.l], keep[spec.i : spec.i + spec.l])


def test_local_desync_full_chunk_replaces_whole_envelope():
    cfg = SynthConfig(noise_std=0.0)
    fake = synth_fake_pair(
        cfg, "local_desync", substream(41, "full"), chunk=ChunkParams(r_min=1.0, r_max=1.0)
    )
    spec = (fake.meta.visual_manipulations + fake.meta.audio_manipulations)[0]
    span = spec.l if fake.meta.visual_manipulations else spec.l // cfg.samples_per_frame
    assert span == cfg.t_v


def test_label_consistency_enforced():
    cfg = SynthConfig()
    pair = synth_real_pair(cfg, substream(50, "lab"))
    pair.label = "fake"  # fake without manipulation records nor desync origin
    with pytest.raises(ConfigError):
        pair.validate()


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(t_a=1601).validate()  # not a multiple of t_v
    with pytest.raises(ConfigError):
        SynthConfig(t_v=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(noise_std=-0.1).validate()
    with pytest.raises(ConfigError):
        synth_fake_pair(SynthConfig(), "sideways", substream(0, "x"))


def test_envelope_bounds_and_degenerate():
    rng = substream(60, "env")
    e = envelope(64, 4.0, rng)
    assert e.min() == 0.0 and e.max() == 1.0
    assert np.array_equal(envelope(16, 0.0, rng), np.full(16, 0.5))


def test_pair_save_load_round_trip(tmp_path):
    cfg = SynthConfig()
    pair = synth_fake_pair(cfg, "local_desync", substream(70, "io"))
    path = tmp_path / "pair.avtc"
    save_pair(path, pair)
    back = load_pair(path)
    assert back.label == pair.label
    assert back.meta.origin == pair.meta.origin
    assert back.meta.source_id == pair.meta.source_id
    assert (back.meta.visual_manipulations + back.meta.audio_manipulations) == (
        pair.meta.visual_manipulations + pair.meta.audio_manipulations
    )
    assert np.array_equal(back.visual.data, pair.visual.data)
    assert np.array_equal(back.audio.data, pair.audio.data)


def test_load_pair_validates_stored_pair(tmp_path):
    pair = synth_real_pair(SynthConfig(), substream(71, "io"))
    pair.visual.data[0, 0, 0, 0] = 7.0
    path = tmp_path / "pair.avtc"
    save_pair(path, pair)
    with pytest.raises(ConfigError, match="pair.avtc: visual samples must be finite and in"):
        load_pair(path)


@pytest.mark.parametrize("key", ["visual_manipulations", "audio_manipulations"])
def test_manipulation_record_must_be_a_list(key):
    with pytest.raises(ConfigError, match=f"{key} must be a JSON list"):
        PairMeta.from_strings({key: "5"})


def test_make_pairs_layout_and_determinism():
    cfg = SynthConfig()
    pairs = make_pairs(cfg, 10, 0.3, "global_desync", seed=5, id_prefix="train")
    again = make_pairs(cfg, 10, 0.3, "global_desync", seed=5, id_prefix="train")
    labels = [p.label for p in pairs]
    assert labels == ["real"] * 7 + ["fake"] * 3
    assert all(
        np.array_equal(a.visual.data, b.visual.data) and np.array_equal(a.audio.data, b.audio.data)
        for a, b in zip(pairs, again)
    )
    assert pairs[0].meta.source_id == "train-00000"


def test_clip_validation():
    with pytest.raises(ConfigError):
        VisualClip(np.zeros((1, 1, 4, 4), np.float32)).validate()  # T < 2
    with pytest.raises(ConfigError):
        VisualClip(np.full((4, 1, 4, 4), 1.5, np.float32)).validate()  # out of range
    with pytest.raises(ConfigError):
        AudioClip(np.zeros((4, 1), np.float32)).validate()  # wrong rank
    bad = np.zeros(16, np.float32)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        AudioClip(bad).validate()
