"""Manipulation engine tests, anchored on an independent brute-force oracle."""

import math

import numpy as np
import pytest
from scipy import stats

from avlab.errors import ChunkRejected, ConfigError, DonorError
from avlab.pseudofake import (
    ChunkParams,
    ManipulationSpec,
    apply_manipulation,
    index_map,
    sample_chunk,
    sample_manipulation,
)
from avlab.rng import substream


def oracle_index_map(spec: ManipulationSpec, T: int) -> list[int]:
    """Straight-loop evaluation of the four manipulation laws, written
    independently of the vectorized implementation."""
    out = []
    for t in range(T):
        if t < spec.i or t > spec.i + spec.l - 1:
            out.append(t)
            continue
        a = t - spec.i
        if spec.kind == "repeat":
            src = spec.i + math.floor(a / spec.param) * spec.param
        elif spec.kind == "flip":
            src = spec.i + 2 * spec.param * math.floor(a / spec.param) + spec.param - 1 - a
            src = min(max(src, spec.i), spec.i + spec.l - 1)
        elif spec.direction == "left":
            src = spec.i + min(spec.l - 1, a + spec.param)
        else:
            src = spec.i + max(0, a - spec.param)
        out.append(src)
    return out


def all_specs(l, param):
    yield ManipulationSpec("repeat", 0, l, param)
    yield ManipulationSpec("flip", 0, l, param)
    yield ManipulationSpec("translate", 0, l, param, direction="left")
    yield ManipulationSpec("translate", 0, l, param, direction="right")


def test_index_map_matches_oracle_small_exhaustive():
    # acceptance re-runs this to T=64; keep the unit sweep quick
    for T in range(2, 25):
        for l in range(2, T + 1):
            for param in range(2, l + 1):
                for i in {0, (T - l) // 2, T - l}:
                    for proto in all_specs(l, param):
                        spec = ManipulationSpec(proto.kind, i, l, proto.param, proto.direction)
                        got = index_map(spec, T)
                        assert got.tolist() == oracle_index_map(spec, T), (spec, T)


def test_reference_chunk_contents():
    # 0-based i=2, l=4 with p=f=v=2; expected chunks worked out by hand
    # from the index laws (1-based labels A3..A6 shifted down by one)
    cases = {
        ("repeat", None): [2, 2, 4, 4],
        ("flip", None): [3, 2, 5, 4],
        ("translate", "left"): [4, 5, 5, 5],
        ("translate", "right"): [2, 2, 2, 3],
    }
    for (kind, direction), expected in cases.items():
        spec = ManipulationSpec(kind, i=2, l=4, param=2, direction=direction)
        g = index_map(spec, 8)
        assert g[2:6].tolist() == expected
        assert g[:2].tolist() == [0, 1] and g[6:].tolist() == [6, 7]


def test_flip_clamp_stays_in_chunk():
    # l not a multiple of f addresses past the chunk without the clamp
    spec = ManipulationSpec("flip", i=1, l=5, param=2)
    g = index_map(spec, 8)
    assert g.min() >= 0 and g.max() <= 7
    assert all(1 <= v <= 5 for v in g[1:6])


def test_repeat_param_l_is_first_frame():
    spec = ManipulationSpec("repeat", i=3, l=5, param=5)
    g = index_map(spec, 12)
    assert g[3:8].tolist() == [3] * 5


def test_index_map_rejects_replace():
    with pytest.raises(ConfigError):
        index_map(ManipulationSpec("replace", 0, 4), 8)


def test_locality_and_closure_random_trials():
    rng = substream(11, "locality")
    cp = ChunkParams()
    for _ in range(2000):
        T = int(rng.integers(4, 40))
        i, l = sample_chunk(T, cp, rng)
        kind = ("repeat", "flip", "translate")[int(rng.integers(0, 3))]
        param = int(rng.integers(2, l + 1))
        direction = ("left", "right")[int(rng.integers(0, 2))] if kind == "translate" else None
        spec = ManipulationSpec(kind, i, l, param, direction)
        g = index_map(spec, T)
        assert (g[:i] == np.arange(i)).all()
        assert (g[i + l :] == np.arange(i + l, T)).all()
        assert g.min() >= 0 and g.max() < T
        assert (g[i : i + l] >= i).all() and (g[i : i + l] < i + l).all()


def test_apply_flip_on_constant_is_identity():
    seq = np.full((10, 2), 3.25, dtype=np.float32)
    out = apply_manipulation(seq, ManipulationSpec("flip", 2, 6, 3))
    assert (out == seq).all()


def test_apply_replace_with_self_is_identity():
    rng = substream(3, "self-replace")
    seq = rng.standard_normal((12, 4)).astype(np.float32)
    out = apply_manipulation(seq, ManipulationSpec("replace", 4, 5), donor=seq)
    assert (out == seq).all()


def test_apply_outside_chunk_untouched():
    rng = substream(5, "outside")
    cp = ChunkParams()
    for _ in range(300):
        T = int(rng.integers(4, 30))
        seq = rng.standard_normal((T, 3))
        i, l = sample_chunk(T, cp, rng)
        kind = ("replace", "repeat", "flip", "translate")[int(rng.integers(0, 4))]
        if kind == "replace":
            spec = ManipulationSpec("replace", i, l)
            out = apply_manipulation(seq, spec, donor=rng.standard_normal((T, 3)))
        else:
            param = int(rng.integers(2, l + 1))
            direction = "left" if kind == "translate" else None
            spec = ManipulationSpec(kind, i, l, param, direction)
            out = apply_manipulation(seq, spec)
        assert (out[:i] == seq[:i]).all()
        assert (out[i + l :] == seq[i + l :]).all()


def test_repeat_idempotent_when_period_divides_length():
    rng = substream(9, "idempotent")
    seq = rng.standard_normal((16,))
    spec = ManipulationSpec("repeat", 4, 8, 4)
    once = apply_manipulation(seq, spec)
    twice = apply_manipulation(once, spec)
    assert (once == twice).all()


def test_same_spec_both_modalities_same_index_set():
    spec = ManipulationSpec("flip", 3, 6, 2)
    visual_like = np.arange(16, dtype=np.float32).reshape(16, 1, 1, 1) * np.ones((16, 2, 3, 3), np.float32)
    audio_like = np.arange(16, dtype=np.float32)
    v_out = apply_manipulation(visual_like, spec)
    a_out = apply_manipulation(audio_like, spec)
    assert (v_out[:, 0, 0, 0] == a_out).all()


def test_donor_errors():
    seq = np.zeros((10,), np.float32)
    with pytest.raises(DonorError):
        apply_manipulation(seq, ManipulationSpec("replace", 4, 4))
    with pytest.raises(DonorError):
        apply_manipulation(seq, ManipulationSpec("replace", 4, 4), donor=np.zeros((6,), np.float32))
    with pytest.raises(DonorError):
        apply_manipulation(seq, ManipulationSpec("repeat", 4, 4, 2), donor=seq)


# ---------------------------------------------------------------------- sampling


def test_sample_chunk_paper_defaults():
    rng = substream(1, "chunk30")
    cp = ChunkParams()  # r_min ~ 0 (floor 2), r_max = 1
    for _ in range(500):
        i, l = sample_chunk(30, cp, rng)
        assert 2 <= l <= 30
        assert 0 <= i <= 30 - l


def test_sample_chunk_forced_full():
    rng = substream(2, "chunk4")
    cp = ChunkParams(r_min=1.0, r_max=1.0)
    assert all(sample_chunk(4, cp, rng) == (0, 4) for _ in range(50))


def test_sample_chunk_rejects_tiny():
    cp = ChunkParams(r_max=0.25)  # floor(0.25 * 4) = 1 < HARD_MIN
    with pytest.raises(ChunkRejected):
        sample_chunk(4, cp, substream(0, "reject"))


def test_chunk_length_uniform_chisquare():
    rng = substream(4, "chisq")
    cp = ChunkParams()
    draws = np.array([sample_chunk(30, cp, rng)[1] for _ in range(100_000)])
    counts = np.bincount(draws, minlength=31)[2:31]
    assert counts.sum() == 100_000
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_sample_manipulation_replace_only_policy():
    rng = substream(6, "policy")
    for _ in range(200):
        spec = sample_manipulation({"replace": 1.0}, 30, ChunkParams(), rng)
        assert spec.kind == "replace"
        assert spec.param is None


def test_sample_manipulation_accepts_weights_the_rule_admits():
    # sum off by 5e-7: inside check_weights' 1e-6, outside what rng.choice takes raw
    policy = {"replace": 0.5, "flip": 0.5000005}
    rng = substream(6, "near-one")
    kinds = {sample_manipulation(policy, 30, ChunkParams(), rng).kind for _ in range(200)}
    assert kinds == {"replace", "flip"}


def test_sample_manipulation_param_degenerate():
    rng = substream(7, "l2")
    cp = ChunkParams(r_min=1.0, r_max=1.0)
    for _ in range(50):
        spec = sample_manipulation({"repeat": 1.0}, 2, cp, rng)
        assert spec.l == 2 and spec.param == 2


def test_sample_manipulation_kind_frequencies():
    rng = substream(8, "freqs")
    policy = {"replace": 0.4, "repeat": 0.3, "flip": 0.2, "translate": 0.1}
    n = 100_000
    counts = {k: 0 for k in policy}
    for _ in range(n):
        counts[sample_manipulation(policy, 30, ChunkParams(), rng).kind] += 1
    for kind, p in policy.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[kind] - n * p) < 3 * sigma, (kind, counts[kind])


def test_spec_validation_and_json_round_trip():
    spec = ManipulationSpec("translate", 3, 5, 4, direction="right", donor_id=None)
    again = ManipulationSpec.from_dict(spec.to_dict())
    assert again == spec
    with pytest.raises(ConfigError):
        ManipulationSpec("repeat", 0, 4, 5).validate()  # param > l
    with pytest.raises(ConfigError):
        ManipulationSpec("repeat", 0, 4, 2).validate(T=3)  # chunk exceeds T
    with pytest.raises(ConfigError):
        ManipulationSpec("translate", 0, 4, 2).validate()  # missing direction
    with pytest.raises(ConfigError):
        ManipulationSpec("warp", 0, 4, 2).validate()
    with pytest.raises(ConfigError):
        sample_manipulation({"replace": 0.5}, 30, ChunkParams(), substream(0, "bad"))
