"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The learning criteria (07-09) share one set of trained runs: five seeds
of the standard toy recipe (augmented, T'=8), five without augmentation
and five at T'=1, all trained on 400 synthetic pairs for 14 epochs and
scored on held-out splits of 240 videos.  Each run is one call of
``evalkit.ablation_run``, the runner behind ``avlab ablate``.
"""

import time

import numpy as np
import pytest

from avlab import evalkit
from avlab.detector import Detector, DetectorConfig, attention_map, distance_map
from avlab.evalkit import auc
from avlab.pseudofake import (
    ChunkParams,
    ManipulationSpec,
    apply_manipulation,
    index_map,
    sample_chunk,
)
from avlab.rng import substream
from avlab.tinynet import gradcheck
from avlab.tinynet.layers import Conv1d
from avlab.tinynet.tensor import Tensor
from avlab.trainloop import RunConfig, train
from tests.test_evalkit import brute_force_auc
from tests.test_pseudofake import oracle_index_map

SEEDS_TREND = (0, 1, 2, 3, 4)
TREND_EPOCHS = 14
TREND_TRAIN_N = 400
TREND_EVAL_N = 240


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {criterion:02d} {status} - {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description} {suffix}"


# --------------------------------------------------------------------- 1-3


def test_c01_index_map_oracle_exhaustive():
    t0 = time.time()
    mismatches = 0
    checked = 0
    for T in range(2, 65):
        for l in range(2, T + 1):
            i_set = {0, (T - l) // 2, T - l}
            for param in range(2, l + 1):
                for kind, direction in (
                    ("repeat", None),
                    ("flip", None),
                    ("translate", "left"),
                    ("translate", "right"),
                ):
                    for i in i_set:
                        spec = ManipulationSpec(kind, i, l, param, direction)
                        if index_map(spec, T).tolist() != oracle_index_map(spec, T):
                            mismatches += 1
                        checked += 1
    elapsed = time.time() - t0
    report(
        1,
        "index_map equals brute-force oracle exhaustively for T <= 64",
        mismatches == 0 and elapsed < 60.0,
        f"{checked} maps, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c02_locality_random_trials():
    rng = substream(202, "locality")
    cp = ChunkParams()
    violations = 0
    for trial in range(10_000):
        T = int(rng.integers(4, 48))
        seq = rng.standard_normal(T)
        i, l = sample_chunk(T, cp, rng)
        kind = ("replace", "repeat", "flip", "translate")[int(rng.integers(0, 4))]
        if kind == "replace":
            donor = rng.standard_normal(T)
            spec = ManipulationSpec("replace", i, l)
            out = apply_manipulation(seq, spec, donor)
            inside_ok = np.array_equal(out[i : i + l], donor[i : i + l])
        else:
            param = int(rng.integers(2, l + 1))
            direction = ("left", "right")[int(rng.integers(0, 2))] if kind == "translate" else None
            spec = ManipulationSpec(kind, i, l, param, direction)
            g = index_map(spec, T)
            out = apply_manipulation(seq, spec)
            inside_ok = (
                np.array_equal(out[i : i + l], seq[g[i : i + l]])
                and g[i : i + l].min() >= i
                and g[i : i + l].max() <= i + l - 1
            )
        outside_ok = np.array_equal(out[:i], seq[:i]) and np.array_equal(out[i + l :], seq[i + l :])
        if not (inside_ok and outside_ok):
            violations += 1
    report(2, "locality holds over 10^4 random (sequence, spec) trials", violations == 0,
           f"{violations} violations")


def test_c03_reference_figure_concordance():
    # 1-based i=3, l=4 with p=f=v=2 -> 0-based chunk positions 2..5
    expected = {
        ("repeat", None): [2, 2, 4, 4],        # A3 A3 A5 A5
        ("flip", None): [3, 2, 5, 4],          # A4 A3 A6 A5
        ("translate", "left"): [4, 5, 5, 5],   # A5 A6 A6 A6
        ("translate", "right"): [2, 2, 2, 3],  # A3 A3 A3 A4
    }
    ok = True
    for (kind, direction), chunk in expected.items():
        g = index_map(ManipulationSpec(kind, 2, 4, 2, direction), 8)
        ok = ok and g[2:6].tolist() == chunk
    report(3, "manipulation chunks match the worked reference example (i=3, l=4, param=2)", ok)


# --------------------------------------------------------------------- 4-6


def test_c04_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_suite(seed=0, instances=20, include_model=True)
    elapsed = time.time() - t0
    ops_ok = all(
        err < gradcheck.OPS_TOLERANCE for name, err in results.items() if name != "detector_full"
    )
    model_ok = results["detector_full"] < gradcheck.MODEL_TOLERANCE
    worst_op = max((e for n, e in results.items() if n != "detector_full"), default=0.0)
    report(
        4,
        "all ops < 1e-4 and full tiny detector < 1e-3 vs finite differences (20 instances)",
        ops_ok and model_ok and elapsed < 120.0,
        f"worst op {worst_op:.2e}, model {results['detector_full']:.2e}, {elapsed:.1f}s",
    )


def test_c05_architecture_invariants():
    rng = substream(205, "arch")
    proj_v = Conv1d(16, 4, 1, rng=rng)
    proj_a = Conv1d(16, 4, 1, rng=rng)
    sum_err = 0.0
    for _ in range(1000):
        fv = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
        fa = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
        a = attention_map(fv, fa, proj_v, proj_a, 16)
        sum_err = max(sum_err, float(np.abs(a.data.sum(axis=1) - 1.0).max()))
    sums_ok = sum_err <= 1e-6

    f = Tensor(rng.standard_normal((2, 8, 16)).astype(np.float32))
    zero_ok = (distance_map(f, f).data == 0).all()
    g = Tensor(f.data + 1e-3 * np.eye(8, 16, dtype=np.float32)[None])
    nonzero_ok = (distance_map(f, g).data > 0).any()

    t1 = Detector(DetectorConfig(t_prime=1), seed=0)
    v = rng.uniform(0, 1, (2, 16, 3, 32, 32)).astype(np.float32)
    au = rng.uniform(-1, 1, (2, 1600)).astype(np.float32)
    y, m, a = t1.forward(v, au)
    t1_ok = m.data.shape == (2, 1) and np.isfinite(y.data).all()

    report(
        5,
        "attention sums to 1 +- 1e-6 (10^3 inputs); distance zero iff equal; T'=1 runs",
        sums_ok and zero_ok and nonzero_ok and t1_ok,
        f"max |sum-1| {sum_err:.1e}",
    )


def test_c06_auc_oracle():
    rng = substream(206, "auc")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 60))
        scores = np.round(rng.uniform(0, 1, n), 1)  # ties guaranteed
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = list(zip(scores.tolist(), labels.tolist()))
        worst = max(worst, abs(auc(scored) - brute_force_auc(scored)))
    report(6, "rank-based AUC equals brute-force pairwise computation (100 sets incl. ties)",
           worst <= 1e-9, f"max abs diff {worst:.1e}")


# --------------------------------------------------------------------- 7-9


# one arm is one axis value of the ablation runner, trained and scored for one seed
TREND_ARMS = {"aug_t8": ("t_prime", 8), "noaug_t8": ("manipulation_kind", "none"), "aug_t1": ("t_prime", 1)}


@pytest.fixture(scope="module")
def trend_runs():
    base = RunConfig(epochs=TREND_EPOCHS)
    base.train_data.n = TREND_TRAIN_N
    base.eval_data.n = TREND_EVAL_N
    runs = {arm: [] for arm in TREND_ARMS}
    for seed in SEEDS_TREND:
        for arm, (axis, value) in TREND_ARMS.items():
            t0 = time.time()
            row = evalkit.ablation_run(base, axis, values=[value], seeds=(seed,)).rows[0]
            runs[arm].append({
                "seconds": time.time() - t0,
                "in_distribution": row["per_seed_in_distribution"][0],
                "fine_grained": row["per_seed_fine_grained"][0],
            })
    return runs


def test_c07_end_to_end_learning(trend_runs):
    first3 = trend_runs["aug_t8"][:3]
    aucs = [r["in_distribution"] for r in first3]
    slowest = max(r["seconds"] for r in first3)
    mean_auc = float(np.mean(aucs))
    report(
        7,
        "toy run (400 pairs, <= 20 epochs, 1 core, < 10 min/seed) reaches AUC >= 0.90 "
        "on held-out globally-desynced fakes (mean of 3 seeds)",
        mean_auc >= 0.90 and slowest < 600.0,
        f"mean AUC {mean_auc:.3f}, per-seed {[f'{a:.3f}' for a in aucs]}, slowest {slowest:.0f}s",
    )


def test_c08_augmentation_trend(trend_runs):
    aug = float(np.mean([r["fine_grained"] for r in trend_runs["aug_t8"]]))
    noaug = float(np.mean([r["fine_grained"] for r in trend_runs["noaug_t8"]]))
    report(
        8,
        "replace-augmentation beats no-augmentation by >= 0.05 AUC on the fine-grained split "
        "(mean of 5 seeds)",
        aug - noaug >= 0.05,
        f"aug {aug:.3f} vs no-aug {noaug:.3f}, gap {aug - noaug:+.3f}",
    )


def test_c09_granularity_trend(trend_runs):
    t8 = float(np.mean([r["fine_grained"] for r in trend_runs["aug_t8"]]))
    t1 = float(np.mean([r["fine_grained"] for r in trend_runs["aug_t1"]]))
    report(
        9,
        "T'=8 beats T'=1 by >= 0.05 AUC on the fine-grained split (mean of 5 seeds)",
        t8 - t1 >= 0.05,
        f"T'=8 {t8:.3f} vs T'=1 {t1:.3f}, gap {t8 - t1:+.3f}",
    )


# ---------------------------------------------------------------------- 10


def test_c10_bitwise_determinism(tmp_path):
    from tests.test_trainloop import tiny_run_config, tiny_train_set

    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        cfg = tiny_run_config(epochs=3)
        cfg.checkpoint_dir = str(run_dir)
        train(cfg, tiny_train_set(cfg))
        outputs.append(
            (
                (run_dir / "metrics.jsonl").read_bytes(),
                (run_dir / "checkpoint.avtc").read_bytes(),
            )
        )
    same_metrics = outputs[0][0] == outputs[1][0]
    same_ckpt = outputs[0][1] == outputs[1][1]
    report(
        10,
        "re-running a resolved config + seed reproduces metrics log and checkpoint bit-identically",
        same_metrics and same_ckpt,
        f"metrics {len(outputs[0][0])}B, checkpoint {len(outputs[0][1])}B",
    )
