"""CLI contract: subcommands, exit codes, overrides, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from avlab import avdata, container
from avlab.cli import main
from avlab.detector import Detector, DetectorConfig, save_checkpoint
from avlab.evalkit import SPLITS, make_split
from avlab.pseudofake import apply_manipulation
from avlab.rng import derive_seed
from avlab.trainloop import RunConfig

TINY_CONFIG = {
    "epochs": 2,
    "batch_size": 4,
    "synth": {"t_v": 8, "c_v": 1, "h": 12, "w": 12, "t_a": 320},
    "detector": {
        "t_prime": 4,
        "c_prime": 8,
        "visual_in_channels": 1,
        "visual_blocks": [
            {"type": "conv", "out": 4, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
            {"type": "res", "out": 8, "kernel": [3, 3, 3], "stride": [2, 2, 2]},
        ],
        "audio_blocks": [{"out": 4, "kernel": 9, "stride": 4}, {"out": 8, "kernel": 5, "stride": 4}],
        "classifier_hidden": 8,
    },
    "train_data": {"n": 16},
    "eval_data": {"n": 8, "fine_chunk": {"r_min": 0.3, "r_max": 0.8, "hard_min": 2}},
    "seed": 11,
}


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def dir_digest(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_deterministic_directories(tiny_config_file, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(out1)]) == 0
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(out2)]) == 0
    d1, d2 = dir_digest(out1), dir_digest(out2)
    assert d1.keys() == d2.keys()
    assert all(d1[k] == d2[k] for k in d1)
    assert (out1 / "manifest.json").exists()
    assert (out1 / "resolved_config.json").exists()


def _pair_record(pair):
    return (
        pair.visual.data.tobytes(),
        pair.audio.data.tobytes(),
        pair.label,
        pair.meta.to_strings(),
    )


@pytest.mark.parametrize("eval_n", [8, 7])
@pytest.mark.parametrize("fake_mode", ["global_desync", "local_desync"])
def test_synth_matches_in_memory_splits(tiny_config_file, tmp_path, fake_mode, eval_n):
    out = tmp_path / "data"
    rc = main([
        "synth", "--config", str(tiny_config_file), "--out", str(out),
        "--set", f"train_data.fake_mode={fake_mode}", "--set", f"eval_data.n={eval_n}",
    ])
    assert rc == 0
    cfg = RunConfig.from_dict(json.loads((out / "resolved_config.json").read_text()))
    # the data `avlab train` and `avlab eval` generate when given no --data
    expected = {
        "train": avdata.make_pairs(
            cfg.synth, cfg.train_data.n, cfg.train_data.fake_fraction, cfg.train_data.fake_mode,
            seed=derive_seed(cfg.seed, "dataset", "train"), id_prefix="train",
        )
    }
    for split in SPLITS:
        expected[f"eval_{split}"] = make_split(
            cfg.synth, split, eval_n, seed=derive_seed(cfg.seed, "dataset", f"eval_{split}"),
            fine_chunk=cfg.eval_data.fine_chunk,
        )
    for name, pairs in expected.items():
        stored = [avdata.load_pair(f) for f in sorted((out / name).glob("pair-*.avtc"))]
        assert [_pair_record(p) for p in stored] == [_pair_record(p) for p in pairs], name


def test_train_eval_round_trip(tiny_config_file, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file), "--out", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.avtc").exists()
    metrics = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert len(metrics) == TINY_CONFIG["epochs"]
    assert set(metrics[0]) == {"epoch", "loss", "n_pseudofake", "n_real"}

    eval_dir = tmp_path / "eval"
    rc = main([
        "eval", "--config", str(tiny_config_file),
        "--checkpoint", str(run_dir / "checkpoint.avtc"),
        "--out", str(eval_dir),
    ])
    assert rc == 0
    for split in ("in_distribution", "fine_grained"):
        report = json.loads((eval_dir / f"report_{split}.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert report["n_videos"] == TINY_CONFIG["eval_data"]["n"]


def test_train_replay_from_snapshot_bit_identical(tiny_config_file, tmp_path):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(tiny_config_file), "--out", str(run1)]) == 0
    snapshot = run1 / "resolved_config.json"
    assert main(["train", "--config", str(snapshot), "--out", str(run2)]) == 0
    assert (run1 / "metrics.jsonl").read_bytes() == (run2 / "metrics.jsonl").read_bytes()
    assert (run1 / "checkpoint.avtc").read_bytes() == (run2 / "checkpoint.avtc").read_bytes()


def test_train_on_synth_dataset_dir(tiny_config_file, tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)]) == 0
    run_dir = tmp_path / "run"
    rc = main([
        "train", "--config", str(tiny_config_file), "--data", str(data_dir), "--out", str(run_dir),
    ])
    assert rc == 0


def test_augment_with_sampled_specs(tiny_config_file, tmp_path):
    data_dir = tmp_path / "data"
    main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)])
    out = tmp_path / "aug"
    rc = main([
        "augment", "--config", str(tiny_config_file),
        "--data", str(data_dir / "train"), "--out", str(out),
        "--set", "pseudo_fake_prob=1.0",
    ])
    assert rc == 0
    specs = json.loads((out / "specs.json").read_text())
    assert len(specs) == TINY_CONFIG["train_data"]["n"]
    originally_real = [s for s in specs if s["label"] == "fake" and (s["visual_manipulations"] or s["audio_manipulations"])]
    assert originally_real  # prob=1 converted every real pair


@pytest.mark.parametrize(
    "spec",
    [{"kind": "flip", "i": 1, "l": 4, "param": 2}, {"kind": "replace", "i": 2, "l": 3}],
    ids=["flip", "replace"],
)
def test_augment_with_fixed_spec(tiny_config_file, tmp_path, spec):
    data_dir = tmp_path / "data"
    main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)])
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "aug"
    rc = main([
        "augment", "--config", str(tiny_config_file),
        "--data", str(data_dir / "train"), "--out", str(out),
        "--spec", str(spec_file), "--modality", "visual",
    ])
    assert rc == 0
    sources = [avdata.load_pair(p) for p in sorted((data_dir / "train").glob("pair-*.avtc"))]
    outputs = [avdata.load_pair(p) for p in sorted(out.glob("pair-*.avtc"))]
    assert len(outputs) == len(sources)
    by_id = {p.meta.source_id: p for p in sources}
    for src, got in zip(sources, outputs):
        if src.label != "real":
            assert _pair_record(got) == _pair_record(src)
            continue
        [recorded] = got.meta.visual_manipulations
        assert not got.meta.audio_manipulations
        assert (recorded.kind, recorded.i, recorded.l) == (spec["kind"], spec["i"], spec["l"])
        donor = by_id[recorded.donor_id].visual if recorded.kind == "replace" else None
        expected = apply_manipulation(src.visual, recorded, donor)
        assert got.visual.data.tobytes() == expected.data.tobytes()
        assert got.audio.data.tobytes() == src.audio.data.tobytes()
        assert (got.label, got.meta.origin, got.meta.source_id) == ("fake", "pseudo_fake", src.meta.source_id)


def _break_header(path):
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    del header["tensors"][0]["dtype"]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + header_len :])


def _break_visual_range(path):
    pair = avdata.load_pair(path)
    pair.visual.data[0, 0, 0, 0] = 7.0
    avdata.save_pair(path, pair)


def _dropping(key):
    # rewrite a stored pair without one of its tensors or meta entries
    def corrupt(path):
        tensors, meta = container.read_container(path)
        tensors.pop(key, None)
        meta.pop(key, None)
        container.write_container(path, tensors, meta)

    return corrupt


def _break_manipulation_record(path):
    tensors, meta = container.read_container(path)
    meta["visual_manipulations"] = json.dumps([{"kind": "flip", "l": 4, "param": 2}])
    container.write_container(path, tensors, meta)


def _setting(key, value):
    # rewrite a stored pair with one meta entry replaced
    def corrupt(path):
        tensors, meta = container.read_container(path)
        meta[key] = value
        container.write_container(path, tensors, meta)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_break_header, _break_visual_range, _dropping("label"), _dropping("visual"), _dropping("audio"),
     _break_manipulation_record, _setting("visual_manipulations", "5"), _setting("audio_manipulations", "null")],
    ids=["header", "visual_range", "no_label", "no_visual", "no_audio", "manipulation_record",
         "visual_record_not_list", "audio_record_not_list"],
)
def test_augment_rejects_bad_stored_pair(tiny_config_file, tmp_path, corrupt):
    data_dir = tmp_path / "data"
    main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)])
    corrupt(data_dir / "train" / "pair-00003.avtc")
    out = tmp_path / "aug"
    rc = main([
        "augment", "--config", str(tiny_config_file), "--data", str(data_dir / "train"), "--out", str(out),
    ])
    assert rc == 1
    assert not list(out.glob("pair-*.avtc"))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "flip", "l": 4, "param": 2},
        {"i": 1, "l": 4, "param": 2},
        {"kind": "flip", "i": 1, "param": 2},
        {"kind": "flip", "i": "1", "l": 4, "param": 2},
        {"kind": "flip", "i": 1, "l": 4.5, "param": 2},
        {"kind": "flip", "i": 1, "l": 4, "param": True},
        [{"kind": "flip", "i": 1, "l": 4, "param": 2}],
    ],
    ids=["no_i", "no_kind", "no_l", "str_i", "float_l", "bool_param", "not_object"],
)
def test_augment_rejects_bad_spec_file(tiny_config_file, tmp_path, spec, capsys):
    data_dir = tmp_path / "data"
    main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)])
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "aug"
    rc = main([
        "augment", "--config", str(tiny_config_file),
        "--data", str(data_dir / "train"), "--out", str(out), "--spec", str(spec_file),
    ])
    assert rc == 1
    assert "manipulation spec" in capsys.readouterr().err
    assert not list(out.glob("pair-*.avtc"))


@pytest.mark.parametrize(
    "flag, value", [("--seeds", "5"), ("--seeds", '["a"]'), ("--values", "5")],
    ids=["seeds_not_list", "seeds_not_ints", "values_not_list"],
)
def test_ablate_rejects_bad_list_argument(tiny_config_file, tmp_path, flag, value, capsys):
    out = tmp_path / "ablation"
    rc = main([
        "ablate", "--config", str(tiny_config_file), "--axis", "attention", "--out", str(out), flag, value,
    ])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is trained or written


def _wrong_config_hash(tensors, meta):
    meta["config_hash"] = "0" * 16


def _extra_tensor(tensors, meta):
    tensors["visual.9.weight"] = np.zeros((2, 2), np.float32)


def _no_detector_config(tensors, meta):
    del meta["detector_config"]


def _bad_json_config(tensors, meta):
    meta["detector_config"] = meta["detector_config"][:-1]


def _unknown_config_key(tensors, meta):
    meta["detector_config"] = json.dumps({**json.loads(meta["detector_config"]), "bogus": 1})


@pytest.mark.parametrize(
    "corrupt",
    [_wrong_config_hash, _extra_tensor, _no_detector_config, _bad_json_config, _unknown_config_key],
    ids=["config_hash", "extra_tensor", "no_detector_config", "bad_json_config", "unknown_config_key"],
)
def test_eval_rejects_inconsistent_checkpoint(tiny_config_file, tmp_path, corrupt):
    out = tmp_path / "eval"
    assert _eval_corrupted_checkpoint(tiny_config_file, tmp_path, corrupt) == 1
    assert not list(out.glob("report_*"))


def _eval_corrupted_checkpoint(config_file, tmp_path, corrupt) -> int:
    path = tmp_path / "checkpoint.avtc"
    save_checkpoint(path, Detector(DetectorConfig(**TINY_CONFIG["detector"])))
    tensors, meta = container.read_container(path)
    corrupt(tensors, meta)
    container.write_container(path, tensors, meta)
    return main(["eval", "--config", str(config_file), "--checkpoint", str(path), "--out", str(tmp_path / "eval")])


def _wrong_shape_tensor(tensors, meta):
    tensors["fc2.bias"] = np.zeros((2,), np.float32)


def _missing_tensor(tensors, meta):
    del tensors["fc2.bias"]


@pytest.mark.parametrize("corrupt", [_wrong_shape_tensor, _missing_tensor], ids=["wrong_shape", "missing"])
def test_eval_names_file_and_parameter_of_bad_tensor(tiny_config_file, tmp_path, capsys, corrupt):
    assert _eval_corrupted_checkpoint(tiny_config_file, tmp_path, corrupt) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "checkpoint.avtc") in err
    assert "'fc2.bias'" in err


@pytest.mark.parametrize(
    "overrides, config, key",
    [
        (["epochs=1.5"], TINY_CONFIG, "epochs"),
        (['detector.t_prime="8"'], TINY_CONFIG, "detector.t_prime"),
        (['chunk.r_min="0.1"'], TINY_CONFIG, "chunk.r_min"),
        (['seed="x"'], TINY_CONFIG, "seed"),
        (['detector.visual_blocks=[{"out": 8}]'], TINY_CONFIG, "visual_blocks[0].kernel"),
        ([], {**TINY_CONFIG, "eval_data": {"n": 8, "fine_chunk": {"r_mn": 0.3}}}, "eval_data.fine_chunk.r_mn"),
    ],
    ids=["float_epochs", "str_t_prime", "str_r_min", "str_seed", "block_without_kernel", "unknown_nested_key"],
)
def test_train_rejects_malformed_config(tmp_path, capsys, overrides, config, key):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = ["train", "--config", str(config_file), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not (out / "checkpoint.avtc").exists()


def test_gradcheck_exit_code_and_report(capsys):
    assert main(["gradcheck", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "conv3d" in out and "detector_full" in out
    assert "FAIL" not in out


def test_set_override_applied(tiny_config_file, tmp_path):
    out = tmp_path / "o"
    rc = main([
        "synth", "--config", str(tiny_config_file), "--out", str(out),
        "--set", "train_data.n=4", "--set", "eval_data.n=4",
    ])
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train_data"]["n"] == 4
    assert len(list((out / "train").glob("pair-*.avtc"))) == 4


def test_bad_override_path_is_validation_error(tiny_config_file, tmp_path):
    rc = main([
        "synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "x"),
        "--set", "no.such.key=1",
    ])
    assert rc == 1


def test_invalid_config_value_is_validation_error(tiny_config_file, tmp_path):
    rc = main([
        "train", "--config", str(tiny_config_file), "--out", str(tmp_path / "x"),
        "--set", "pseudo_fake_prob=2.0",
    ])
    assert rc == 1


def test_unknown_subcommand_and_flag_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--frobnicate"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_seed_flag_overrides_config(tiny_config_file, tmp_path):
    out = tmp_path / "s"
    rc = main(["synth", "--config", str(tiny_config_file), "--out", str(out), "--seed", "99"])
    assert rc == 0
    assert json.loads((out / "resolved_config.json").read_text())["seed"] == 99
