"""CLI contract: subcommands, exit codes, overrides, reproducibility."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avlab import avdata, cli, container, evalkit, trainloop
from avlab.cli import main
from avlab.detector import Detector, DetectorConfig, save_checkpoint
from avlab.errors import ConfigError, ContainerFormatError, DivergenceError, MetricError, ShapeError
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
    "eval_data": {"n": 8, "fine_chunk": {"r_min": 0.3, "r_max": 0.8}},
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


def test_augment_fixed_replace_spec_takes_the_next_real_as_donor(tiny_config_file, tmp_path):
    # a fake between two reals: each real's donor is the next real, never the pair itself
    synth = avdata.SynthConfig(**TINY_CONFIG["synth"])
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    sources = [avdata.synth_real_pair(synth, np.random.default_rng(0), source_id="r0"),
               avdata.synth_fake_pair(synth, "global_desync", np.random.default_rng(1), source_id="f1"),
               avdata.synth_real_pair(synth, np.random.default_rng(2), source_id="r2")]
    for i, pair in enumerate(sources):
        avdata.save_pair(data_dir / f"pair-{i:05d}.avtc", pair)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "replace", "i": 2, "l": 3}))
    out = tmp_path / "aug"
    assert main(["augment", "--config", str(tiny_config_file), "--data", str(data_dir), "--out", str(out),
                 "--spec", str(spec_file)]) == 0
    outputs = [avdata.load_pair(p) for p in sorted(out.glob("pair-*.avtc"))]
    assert [p.label for p in outputs] == ["fake", "fake", "fake"]
    assert [[s.donor_id for s in p.meta.visual_manipulations] for p in outputs] == [["r2"], [], ["r0"]]
    for got, src, donor in ((outputs[0], sources[0], sources[2]), (outputs[2], sources[2], sources[0])):
        expected = apply_manipulation(src.visual, got.meta.visual_manipulations[0], donor.visual)
        assert got.visual.data.tobytes() == expected.data.tobytes() != src.visual.data.tobytes()


def test_truncated_pair_under_data_names_its_file(tiny_config_file, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)]) == 0
    bad = data_dir / "train" / "pair-00003.avtc"
    bad.write_bytes(bad.read_bytes()[:300])
    out = tmp_path / "aug"
    assert main(["augment", "--config", str(tiny_config_file), "--data", str(data_dir / "train"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: truncated payload for tensor 'visual'")
    assert err.endswith(" (at byte offset 273)\n")
    assert not out.exists()


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
    "flag, value",
    [("--seeds", "5"), ("--seeds", '["a"]'), ("--values", "5"), ("--values", "[]"), ("--values", "[true, true]")],
    ids=["seeds_not_list", "seeds_not_ints", "values_not_list", "values_empty", "values_repeated"],
)
def test_ablate_rejects_bad_list_argument(tiny_config_file, tmp_path, flag, value, capsys):
    out = tmp_path / "ablation"
    rc = main([
        "ablate", "--config", str(tiny_config_file), "--axis", "attention", "--out", str(out), flag, value,
    ])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is trained or written


@pytest.mark.parametrize(
    "axis, values, cause",
    [
        ("attention", '[true, "false"]', "config key detector.attention must be bool, got str 'false'"),
        ("attention", "[true, 0]", "config key detector.attention must be bool, got int 0"),
        ("attention", "[true, 1.5]", "config key detector.attention must be bool, got float 1.5"),
        ("t_prime", '[2, "x"]', "config key detector.t_prime must be int, got str 'x'"),
        ("t_prime", "[2, 1.5]", "config key detector.t_prime must be int, got float 1.5"),
        ("manipulation_kind", '["none", "bogus"]', "kind_policy must map names among"),
    ],
    ids=["attention_str", "attention_int", "attention_float", "t_prime_str", "t_prime_float", "unknown_kind"],
)
def test_ablate_rejects_bad_axis_value(tiny_config_file, tmp_path, monkeypatch, capsys, axis, values, cause):
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    out = tmp_path / "ablation"
    rc = main([
        "ablate", "--config", str(tiny_config_file), "--axis", axis, "--values", values, "--seeds", "[0]",
        "--out", str(out),
    ])
    assert rc == 1
    assert cause in capsys.readouterr().err
    assert trained == []  # every value is checked before the first (valid) one trains
    assert not list(out.glob("ablation_*"))


def test_synth_rejects_unknown_kind_in_policy(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["synth", "--config", str(tiny_config_file), "--set", 'kind_policy={"bogus": 1.0}', "--out", str(out)]
    assert main(argv) == 1
    assert "kind_policy must map names among" in capsys.readouterr().err
    assert not list(out.rglob("pair-*.avtc"))


def test_train_with_kind_weights_summing_near_one(tiny_config_file, tmp_path):
    policy = 'kind_policy={"replace": 0.5, "flip": 0.5000005}'
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file), "--set", policy, "--out", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.avtc").exists()


def test_ablate_rejects_a_value_the_clips_do_not_fit(tiny_config_file, tmp_path, monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(evalkit, "train", lambda *args: trained.append(args))
    out = tmp_path / "ablation"
    rc = main([
        "ablate", "--config", str(tiny_config_file), "--axis", "t_prime", "--values", "[2, 16]", "--seeds", "[0]",
        "--out", str(out),
    ])
    assert rc == 1
    assert "detector does not fit t_prime value 16 on clips of 8 frames" in capsys.readouterr().err
    assert trained == []
    assert not list(out.glob("ablation_*"))


# "{tmp}" stands for tmp_path, which holds the config and spec.json but no pairs
@pytest.mark.parametrize(
    "argv, code, cause",
    [
        (["ablate", "--axis", "t_prime", "--values", "[2, 16]", "--seeds", "[0]"], 1,
         "detector does not fit t_prime value 16 on clips of 8 frames"),
        (["train", "--set", "detector.t_prime=64"], 1, "detector does not fit train pair 'train-00000'"),
        (["eval", "--checkpoint", "{tmp}/none.avtc"], 1, "none.avtc"),
        (["eval", "--checkpoint", "{tmp}"], 1, "error: --checkpoint {tmp}: Is a directory"),
        (["augment", "--data", "{tmp}"], 1, "no pair-*.avtc files under"),
        (["augment", "--data", "{tmp}/data/train", "--spec", "{tmp}/spec.json"], 1,
         "chunk [6, 11) exceeds length 8"),
        (["synth", "--set", "synth.t_v=2"], 1, "local_desync fakes of 2 frames: no legal chunk for T=2"),
        (["ablate", "--axis", "attention", "--seeds", "[0]", "--set", "eval_data.fine_chunk.r_min=0.1",
          "--set", "eval_data.fine_chunk.r_max=0.2"], 1, "local_desync fakes of 8 frames: no legal chunk for T=8"),
    ],
    ids=["ablate", "train", "eval_missing_checkpoint", "eval_checkpoint_is_dir", "augment_no_pairs",
         "augment_spec_past_clip_end", "synth_no_local_chunk", "ablate_no_local_chunk"],
)
def test_fit_failure_writes_nothing_under_out(tiny_config_file, tmp_path, capsys, argv, code, cause):
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "replace", "i": 6, "l": 5}))
    if "{tmp}/data/train" in argv:
        assert main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "run"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    before = sorted(os.listdir(tmp_path))
    assert main([*argv, "--config", str(tiny_config_file), "--out", str(out)]) == code
    assert cause.replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before  # a failed run leaves no --out and no staging directory


def test_failed_run_removes_only_the_parents_of_out_it_made(tiny_config_file, tmp_path):
    (tmp_path / "kept").mkdir()  # existed before the run: stays, empty
    before = sorted(os.listdir(tmp_path))
    for out in (tmp_path / "a" / "b" / "c", tmp_path / "kept" / "b" / "c"):
        argv = ["synth", "--config", str(tiny_config_file), "--set", "synth.t_v=2", "--out", str(out)]
        assert main(argv) == 1  # fails inside cmd_synth, after the parents and the staging directory are made
    assert sorted(os.listdir(tmp_path)) == before
    assert not os.listdir(tmp_path / "kept")
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "a" / "b" / "c")]) == 0
    assert (tmp_path / "a" / "b" / "c" / "manifest.json").exists()  # a good run still makes them


def test_every_bad_user_input_exits_one_naming_its_flag_and_path(tiny_config_file, tmp_path, capsys):
    # each flag that names a file or a JSON value, against each kind of bad input that applies to it
    checkpoint = tmp_path / "checkpoint.avtc"
    save_checkpoint(checkpoint, Detector(DetectorConfig(**TINY_CONFIG["detector"])))
    files = {
        "empty": b"",
        "random_bytes": np.random.default_rng(0).bytes(64),
        "not_utf8": b'{"seed": "\xff"}',
        "wrong_json_type": b"[1, 2]",
        "truncated_container": checkpoint.read_bytes()[:300],
    }
    bad = tmp_path / "bad"
    (bad / "directory").mkdir(parents=True)
    for kind, raw in files.items():
        (bad / kind).write_bytes(raw)
    data = tmp_path / "data"  # two stored reals, so that augment gets as far as --spec
    data.mkdir()
    synth = avdata.SynthConfig(**TINY_CONFIG["synth"])
    for i in range(2):
        avdata.save_pair(data / f"pair-{i:05d}.avtc", avdata.synth_real_pair(synth, np.random.default_rng(i)))
    pair_is_dir = tmp_path / "pair_is_dir" / "pair-00000.avtc"
    pair_is_dir.mkdir(parents=True)
    config = ["--config", str(tiny_config_file)]
    out = tmp_path / "run"

    cases = []  # (flag, kind, argv, --out, the path the message names, whether the flag is named)
    for kind in ("missing", "directory", *files):
        path = str(bad / kind)
        # a file read but not a container fails in the checkpoint loader, whose message names the file alone
        loader_error = kind in files
        cases += [
            ("--config", kind, ["synth", "--config", path], out, path, True),
            ("--spec", kind, ["augment", *config, "--data", str(data), "--spec", path], out, path, True),
            ("--checkpoint", kind, ["eval", *config, "--checkpoint", path], out, path, not loader_error),
        ]
    cases += [
        ("--values", "not_json", ["ablate", *config, "--axis", "attention", "--values", "[tru"], out, "[tru", True),
        ("--seeds", "not_json", ["ablate", *config, "--axis", "attention", "--seeds", "[0,"], out, "[0,", True),
        ("--data", "pair_is_dir", ["augment", *config, "--data", str(pair_is_dir.parent)], out, str(pair_is_dir),
         True),
        ("--out", "under_a_file", ["synth", *config], bad / "empty" / "run", str(bad / "empty" / "run"), True),
    ]
    before = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    capsys.readouterr()
    for flag, kind, argv, out_path, path, names_flag in cases:
        assert main([*argv, "--out", str(out_path)]) == 1, (flag, kind)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path}: " if names_flag else f"error: {path}: "), (flag, kind, err)
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before, (flag, kind)


def _failing(fn, error, k):
    """``fn``, raising ``error`` once its call number ``k`` (from 0) has returned."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        if len(calls) > k:
            raise error
        return calls[-1]

    return wrapped


# a step after the snapshot fails: (command, its arguments, module and function, the call after which it raises, error)
STAGED_FAILURES = [
    ("synth", [], avdata, "save_pair", 5, OSError("no space left on device")),
    ("augment", ["--data", "{tmp}/data/train"], avdata, "save_pair", 3, OSError("no space left on device")),
    ("train", [], trainloop, "train", 0, DivergenceError("non-finite loss")),
    ("eval", ["--checkpoint", "{tmp}/checkpoint.avtc"], evalkit, "evaluate", 1, MetricError("single-class AUC")),
    ("ablate", ["--axis", "attention", "--seeds", "[0]"], evalkit, "ablation_run", 0, DivergenceError("diverged")),
]


@pytest.mark.parametrize("command, argv, module, name, k, error", STAGED_FAILURES,
                         ids=[case[0] for case in STAGED_FAILURES])
def test_failure_after_the_snapshot_leaves_no_out(tiny_config_file, tmp_path, monkeypatch, capsys,
                                                  command, argv, module, name, k, error):
    if command == "augment":
        assert main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "data")]) == 0
    save_checkpoint(tmp_path / "checkpoint.avtc", Detector(DetectorConfig(**TINY_CONFIG["detector"])))
    monkeypatch.setattr(module, name, _failing(getattr(module, name), error, k))
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "run"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([command, *argv, "--config", str(tiny_config_file), "--out", str(out)]) == 2
    assert f"runtime failure: {type(error).__name__}: {error}" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == before  # the staging directory is gone too


def test_interrupt_propagates_and_leaves_nothing(tiny_config_file, tmp_path, monkeypatch):
    staged = []

    def interrupted(args, cfg, stage):
        staged.append(sorted(os.listdir(stage)))
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_train", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(tiny_config_file), "--out", str(tmp_path / "run")])
    assert staged == [["resolved_config.json"]]
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_non_empty_out_is_refused_before_any_work(tiny_config_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == 0
    good = dir_digest(out)
    capsys.readouterr()
    monkeypatch.setattr(cli, "load_config", lambda args: pytest.fail("the config was loaded"))
    assert main(["train", "--config", str(tiny_config_file), "--set", "lr=1e30", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out} exists and is not an empty directory\n"
    assert dir_digest(out) == good
    assert sorted(os.listdir(tmp_path)) == ["config.json", "run"]


def test_empty_out_directory_is_accepted(tiny_config_file, tmp_path):
    out = tmp_path / "data"
    out.mkdir()
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists() and (out / "resolved_config.json").exists()
    assert sorted(os.listdir(tmp_path)) == ["config.json", "data"]


def test_out_gets_the_mode_of_a_plain_mkdir(tiny_config_file, tmp_path):
    umask = os.umask(0o022)  # a known umask under which mkdir's mode differs from a private 0700
    try:
        (tmp_path / "plain").mkdir()
        assert main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "data")]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "data").stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)


def test_eval_rejects_windows_the_checkpoint_does_not_fit(tiny_config_file, tmp_path, capsys):
    checkpoint = tmp_path / "checkpoint.avtc"
    save_checkpoint(checkpoint, Detector(DetectorConfig(**TINY_CONFIG["detector"]), seed=0))
    out = tmp_path / "eval"
    rc = main([
        "eval", "--config", str(tiny_config_file), "--checkpoint", str(checkpoint),
        "--set", "synth.t_v=4", "--set", "synth.t_a=160", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector does not fit eval windows of 4 frames: ")
    assert "adaptive pool cannot upsample: 4 bins for length 2" in err
    assert not out.exists()


def test_eval_on_a_split_without_fakes_exits_one_before_scoring(tiny_config_file, tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(data)]) == 0
    for path in (data / "eval_in_distribution").glob("pair-*.avtc"):
        if avdata.load_pair(path).label == "fake":
            path.unlink()
    checkpoint = tmp_path / "checkpoint.avtc"
    save_checkpoint(checkpoint, Detector(DetectorConfig(**TINY_CONFIG["detector"])))
    scored = []
    monkeypatch.setattr(Detector, "score_batch", lambda self, visuals, audios: scored.append(len(visuals)))
    out = tmp_path / "eval"
    rc = main(["eval", "--config", str(tiny_config_file), "--checkpoint", str(checkpoint), "--data", str(data),
               "--out", str(out)])
    assert rc == 1
    assert "eval set needs real and fake videos, got 4 real, 0 fake" in capsys.readouterr().err
    assert scored == [] and not out.exists()


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


@pytest.mark.parametrize("command", ["train", "augment"])
def test_data_dir_with_mixed_shapes_names_the_file(tiny_config_file, tmp_path, capsys, command):
    data_dir = tmp_path / "data"
    main(["synth", "--config", str(tiny_config_file), "--out", str(data_dir)])
    synth = avdata.SynthConfig(**{**TINY_CONFIG["synth"], "h": 16, "w": 16})
    avdata.save_pair(data_dir / "train" / "pair-00003.avtc", avdata.synth_real_pair(synth, np.random.default_rng(0)))
    out = tmp_path / "run"
    data = data_dir if command == "train" else data_dir / "train"
    assert main([command, "--config", str(tiny_config_file), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "pair-00003.avtc: visual and audio shapes ((8, 1, 16, 16), (320,))" in err
    assert "differ from pair-00000.avtc's ((8, 1, 12, 12), (320,))" in err
    assert not (out / "checkpoint.avtc").exists() and not list(out.glob("pair-*.avtc"))


@pytest.mark.parametrize(
    "overrides, config, key",
    [
        (["epochs=1.5"], TINY_CONFIG, "epochs"),
        (['detector.t_prime="8"'], TINY_CONFIG, "detector.t_prime"),
        (['chunk.r_min="0.1"'], TINY_CONFIG, "chunk.r_min"),
        (['seed="x"'], TINY_CONFIG, "seed"),
        (['detector.visual_blocks=[{"out": 8}]'], TINY_CONFIG, "visual_blocks[0].kernel"),
        ([], {**TINY_CONFIG, "eval_data": {"n": 8, "fine_chunk": {"r_mn": 0.3}}}, "eval_data.fine_chunk.r_mn"),
        (['kind_policy={"replace": "x"}'], TINY_CONFIG, "kind_policy must map names among"),
        (['combo_weights={"audio": "x"}'], TINY_CONFIG, "combo_weights must map names among"),
        (["lr=NaN"], TINY_CONFIG, "key lr must be a finite float, got nan"),
        (["weight_decay=Infinity"], TINY_CONFIG, "key weight_decay must be a finite float, got inf"),
        (["synth.noise_std=NaN"], TINY_CONFIG, "key synth.noise_std must be a finite float"),
        (["synth.envelope_bandwidth=Infinity"], TINY_CONFIG, "key synth.envelope_bandwidth must be a finite float"),
    ],
    ids=[
        "float_epochs", "str_t_prime", "str_r_min", "str_seed", "block_without_kernel", "unknown_nested_key",
        "str_kind_weight", "str_combo_weight", "nan_lr", "inf_weight_decay", "nan_noise_std", "inf_bandwidth",
    ],
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


@pytest.mark.parametrize(
    "override, cause",
    [
        ("detector.t_prime=8", "adaptive pool cannot upsample"),
        ("synth.c_v=3", "visual input must be (B, T, 1, H, W)"),
    ],
    ids=["t_prime_above_feature_length", "channels_mismatch"],
)
def test_train_rejects_detector_that_does_not_fit_the_clips(tiny_config_file, tmp_path, capsys, override, cause):
    out = tmp_path / "run"
    argv = ["train", "--config", str(tiny_config_file), "--set", override, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "train-00000" in err and cause in err
    assert not (out / "checkpoint.avtc").exists()


def test_gradcheck_exit_code_and_report(capsys):
    assert main(["gradcheck", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "conv3d" in out and "detector_full" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_gradcheck_rejects_fewer_than_one_instance(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == 1
    assert "instances >= 1" in capsys.readouterr().err


# an even time kernel pads the residual branch to 6 frames; the stride-2 shortcut keeps 4
EVEN_KERNEL_RES_BLOCKS = [
    {"type": "conv", "out": 4, "kernel": [3, 3, 3], "stride": [1, 2, 2]},
    {"type": "res", "out": 8, "kernel": [2, 3, 3], "stride": [2, 2, 2]},
]


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_residual_branch_unlike_its_shortcut_exits_one(tiny_config_file, tmp_path, capsys, command):
    argv = [command, "--config", str(tiny_config_file), "--out", str(tmp_path / "run"),
            "--set", f"detector.visual_blocks={json.dumps(EVEN_KERNEL_RES_BLOCKS)}"]
    if command == "eval":
        path = tmp_path / "checkpoint.avtc"
        save_checkpoint(path, Detector(DetectorConfig(**{**TINY_CONFIG["detector"],
                                                         "visual_blocks": EVEN_KERNEL_RES_BLOCKS})))
        argv += ["--checkpoint", str(path)]
    elif command == "ablate":
        argv += ["--axis", "attention", "--seeds", "[0]"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "detector does not fit" in err
    assert ", 8, 6, 3, 3) differs from its shortcut's (" in err and ", 8, 4, 3, 3)" in err  # batch 1 or 8
    assert not list((tmp_path / "run").glob("*.avtc")) and not list((tmp_path / "run").glob("report_*"))


# a negative seed is a config error (exit 1), not numpy's SeedSequence ValueError (exit 2)
@pytest.mark.parametrize(
    "argv, message",
    [
        (["gradcheck", "--seed", "-1"], "gradcheck needs seed >= 0, got -1"),
        (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["synth", "--set", "synth.seed=-1"], "unknown key synth.seed"),  # no such key: pairs take the run's seed
        (["train", "--set", "seed=-2"], "seed must be >= 0, got -2"),
        (["ablate", "--axis", "attention", "--seeds", "[0, -1]"], "--seeds must be >= 0, got [0, -1]"),
    ],
    ids=["gradcheck", "synth", "synth_config_seed", "train", "ablate_seeds"],
)
def test_negative_seed_exits_one(tiny_config_file, tmp_path, capsys, argv, message):
    if argv[0] != "gradcheck":
        argv = [*argv, "--config", str(tiny_config_file), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


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


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m avlab.cli` as a process: its exit status is main's return value or argparse's SystemExit
    cases = {
        "config_error": (["synth", "--set", "no.such.key=1", "--out", str(tmp_path / "a")], 1, "error: "),
        "usage_error": (["frobnicate"], 1, "usage: avlab"),
        "checkpoint_is_dir": (["eval", "--checkpoint", str(tmp_path), "--out", str(tmp_path / "b")], 1,
                              f"error: --checkpoint {tmp_path}: Is a directory"),
        "config_is_dir": (["synth", "--config", str(tmp_path), "--out", str(tmp_path / "c")], 1,
                          f"error: --config {tmp_path}: Is a directory"),
        "out_is_file": (["synth", "--out", str(tmp_path / "file")], 1,
                        f"error: --out {tmp_path / 'file'} exists and is not an empty directory"),
    }
    (tmp_path / "file").write_text("kept\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}  # this checkout's src/
    procs = {name: subprocess.Popen([sys.executable, "-m", "avlab.cli", *argv], env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for name, (argv, _, _) in cases.items()}  # started together: about one interpreter start-up
    for name, (_, code, err) in cases.items():
        _, stderr = procs[name].communicate(timeout=60)
        assert procs[name].returncode == code, (name, stderr)
        assert err in stderr, (name, stderr)
    assert not any((tmp_path / name).exists() for name in "abc")
    assert sorted(os.listdir(tmp_path)) == ["file"] and (tmp_path / "file").read_text() == "kept\n"


# cli.main's except clauses: ConfigError and ContainerFormatError exit 1, every other error exits 2; a
# stdlib error from a user's input file becomes a ConfigError where cli._read reads it, not here
EXIT_CODE_TABLE = [
    (ConfigError("bad config"), 1),
    (ContainerFormatError("bad container", 3), 1),
    (FileNotFoundError("no such file"), 2),
    (json.JSONDecodeError("bad json", "{", 1), 2),
    (ShapeError("bad shape"), 2),
    (MetricError("single-class AUC"), 2),
    (DivergenceError("non-finite loss"), 2),
    (RuntimeError("anything else"), 2),
    (KeyError("missing"), 2),
]


@pytest.mark.parametrize("error,code", EXIT_CODE_TABLE, ids=[type(e).__name__ for e, _ in EXIT_CODE_TABLE])
def test_exit_code_table(error, code, monkeypatch, capsys):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_gradcheck", failing)
    assert (cli.EXIT_VALIDATION, cli.EXIT_RUNTIME) == (1, 2)
    assert main(["gradcheck"]) == code
    prefix = "error: " if code == 1 else f"runtime failure: {type(error).__name__}: "
    assert capsys.readouterr().err.startswith(prefix)
