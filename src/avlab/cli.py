"""Command-line entry point.

Subcommands: synth, augment, train, eval, ablate, gradcheck.  Every
command but gradcheck writes ``--out`` whole or not at all, with the
fully-resolved config snapshot (``resolved_config.json``) that replays it
bit-identically.  An ``--out`` that exists and is not an empty directory
exits 1 before any work.  The outputs are built in a hidden staging
directory beside ``--out``, renamed into place on success and removed on
any failure or interrupt; only a killed process (SIGKILL) leaves one behind.
A failed run also removes the missing parents of ``--out`` that it made.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  A
``ConfigError`` or ``ContainerFormatError`` is a validation error, any other
exception a runtime failure.  ``_read`` reads every file and JSON value the
user names and makes an ``OSError`` or ``ValueError`` on the way a
``ConfigError`` "FLAG PATH: cause", so a bad input always exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import avdata, evalkit, pseudofake, trainloop
from .detector import load_checkpoint
from .errors import ConfigError, ContainerFormatError
from .rng import derive_seed, substream
from .tinynet import gradcheck

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override must look like key.path=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_override(tree: dict, path: list[str], value) -> None:
    # an unknown key is left for the decoder to reject, with its dotted path
    node = tree
    for part in path[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {'.'.join(path)!r}: {part} is not a config section")
    node[path[-1]] = value


def _read(flag: str, value, load, errors=(OSError, ValueError)):
    """``load(value)``, where ``value`` is the file or JSON text the user gave with ``flag``; an
    ``errors`` on the way is a ConfigError "FLAG VALUE: cause".  Container loaders pass ``OSError``
    alone: their ConfigError and ContainerFormatError already name the file and pass through."""
    try:
        return load(value)
    except errors as exc:
        cause = exc.strerror if isinstance(exc, OSError) and exc.filename == os.fspath(value) else exc
        raise ConfigError(f"{flag} {value}: {cause}") from exc


def _json_file(decode):  # a loader for _read: the file's UTF-8 text as JSON, decoded by ``decode``
    return lambda path: decode(json.loads(Path(path).read_text(encoding="utf-8")))


def load_config(args) -> trainloop.RunConfig:
    read = _json_file(trainloop.RunConfig.from_dict)
    resolved = (_read("--config", args.config, read) if args.config else trainloop.RunConfig()).to_dict()
    for item in args.set or []:
        path, value = _parse_override(item)
        _apply_override(resolved, path, value)
    if args.seed is not None:
        resolved["seed"] = args.seed
    cfg = trainloop.RunConfig.from_dict(resolved)
    cfg.validate()
    return cfg


# ------------------------------------------------------------------ datasets


def _split_dir(split: str) -> str:
    # directory of ``split`` under a `synth` output, also the seed path of its data
    return split if split == "train" else f"eval_{split}"


def _load_dir(path: Path) -> list[avdata.AVPair]:
    files = sorted(path.glob("pair-*.avtc"))
    if not files:
        raise ConfigError(f"no pair-*.avtc files under {path}")
    pairs = [_read("--data", f, avdata.load_pair, OSError) for f in files]
    shapes = [(p.visual.data.shape, p.audio.data.shape) for p in pairs]
    for f, shape in zip(files, shapes):
        if shape != shapes[0]:
            raise ConfigError(f"{f}: visual and audio shapes {shape} differ from {files[0].name}'s {shapes[0]}")
    return pairs


def _split(cfg: trainloop.RunConfig, split: str, data: str | None = None):
    """``split`` read from the `synth` output directory ``data``, or generated pair by pair."""
    if data:
        return _load_dir(Path(data) / _split_dir(split))
    return evalkit.split_pairs(cfg, split, derive_seed(cfg.seed, "dataset", _split_dir(split)))


def cmd_synth(args, cfg: trainloop.RunConfig, stage: Path) -> str:
    manifest = {"splits": {}, "seed": cfg.seed}
    for split in ("train", *evalkit.SPLITS):
        split_dir = stage / _split_dir(split)
        split_dir.mkdir()
        labels = []
        for i, pair in enumerate(_split(cfg, split)):  # one pair in memory at a time
            avdata.save_pair(split_dir / f"pair-{i:05d}.avtc", pair)
            labels.append(pair.label)
        manifest["splits"][split_dir.name] = {"n": len(labels), "n_fake": labels.count("fake")}
    (stage / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return f"wrote {sum(s['n'] for s in manifest['splits'].values())} pairs under {Path(args.out)}"


def cmd_augment(args, cfg: trainloop.RunConfig, stage: Path) -> str:
    pairs = _load_dir(Path(args.data))
    donors = [p for p in pairs if p.label == "real"]
    # a fixed replace spec takes the next real pair's clip: never the pair's own, unless it is the only real
    next_donor = {id(p): donors[(k + 1) % len(donors)] for k, p in enumerate(donors)}

    fixed_spec = None
    if args.spec:
        fixed_spec = _read("--spec", args.spec, _json_file(pseudofake.ManipulationSpec.from_dict))
        fixed_spec.validate(getattr(pairs[0], args.modality).t)  # _load_dir: every pair has this length

    records = []
    counters: dict[str, int] = {}
    for i, pair in enumerate(pairs):
        if pair.label != "real":
            result = pair
        elif fixed_spec is not None:
            donor = next_donor[id(pair)] if fixed_spec.kind == "replace" else None
            result = avdata.apply_to_pair(pair, args.modality, fixed_spec, donor)
        else:
            rng = substream(cfg.seed, "augment-cli", i)
            result = trainloop.augment_sample(pair, donors, cfg, rng, counters)
        avdata.save_pair(stage / f"pair-{i:05d}.avtc", result)
        records.append(
            {
                "source_id": result.meta.source_id,
                "label": result.label,
                "visual_manipulations": [s.to_dict() for s in result.meta.visual_manipulations],
                "audio_manipulations": [s.to_dict() for s in result.meta.audio_manipulations],
            }
        )
    (stage / "specs.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return f"augmented {len(pairs)} pairs -> {Path(args.out)} ({counters or 'fixed spec'})"


def cmd_train(args, cfg: trainloop.RunConfig, stage: Path) -> str:
    cfg.checkpoint_dir = str(stage)
    result = trainloop.train(cfg, list(_split(cfg, "train", args.data)))
    return (
        f"trained {cfg.epochs} epochs; best epoch {result.best_epoch} "
        f"(loss {result.best_loss:.4f}); checkpoint in {Path(args.out)}"
    )


def cmd_eval(args, cfg: trainloop.RunConfig, stage: Path) -> str:
    model, _ = _read("--checkpoint", args.checkpoint, load_checkpoint, OSError)
    policy = evalkit.SubsequencePolicy(length=cfg.synth.t_v)
    lines = []
    for split in evalkit.SPLITS:
        report = evalkit.evaluate(model, list(_split(cfg, split, args.data)), policy)
        (stage / f"report_{split}.json").write_text(report.to_json() + "\n")
        (stage / f"report_{split}.txt").write_text(report.to_text() + "\n")
        lines.append(f"{split}: AUC {report.auc:.4f} over {len(report.videos)} videos")
    return "\n".join(lines)


def cmd_ablate(args, cfg: trainloop.RunConfig, stage: Path) -> str:
    values = _read("--values", args.values, json.loads) if args.values else None
    seeds = evalkit.check_seeds(_read("--seeds", args.seeds, json.loads) if args.seeds else [0, 1, 2], "--seeds")
    evalkit.check_values(cfg, args.axis, values, "--values")
    table = evalkit.ablation_run(cfg, args.axis, values=values, seeds=seeds)
    (stage / f"ablation_{args.axis}.json").write_text(table.to_json() + "\n")
    (stage / f"ablation_{args.axis}.txt").write_text(table.to_text() + "\n")
    return table.to_text()


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(seed=args.seed, instances=args.instances)
    print(gradcheck.format_report(results))
    if not gradcheck.suite_passed(results):
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="avlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (RunConfig schema)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, repeatable")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset of container files")
    common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("augment", help="apply manipulations to stored pairs")
    common(p)
    p.add_argument("--data", required=True, help="directory of pair-*.avtc files")
    p.add_argument("--spec", help="JSON file with one fixed ManipulationSpec")
    p.add_argument("--modality", choices=("visual", "audio"), default="visual",
                   help="modality for --spec mode")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train", help="train a detector")
    common(p)
    p.add_argument("--data", help="dataset directory from `synth` (default: generate in memory)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on both synthetic splits")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint.avtc path")
    p.add_argument("--data", help="dataset directory from `synth` (default: generate in memory)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation axis")
    common(p)
    p.add_argument("--axis", required=True, choices=evalkit.AXES)
    p.add_argument("--values", help="JSON list of axis values")
    p.add_argument("--seeds", help="JSON list of seeds (default [0, 1, 2])")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all ops and the tiny model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.  A writing command, ``cmd_x(args, cfg, stage)``,
    fills ``stage`` and returns its stdout text, printed once ``stage`` is renamed to ``--out``."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return args.fn(args)
        out = Path(os.path.abspath(args.out))
        if out.exists() and not (out.is_dir() and not any(out.iterdir())):
            raise ConfigError(f"--out {args.out} exists and is not an empty directory")
        cfg = load_config(args)
        made = [p for p in out.parents if not p.exists()]  # the parents this run creates, bottom up
        try:
            _read("--out", args.out, lambda _: out.parent.mkdir(parents=True, exist_ok=True), OSError)
            # beside --out, on its filesystem; removed on any exception, KeyboardInterrupt included
            with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent, ignore_cleanup_errors=True) as tmp:
                stage = Path(tmp) / "out"
                stage.mkdir()  # the mode a plain mkdir gives, not mkdtemp's 0700
                (stage / "resolved_config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
                text = args.fn(args, cfg, stage)
                os.replace(stage, out)
        finally:
            for parent in made:  # each while empty, so none once --out is in place
                with contextlib.suppress(OSError):
                    parent.rmdir()
        print(text)
        return EXIT_OK
    except (ConfigError, ContainerFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
