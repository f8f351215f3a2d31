"""Command-line entry point.

Subcommands: synth, augment, train, eval, ablate, gradcheck.  Every
run that writes outputs also writes the fully-resolved config snapshot
(``resolved_config.json``) so it can be replayed bit-identically.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
Validation errors include every ``ConfigError``: an unknown key, a
wrong-typed value or a malformed detector block in a ``--config`` or
``--spec`` file, a ``--set`` value or a checkpoint config.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def load_config(args) -> trainloop.RunConfig:
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    resolved = trainloop.RunConfig.from_dict(raw).to_dict()
    for item in args.set or []:
        path, value = _parse_override(item)
        _apply_override(resolved, path, value)
    if args.seed is not None:
        resolved["seed"] = args.seed
    cfg = trainloop.RunConfig.from_dict(resolved)
    cfg.validate()
    return cfg


def _prologue(args) -> tuple[trainloop.RunConfig, Path]:
    """Load the config, create ``--out`` and write the ``resolved_config.json`` snapshot into it."""
    cfg = load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    return cfg, out


# ------------------------------------------------------------------ datasets


def _split_dir(split: str) -> str:
    # directory of ``split`` under a `synth` output, also the seed path of its data
    return split if split == "train" else f"eval_{split}"


def _load_dir(path: Path) -> list[avdata.AVPair]:
    files = sorted(path.glob("pair-*.avtc"))
    if not files:
        raise ConfigError(f"no pair-*.avtc files under {path}")
    return [avdata.load_pair(f) for f in files]


def _split(cfg: trainloop.RunConfig, split: str, data: str | None = None):
    """``split`` read from the `synth` output directory ``data``, or generated pair by pair."""
    if data:
        return _load_dir(Path(data) / _split_dir(split))
    return evalkit.split_pairs(cfg, split, derive_seed(cfg.seed, "dataset", _split_dir(split)))


def cmd_synth(args) -> int:
    cfg, out = _prologue(args)
    manifest = {"splits": {}, "seed": cfg.seed}
    for split in ("train", *evalkit.SPLITS):
        split_dir = out / _split_dir(split)
        split_dir.mkdir(parents=True, exist_ok=True)
        labels = []
        for i, pair in enumerate(_split(cfg, split)):  # one pair in memory at a time
            avdata.save_pair(split_dir / f"pair-{i:05d}.avtc", pair)
            labels.append(pair.label)
        manifest["splits"][split_dir.name] = {"n": len(labels), "n_fake": labels.count("fake")}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(s['n'] for s in manifest['splits'].values())} pairs under {out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    cfg, out = _prologue(args)
    pairs = _load_dir(Path(args.data))
    donors = [p for p in pairs if p.label == "real"]

    fixed_spec = None
    if args.spec:
        fixed_spec = pseudofake.ManipulationSpec.from_dict(json.loads(Path(args.spec).read_text()))

    records = []
    counters: dict[str, int] = {}
    for i, pair in enumerate(pairs):
        if pair.label != "real":
            result = pair
        elif fixed_spec is not None:
            donor = donors[(i + 1) % len(donors)] if fixed_spec.kind == "replace" else None
            result = avdata.apply_to_pair(pair, args.modality, fixed_spec, donor)
        else:
            rng = substream(cfg.seed, "augment-cli", i)
            result = trainloop.augment_sample(pair, donors, cfg, rng, counters)
        avdata.save_pair(out / f"pair-{i:05d}.avtc", result)
        records.append(
            {
                "source_id": result.meta.source_id,
                "label": result.label,
                "visual_manipulations": [s.to_dict() for s in result.meta.visual_manipulations],
                "audio_manipulations": [s.to_dict() for s in result.meta.audio_manipulations],
            }
        )
    (out / "specs.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"augmented {len(pairs)} pairs -> {out} ({counters or 'fixed spec'})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, out = _prologue(args)
    train_set = list(_split(cfg, "train", args.data))
    cfg.checkpoint_dir = str(out)
    result = trainloop.train(cfg, train_set)
    print(
        f"trained {cfg.epochs} epochs; best epoch {result.best_epoch} "
        f"(loss {result.best_loss:.4f}); checkpoint in {out}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, out = _prologue(args)
    model, _ = load_checkpoint(args.checkpoint)
    policy = evalkit.SubsequencePolicy(length=cfg.synth.t_v)
    for split in evalkit.SPLITS:
        eval_set = list(_split(cfg, split, args.data))
        report = evalkit.evaluate(model, eval_set, policy)
        (out / f"report_{split}.json").write_text(report.to_json() + "\n")
        (out / f"report_{split}.txt").write_text(report.to_text() + "\n")
        print(f"{split}: AUC {report.auc:.4f} over {len(report.videos)} videos")
    return EXIT_OK


def cmd_ablate(args) -> int:
    values = json.loads(args.values) if args.values else None
    seeds = json.loads(args.seeds) if args.seeds else [0, 1, 2]
    if values is not None and not isinstance(values, list):
        raise ConfigError(f"--values must be a JSON list, got {args.values}")
    if not (isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds)):
        raise ConfigError(f"--seeds must be a nonempty JSON list of ints, got {args.seeds}")
    cfg, out = _prologue(args)
    table = evalkit.ablation_run(cfg, args.axis, values=values, seeds=tuple(seeds))
    (out / f"ablation_{args.axis}.json").write_text(table.to_json() + "\n")
    (out / f"ablation_{args.axis}.txt").write_text(table.to_text() + "\n")
    print(table.to_text())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(seed=args.seed or 0, instances=args.instances)
    print(gradcheck.format_report(results))
    if not gradcheck.suite_passed(results):
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="avlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config file (RunConfig schema)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, repeatable")
        if out_required:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContainerFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
