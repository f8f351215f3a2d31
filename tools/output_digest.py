#!/usr/bin/env python3
"""Write the output trees of every avlab subcommand, or their digest.

    python3 tools/output_digest.py        # regenerate OUTPUT_TREES.sha256
    python3 tools/output_digest.py OUT    # write only the trees, under OUT

The trees come from 23 commands on two configs, run in this process through
``avlab.cli.main``: ``tiny/`` is TINY_CONFIG from tests/test_cli.py,
``default/`` the default RunConfig with epochs=1, train_data.n=24 and
eval_data.n=8.  Each command's stdout is kept in ``<name>.stdout``, with OUT
replaced by the text ``OUT``.  To compare two checkouts, write the trees with
each one's copy of this tool and ``diff -r`` them.

The digest's header lines read ``# key: value`` and name the build, since
the bits are promised on one build only: the Python, numpy and BLAS
versions, the machine, numpy's SIMD extensions and the OpenBLAS core in
use, if the library reports it.  The other lines read ``<sha256>  <path
under OUT>``, as ``sha256sum`` prints them.  avlab is imported from this
checkout's src/, with BLAS pinned to one thread before numpy loads, as
the test suite pins it.
"""

from __future__ import annotations

import ast
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

DIGEST = ROOT / "OUTPUT_TREES.sha256"
TITLE = "# sha256 of every file tools/output_digest.py OUT writes, on the build below"
ALL_KINDS = 'kind_policy={"replace": 0.25, "repeat": 0.25, "flip": 0.25, "translate": 0.25}'


def _openblas_core(np) -> str:
    # numpy's wheels load their OpenBLAS privately, so look the library up beside numpy
    base = Path(np.__file__).parent
    for lib in sorted(glob.glob(str(base.parent / "numpy.libs" / "*openblas*")) +
                      glob.glob(str(base / ".dylibs" / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}openblas_get_corename{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = (), ctypes.c_char_p
                    return fn().decode()
    return "not reported"


def fingerprint() -> dict[str, str]:
    """The build whose bits a digest records."""
    import numpy as np

    blas = simd = "unknown"
    try:
        config = np.show_config(mode="dicts")
        dep = config["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
        ext = config["SIMD Extensions"]
        simd = " ".join([*ext.get("baseline", []), *ext.get("found", [])])
    except (TypeError, KeyError):  # a numpy without show_config(mode=...)
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "simd": simd,
        "openblas_core": _openblas_core(np),
    }


def write_trees(out: Path) -> None:
    """Run every avlab subcommand with its outputs under ``out``, in this process.

    Each config gets ``config.json`` and ``config_long.json``, whose eval
    windows are half as long again as the stored clips (so every stored video
    is padded); ``replace.json`` is a fixed spec.  A command that exits
    non-zero raises RuntimeError naming it and its code.
    """
    from avlab.avdata import SynthConfig
    from avlab.cli import main

    out = Path(os.path.abspath(out))
    out.mkdir(parents=True, exist_ok=True)
    (out / "replace.json").write_text(json.dumps({"kind": "replace", "i": 2, "l": 3}) + "\n")
    tiny = next(ast.literal_eval(node.value)
                for node in ast.parse((ROOT / "tests" / "test_cli.py").read_text()).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TINY_CONFIG")
    configs = {"tiny": tiny, "default": {"epochs": 1, "train_data": {"n": 24}, "eval_data": {"n": 8}}}
    for name, cfg in configs.items():
        synth = {**asdict(SynthConfig()), **cfg.get("synth", {})}
        synth.update(t_v=synth["t_v"] * 3 // 2, t_a=synth["t_a"] * 3 // 2)
        (out / name).mkdir(exist_ok=True)
        for file, tree in (("config.json", cfg), ("config_long.json", {**cfg, "synth": synth})):
            (out / name / file).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")

    commands = []  # (stdout name, argv), in the order they run
    for name in configs:
        d = out / name
        c = ["--config", f"{d}/config.json"]
        spec = ["--data", f"{d}/synth/train", "--spec", f"{out}/replace.json"]
        for cmd, argv in {
            "synth": ["synth", *c],
            "synth_local": ["synth", *c, "--set", "train_data.fake_mode=local_desync"],
            "augment": ["augment", *c, "--set", ALL_KINDS, "--data", f"{d}/synth/train"],
            "augment_visual": ["augment", *c, *spec, "--modality", "visual"],
            "augment_audio": ["augment", *c, *spec, "--modality", "audio"],
            "train": ["train", *c],
            "train_data": ["train", *c, "--data", f"{d}/synth"],
            "eval": ["eval", *c, "--checkpoint", f"{d}/train/checkpoint.avtc"],
            "eval_padded": ["eval", "--config", f"{d}/config_long.json", "--data", f"{d}/synth",
                            "--checkpoint", f"{d}/train_data/checkpoint.avtc"],
            "ablate": ["ablate", *c, "--axis", "attention", "--seeds", "[0]"],
        }.items():
            commands.append((f"{name}/{cmd}", [*argv, "--out", f"{d}/{cmd}"]))
    commands.append(("gradcheck", ["gradcheck", "--instances", "2"]))

    for name, argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"avlab {' '.join(argv)} exited with code {code}")
        (out / f"{name}.stdout").write_text(stdout.getvalue().rstrip("\n").replace(str(out), "OUT") + "\n")


def tree_digests(tree: Path) -> dict[str, str]:
    """sha256 per file under ``tree``, keyed by its POSIX path relative to ``tree``, sorted."""
    files = sorted(p for p in tree.rglob("*") if p.is_file())
    return {p.relative_to(tree).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def render(fp: dict[str, str], digests: dict[str, str]) -> str:
    lines = [TITLE, *(f"# {k}: {v}" for k, v in fp.items()), *(f"{h}  {path}" for path, h in digests.items())]
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The (fingerprint, digests) of a rendered digest."""
    fp, digests = {}, {}
    for line in text.splitlines()[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            fp[key] = value
        else:
            h, _, path = line.partition("  ")
            digests[path] = h
    return fp, digests


def main() -> int:
    if len(sys.argv) > 2:
        print(f"usage: {sys.argv[0]} [OUT]", file=sys.stderr)
        return 1
    if len(sys.argv) == 2:
        write_trees(Path(sys.argv[1]))
        print(f"output trees under {os.path.abspath(sys.argv[1])}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write_trees(Path(tmp) / "trees")
        digests = tree_digests(Path(tmp) / "trees")
    DIGEST.write_text(render(fingerprint(), digests))
    print(f"{len(digests)} files -> {DIGEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
