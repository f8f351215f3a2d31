#!/usr/bin/env python3
"""Write OUTPUT_TREES.sha256: one sha256 per file that tools/output_trees.sh
writes, under a header holding the build fingerprint.

    python3 tools/output_digest.py

writes the trees in a temporary directory and the digest to
OUTPUT_TREES.sha256 at the repository root.  Its header lines read
``# key: value``; the other lines read ``<sha256>  <path under OUT>``, as
``sha256sum`` prints them.  The bits are promised on one build only, so
the header names the build: the Python, numpy and BLAS versions, the
machine, numpy's SIMD extensions and the OpenBLAS core in use, if the
library reports it.  The trees are written with BLAS pinned to one
thread, as the test suite pins it.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "OUTPUT_TREES.sha256"
TITLE = "# sha256 of every file tools/output_trees.sh writes, on the build below"


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
    """Run tools/output_trees.sh OUT with this interpreter first on PATH and BLAS on one thread."""
    env = {**os.environ, "PATH": f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    subprocess.run(["bash", str(ROOT / "tools" / "output_trees.sh"), str(out)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


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
    if len(sys.argv) != 1:
        print(f"usage: {sys.argv[0]}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        write_trees(Path(tmp) / "trees")
        digests = tree_digests(Path(tmp) / "trees")
    DIGEST.write_text(render(fingerprint(), digests))
    print(f"{len(digests)} files -> {DIGEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
