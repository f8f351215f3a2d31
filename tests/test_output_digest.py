"""The CLI's output trees against the committed digest, OUTPUT_TREES.sha256."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_render_and_parse_round_trip():
    fp, digests = {"python": "3.x", "simd": "A B"}, {"a/b.json": "0" * 64, "c d.txt": "f" * 64}
    assert output_digest.parse(output_digest.render(fp, digests)) == (fp, digests)


def test_output_trees_match_the_committed_digest(tmp_path):
    committed_fp, committed = output_digest.parse(output_digest.DIGEST.read_text())
    here = output_digest.fingerprint()
    for key in committed_fp.keys() | here.keys():
        if committed_fp.get(key) != here.get(key):
            pytest.skip(f"the digest was made on another build: {key} is {here.get(key)!r} here, "
                        f"{committed_fp.get(key)!r} in {output_digest.DIGEST.name}")
    output_digest.write_trees(tmp_path / "trees")
    written = output_digest.tree_digests(tmp_path / "trees")
    changed = sorted(k for k in committed.keys() | written.keys() if committed.get(k) != written.get(k))
    assert not changed, (f"{len(changed)} of {len(written)} files differ from {output_digest.DIGEST.name}; "
                         f"regenerate it with tools/output_digest.py if the change is meant: {changed[:10]}")
