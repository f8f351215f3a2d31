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


def check_trees(out: Path) -> None:
    """Write the trees under ``out`` and compare them with the committed digest: their file
    paths on any build, their bytes only on the build the digest names (a skip elsewhere)."""
    committed_fp, committed = output_digest.parse(output_digest.DIGEST.read_text())
    output_digest.write_trees(out)
    written = output_digest.tree_digests(out)
    assert written.keys() == committed.keys(), (
        f"the trees' files differ from {output_digest.DIGEST.name}'s: "
        f"new {sorted(written.keys() - committed.keys())[:10]}, gone {sorted(committed.keys() - written.keys())[:10]}")
    here = output_digest.fingerprint()
    for key in committed_fp.keys() | here.keys():
        if committed_fp.get(key) != here.get(key):
            pytest.skip(f"the digest was made on another build: {key} is {here.get(key)!r} here, "
                        f"{committed_fp.get(key)!r} in {output_digest.DIGEST.name}; bytes not compared")
    changed = sorted(k for k in committed if committed[k] != written[k])
    assert not changed, (f"{len(changed)} of {len(written)} files differ from {output_digest.DIGEST.name}; "
                         f"regenerate it with tools/output_digest.py if the change is meant: {changed[:10]}")


def test_output_trees_match_the_committed_digest(tmp_path):
    check_trees(tmp_path / "trees")


def test_write_trees_names_a_failing_command(tmp_path, monkeypatch):
    from avlab import cli

    monkeypatch.setattr(cli, "main", lambda argv: 2)
    with pytest.raises(RuntimeError, match=r"^avlab synth --config \S+/tiny/config.json --out \S+ exited with code 2$"):
        output_digest.write_trees(tmp_path / "trees")


@pytest.mark.parametrize("lost", [0, 1], ids=["same_paths", "lost_file"])
def test_another_build_still_compares_paths(tmp_path, monkeypatch, lost):
    committed_fp, committed = output_digest.parse(output_digest.DIGEST.read_text())

    def write_empty_files(out):
        for rel in list(committed)[lost:]:
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            (out / rel).write_bytes(b"")

    monkeypatch.setattr(output_digest, "write_trees", write_empty_files)
    monkeypatch.setattr(output_digest, "fingerprint", lambda: {**committed_fp, "openblas_core": "Other"})
    if lost:
        with pytest.raises(AssertionError, match=f"gone \\[{next(iter(committed))!r}\\]"):
            check_trees(tmp_path / "trees")
    else:
        with pytest.raises(pytest.skip.Exception, match="openblas_core is 'Other' here"):
            check_trees(tmp_path / "trees")
