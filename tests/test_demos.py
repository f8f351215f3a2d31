"""Smoke test: the quick demos run to completion as scripts.

Demos 01-03 take well under a second each.  Demo 04 (a training run)
and demo 05 (an ablation over several trainings) take much longer and
stay out of Tier-1; run them by hand.
"""

import runpy
from pathlib import Path

import pytest

import avlab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["01_synthetic_pairs.py", "02_temporal_manipulations.py", "03_detector_maps.py"]
)
def test_quick_demo_exits_zero(name, capsys):
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out


def test_demo_01_cleans_up_its_container(monkeypatch):
    # The demo writes its pair into a temporary directory that is gone afterwards.
    written, save_pair = [], avlab.save_pair

    def recording_save_pair(path, pair):
        written.append(Path(path))
        save_pair(path, pair)

    monkeypatch.setattr(avlab, "save_pair", recording_save_pair)
    runpy.run_path(str(DEMOS / "01_synthetic_pairs.py"), run_name="__main__")
    assert len(written) == 1
    assert not written[0].parent.exists()
