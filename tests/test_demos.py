"""Smoke test: every demo script runs to completion and prints its story."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
