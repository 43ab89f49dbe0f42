"""Smoke test: every demo script runs to completion."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, tmp_path, capsys):
    # Demos that write scratch files put them under tempfile's directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
