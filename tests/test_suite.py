"""The failure details of the sieving-grid criteria: the first bad cell, named exactly."""

from types import SimpleNamespace

import pytest

from orbitsieve import suite

BAD_ROW = {"r": 1, "s": 0, "fixed": 2, "value": "3", "ok": False}


@pytest.mark.parametrize(
    "name, failing_family, detail",
    [
        ("word-bicsp-grids", "word-bicsp-Y", "word-bicsp-Y n=1 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("orbit-csps", "comp-csp", "comp-csp n=1 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("necklace-graph-csps", "graph-X", "graph-X n=2 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("tanisaki-sieving", "tanisaki-bicsp", "tanisaki-bicsp mu=(1,) a=1: row r=1 s=0: fixed 2 vs value 3"),
        ("tanisaki-sieving", "tanisaki-necklace", "tanisaki-necklace mu=(1,): row r=1 s=0: fixed 2 vs value 3"),
        ("springer-bicsp", "springer-bicsp", "springer-bicsp n=1: row r=1 s=0: fixed 2 vs value 3"),
    ],
)
def test_first_bad_cell_is_reported(monkeypatch, name, failing_family, detail):
    def fake_verify(family, **params):
        if family == failing_family:
            return SimpleNamespace(all_ok=False, rows=[BAD_ROW])
        return SimpleNamespace(all_ok=True, rows=[])

    monkeypatch.setattr(suite, "verify_family", fake_verify)
    assert suite.run_criterion(name).detail == detail


def test_springer_grid_shape_is_checked(monkeypatch):
    good = {"r": 0, "s": 0, "fixed": 1, "value": "1", "ok": True}
    rows = {1: [good], 2: [good]}  # n=2 should give a 2x2 grid

    def fake_verify(family, n):
        return SimpleNamespace(all_ok=True, rows=rows[n])

    monkeypatch.setattr(suite, "verify_family", fake_verify)
    result = suite.run_criterion("springer-bicsp", max_n=2)
    assert not result.ok
    assert result.detail == "springer-bicsp n=2: unexpected grid shape"
