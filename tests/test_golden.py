"""Reports stay byte-identical: the outputs of ``tools/golden.py`` against the
committed manifest ``tests/golden.json``."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from streamprofiler import rate as rate_mod

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_the_manifest():
    moved = golden.moved(json.loads(golden.MANIFEST.read_text()), golden.digests())
    assert not moved, ("outputs moved; if on purpose, run tools/golden.py --write and say "
                       "why in CHANGES.md:\n" + "\n".join(moved))


def test_one_ulp_in_smooth_moves_a_case(monkeypatch):
    smooth = rate_mod.smooth
    monkeypatch.setattr(rate_mod, "smooth",
                        lambda rho, params: np.nextafter(smooth(rho, params), np.inf))
    moved = golden.moved(json.loads(golden.MANIFEST.read_text()), golden.digests())
    assert moved and all(line.endswith(": digest moved") for line in moved)


def test_moved_names_each_case():
    expected = {"a": "1", "b": "2", "c": "3"}
    assert golden.moved(expected, dict(expected)) == []
    assert golden.moved(expected, {"a": "1", "b": "9", "d": "4"}) == [
        "b: digest moved", "c: no longer produced", "d: not in the manifest"]
