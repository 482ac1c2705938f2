"""Run the suite from a checkout without an install: src goes on sys.path for
the tests, and on PYTHONPATH for the child processes that they spawn."""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from conjchern import dickson  # noqa: E402  (importable once src is on sys.path)


@pytest.fixture
def split_rings(monkeypatch):
    """The ring of every _split_last call that the dickson layer makes, from
    an empty f_n_coefficients cache; the cache is emptied again afterwards."""
    rings = []
    split = dickson._split_last

    def counted(f, ring):
        rings.append(ring)
        return split(f, ring)

    dickson.f_n_coefficients.cache_clear()
    monkeypatch.setattr(dickson, "_split_last", counted)
    yield rings
    dickson.f_n_coefficients.cache_clear()
