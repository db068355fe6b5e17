from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import make_corpus  # noqa: E402


@pytest.fixture(scope="session")
def small_corpus():
    """Quick seeded corpus for unit-level invariant tests."""
    return make_corpus(ns=range(0, 8), ps=(0.1, 0.3, 0.5), count=8)


@pytest.fixture
def pair_checks(monkeypatch):
    """The sizes of the frameworks the public constructor checked pair by
    pair, in order."""
    from afmat import Framework

    checked = []
    check = Framework.__post_init__

    def spy(self):
        checked.append(self.n)
        check(self)

    monkeypatch.setattr(Framework, "__post_init__", spy)
    return checked
