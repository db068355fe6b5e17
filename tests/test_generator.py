"""Seeded random framework generation."""

from __future__ import annotations

from pathlib import Path

import pytest

from afmat import Framework, GeneratorConfig, format_tgf, generate

GOLDEN = Path(__file__).parent / "data" / "gen_n6_p03_seed42.tgf"


def test_zero_probability():
    assert generate(GeneratorConfig(n=5, p=0.0, seed=1)) == Framework(5)


def test_full_probability():
    f = generate(GeneratorConfig(n=5, p=1.0, seed=1))
    assert len(f.attacks) == 25


def test_deterministic():
    cfg = GeneratorConfig(n=9, p=0.4, seed=123)
    assert generate(cfg) == generate(cfg)


def test_seed_matters():
    base = GeneratorConfig(n=9, p=0.4, seed=123)
    other = GeneratorConfig(n=9, p=0.4, seed=124)
    assert generate(base) != generate(other)


def test_golden_framework():
    f = generate(GeneratorConfig(n=6, p=0.3, seed=42))
    assert format_tgf(f) == GOLDEN.read_text(encoding="utf-8")


def test_empty():
    assert generate(GeneratorConfig(n=0, p=0.7, seed=5)) == Framework(0)


@pytest.mark.parametrize("p", [-0.1, 1.1, True, None, "0.5"])
def test_probability_bounds(p):
    # True == 1 would draw every attack
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, p=p, seed=0)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(n=-1, p=0.5, seed=0)
    # equal to an integer, but no argument count
    for n in (True, 2.0):
        with pytest.raises(ValueError):
            GeneratorConfig(n=n, p=0.5, seed=0)


@pytest.mark.parametrize("seed", [None, 1.0, "1", True])
def test_seed_must_be_an_integer(seed):
    # random.Random(None) seeds from the OS: no framework would be pinned
    with pytest.raises(ValueError, match="seed must be an integer"):
        GeneratorConfig(n=5, p=0.5, seed=seed)
