"""Acceptance suite: the ten exit criteria, one test per criterion.

Each test prints one ``acceptance criterion N (...): PASS`` line (visible
with ``pytest -s`` or in captured output) and enforces its tolerance,
which is exact equality everywhere plus the stated runtime ceilings.
Criteria 7-9 share one seeded corpus of 200 random frameworks per
(n, p) cell for n in 1..8 and p in {0.1, 0.3, 0.5}.
"""

from __future__ import annotations

import random
import time
from itertools import permutations

import pytest
from helpers import AF5A, AF5B, AF5D, corpus_seed, make_corpus

from afmat import (
    GeneratorConfig,
    Semantics,
    basic_sets,
    build_matrix,
    dual_interchange,
    extensions,
    generate,
    is_admissible,
    is_complete,
    iter_conflict_free,
    natural_matrix,
    oracle_family,
    oracle_grounded_fixpoint,
    range_of,
    relabel,
    to_norm_form,
)

ALL_TAGS = list(Semantics)
CORPUS_NS = range(1, 9)
CORPUS_PS = (0.1, 0.3, 0.5)
CORPUS_COUNT = 200


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(ns=CORPUS_NS, ps=CORPUS_PS, count=CORPUS_COUNT)


def _report(number: int, label: str) -> None:
    print(f"acceptance criterion {number} ({label}): PASS")


def test_criterion_01_conflict_free_family():
    start = time.perf_counter()
    family = extensions(AF5A, "cf").sets
    assert family == frozenset(
        {(), (1,), (2,), (3,), (4,), (5,), (1, 3), (1, 4), (1, 5), (2, 4),
         (3, 5), (1, 3, 5)}
    )
    assert () in family and (1, 3, 5) in family
    assert time.perf_counter() - start < 1.0
    _report(1, "conflict-free family, exact 12 sets")


def test_criterion_02_basic_sets():
    start = time.perf_counter()
    assert basic_sets(AF5A) == {
        1: frozenset({3, 4, 5}),
        2: frozenset({4}),
        3: frozenset({1, 5}),
        4: frozenset({1, 2}),
        5: frozenset({1, 3}),
    }
    assert time.perf_counter() - start < 1.0
    _report(2, "compatibility sets")


def test_criterion_03_stable_enumeration():
    start = time.perf_counter()
    assert extensions(AF5A, "st").sets == frozenset({(1, 3, 5)})
    assert time.perf_counter() - start < 1.0
    _report(3, "unique stable extension")


def test_criterion_04_admissibility():
    start = time.perf_counter()
    assert is_admissible(AF5B, (1, 5))
    assert is_admissible(AF5B, (1, 3, 5))
    assert extensions(AF5B, "ad").sets == oracle_family(AF5B, "ad").sets
    assert time.perf_counter() - start < 1.0
    _report(4, "admissibility criterion and full family")


def test_criterion_05_norm_forms():
    start = time.perf_counter()
    nf = to_norm_form(AF5D, (3, 4))
    assert nf.matrix.labels == (3, 4, 2, 1, 5)
    assert (nf.k, nf.q, nf.l) == (2, 1, 2)
    assert nf.matrix.to_grid() == (
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 1, 0, 1, 0),
    )
    assert is_complete(AF5D, (3, 4)) is False

    nf2 = to_norm_form(AF5D, (2, 3))
    assert nf2.matrix.labels == (3, 2, 5, 4, 1)
    assert (nf2.k, nf2.q, nf2.l) == (2, 2, 1)
    assert nf2.matrix.to_grid() == (
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 0, 0),
        (1, 1, 0, 0, 0),
    )
    assert is_complete(AF5D, (2, 3)) is True
    assert time.perf_counter() - start < 1.0
    _report(5, "norm forms bit-exact with completeness verdicts")


def test_criterion_06_interchange_chain():
    start = time.perf_counter()
    m1 = dual_interchange(natural_matrix(AF5A), 2, 3)
    assert m1.labels == (1, 3, 2, 4, 5)
    assert m1.to_grid() == (
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1),
        (0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0),
    )
    m2 = dual_interchange(m1, 3, 5)
    assert m2.labels == (1, 3, 5, 4, 2)
    assert m2.to_grid() == (
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0),
        (0, 1, 1, 0, 0),
    )
    assert time.perf_counter() - start < 1.0
    _report(6, "dual interchange chain bit-exact")


def test_criterion_07_differential_suite(corpus):
    start = time.perf_counter()
    mismatches = []
    for f in corpus:
        for tag in ALL_TAGS:
            main = extensions(f, tag).sets
            reference = oracle_family(f, tag).sets
            if main != reference:
                mismatches.append((f, tag, main, reference))
        grounded = extensions(f, "gr").ordered()
        fixpoint = oracle_grounded_fixpoint(f)
        if grounded != [fixpoint]:
            mismatches.append((f, "gr-fixpoint", grounded, fixpoint))
    elapsed = time.perf_counter() - start
    assert not mismatches, mismatches[:3]
    assert elapsed < 300.0
    _report(7, f"differential suite, {len(corpus)} frameworks in {elapsed:.1f}s")


def test_criterion_08_structural_invariants(corpus):
    start = time.perf_counter()
    for f in corpus:
        families = {tag: extensions(f, tag) for tag in ALL_TAGS}
        assert families[Semantics.STABLE].sets <= families[Semantics.PREFERRED].sets
        assert families[Semantics.PREFERRED].sets <= families[Semantics.COMPLETE].sets
        assert families[Semantics.COMPLETE].sets <= families[Semantics.ADMISSIBLE].sets
        for tag in (Semantics.GROUNDED, Semantics.IDEAL, Semantics.EAGER):
            assert len(families[tag]) == 1
        for tag in (Semantics.ADMISSIBLE, Semantics.PREFERRED, Semantics.COMPLETE,
                    Semantics.GROUNDED):
            assert len(families[tag]) >= 1
        if families[Semantics.STABLE].sets:
            assert families[Semantics.SEMI_STABLE].sets == families[Semantics.STABLE].sets
            for s in families[Semantics.STABLE]:
                assert range_of(f, s) == tuple(f.arguments)

        # every conflict-free set has a structurally valid norm form
        for s in iter_conflict_free(f):
            nf = to_norm_form(f, s)
            grid = nf.matrix.to_grid()
            assert set(nf.members) == set(s)
            assert all(
                grid[r][c] == 0 for r in range(nf.k) for c in range(nf.k + nf.q)
            )
            for c in range(nf.k + nf.q, f.n):
                assert any(grid[r][c] for r in range(nf.k))

        # interchange involution, all positions
        if f.n and f.n <= 6:
            m = natural_matrix(f)
            for k in f.arguments:
                for l in f.arguments:
                    assert dual_interchange(dual_interchange(m, k, l), k, l) == m

    # interchange = label swap, exhaustive over permutations and positions
    for n in range(1, 7):
        for pi in range(len(CORPUS_PS)):
            f = generate(GeneratorConfig(n=n, p=CORPUS_PS[pi], seed=corpus_seed(n, pi, 0)))
            for perm in permutations(f.arguments):
                m = build_matrix(f, perm)
                for k in f.arguments:
                    for l in f.arguments:
                        swapped = list(perm)
                        swapped[k - 1], swapped[l - 1] = swapped[l - 1], swapped[k - 1]
                        assert dual_interchange(m, k, l) == build_matrix(f, swapped)

    elapsed = time.perf_counter() - start
    _report(8, f"structural invariants, zero violations in {elapsed:.1f}s")


def test_criterion_09_permutation_invariance(corpus):
    start = time.perf_counter()
    rng = random.Random(424242)
    for f in corpus:
        perm = list(f.arguments)
        rng.shuffle(perm)
        g = relabel(f, perm)
        for tag in ALL_TAGS:
            relabelled = {
                tuple(sorted(perm[a - 1] for a in s)) for s in extensions(f, tag).sets
            }
            assert extensions(g, tag).sets == relabelled, (f, perm, tag)
    elapsed = time.perf_counter() - start
    _report(9, f"permutation invariance, zero mismatches in {elapsed:.1f}s")


def test_criterion_10_desk_scale_performance():
    start = time.perf_counter()
    f = generate(GeneratorConfig(n=16, p=0.15, seed=2024))
    family = extensions(f, "co")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(family) >= 1
    for s in family:
        assert is_admissible(f, s) and is_complete(f, s)
    _report(10, f"n=16 complete enumeration in {elapsed:.2f}s")
