"""The brute-force reference path: definitional checks and its own examples."""

from __future__ import annotations

import pytest
from helpers import AF5A, AF5B, AF5D, naive_conflict_free

from afmat import (
    ORACLE_BOUND,
    Framework,
    OracleBoundError,
    Semantics,
    oracle_defends,
    oracle_family,
    oracle_grounded_fixpoint,
)


class TestDefends:
    def test_defended_member(self):
        assert oracle_defends(AF5B, (1, 5), 5)

    def test_unattacked_argument_defended_by_empty_set(self):
        assert oracle_defends(AF5A, (), 1)

    def test_attacker_left_alone(self):
        assert not oracle_defends(AF5D, (2, 3), 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            oracle_defends(AF5A, (), 6)
        with pytest.raises(IndexError):
            oracle_defends(AF5A, (1,), True)


class TestFamily:
    def test_conflict_free_known(self):
        assert oracle_family(AF5A, "cf").sets == frozenset(
            {(), (1,), (2,), (3,), (4,), (5,), (1, 3), (1, 4), (1, 5), (2, 4),
             (3, 5), (1, 3, 5)}
        )

    def test_stable_known(self):
        assert oracle_family(AF5A, "st").sets == frozenset({(1, 3, 5)})

    def test_empty_framework(self):
        f = Framework(0)
        for tag in Semantics:
            assert oracle_family(f, tag).sets == frozenset({()})

    def test_matches_power_set_filter(self, small_corpus):
        for f in small_corpus[::5]:
            assert oracle_family(f, "cf").sets == naive_conflict_free(f)

    def test_bound_is_enforced(self):
        assert ORACLE_BOUND == 12
        assert len(oracle_family(Framework(ORACLE_BOUND), "cf")) == 4096
        with pytest.raises(OracleBoundError, match="above the oracle bound 12"):
            oracle_family(Framework(ORACLE_BOUND + 1), "cf")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            oracle_family(AF5A, "zz")


class TestGroundedFixpoint:
    def test_everything_attacked_gives_empty_set(self):
        assert oracle_grounded_fixpoint(AF5D) == ()

    def test_no_attacks_accepts_everything(self):
        assert oracle_grounded_fixpoint(Framework(3)) == (1, 2, 3)

    def test_chain_of_two(self):
        assert oracle_grounded_fixpoint(Framework(2, {(1, 2)})) == (1,)

    def test_agrees_with_family(self, small_corpus):
        for f in small_corpus:
            assert oracle_family(f, "gr").sets == frozenset(
                {oracle_grounded_fixpoint(f)}
            )

    def test_permutation_equivariance(self, small_corpus):
        import random

        from afmat import relabel

        rng = random.Random(7)
        for f in small_corpus[::3]:
            perm = list(f.arguments)
            rng.shuffle(perm)
            g = relabel(f, perm)
            for tag in ("cf", "st", "gr", "sst"):
                relabelled = {
                    tuple(sorted(perm[a - 1] for a in s))
                    for s in oracle_family(f, tag).sets
                }
                assert oracle_family(g, tag).sets == relabelled
