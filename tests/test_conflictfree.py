"""Compatibility sets and the depth-first conflict-free walk."""

from __future__ import annotations

import pytest
from helpers import AF5A, frameworks, naive_conflict_free
from hypothesis import given
from hypothesis import strategies as st

from afmat import Framework, basic_sets, extensions, is_conflict_free, iter_conflict_free
from afmat.core import attack_tables, unpack


def levels(f):
    """``extensions(f, "cf").sets`` grouped by size: entry r holds the sets of size r."""
    out = [set() for _ in range(f.n + 1)]
    for s in extensions(f, "cf").sets:
        out[len(s)].add(s)
    return out


class TestIsConflictFree:
    def test_known_sets(self):
        assert is_conflict_free(AF5A, (1, 3, 5))
        assert not is_conflict_free(AF5A, (1, 2))
        assert is_conflict_free(AF5A, ())

    def test_self_attacker_conflicts_alone(self):
        f = Framework(1, {(1, 1)})
        assert not is_conflict_free(f, (1,))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            is_conflict_free(AF5A, (6,))

    @given(frameworks(), st.data())
    def test_matches_naive_double_loop(self, f, data):
        s = data.draw(st.frozensets(st.sampled_from(list(f.arguments)) if f.n else st.nothing()))
        naive = not any((a, b) in f.attacks for a in s for b in s)
        assert is_conflict_free(f, s) == naive


class TestBasicSets:
    def test_known_values(self):
        assert basic_sets(AF5A) == {
            1: frozenset({3, 4, 5}),
            2: frozenset({4}),
            3: frozenset({1, 5}),
            4: frozenset({1, 2}),
            5: frozenset({1, 3}),
        }

    def test_no_attacks(self):
        assert basic_sets(Framework(3)) == {
            1: frozenset({2, 3}),
            2: frozenset({1, 3}),
            3: frozenset({1, 2}),
        }

    def test_self_attacker_has_no_entry(self):
        f = Framework(2, {(1, 1)})
        assert basic_sets(f) == {2: frozenset()}

    @given(frameworks())
    def test_symmetry(self, f):
        sets = basic_sets(f)
        for i, compatible in sets.items():
            for j in compatible:
                assert i in sets[j]

    @given(frameworks())
    def test_membership_rule(self, f):
        sets = basic_sets(f)
        loops = {a for (a, b) in f.attacks if a == b}
        assert set(sets) == set(f.arguments) - loops
        for i, compatible in sets.items():
            for j in f.arguments:
                expected = (
                    j != i
                    and (i, j) not in f.attacks
                    and (j, i) not in f.attacks
                    and (j, j) not in f.attacks
                )
                assert (j in compatible) == expected

    def test_walk_words_are_compatibility_above(self, small_corpus):
        # the walk and basic_sets both read the tables' words; a
        # self-attacker has an empty word and lies in no other word
        for f in small_corpus + [Framework(4, {(1, 1), (2, 3), (4, 4)})]:
            tables = attack_tables(f)
            sets = basic_sets(f)
            for i in f.arguments:
                above = {
                    j
                    for j in f.arguments
                    if j > i and not {(i, j), (j, i), (i, i), (j, j)} & f.attacks
                }
                assert unpack(tables.above[i]) == tuple(sorted(above))
                if i in sets:
                    below = {j for j in f.arguments if i in unpack(tables.above[j])}
                    assert sets[i] == above | below


class TestEnumeration:
    def test_known_family(self):
        family = extensions(AF5A, "cf")
        assert family.sets == frozenset(
            {(), (1,), (2,), (3,), (4,), (5,), (1, 3), (1, 4), (1, 5), (2, 4),
             (3, 5), (1, 3, 5)}
        )
        by_size = levels(AF5A)
        assert by_size[0] == {()}
        assert by_size[2] == {(1, 3), (1, 4), (1, 5), (2, 4), (3, 5)}
        assert by_size[3] == {(1, 3, 5)}
        assert by_size[4] == set()
        assert by_size[5] == set()
        assert len(family) == 12
        assert (1, 3) in family
        assert [3, 1, 3] in family
        assert (1, 2) not in family
        # 1.0 == True == 1, but neither names an argument, as in query and is_*
        for candidate in ((1.0, 3), [True, 3], (1, 3.0), (9,)):
            assert candidate not in family

    def test_stream_is_level_then_lexicographic(self):
        assert list(iter_conflict_free(AF5A)) == [
            (), (1,), (2,), (3,), (4,), (5,),
            (1, 3), (1, 4), (1, 5), (2, 4), (3, 5), (1, 3, 5),
        ]

    @given(frameworks())
    def test_stream_order_is_cardinality_then_lexicographic(self, f):
        expected = sorted(naive_conflict_free(f), key=lambda s: (len(s), s))
        assert list(iter_conflict_free(f)) == expected

    def test_no_attacks_gives_power_set(self):
        assert len(extensions(Framework(3), "cf")) == 8

    def test_empty_framework(self):
        assert extensions(Framework(0), "cf").sets == frozenset({()})

    def test_seeded_example_matches_power_set_filter(self):
        from afmat import GeneratorConfig, generate

        f = generate(GeneratorConfig(n=6, p=0.4, seed=99))
        assert extensions(f, "cf").sets == naive_conflict_free(f)

    @given(frameworks())
    def test_matches_power_set_filter(self, f):
        assert extensions(f, "cf").sets == naive_conflict_free(f)

    def test_matches_power_set_filter_on_corpus(self, small_corpus):
        for f in small_corpus:
            assert extensions(f, "cf").sets == naive_conflict_free(f)

    @given(frameworks())
    def test_no_duplicates_in_stream(self, f):
        seen = list(iter_conflict_free(f))
        assert len(seen) == len(set(seen))

    @given(frameworks())
    def test_levels_hold_their_cardinality(self, f):
        for r, level in enumerate(levels(f)):
            assert all(len(s) == r for s in level)

    @given(frameworks())
    def test_downward_closed(self, f):
        by_size = levels(f)
        for r in range(1, f.n + 1):
            for s in by_size[r]:
                for drop in range(r):
                    assert s[:drop] + s[drop + 1 :] in by_size[r - 1]

    @given(frameworks())
    def test_no_level_after_an_empty_one(self, f):
        emptied = False
        for level in levels(f)[1:]:
            if emptied:
                assert level == set()
            emptied = emptied or not level

    @given(frameworks())
    def test_self_attackers_never_enumerated(self, f):
        loops = {a for (a, b) in f.attacks if a == b}
        for s in iter_conflict_free(f):
            assert not loops & set(s)
