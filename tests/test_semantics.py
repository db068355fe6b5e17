"""Matrix criteria, extension families, derived semantics and queries."""

from __future__ import annotations

import gc
import re
import time
import weakref

import pytest
from helpers import (
    AF5A,
    AF5B,
    AF5C,
    AF5D,
    CYCLE3,
    admissible_by_blocks,
    complete_by_blocks,
    frameworks,
    plain_walk,
    powerset,
    stable_by_blocks,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afmat import (
    Framework,
    GeneratorConfig,
    InternalInvariantError,
    NormForm,
    PreconditionError,
    Semantics,
    admissible_on_norm_form,
    complete_on_norm_form,
    extensions,
    extract_subblocks,
    generate,
    is_admissible,
    is_complete,
    is_conflict_free,
    is_stable,
    iter_conflict_free,
    natural_matrix,
    oracle,
    oracle_defends,
    oracle_family,
    oracle_grounded_fixpoint,
    query,
    range_of,
    relabel,
    semantics,
    stable_on_norm_form,
    to_norm_form,
)
from afmat.core import _TABLES_CACHED, _verify_norm_form, attack_tables, pack, unpack
from afmat.semantics import _attacks, _extensions, _first, _fixpoint, _maximal, _search, _walk

ALL_TAGS = list(Semantics)


class TestSemanticsTag:
    def test_round_trip(self):
        for tag in ALL_TAGS:
            assert Semantics(tag.value) is tag

    def test_closed(self):
        with pytest.raises(ValueError):
            Semantics("xx")

    def test_values(self):
        assert [t.value for t in ALL_TAGS] == [
            "cf", "st", "ad", "co", "pr", "gr", "id", "sst", "eg",
        ]


class TestStable:
    def test_unique_stable_set(self):
        assert is_stable(AF5A, (1, 3, 5))
        assert not is_stable(AF5A, (1, 3))

    def test_full_set_with_no_attacks(self):
        assert is_stable(Framework(3), (1, 2, 3))

    def test_requires_conflict_free(self):
        with pytest.raises(PreconditionError) as err:
            is_stable(AF5A, (1, 2))
        assert err.value.pair == (1, 2)


class TestAdmissible:
    def test_known_values(self):
        assert is_admissible(AF5B, (1, 5))
        assert is_admissible(AF5B, (1, 3, 5))
        assert is_admissible(AF5D, (3, 4))
        assert not is_admissible(AF5B, (1,))

    def test_empty_set_always_admissible(self):
        for f in (AF5A, AF5B, AF5C, AF5D, CYCLE3, Framework(0)):
            assert is_admissible(f, ())

    def test_requires_conflict_free(self):
        with pytest.raises(PreconditionError):
            is_admissible(AF5B, (1, 4))


class TestComplete:
    def test_known_values(self):
        assert is_complete(AF5D, (2, 3))
        assert not is_complete(AF5D, (3, 4))

    def test_unattacked_argument_forces_inclusion(self):
        assert not is_complete(Framework(1), ())

    def test_requires_admissible(self):
        with pytest.raises(PreconditionError) as err:
            is_complete(AF5B, (1,))
        assert err.value.pair == (4, 1)
        with pytest.raises(PreconditionError):
            is_complete(AF5B, (1, 4))


class TestNormFormCriteria:
    def test_known_values(self):
        assert not complete_on_norm_form(to_norm_form(AF5D, (3, 4)))
        assert complete_on_norm_form(to_norm_form(AF5D, (2, 3)))
        assert stable_on_norm_form(to_norm_form(AF5A, (1, 3, 5)))
        assert not stable_on_norm_form(to_norm_form(AF5A, (1, 3)))
        assert admissible_on_norm_form(to_norm_form(AF5D, (3, 4)))

    @given(frameworks())
    def test_word_tests_agree_with_norm_form(self, f):
        for s in iter_conflict_free(f):
            nf = to_norm_form(f, s)
            admissible = is_admissible(f, s)
            assert is_stable(f, s) == stable_on_norm_form(nf)
            assert admissible == admissible_on_norm_form(nf)
            assert (admissible and is_complete(f, s)) == complete_on_norm_form(nf)

    def test_all_routes_agree(self, small_corpus):
        """Packed-row criteria, grid sub-block walks, norm-form reads and the
        definitional route give the same verdict on every conflict-free set."""
        from afmat import oracle_defends

        for f in small_corpus:
            for s in iter_conflict_free(f):
                sb = extract_subblocks(f, s)
                nf = to_norm_form(f, s)
                st = is_stable(f, s)
                ad = is_admissible(f, s)
                co = ad and is_complete(f, s)
                assert stable_by_blocks(sb) == st
                assert stable_on_norm_form(nf) == st
                assert admissible_by_blocks(sb) == ad
                assert admissible_on_norm_form(nf) == ad
                assert complete_by_blocks(sb) == co
                assert complete_on_norm_form(nf) == co
                inside = set(s)
                assert st == all(
                    any((b, a) in f.attacks for b in s)
                    for a in f.arguments
                    if a not in inside
                )
                assert ad == all(oracle_defends(f, s, a) for a in s)
                assert co == (
                    ad and all(a in inside for a in f.arguments if oracle_defends(f, s, a))
                )


class TestComputeFamily:
    def test_stable_family(self):
        assert extensions(AF5A, "st").sets == frozenset({(1, 3, 5)})

    def test_admissible_family(self):
        family = extensions(AF5B, "ad")
        assert family.sets == frozenset({(), (1, 5), (2, 4), (1, 3, 5)})
        assert family.sets == oracle_family(AF5B, "ad").sets

    def test_complete_family(self):
        family = extensions(AF5C, "co")
        assert family.sets == frozenset({(), (2,), (3, 5), (1, 3, 5), (3, 4, 5)})
        assert family.sets == oracle_family(AF5C, "co").sets

    def test_conflict_free_family(self):
        assert len(extensions(AF5A, "cf")) == 12

    def test_ordering(self):
        assert extensions(AF5B, "ad").ordered() == [
            (), (1, 5), (2, 4), (1, 3, 5),
        ]


class TestComputeDerived:
    def test_preferred(self):
        assert extensions(AF5B, "pr").sets == frozenset({(2, 4), (1, 3, 5)})
        assert extensions(AF5C, "pr").sets == frozenset(
            {(2,), (1, 3, 5), (3, 4, 5)}
        )

    def test_grounded(self):
        assert extensions(AF5D, "gr").sets == frozenset({()})
        assert extensions(AF5A, "gr").sets == frozenset({(1, 3, 5)})

    def test_semi_stable(self):
        assert extensions(AF5A, "sst").sets == frozenset({(1, 3, 5)})

    def test_ideal_and_eager(self):
        assert extensions(AF5C, "id").sets == frozenset({()})
        assert extensions(AF5A, "id").sets == frozenset({(1, 3, 5)})
        assert extensions(AF5A, "eg").sets == frozenset({(1, 3, 5)})

    def test_three_cycle_has_no_stable_extension(self):
        assert len(extensions(CYCLE3, "st")) == 0
        assert extensions(CYCLE3, "pr").sets == frozenset({()})


class TestFamilyInvariants:
    def test_against_oracle(self, small_corpus):
        for f in small_corpus:
            for tag in ALL_TAGS:
                assert extensions(f, tag).sets == oracle_family(f, tag).sets, (
                    f, tag)

    def test_inclusion_chain(self, small_corpus):
        for f in small_corpus:
            st = extensions(f, "st").sets
            pr = extensions(f, "pr").sets
            co = extensions(f, "co").sets
            ad = extensions(f, "ad").sets
            assert st <= pr <= co <= ad

    def test_uniqueness_and_non_emptiness(self, small_corpus):
        for f in small_corpus:
            for tag in ("ad", "pr", "co", "gr"):
                assert len(extensions(f, tag)) >= 1
            for tag in ("gr", "id", "eg"):
                assert len(extensions(f, tag)) == 1

    def test_grounded_equals_fixpoint(self, small_corpus):
        for f in small_corpus:
            assert extensions(f, "gr").ordered() == [oracle_grounded_fixpoint(f)]

    def test_all_members_conflict_free(self, small_corpus):
        for f in small_corpus[::7]:
            for tag in ALL_TAGS:
                for s in extensions(f, tag):
                    assert is_conflict_free(f, s)

    def test_stable_sets_have_full_range(self, small_corpus):
        for f in small_corpus:
            st = extensions(f, "st")
            for s in st:
                assert range_of(f, s) == tuple(f.arguments)
            if len(st):
                assert extensions(f, "sst").sets == st.sets

    def test_permutation_invariance(self, small_corpus):
        import random

        rng = random.Random(2024)
        for f in small_corpus:
            perm = list(f.arguments)
            rng.shuffle(perm)
            g = relabel(f, perm)
            for tag in ALL_TAGS:
                relabelled = {
                    tuple(sorted(perm[a - 1] for a in s))
                    for s in extensions(f, tag).sets
                }
                assert extensions(g, tag).sets == relabelled


# Sparse frameworks past the oracle's exhaustive bound (n = 13..20).
BEYOND_ORACLE = [
    generate(GeneratorConfig(n=n, p=p, seed=2000 + n))
    for n, p in ((13, 0.1), (14, 0.08), (16, 0.07), (17, 0.09), (18, 0.06), (20, 0.05))
] + [
    # the intersection of the preferred / semi-stable extensions is not
    # admissible here, so ideal / eager must shrink it
    generate(GeneratorConfig(n=15, p=0.2, seed=2030)),
    generate(GeneratorConfig(n=19, p=0.15, seed=2025)),
]

# Within the ad look-ahead walk's reach, where a walk without the look-ahead
# visits 26.3M conflict-free sets at n=60.
LOOKAHEAD_REACH = [generate(GeneratorConfig(n=n, p=0.1, seed=2024)) for n in (60, 80)]

# Every attack made mutual: all 252 conflict-free sets are admissible, 104
# complete, none stable, so sst takes the range-maximal step over the walk.
_G16 = generate(GeneratorConfig(n=16, p=0.15, seed=2024))
SYMMETRIC = pytest.param(Framework(16, _G16.attacks | {(b, a) for a, b in _G16.attacks}), id="sym16")


class TestBeyondOracleBound:
    """The fast paths against the plain route where the oracle refuses:
    the conflict-free family filtered through the literal clauses, written
    on ``f.attacks`` and ``oracle_defends`` alone."""

    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    def test_core_families_match_literal_clauses(self, f):
        expected = {"st": set(), "ad": set(), "co": set()}
        for s in extensions(f, "cf").sets:
            inside = set(s)
            defended = {a for a in f.arguments if oracle_defends(f, s, a)}
            if all(any((b, a) in f.attacks for b in s) for a in f.arguments if a not in inside):
                expected["st"].add(s)
            if inside <= defended:
                expected["ad"].add(s)
                if defended <= inside:
                    expected["co"].add(s)
        for tag, sets in expected.items():
            assert extensions(f, tag).sets == sets, tag

    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    def test_grounded_matches_fixpoint(self, f):
        assert extensions(f, "gr").ordered() == [oracle_grounded_fixpoint(f)]

    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    def test_grounded_is_least_complete_set(self, f):
        complete = extensions(f, "co").sets
        least = [s for s in complete if all(set(s) <= set(c) for c in complete)]
        assert extensions(f, "gr").ordered() == least

    @pytest.mark.parametrize("f", BEYOND_ORACLE + LOOKAHEAD_REACH + [SYMMETRIC], ids=lambda f: f"n{f.n}")
    def test_maximal_complete_equals_maximal_admissible(self, f):
        # pr / sst compare the admissible sets, as Dung and Caminada define
        # them. pr / sst and ad all read the ad look-ahead walk, so the co
        # search's family is an independent check.
        for family in ("ad", "co"):
            members = {s: frozenset(s) for s in extensions(f, family).sets}
            reach = {s: frozenset(range_of(f, s)) for s in members}
            preferred = {s for s, m in members.items() if not any(m < o for o in members.values())}
            semi_stable = {s for s, r in reach.items() if not any(r < o for o in reach.values())}
            assert extensions(f, "pr").sets == preferred, family
            assert extensions(f, "sst").sets == semi_stable, family

    @pytest.mark.parametrize("f", BEYOND_ORACLE + [SYMMETRIC], ids=lambda f: f"n{f.n}")
    @pytest.mark.parametrize("tag, outer", [("id", "pr"), ("eg", "sst")])
    def test_largest_admissible_inside_intersection(self, f, tag, outer):
        fence = set(f.arguments).intersection(*extensions(f, outer).sets)
        inside = [s for s in extensions(f, "ad").sets if set(s) <= fence]
        largest = [s for s in inside if all(set(t) <= set(s) for t in inside)]
        assert extensions(f, tag).ordered() == largest

    @pytest.mark.parametrize("tag, check", [("st", oracle._stable), ("co", oracle._complete)], ids=["st", "co"])
    @pytest.mark.parametrize("n, p", [(60, 0.1), (80, 0.1), (200, 0.02)])
    def test_search_answers_pass_literal_clauses(self, n, p, tag, check):
        # no walk reaches these families; the oracle's own clauses certify
        # every reported set, though not that none is missing
        assert not {"_walk", "_search", "_settle"} & set(vars(oracle))
        f = generate(GeneratorConfig(n=n, p=p, seed=2024))
        family = extensions(f, tag)
        assert tag == "st" or len(family) >= 1
        for s in family:
            assert check(f, s), s

    @pytest.mark.parametrize("outer, key, inner", [("pr", "set", "id"), ("sst", "range", "eg")],
                             ids=["pr-id", "sst-eg"])
    @pytest.mark.parametrize("n", [60, 80])
    def test_derived_answers_pass_literal_clauses(self, n, outer, key, inner):
        # pr / sst: complete sets, no set / range inside another; id / eg: an
        # admissible set inside every one of them. As above, this certifies
        # every reported set, not that none is missing
        assert not {"_walk", "_search", "_settle"} & set(vars(oracle))
        f = generate(GeneratorConfig(n=n, p=0.1, seed=2024))
        family = extensions(f, outer).sets
        assert family
        for s in family:
            assert oracle._complete(f, s), s
        keys = [frozenset(s) if key == "set" else oracle._range(f, s) for s in family]
        assert not any(a < b for a in keys for b in keys)
        (least,) = extensions(f, inner).sets
        assert oracle._admissible(f, least)
        assert all(set(least) <= set(s) for s in family)

    @pytest.mark.parametrize("n, p", [(60, 0.1), (1000, 0.005), (1000, 0.002)])
    def test_grounded_on_large_frameworks(self, n, p):
        # Far too many conflict-free sets to walk; the fixpoint is polynomial.
        f = generate(GeneratorConfig(n=n, p=p, seed=2024))
        start = time.perf_counter()
        grounded = extensions(f, "gr").ordered()
        assert time.perf_counter() - start < 2.0
        assert grounded == [oracle_grounded_fixpoint(f)]


# ROADMAP's sparse stressors at seed 2024; n=24 has about 400k conflict-free sets.
STRESSORS = [
    generate(GeneratorConfig(n=n, p=p, seed=2024)) for n, p in ((22, 0.03), (24, 0.05), (30, 0.08))
]
# The tags with a core engine of their own: the st / co search and the ad look-ahead walk.
LOOKAHEAD_TAGS = (Semantics.STABLE, Semantics.ADMISSIBLE, Semantics.COMPLETE)
# grounded {4}; the stable sets {1, 4} and {2, 4} add undecided arguments below 4
UNDECIDED_BELOW_GROUNDED = Framework(4, {(1, 2), (2, 1), (4, 3)})
# ten disjoint 2-cycles: 3^10 = 59 049 complete sets, 1 024 stable ones
TWO_CYCLES = Framework(20, {(a, a + 1) for a in range(1, 20, 2)} | {(a + 1, a) for a in range(1, 20, 2)})
# fifteen: 3^15 = 14 348 907 complete sets, more than a question can list
TWO_CYCLES_15 = Framework(30, {(a, a + 1) for a in range(1, 30, 2)} | {(a + 1, a) for a in range(1, 30, 2)})


def plain_select(tag, tables, nodes):
    """The nodes that meet the core criterion of ``tag`` (st, ad or co), by
    word tests written apart from the library's: co asks that every
    argument outside the range have an attacker outside ``plus``."""
    full, attackers = tables.full, tables.attackers
    if tag is Semantics.STABLE:
        return [v for v in nodes if v[1] | v[2] == full]
    admissible = [v for v in nodes if v[3] & ~v[2] == 0]
    if tag is Semantics.ADMISSIBLE:
        return admissible
    return [v for v in admissible if all(attackers[a] & ~v[2] for a in unpack(full & ~(v[1] | v[2])))]


def pruned_and_plain(f, tag):
    """The list of nodes ``tag``'s own engine gives, without the walk's
    ``cand``, and the set of those the plain walk keeps."""
    tables = attack_tables(f)
    return (
        [v[:4] for v in _extensions(f, tag)],
        set(plain_select(tag, tables, plain_walk(tables))),
    )


class TooManyNodes(Exception):
    """The search or the walk visited more nodes than the test allows."""


class CountedReads(tuple):
    """A table row tuple that counts its reads; read ``most + 1`` raises
    TooManyNodes. The walk reads ``above[i]`` once per node it pushes."""

    def __new__(cls, rows, most):
        counted = super().__new__(cls, rows)
        counted.reads, counted.most = 0, most
        return counted

    def __getitem__(self, i):
        if self.reads == self.most:
            raise TooManyNodes
        self.reads += 1
        return super().__getitem__(i)


def budgeted(tables, most):
    """``tables`` whose ``above`` lets the walk push at most ``most`` nodes."""
    return tables._replace(above=CountedReads(tables.above, most))


def spy_settle(monkeypatch, most):
    """The list of what each later ``_settle`` call returns; the call after
    the first ``most + 1`` raises TooManyNodes."""
    settle, seen = semantics._settle, []

    def counted(*labelling):
        if len(seen) == most + 1:
            raise TooManyNodes
        seen.append(settle(*labelling))
        return seen[-1]

    monkeypatch.setattr(semantics, "_settle", counted)
    return seen


def settled(monkeypatch, tables, tag, most):
    """What ``_settle`` returns for each labelling the search visits for
    ``tag``; the search is stopped once it has visited more than ``most``."""
    seen = spy_settle(monkeypatch, most)
    try:
        for _ in _search(tables, tag):
            pass
    except TooManyNodes:
        pass
    return seen


class TestLookahead:
    """The st / co search and the ad look-ahead walk skip what holds no
    extension; they must give exactly the extensions the plain walk finds."""

    @pytest.mark.parametrize("tag", LOOKAHEAD_TAGS, ids=lambda t: t.value)
    @pytest.mark.parametrize("f", BEYOND_ORACLE + STRESSORS, ids=lambda f: f"n{f.n}")
    def test_pruned_route_equals_plain_route(self, f, tag):
        pruned, plain = pruned_and_plain(f, tag)
        assert set(pruned) == plain
        assert len(pruned) == len(plain)  # each set once

    @given(frameworks(max_n=8))
    # a loop argument is never in ``cand``, so only ``reach`` can cover it
    @example(Framework(2, {(1, 1)}))
    @example(Framework(3, {(1, 1), (2, 1), (3, 2)}))
    @example(UNDECIDED_BELOW_GROUNDED)
    def test_pruned_route_equals_plain_route_on_small_frameworks(self, f):
        for tag in LOOKAHEAD_TAGS:
            pruned, plain = pruned_and_plain(f, tag)
            assert set(pruned) == plain, tag
            assert len(pruned) == len(plain), tag  # each set once

    @pytest.mark.parametrize("f", BEYOND_ORACLE + STRESSORS, ids=lambda f: f"n{f.n}")
    def test_first_complete_labelling_is_grounded_extension(self, f, monkeypatch):
        # gr is this labelling, and co's routes read it first
        first = settled(monkeypatch, attack_tables(f), Semantics.COMPLETE, 0)
        assert first[0][0] == pack(oracle_grounded_fixpoint(f))

    @given(frameworks(max_n=8))
    @example(Framework(2, {(1, 1)}))
    @example(Framework(3, {(1, 1), (2, 1), (3, 2)}))
    @example(UNDECIDED_BELOW_GROUNDED)
    def test_first_complete_labelling_is_grounded_extension_on_small_frameworks(self, f):
        with pytest.MonkeyPatch.context() as monkeypatch:
            first = settled(monkeypatch, attack_tables(f), Semantics.COMPLETE, 0)
        assert first[0][0] == pack(oracle_grounded_fixpoint(f))

    @pytest.mark.parametrize("tag", [Semantics.STABLE, Semantics.COMPLETE], ids=lambda t: t.value)
    def test_search_equals_plain_walk_on_disjoint_two_cycles(self, tag):
        # the search's weak spot: a family of 10^4+ complete sets
        pruned, plain = pruned_and_plain(TWO_CYCLES, tag)
        assert set(pruned) == plain
        assert len(pruned) == (1_024 if tag is Semantics.STABLE else 59_049)

    @pytest.mark.parametrize("tag, most", [(Semantics.STABLE, 2_000), (Semantics.ADMISSIBLE, 50_000)])
    def test_dead_subtrees_are_not_walked(self, tag, most, monkeypatch):
        # 38 admissible sets and no stable one among 26.3M conflict-free
        # sets. The ad look-ahead walk pushes 46 543 nodes and keeps 3 428,
        # the st search settles 12 labellings.
        tables = attack_tables(generate(GeneratorConfig(n=60, p=0.1, seed=2024)))
        if tag is Semantics.STABLE:
            assert len(settled(monkeypatch, tables, tag, most)) <= most
        else:
            assert len(list(_walk(budgeted(tables, most)))) == 38

    @pytest.mark.parametrize("tag", ["pr", "id", "sst", "eg"])
    def test_derived_tags_walk_few_nodes(self, tag, monkeypatch):
        # no stable set: pr / sst keep the maximal nodes of the ad
        # look-ahead walk, which pushes 46 543 nodes and keeps 3 428, where
        # a walk without the look-ahead visits all 26.3M conflict-free sets
        monkeypatch.setattr(semantics, "attack_tables", lambda f: budgeted(attack_tables(f), 50_000))
        f = generate(GeneratorConfig(n=60, p=0.1, seed=2024))
        assert extensions(f, tag).ordered() == [(2, 3, 4, 6, 12, 25, 27, 28, 31, 32, 33, 38, 49, 54)]

    @pytest.mark.parametrize("n, p, most", [(60, 0.1, 170), (200, 0.02, 1_000)])
    def test_complete_search_settles_few_labellings(self, n, p, most, monkeypatch):
        # the walk over every conflict-free set takes 28 s at n=60 and does
        # not end at n=200; the search settles 142 and 841 labellings
        tables = attack_tables(generate(GeneratorConfig(n=n, p=p, seed=2024)))
        assert len(settled(monkeypatch, tables, Semantics.COMPLETE, most)) <= most

    def test_stable_search_starts_at_grounded_extension(self, monkeypatch):
        # two stable sets; the search settles 3 labellings, the first one
        # holding the grounded extension; the walk from the empty set does
        # not end within 30 s
        f = generate(GeneratorConfig(n=1000, p=0.002, seed=2024))
        nodes = settled(monkeypatch, attack_tables(f), Semantics.STABLE, 50)
        assert len(nodes) <= 50
        assert pack(oracle_grounded_fixpoint(f)) & ~nodes[0][0] == 0
        stable = query(f, "EE", "st")
        assert len(stable) == 2
        for s in map(set, stable):
            attacked = {b for a, b in f.attacks if a in s}
            assert not attacked & s
            assert attacked | s == set(f.arguments)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.value)
@pytest.mark.parametrize(
    "f", BEYOND_ORACLE + STRESSORS + [UNDECIDED_BELOW_GROUNDED], ids=lambda f: f"n{f.n}"
)
def test_answer_order_beyond_oracle_bound(f, tag):
    # neither engine owes an order; the answers must follow the full
    # (cardinality, lexicographic) key
    expected = sorted(extensions(f, tag).sets, key=lambda s: (len(s), s))
    assert query(f, "EE", tag) == expected
    assert query(f, "SE", tag) == (expected[0] if expected else None)


def test_attack_table_cache_lets_dropped_frameworks_go():
    f = Framework(9, {(9, 1), (1, 9), (4, 4), (2, 7)})
    extensions(f, "co")
    dropped = weakref.ref(f)
    del f
    for n in range(1, _TABLES_CACHED + 2):
        extensions(Framework(n, {(a, a) for a in range(1, n + 1)}), "co")
    gc.collect()
    assert dropped() is None


class TestRange:
    def test_known_value(self):
        assert range_of(AF5A, (1, 3, 5)) == (1, 2, 3, 4, 5)
        assert range_of(AF5A, ()) == ()
        assert range_of(AF5A, (2,)) == (2, 3, 5)

    def test_bounds(self, small_corpus):
        for f in small_corpus[::11]:
            for s in iter_conflict_free(f):
                reach = range_of(f, s)
                assert set(s) <= set(reach) <= set(f.arguments)


def literal_range_maximal(pairs):
    """The masks whose range no other range strictly contains, pair by pair."""
    return [m for m, reach in pairs if not any(reach != r and reach & ~r == 0 for _, r in pairs)]


def ranged_admissible(f):
    """``(mask, range mask)`` of every admissible set, in cardinality order."""
    return [(pack(s), pack(range_of(f, s))) for s in extensions(f, "ad").ordered()]


def range_maximal(pairs):
    """The masks ``_maximal`` keeps when keyed on the range."""
    return [m for m, _ in _maximal(pairs, key=lambda pair: pair[1])]


class TestRangeMaximal:
    @given(frameworks(), st.data())
    def test_matches_literal_definition_in_any_order(self, f, data):
        pairs = data.draw(st.permutations(ranged_admissible(f)))
        assert range_maximal(pairs) == literal_range_maximal(pairs)

    def test_time_does_not_depend_on_order(self):
        # 46k admissible sets. Comparing every range with every other takes
        # over a minute on them in cardinality order, under a second in walk
        # preorder; comparing only the distinct ranges does not care.
        f = generate(GeneratorConfig(n=24, p=0.05, seed=2024))
        pairs = ranged_admissible(f)
        start = time.perf_counter()
        chosen = range_maximal(pairs)
        assert time.perf_counter() - start < 5.0
        assert frozenset(map(unpack, chosen)) == extensions(f, "sst").sets


@given(frameworks(max_n=5))
@example(Framework(3, {(1, 2), (2, 3)}))  # {1} defends 3, outside the fence {1}
def test_fixpoint_is_largest_self_defending_part_of_fence(f):
    # id / eg pass an intersection of complete sets, which the defence
    # function never leaves; any fence checks that the scan stays inside it
    tables = attack_tables(f)
    for fence in map(set, powerset(f)):
        inside = [s for s in powerset(f) if set(s) <= fence]
        parts = [s for s in inside if all(oracle_defends(f, s, a) for a in s)]
        assert _fixpoint(tables, pack(fence))[0] == tuple(sorted(set().union(*parts)))


QUESTIONS = (
    "exists", "SE", "EE", "DC", "DS", "AC", "AS",
    "SE-containing", "EE-containing", "SE-attacking", "EE-attacking",
)
GLOBAL_QUESTIONS, LOCAL_QUESTIONS = QUESTIONS[:3], QUESTIONS[3:]


def catalogue_by_sets(f, family, target):
    """Every question's answer by plain set logic over a family of sets."""
    fam = sorted(family, key=lambda s: (len(s), s))
    t = set(target)
    containing = [e for e in fam if t <= set(e)]
    attacking = [e for e in fam if any((a, b) in f.attacks for a in e for b in t)]
    return {
        "exists": len(fam) > 0,
        "SE": fam[0] if fam else None,
        "EE": fam,
        "DC": len(containing) > 0,
        "DS": len(containing) == len(fam),
        "AC": len(attacking) > 0,
        "AS": len(attacking) == len(fam),
        "SE-containing": containing[0] if containing else None,
        "EE-containing": containing,
        "SE-attacking": attacking[0] if attacking else None,
        "EE-attacking": attacking,
    }


def check_catalogue(f, tag, family, targets):
    """``query`` against set logic over ``family``: every global question,
    and every local one about each target."""
    expected = catalogue_by_sets(f, family, ())
    for q in GLOBAL_QUESTIONS:
        answer = query(f, q, tag)
        assert answer == expected[q] and type(answer) is type(expected[q]), (tag, q)
    for target in targets:
        expected = catalogue_by_sets(f, family, (target,) if isinstance(target, int) else target)
        for q in LOCAL_QUESTIONS:
            answer = query(f, q, tag, target)
            assert answer == expected[q] and type(answer) is type(expected[q]), (tag, q, target)


class TestQueries:
    @settings(deadline=None)
    @given(frameworks(max_n=6))
    @example(CYCLE3)
    # stable {2}: sst is {2} alone, pr also holds {1}
    @example(Framework(3, {(1, 2), (2, 1), (2, 3), (3, 3)}))
    # grounded empty, three complete extensions
    @example(Framework(2, {(1, 2), (2, 1)}))
    def test_catalogue_matches_oracle(self, f):
        targets = list(f.arguments) + ([(1, f.n)] if f.n >= 2 else [])
        for tag in ALL_TAGS:
            check_catalogue(f, tag, oracle_family(f, tag).sets, targets)

    @settings(deadline=None)
    @given(frameworks(max_n=8))
    # self-attacker 1, the attack 2 -> 3 inside the pair (2, 3), and 4 whose
    # least attacker 1 attacks itself: its least cf attacker is 2
    @example(Framework(4, {(1, 1), (2, 3), (1, 4), (2, 4)}))
    # 2's only attacker attacks itself: no conflict-free set attacks 2
    @example(Framework(2, {(1, 1), (1, 2)}))
    def test_cf_closed_forms_match_oracle(self, f):
        # cf some- and first-questions read a minimal witness, the lists the
        # enumerator: each against set logic over the oracle's family
        pairs = sorted({(min(a, b), max(a, b)) for a, b in f.attacks if a != b})
        targets = [(), *f.arguments, *pairs[:3]]
        check_catalogue(f, Semantics.CONFLICT_FREE, oracle_family(f, "cf").sets, targets)

    def test_membership_questions(self):
        assert query(AF5A, "DC", "st", 1)
        assert not query(AF5A, "DS", "st", 2)
        assert query(AF5B, "AC", "ad", 2)

    def test_query_dispatch(self):
        assert query(AF5A, "exists", "st") is True
        assert query(AF5A, "SE", "st") == (1, 3, 5)
        assert query(AF5A, "EE", "st") == [(1, 3, 5)]
        assert query(AF5A, "DC", "st", 1) is True
        assert query(AF5A, "DS", "st", 2) is False
        assert query(AF5B, "AC", "ad", 2) is True
        assert query(AF5B, "AS", "ad", 2) is False
        assert query(AF5A, "EE-containing", "cf", 5) == [
            (5,), (1, 5), (3, 5), (1, 3, 5),
        ]
        assert query(AF5A, "SE-containing", "st", 3) == (1, 3, 5)
        assert query(AF5A, "EE-attacking", "st", 2) == [(1, 3, 5)]
        assert query(AF5A, "SE-attacking", "st", (2, 4)) == (1, 3, 5)

    def test_set_valued_targets(self):
        assert query(AF5A, "DC", "st", (1, 3))
        assert not query(AF5A, "DC", "st", (1, 2))

    def test_empty_family_conventions(self):
        assert query(CYCLE3, "exists", "st") is False
        assert query(CYCLE3, "SE", "st") is None
        assert query(CYCLE3, "DS", "st", 1) is True
        assert query(CYCLE3, "AS", "st", 1) is True
        assert query(CYCLE3, "DC", "st", 1) is False
        assert query(CYCLE3, "AC", "st", 1) is False

    def test_errors(self):
        with pytest.raises(ValueError):
            query(AF5A, "nonsense", "st", 1)
        with pytest.raises(ValueError):
            query(AF5A, "EE", "zz")
        with pytest.raises(ValueError):
            query(AF5A, "DC", "st")
        with pytest.raises(IndexError):
            query(AF5A, "DC", "st", 9)
        with pytest.raises(IndexError, match="argument True outside"):
            query(AF5A, "DC", "gr", True)

    def test_witness_helpers(self):
        assert query(AF5B, "EE-containing", "pr", 4) == [(2, 4)]
        assert query(AF5B, "EE-attacking", "pr", 3) == [(2, 4)]


@pytest.mark.parametrize("call", [
    lambda f, s: query(f, "DC", "st", s),
    is_conflict_free,
    is_admissible,
    range_of,
    extract_subblocks,
    to_norm_form,
], ids=["query", "is_conflict_free", "is_admissible", "range_of", "extract_subblocks", "to_norm_form"])
@pytest.mark.parametrize("members", [[1, 1.0], [1.0, 1], [1, True], [True, 1]],
                         ids=["int_first", "float_first", "int_before_bool", "bool_first"])
def test_non_integer_member_is_caught_in_any_order(call, members):
    # 1.0 == True == 1, but neither is an argument: it must not hide behind a duplicate 1
    bad = next(a for a in members if type(a) is not int)
    with pytest.raises(IndexError, match=rf"argument {re.escape(repr(bad))} outside 1\.\.3"):
        call(CYCLE3, members)


ROUTED_TAGS = (Semantics.COMPLETE, Semantics.PREFERRED, Semantics.SEMI_STABLE, Semantics.EAGER)


def plain_family(f, tag):
    """The extensions of a routed tag by no route: cf from the plain walk,
    ad / co / pr as ``extensions`` builds them, sst from the range-maximal
    complete nodes of the plain walk, eg as the fixpoint inside their
    intersection."""
    if tag in (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.PREFERRED):
        return extensions(f, tag).sets
    tables = attack_tables(f)
    if tag is Semantics.CONFLICT_FREE:
        return {v[0] for v in plain_walk(tables)}
    top = _maximal(plain_select(Semantics.COMPLETE, tables, plain_walk(tables)), key=lambda v: v[1] | v[2])
    if tag is Semantics.SEMI_STABLE:
        return {v[0] for v in top}
    fence = tables.full
    for v in top:
        fence &= v[1]
    return {_fixpoint(tables, fence)[0]}


def no_walk(tables):
    raise AssertionError("walk started")


def check_some_questions(f, complete, contained, attacked):
    """co / pr exists, DC and AC against set logic over ``complete``, the
    complete family: some preferred extension passes iff a complete one does."""
    for tag in ("co", "pr"):
        assert query(f, "exists", tag) is bool(complete)
    for q, targets in (("DC", contained), ("AC", attacked)):
        for target in targets:
            expected = catalogue_by_sets(f, complete, (target,) if isinstance(target, int) else target)[q]
            for tag in ("co", "pr"):
                assert query(f, q, tag, target) is expected, (tag, q, target)


class TestRoutes:
    """cf / ad questions go through the empty set before the walk, co / pr
    through the grounded node before the complete search, sst / eg through
    the stable search; the answers must equal set logic over the family no
    route built."""

    # cf / ad on these only: the stressors hold 398 800 conflict-free sets
    @pytest.mark.parametrize(
        "tag", (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE) + ROUTED_TAGS, ids=lambda t: t.value
    )
    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    def test_every_question_matches_plain_family(self, f, tag):
        check_catalogue(f, tag, plain_family(f, tag), list(f.arguments) + [(1, f.n)])

    @pytest.mark.parametrize("tag", ROUTED_TAGS, ids=lambda t: t.value)
    @pytest.mark.parametrize("f", STRESSORS, ids=lambda f: f"n{f.n}")
    def test_global_questions_match_plain_family(self, f, tag):
        check_catalogue(f, tag, plain_family(f, tag), [])

    def test_st_sst_eg_co_and_pr_some_questions_start_no_walk(self, monkeypatch):
        # one stable set; the st / sst / eg answers come from the stable
        # search, co's from G and the complete search, pr's some-questions
        # from co: none of them starts the ad walk
        f = generate(GeneratorConfig(n=80, p=0.1, seed=2024))
        monkeypatch.setattr(semantics, "_walk", no_walk)
        stable = query(f, "EE", "st")
        assert len(stable) == 1
        assert query(f, "EE", "sst") == stable
        assert query(f, "EE", "eg") == stable
        assert query(f, "SE", "co") == query(f, "SE", "gr") == ()
        assert query(f, "DS", "co", 2) is False
        assert query(f, "AS", "co", 2) is False
        assert query(f, "DC", "pr", 2) is True
        assert query(f, "AC", "pr", 2) is False

    @pytest.mark.parametrize("tag", ["cf", "ad"])
    def test_least_answers_start_no_walk(self, tag, monkeypatch):
        # 26.3M conflict-free sets; the empty set is conflict-free and
        # admissible and lies inside every other such set, so it answers
        f = generate(GeneratorConfig(n=60, p=0.1, seed=2024))
        monkeypatch.setattr(semantics, "_walk", no_walk)
        monkeypatch.setattr(semantics, "_conflict_free", no_walk)
        assert query(f, "SE", tag) == query(f, "SE-containing", tag, ()) == ()
        assert query(f, "DS", tag, ()) is True
        assert query(f, "DS", tag, 1) is False
        assert query(f, "AS", tag, 1) is False

    @pytest.mark.parametrize("n, question, target", [
        (80, "DC", 12), (80, "DC", 10), (60, "DC", 11), (60, "SE-containing", 2), (60, "DC", (1, 2, 3)),
        (60, "SE-containing", (1, 27)), (60, "AC", 2), (60, "AC", 33), (60, "SE-attacking", 2),
        (80, "SE-attacking", (12, 40)),
    ])
    def test_cf_witnesses_start_no_walk(self, n, question, target, monkeypatch):
        # 26.3M conflict-free sets at n=60, more at n=80, where a walk to the
        # first witness takes seconds for DC of 11 and more than 20 s for DC
        # of 12 at n=80: neither the cf enumerator nor the ad walk may
        # start. The expected answers read ``f.attacks`` alone
        f = generate(GeneratorConfig(n=n, p=0.1, seed=2024))
        t = {target} if isinstance(target, int) else set(target)
        if question in ("DC", "SE-containing"):
            free = not any((a, b) in f.attacks for a in t for b in t)
            expected = tuple(sorted(t)) if free else None
        else:  # the least attacker of t that does not attack itself
            attackers = sorted(a for (a, b) in f.attacks if b in t and (a, a) not in f.attacks)
            expected = (attackers[0],) if attackers else None
        monkeypatch.setattr(semantics, "_walk", no_walk)
        monkeypatch.setattr(semantics, "_conflict_free", no_walk)
        answer = query(f, question, "cf", target)
        assert answer == (expected is not None if question in ("DC", "AC") else expected)

    def test_some_questions_on_two_cycles(self):
        # 59 049 complete sets and G = {}: exists stops at G, a YES to DC or
        # AC at its first witness; only DC of (1, 2), a NO, lists every
        # complete set
        check_some_questions(TWO_CYCLES, extensions(TWO_CYCLES, "co").sets, [1, 20, (1, 2)], [1, 20, (1, 3)])

    @pytest.mark.parametrize("question, tag, target, expected", [
        ("DC", "co", 30, True), ("AC", "pr", 29, True), ("DC", "st", 30, True), ("AS", "st", 1, False),
    ], ids=["DC-co-30", "AC-pr-29", "DC-st-30", "AS-st-1"])
    def test_some_questions_stop_at_first_witness(self, question, tag, target, expected, monkeypatch):
        # G = {} answers neither co nor pr, and st has no least extension.
        # Listing the 14 348 907 complete sets first would take minutes, the
        # 32 768 stable sets 65 535 settles. The first stable set holds 1 and
        # so does not attack it: AS stops there
        seen = spy_settle(monkeypatch, 50)
        assert query(TWO_CYCLES_15, question, tag, target) is expected
        assert len(seen) <= 50

    def test_first_does_not_depend_on_node_order(self):
        # every set holding an even argument attacks the odd ones: (2,) ...
        # (20,) tie on size, and the search yields them in its own order
        nodes = list(_extensions(TWO_CYCLES, Semantics.COMPLETE))
        hit = _attacks(pack(range(1, 21, 2)))
        assert _first(nodes, hit) == _first(reversed(nodes), hit) == (2,)

    @pytest.mark.parametrize("n, p", [(200, 0.02), (300, 0.01)])
    def test_some_questions_start_no_walk(self, n, p, monkeypatch):
        # the admissible walk would not answer here within 20 s; the complete
        # search answers in about 50 ms
        f = generate(GeneratorConfig(n=n, p=p, seed=2024))
        complete = extensions(f, "co").sets
        targets = [1, 2, n, *min(complete, key=len)[:1]]
        monkeypatch.setattr(semantics, "_walk", no_walk)
        check_some_questions(f, complete, targets, targets)


@pytest.mark.parametrize("k, q, message", [
    (2, 0, "top-left region is not zero"),  # 1 attacks 2, both members
    (1, 0, "defeated column without attack"),  # 1 leaves 3 unattacked
], ids=["top_left", "defeated_column"])
def test_norm_form_guard_rejects_bad_zones(k, q, message):
    assert issubclass(InternalInvariantError, RuntimeError)
    bad = NormForm(natural_matrix(AF5A), k=k, q=q)
    with pytest.raises(InternalInvariantError, match=message):
        _verify_norm_form(bad)
