"""Matrix criteria, extension families, derived semantics and queries."""

from __future__ import annotations

import gc
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
    oracle_defends,
    oracle_family,
    oracle_grounded_fixpoint,
    query,
    range_of,
    relabel,
    stable_on_norm_form,
    to_norm_form,
)
from afmat.core import _TABLES_CACHED, _verify_norm_form, pack, unpack
from afmat.semantics import _maximal

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
        with pytest.raises(PreconditionError):
            is_complete(AF5B, (1,))
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

    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    def test_maximal_complete_equals_maximal_admissible(self, f):
        # pr / sst compare the complete sets; Dung and Caminada define
        # them over the admissible sets
        members = {s: frozenset(s) for s in extensions(f, "ad").sets}
        reach = {s: frozenset(range_of(f, s)) for s in members}
        preferred = {s for s, m in members.items() if not any(m < o for o in members.values())}
        semi_stable = {s for s, r in reach.items() if not any(r < o for o in reach.values())}
        assert extensions(f, "pr").sets == preferred
        assert extensions(f, "sst").sets == semi_stable

    @pytest.mark.parametrize("f", BEYOND_ORACLE, ids=lambda f: f"n{f.n}")
    @pytest.mark.parametrize("tag, outer", [("id", "pr"), ("eg", "sst")])
    def test_largest_admissible_inside_intersection(self, f, tag, outer):
        fence = set(f.arguments).intersection(*extensions(f, outer).sets)
        inside = [s for s in extensions(f, "ad").sets if set(s) <= fence]
        largest = [s for s in inside if all(set(t) <= set(s) for t in inside)]
        assert extensions(f, tag).ordered() == largest

    @pytest.mark.parametrize("n, p", [(60, 0.1), (1000, 0.005)])
    def test_grounded_on_large_frameworks(self, n, p):
        # Far too many conflict-free sets to walk; the fixpoint is polynomial.
        f = generate(GeneratorConfig(n=n, p=p, seed=2024))
        start = time.perf_counter()
        grounded = extensions(f, "gr").ordered()
        assert time.perf_counter() - start < 2.0
        assert grounded == [oracle_grounded_fixpoint(f)]


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


class TestQueries:
    @settings(deadline=None)
    @given(frameworks(max_n=6))
    @example(CYCLE3)
    def test_catalogue_matches_oracle(self, f):
        targets = list(f.arguments) + ([(1, f.n)] if f.n >= 2 else [])
        for tag in ALL_TAGS:
            family = oracle_family(f, tag).sets
            expected = catalogue_by_sets(f, family, ())
            for q in GLOBAL_QUESTIONS:
                answer = query(f, q, tag)
                assert answer == expected[q] and type(answer) is type(expected[q]), (tag, q)
            for target in targets:
                expected = catalogue_by_sets(f, family, (target,) if isinstance(target, int) else target)
                for q in LOCAL_QUESTIONS:
                    answer = query(f, q, tag, target)
                    assert answer == expected[q] and type(answer) is type(expected[q]), (tag, q, target)

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

    def test_witness_helpers(self):
        assert query(AF5B, "EE-containing", "pr", 4) == [(2, 4)]
        assert query(AF5B, "EE-attacking", "pr", 3) == [(2, 4)]


@pytest.mark.parametrize("k, q, message", [
    (2, 0, "top-left region is not zero"),  # 1 attacks 2, both members
    (1, 0, "defeated column without attack"),  # 1 leaves 3 unattacked
], ids=["top_left", "defeated_column"])
def test_norm_form_guard_rejects_bad_zones(k, q, message):
    assert issubclass(InternalInvariantError, RuntimeError)
    bad = NormForm(natural_matrix(AF5A), k=k, q=q)
    with pytest.raises(InternalInvariantError, match=message):
        _verify_norm_form(bad)
