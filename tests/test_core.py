"""Framework model, matrix building, dual interchanges, sub-blocks, norm form."""

from __future__ import annotations

from itertools import permutations

import pytest
from helpers import AF5A, AF5D, CYCLE3, assemble, assert_as_if_public, make_corpus
from hypothesis import example, given
from hypothesis import strategies as st

from afmat import (
    Framework,
    GeneratorConfig,
    MalformedPermutationError,
    PreconditionError,
    argset,
    build_matrix,
    check_permutation,
    dual_interchange,
    extract_subblocks,
    generate,
    natural_matrix,
    relabel,
    to_norm_form,
)
from afmat.core import pack, unpack


@st.composite
def frameworks(draw, max_n: int = 6):
    n = draw(st.integers(0, max_n))
    if n == 0:
        return Framework(0)
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    return Framework(n, draw(st.frozensets(pairs, max_size=n * n)))


@st.composite
def frameworks_with_permutation(draw, max_n: int = 6):
    f = draw(frameworks(max_n))
    perm = draw(st.permutations(list(f.arguments)))
    return f, tuple(perm)


class TestFramework:
    def test_validation(self):
        with pytest.raises(ValueError):
            Framework(-1)
        # True == 1, but is no argument count
        with pytest.raises(ValueError, match="non-negative integer"):
            Framework(True)
        with pytest.raises(ValueError):
            Framework(2, {(0, 1)})
        with pytest.raises(ValueError):
            Framework(2, {(1, 3)})
        # the message names the pair that is out of range
        with pytest.raises(ValueError, match=r"^attack \(1, 3\) outside 1\.\.2$"):
            Framework(2, [(1, 2), (1, 3)])
        # a pair must have exactly two endpoints
        with pytest.raises(ValueError, match="pair of integers"):
            Framework(2, {(1,)})
        with pytest.raises(ValueError, match="pair of integers"):
            Framework(2, {(1, 2, 2)})
        # checked before duplicates collapse: 1.0 == 1, but is no argument
        with pytest.raises(ValueError, match="pair of integers"):
            Framework(2, [(1, 2), (1.0, 2)])

    @pytest.mark.parametrize("pair", [(1, "2"), (1.5, 2), (1.0, 2), ([1], 2), 1, None, (True, 2), (1, False)])
    def test_non_integer_endpoint(self, pair):
        # an unhashable endpoint is a bad pair, not a TypeError
        with pytest.raises(ValueError, match="pair of integers"):
            Framework(2, [pair])

    def test_attacks_canonicalised(self):
        f = Framework(3, [(1, 2), (1, 2), (2, 3)])
        assert f.attacks == frozenset({(1, 2), (2, 3)})
        f = Framework(3, [[1, 2], (2, 3)])
        assert f.attacks == frozenset({(1, 2), (2, 3)})
        assert all(type(pair) is tuple for pair in f.attacks)

    def test_empty_framework(self):
        f = Framework(0)
        assert list(f.arguments) == []
        assert f.attacks == frozenset()

    def test_argset_helpers(self):
        assert argset([3, 1, 1, 2]) == (1, 2, 3)


class TestBuildMatrix:
    def test_three_cycle_natural(self):
        m = build_matrix(CYCLE3, (1, 2, 3))
        assert m.to_grid() == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert m.labels == (1, 2, 3)

    def test_three_cycle_reordered(self):
        m = build_matrix(CYCLE3, (2, 1, 3))
        assert m.to_grid() == ((0, 0, 1), (1, 0, 0), (0, 1, 0))

    def test_empty_relation(self):
        assert build_matrix(Framework(2), (1, 2)).to_grid() == ((0, 0), (0, 0))
        assert build_matrix(Framework(2), (2, 1)).to_grid() == ((0, 0), (0, 0))

    def test_cell_is_one_based(self):
        m = natural_matrix(CYCLE3)
        assert m.cell(1, 2) == 1
        assert m.cell(2, 1) == 0
        with pytest.raises(IndexError):
            m.cell(0, 1)
        with pytest.raises(IndexError):
            m.cell(1, 4)
        with pytest.raises(IndexError):
            m.cell(True, 2)
        with pytest.raises(IndexError):
            m.cell(1, 2.0)

    @pytest.mark.parametrize(
        "perm",
        [(1, 2), (1, 2, 3, 4), (1, 1, 3), (0, 1, 2), (2, 3, 4), (1.0, 2, 3), (1, 2, 3.0), (True, 2, 3),
         ("a", 2, 3), (None, 2, 3)],
    )
    def test_malformed_permutations(self, perm):
        with pytest.raises(MalformedPermutationError):
            build_matrix(CYCLE3, perm)

    def test_check_permutation_passthrough(self):
        assert check_permutation([2, 1], 2) == (2, 1)
        with pytest.raises(MalformedPermutationError):
            check_permutation([True, 2], 2)

    @given(frameworks_with_permutation())
    def test_round_trip_reconstruction(self, fp):
        f, perm = fp
        assert build_matrix(f, perm).to_framework() == f
        assert natural_matrix(f) == build_matrix(f, f.arguments)


class TestDualInterchange:
    def test_interchange_chain(self):
        m = natural_matrix(AF5A)
        m1 = dual_interchange(m, 2, 3)
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

    def test_identity_swap(self):
        m = natural_matrix(AF5A)
        assert dual_interchange(m, 3, 3) == m

    def test_out_of_range(self):
        m = natural_matrix(CYCLE3)
        with pytest.raises(IndexError):
            dual_interchange(m, 0, 1)
        with pytest.raises(IndexError):
            dual_interchange(m, 1, 4)

    @given(frameworks_with_permutation(), st.data())
    def test_involution(self, fp, data):
        f, perm = fp
        if f.n == 0:
            return
        m = build_matrix(f, perm)
        k = data.draw(st.integers(1, f.n))
        l = data.draw(st.integers(1, f.n))
        assert dual_interchange(dual_interchange(m, k, l), k, l) == m

    @given(frameworks_with_permutation(), st.data())
    def test_matches_label_swap(self, fp, data):
        f, perm = fp
        if f.n == 0:
            return
        k = data.draw(st.integers(1, f.n))
        l = data.draw(st.integers(1, f.n))
        swapped = list(perm)
        swapped[k - 1], swapped[l - 1] = swapped[l - 1], swapped[k - 1]
        assert dual_interchange(build_matrix(f, perm), k, l) == build_matrix(f, swapped)

    def test_matches_label_swap_exhaustive_small(self):
        for f in make_corpus(ns=range(1, 5), ps=(0.3,), count=2):
            for perm in permutations(f.arguments):
                m = build_matrix(f, perm)
                for k in f.arguments:
                    for l in f.arguments:
                        swapped = list(perm)
                        swapped[k - 1], swapped[l - 1] = swapped[l - 1], swapped[k - 1]
                        assert dual_interchange(m, k, l) == build_matrix(f, swapped)


class TestSubBlocks:
    def test_blocks_of_pair_candidate(self):
        sb = extract_subblocks(AF5D, (3, 4))
        assert sb.members == (3, 4)
        assert sb.outsiders == (1, 2, 5)
        assert sb.inner == ((0, 0), (0, 0))
        assert sb.outgoing == ((1, 0, 0), (0, 0, 1))
        assert sb.incoming == ((1, 0), (0, 0), (0, 1))
        assert sb.outer == ((0, 1, 0), (0, 0, 0), (1, 0, 0))

    def test_blocks_of_triple_candidate(self):
        sb = extract_subblocks(AF5A, (1, 3, 5))
        assert sb.outsiders == (2, 4)
        assert sb.inner == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
        assert sb.outgoing == ((1, 0), (0, 0), (0, 1))
        assert sb.incoming == ((0, 1, 1), (0, 1, 0))
        assert sb.outer == ((0, 0), (0, 0))

    def test_full_candidate_has_empty_complement_blocks(self):
        sb = extract_subblocks(CYCLE3, (1, 2, 3))
        assert sb.inner == natural_matrix(CYCLE3).to_grid()
        assert sb.outgoing == ((), (), ())
        assert sb.incoming == ()
        assert sb.outer == ()

    def test_empty_candidate(self):
        sb = extract_subblocks(CYCLE3, ())
        assert sb.inner == ()
        assert sb.outer == natural_matrix(CYCLE3).to_grid()

    def test_member_out_of_range(self):
        with pytest.raises(IndexError):
            extract_subblocks(CYCLE3, (4,))

    def test_assembly_matches_grouped_matrix_exhaustive(self):
        from itertools import combinations

        for f in make_corpus(ns=range(0, 5), ps=(0.1, 0.5), count=2):
            for r in range(f.n + 1):
                for s in combinations(f.arguments, r):
                    sb = extract_subblocks(f, s)
                    grouped = build_matrix(f, sb.members + sb.outsiders)
                    assert assemble(sb) == grouped.to_grid()

    @given(frameworks(), st.data())
    def test_assembly_matches_grouped_matrix(self, f, data):
        s = data.draw(st.frozensets(st.sampled_from(list(f.arguments)) if f.n else st.nothing()))
        sb = extract_subblocks(f, s)
        grouped = build_matrix(f, sb.members + sb.outsiders)
        assert assemble(sb) == grouped.to_grid()


class TestNormForm:
    def test_candidate_with_one_undefeated_outsider(self):
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
        assert nf.members == (3, 4)
        assert nf.undefeated == (2,)
        assert nf.defeated == (1, 5)
        assert nf.block("undefeated", "members") == ((0, 0),)
        assert nf.block("undefeated", "undefeated") == ((0,),)
        assert nf.block("members", "defeated") == ((1, 0), (0, 1))

    def test_candidate_with_two_undefeated_outsiders(self):
        nf = to_norm_form(AF5D, (2, 3))
        assert nf.matrix.labels == (3, 2, 5, 4, 1)
        assert (nf.k, nf.q, nf.l) == (2, 2, 1)
        assert nf.matrix.to_grid() == (
            (0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1),
            (0, 0, 1, 0, 0),
            (1, 1, 0, 0, 0),
        )
        assert nf.block("undefeated", "undefeated") == ((0, 1), (1, 0))
        assert nf.block("undefeated", "members") == ((0, 0), (0, 0))

    def test_empty_candidate_is_natural_matrix(self):
        nf = to_norm_form(AF5A, ())
        assert nf.matrix == natural_matrix(AF5A)
        assert (nf.k, nf.q, nf.l) == (0, 5, 0)

    def test_rejects_conflicting_candidate(self):
        with pytest.raises(PreconditionError) as err:
            to_norm_form(AF5D, (1, 3))
        assert err.value.pair in {(1, 3), (3, 1)}

    def test_unknown_zone_rejected(self):
        nf = to_norm_form(AF5D, (3, 4))
        with pytest.raises(ValueError):
            nf.block("members", "nonsense")

    def test_structure_and_path_independence(self, small_corpus):
        from afmat import iter_conflict_free

        for f in small_corpus:
            for s in iter_conflict_free(f):
                nf = to_norm_form(f, s)
                grid = nf.matrix.to_grid()
                k, q = nf.k, nf.q
                assert set(nf.members) == set(s)
                # top-left k x (k+q) region all zero
                assert all(grid[r][c] == 0 for r in range(k) for c in range(k + q))
                # every members x defeated column holds an attack
                for c in range(k + q, f.n):
                    assert any(grid[r][c] for r in range(k))
                # undefeated outsiders are exactly those the candidate leaves alone
                struck = {b for a in s for (x, b) in f.attacks if x == a}
                assert set(nf.undefeated) == set(f.arguments) - set(s) - struck
                # interchange-built equals built straight from the final labels
                assert build_matrix(f, nf.matrix.labels) == nf.matrix

    @given(frameworks(max_n=7))
    def test_every_zone_block_is_a_slice_of_the_grid(self, f):
        from afmat import iter_conflict_free

        for s in iter_conflict_free(f):
            nf = to_norm_form(f, s)
            grid = nf.matrix.to_grid()
            k, q = nf.k, nf.q
            assert k + q + nf.l == f.n
            bounds = {"members": (0, k), "undefeated": (k, k + q), "defeated": (k + q, f.n)}
            for rows, (r0, r1) in bounds.items():
                for cols, (c0, c1) in bounds.items():
                    assert nf.block(rows, cols) == tuple(row[c0:c1] for row in grid[r0:r1])


def test_relabel_roundtrip():
    f = relabel(AF5A, (3, 1, 2, 5, 4))
    assert relabel(f, (2, 3, 1, 5, 4)) == AF5A
    with pytest.raises(MalformedPermutationError):
        relabel(AF5A, (1, 2, 3))
    # 1.0 == 1, but would become an endpoint no public Framework accepts
    with pytest.raises(MalformedPermutationError):
        relabel(AF5A, (3.0, 1, 2, 5, 4))


class TestCheckedProducers:
    """generate and relabel make their identifiers themselves and hand
    Framework a checked attack set: the framework the public constructor
    builds, with no pair checked again."""

    def test_corpus(self, small_corpus):
        for f in small_corpus:
            assert_as_if_public(f)
            g = relabel(f, reversed(f.arguments))
            assert_as_if_public(g)
            assert g == Framework(f.n, {(f.n + 1 - a, f.n + 1 - b) for a, b in f.attacks})

    def test_dense_and_edge_frameworks(self):
        # the size of the slowest files-cli call; no attacks; every pair a
        # self-attack or both directions
        for cfg in [GeneratorConfig(n=150, p=0.8, seed=1), GeneratorConfig(n=5, p=0.0, seed=1),
                    GeneratorConfig(n=5, p=1.0, seed=1), GeneratorConfig(n=0, p=0.5, seed=1)]:
            f = generate(cfg)
            assert_as_if_public(f)
            assert_as_if_public(relabel(f, range(f.n, 0, -1)))

    def test_producers_check_no_pair(self, pair_checks):
        f = generate(GeneratorConfig(n=40, p=0.5, seed=3))
        relabel(f, range(40, 0, -1))
        relabel(AF5D, (5, 4, 3, 2, 1))
        assert pair_checks == []
        # the matrix labels come from a public dataclass: checked
        natural_matrix(AF5D).to_framework()
        assert pair_checks == [5]


@given(st.frozensets(st.integers(1, 1000)))
@example(frozenset({1, 64, 65, 999, 1000}))
def test_pack_unpack_roundtrip(members):
    mask = pack(members)
    assert mask.bit_count() == len(members)
    assert unpack(mask) == tuple(sorted(members))
