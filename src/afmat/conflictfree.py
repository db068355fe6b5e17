"""Conflict-free sets: compatibility sets and a depth-first carried-mask walk.

A set is conflict-free when its inner sub-block is all zero, i.e. no
member attacks a member (self-attacks included). For each argument i
that does not attack itself, its compatibility set C(i) collects the
arguments j != i with no attack in either direction between i and j and
no self-attack on j.

Enumeration is one depth-first walk over compatibility masks. Each node
carries its set S, the bitmask of S, ``plus`` (everything S attacks),
``minus`` (everything that attacks S) and ``cand``: the arguments above
max(S) compatible with every member. The child for i in ``cand`` gets
``cand & C(i)`` restricted to the arguments above i, and ORs the attack
rows of i into ``plus`` and ``minus``. Every child is conflict-free by
construction, every conflict-free set is reached exactly once, and the
stack never holds more than O(n^2) nodes. :mod:`afmat.semantics` decides
stable, admissible and complete as word tests on ``mask``, ``plus`` and
``minus`` of the same nodes.

Children are pushed highest first, so the walk pops sets in
lexicographic preorder. The public order (by cardinality, then
lexicographic) is restored by bucketing the walk by cardinality: each
bucket is already lexicographic. Bucketing holds the whole family in
memory before the first set is yielded, as :func:`enumerate_conflict_free`
does anyway.

Note the conjunctive reading of compatibility: *both* directions between
i and j must be attack-free, otherwise {i, j} would not be conflict-free
in the first place. Self-attackers have no compatibility set and appear
in no enumerated set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    ArgSet,
    AttackTables,
    Framework,
    argset,
    attack_tables,
    checked_argset,
    internal_attack,
    unpack,
)

# A walk node: (set, mask, plus, minus, cand).
_Node = tuple[ArgSet, int, int, int, int]


def is_conflict_free(f: Framework, candidate: Iterable[int]) -> bool:
    """True iff the candidate's inner sub-block is all zero."""
    return internal_attack(f, checked_argset(f, candidate)) is None


def _compat_masks(tables: AttackTables) -> list[int]:
    """C(i) as bitmasks; entry is meaningless for self-attackers."""
    comp = [0] * (tables.n + 1)
    for i in range(1, tables.n + 1):
        comp[i] = (
            tables.full
            & ~tables.targets[i]
            & ~tables.attackers[i]
            & ~tables.loops
            & ~(1 << (i - 1))
        )
    return comp


def basic_sets(f: Framework) -> dict[int, frozenset[int]]:
    """Compatibility set C(i) for every argument i without a self-attack."""
    tables = attack_tables(f)
    comp = _compat_masks(tables)
    return {
        i: frozenset(unpack(comp[i]))
        for i in range(1, f.n + 1)
        if not (tables.loops >> (i - 1)) & 1
    }


def _walk(tables: AttackTables) -> Iterator[_Node]:
    """Every conflict-free set as a node, in lexicographic preorder."""
    targets, attackers = tables.targets, tables.attackers
    above = [c & ~((1 << i) - 1) for i, c in enumerate(_compat_masks(tables))]  # C(i) above i
    stack = [((), 0, 0, 0, tables.full & ~tables.loops)]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        s, mask, plus, minus, cand = node
        rest = cand
        while rest:
            i = rest.bit_length()  # highest first, so pops run in lexicographic preorder
            bit = 1 << (i - 1)
            rest ^= bit
            push((s + (i,), mask | bit, plus | targets[i], minus | attackers[i], cand & above[i]))


def _by_cardinality(f: Framework) -> list[list[ArgSet]]:
    """The walk bucketed by set size; each bucket is lexicographic."""
    buckets: list[list[ArgSet]] = [[] for _ in range(f.n + 1)]
    for node in _walk(attack_tables(f)):
        buckets[len(node[0])].append(node[0])
    return buckets


def iter_conflict_free(f: Framework) -> Iterator[ArgSet]:
    """Every conflict-free set, by cardinality, lexicographic within one size.

    The whole family is held in memory before the first set is yielded.
    """
    for bucket in _by_cardinality(f):
        yield from bucket


@dataclass(frozen=True)
class CfFamily:
    """The conflict-free family stratified by cardinality.

    ``levels[r]`` holds the conflict-free sets of size r, for r = 0..n.
    The family is downward closed: dropping any member of a level-r set
    lands in level r-1.
    """

    levels: tuple[frozenset[ArgSet], ...]

    @property
    def n(self) -> int:
        return len(self.levels) - 1

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def __contains__(self, candidate: Iterable[int]) -> bool:
        s = argset(candidate)
        return len(s) <= self.n and s in self.levels[len(s)]

    def __iter__(self) -> Iterator[ArgSet]:
        for level in self.levels:
            yield from sorted(level)

    def all_sets(self) -> frozenset[ArgSet]:
        return frozenset(s for level in self.levels for s in level)


def enumerate_conflict_free(f: Framework) -> CfFamily:
    """Materialise the whole conflict-free family, one frozenset per size."""
    return CfFamily(tuple(frozenset(bucket) for bucket in _by_cardinality(f)))
