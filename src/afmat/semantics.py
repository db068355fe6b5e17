"""Conflict-free sets and extension semantics, decided on the attack matrix.

A set is conflict-free when its inner sub-block is all zero, i.e. no
member attacks a member (self-attacks included). For each argument i
that does not attack itself, its compatibility set C(i)
(:func:`basic_sets`) collects the arguments j != i with no attack in
either direction between i and j and no self-attack on j. Note the
conjunctive reading of compatibility: *both* directions between i and j
must be attack-free, otherwise {i, j} would not be conflict-free in the
first place. Self-attackers have no compatibility set and appear in no
enumerated set.

Every family is read off one depth-first walk over the compatibility
masks, ``_walk``. Each node ``(set, mask, plus, minus, cand)`` carries
the set S, the bitmask of S, ``plus`` (the OR of the members' rows:
everything S attacks), ``minus`` (the OR of their columns: everything
that attacks S) and ``cand``: the arguments above max(S) compatible
with every member. The child for i in ``cand`` gets ``cand & C(i)``
restricted to the arguments above i, and ORs the attack rows of i into
``plus`` and ``minus``. Every child is conflict-free by construction,
every conflict-free set is reached exactly once, and the stack never
holds more than O(n^2) nodes. Children are pushed highest first, so the
walk pops sets in lexicographic preorder; :func:`iter_conflict_free`
restores the public order (by cardinality, then lexicographic) by
bucketing the walk by cardinality, which holds the whole family in
memory before the first set is yielded.

With ``full`` the word of all arguments, the core criteria are tests on
the words of a node:

* stable      -- ``mask | plus == full``: S attacks every outsider.
* admissible  -- ``minus & ~plus == 0``: S attacks each of its attackers.
* complete    -- admissible, and every j in ``full & ~(mask | plus)``
                 has ``attackers[j] & ~plus != 0``: no outsider that S
                 leaves unattacked is defended by S.
* range       -- ``mask | plus``.

:func:`is_stable`, :func:`is_admissible`, :func:`is_complete` and
:func:`range_of` apply the same tests to a node whose words are OR-ed
from a candidate's members (``_node``).

These are the paper's block tests on the natural matrix
(:func:`afmat.core.extract_subblocks`) read a word at a time: ``plus``
restricted to the outsiders marks the non-zero columns of the outgoing
block, and ``minus`` the non-zero rows of the incoming block. Stable
says every outgoing column is non-zero; admissible says every non-zero
incoming row is matched by a non-zero outgoing column for the same
outsider; complete says every outsider with a zero outgoing column has
an attacker whose own outgoing column is zero too. The norm-form
reading of the same verdicts lives in :mod:`afmat.core`.

Preferred and semi-stable compare the complete nodes of the walk with
one keyed maximality, ``_maximal``: preferred keeps the complete sets
whose mask is inclusion-maximal (Dung, AIJ 77, 1995), semi-stable those
whose range ``mask | plus`` is (Caminada, COMMA 2006). Every admissible
set lies inside a complete one whose range covers its own, so this
equals the maximal admissible sets and the admissible sets of maximal
range. Grounded, ideal and eager come from ``_fixpoint``, which iterates
Dung's defence function (a set defends every argument whose attackers
it all attacks) on the bit tables. Grounded is its least fixed point,
reached from the empty set; it equals the paper's least complete set.
Ideal / eager is the largest admissible set inside the fence, the
intersection of all preferred / all semi-stable extensions: the fence
is conflict-free, so iterating from it inside it falls to that set.
Each is unique by construction.

Every extension of every tag comes from one place, ``_extensions``: it
yields the walk node of each extension. For a core tag (cf, st, ad,
co) that is the walk itself, filtered lazily by the word test; for pr /
sst it is the maximal complete nodes, and for gr / id / eg the node the
fixpoint ends on. :func:`extensions` collects
the sets, and :func:`query` answers each catalogue question from a table
entry of two parts: a word test on a node against the target mask t
(contains the target, ``t & ~mask == 0``, or attacks it,
``plus & t != 0``) and a summary of the nodes (some, all, the first, or
the ordered list of those that pass). On a core tag, some / all stop at
the first witness or counterexample.

Families and answers are deterministic: sets are ordered by cardinality
and then lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from .core import (
    ArgSet,
    AttackTables,
    Framework,
    PreconditionError,
    _require_conflict_free,
    argset,
    attack_tables,
    checked_argset,
    internal_attack,
    pack,
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


def iter_conflict_free(f: Framework) -> Iterator[ArgSet]:
    """Every conflict-free set, by cardinality, lexicographic within one size.

    The whole family is held in memory before the first set is yielded.
    """
    buckets: list[list[ArgSet]] = [[] for _ in range(f.n + 1)]
    for node in _walk(attack_tables(f)):
        buckets[len(node[0])].append(node[0])
    for bucket in buckets:
        yield from bucket


class Semantics(str, Enum):
    """Closed set of supported semantics tags (parse with ``Semantics(tag)``)."""

    CONFLICT_FREE = "cf"
    STABLE = "st"
    ADMISSIBLE = "ad"
    COMPLETE = "co"
    PREFERRED = "pr"
    GROUNDED = "gr"
    IDEAL = "id"
    SEMI_STABLE = "sst"
    EAGER = "eg"


# Tags decided by a word test on each walk node; the rest compare families.
_CORE = (Semantics.CONFLICT_FREE, Semantics.STABLE, Semantics.ADMISSIBLE, Semantics.COMPLETE)


def _order(s: ArgSet) -> tuple[int, ArgSet]:
    return len(s), s


@dataclass(frozen=True)
class ExtensionFamily:
    """All extensions of one framework under one semantics tag."""

    sets: frozenset[ArgSet]

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, candidate: Iterable[int]) -> bool:
        return argset(candidate) in self.sets

    def __iter__(self) -> Iterator[ArgSet]:
        return iter(self.ordered())

    def ordered(self) -> list[ArgSet]:
        """Sets sorted by cardinality, then lexicographically."""
        return sorted(self.sets, key=_order)


def _node(tables: AttackTables, members: ArgSet) -> _Node:
    """A walk node for ``members``, its masks OR-ed from the members' rows."""
    mask = plus = minus = 0
    for a in members:
        mask |= 1 << (a - 1)
        plus |= tables.targets[a]
        minus |= tables.attackers[a]
    return members, mask, plus, minus, 0


def _defends_no_outsider(tables: AttackTables, mask: int, plus: int) -> bool:
    """Every argument outside the set's range has an attacker the set leaves alone."""
    undefeated = tables.full & ~(mask | plus)
    while undefeated:
        low = undefeated & -undefeated
        if tables.attackers[low.bit_length()] & ~plus == 0:
            return False
        undefeated ^= low
    return True


def _select(tag: Semantics, tables: AttackTables, nodes: Iterable[_Node]) -> Iterable[_Node]:
    """The nodes whose conflict-free set meets the core criterion of ``tag``,
    by word tests on the carried ``mask``, ``plus`` and ``minus``."""
    if tag is Semantics.CONFLICT_FREE:
        return nodes
    if tag is Semantics.STABLE:
        return (v for v in nodes if v[1] | v[2] == tables.full)
    admissible = (v for v in nodes if v[3] & ~v[2] == 0)
    if tag is Semantics.ADMISSIBLE:
        return admissible
    return (v for v in admissible if _defends_no_outsider(tables, v[1], v[2]))


def _decide(f: Framework, candidate: Iterable[int], tag: Semantics) -> bool:
    members = checked_argset(f, candidate)
    _require_conflict_free(f, members)
    tables = attack_tables(f)
    node = [_node(tables, members)]
    if tag is Semantics.COMPLETE and not any(_select(Semantics.ADMISSIBLE, tables, node)):
        raise PreconditionError("candidate set is not admissible")
    return any(_select(tag, tables, node))


def is_stable(f: Framework, candidate: Iterable[int]) -> bool:
    """Does the conflict-free candidate attack every outside argument?"""
    return _decide(f, candidate, Semantics.STABLE)


def is_admissible(f: Framework, candidate: Iterable[int]) -> bool:
    """Does the conflict-free candidate strike back at each of its attackers?"""
    return _decide(f, candidate, Semantics.ADMISSIBLE)


def is_complete(f: Framework, candidate: Iterable[int]) -> bool:
    """Does the admissible candidate already contain everything it defends?"""
    return _decide(f, candidate, Semantics.COMPLETE)


def range_of(f: Framework, candidate: Iterable[int]) -> ArgSet:
    """The candidate set plus every argument it attacks."""
    _, mask, plus, _, _ = _node(attack_tables(f), checked_argset(f, candidate))
    return unpack(mask | plus)


def _maximal(nodes: list[_Node], key: Callable[[_Node], int]) -> list[_Node]:
    """The nodes whose key word is not a proper subset of another node's
    key. Only the distinct keys are compared, so the time does not depend
    on the order of the nodes."""
    top: list[int] = []
    for k in sorted({key(v) for v in nodes}, key=int.bit_count, reverse=True):
        if not any(k & ~kept == 0 for kept in top):
            top.append(k)
    keep = set(top)
    return [v for v in nodes if key(v) in keep]


def _fixpoint(tables: AttackTables, mask: int, within: int) -> _Node:
    """Replace ``mask`` by the members of ``within`` whose attackers all
    lie in the range of ``mask``, until it stops changing; return the
    node of the fixed point."""
    members = unpack(within)
    while True:
        node = _node(tables, unpack(mask))
        defended = pack(a for a in members if tables.attackers[a] & ~node[2] == 0)
        if defended == mask:
            return node
        mask = defended


def _extensions(f: Framework, tag: Semantics) -> Iterable[_Node]:
    """The walk node of every extension of ``f`` under ``tag``: the walk
    filtered lazily for cf / st / ad / co, the maximal complete nodes for
    pr / sst, the defence fixpoint for gr / id / eg."""
    tables = attack_tables(f)
    if tag in _CORE:
        return _select(tag, tables, _walk(tables))
    if tag is Semantics.GROUNDED:
        return [_fixpoint(tables, 0, tables.full)]

    by_range = tag in (Semantics.SEMI_STABLE, Semantics.EAGER)
    complete = list(_select(Semantics.COMPLETE, tables, _walk(tables)))
    top = _maximal(complete, (lambda v: v[1] | v[2]) if by_range else (lambda v: v[1]))
    if tag in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
        return top
    fence = tables.full
    for v in top:
        fence &= v[1]
    return [_fixpoint(tables, fence, fence)]


def extensions(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions under any supported tag."""
    tag = Semantics(tag)
    return ExtensionFamily(frozenset(v[0] for v in _extensions(f, tag)))


def _contains(t: int) -> Callable[[_Node], bool]:
    return lambda v: t & ~v[1] == 0


def _attacks(t: int) -> Callable[[_Node], bool]:
    """An extension attacks a set iff some member attacks some target member."""
    return lambda v: v[2] & t != 0


def _some(nodes: Iterable[_Node], hit: Callable[[_Node], bool]) -> bool:
    return any(hit(v) for v in nodes)


def _every(nodes: Iterable[_Node], hit: Callable[[_Node], bool]) -> bool:
    return all(hit(v) for v in nodes)


def _first(nodes: Iterable[_Node], hit: Callable[[_Node], bool]) -> ArgSet | None:
    return min((v[0] for v in nodes if hit(v)), key=_order, default=None)


def _listed(nodes: Iterable[_Node], hit: Callable[[_Node], bool]) -> list[ArgSet]:
    return sorted((v[0] for v in nodes if hit(v)), key=_order)


# question -> (summary over the extensions, test of one extension against the target mask)
_QUESTIONS = {
    "DC": (_some, _contains),
    "DS": (_every, _contains),
    "AC": (_some, _attacks),
    "AS": (_every, _attacks),
    "SE-containing": (_first, _contains),
    "EE-containing": (_listed, _contains),
    "SE-attacking": (_first, _attacks),
    "EE-attacking": (_listed, _attacks),
}
# The global questions: containment of the empty target.
_GLOBAL = {"exists": "DC", "SE": "SE-containing", "EE": "EE-containing"}


def query(
    f: Framework,
    question: str,
    tag: Semantics | str,
    target: int | Iterable[int] | None = None,
):
    """Answer one catalogue question about the extensions of ``f``.

    Global questions: ``exists`` (is the family non-empty), ``SE`` (one
    extension or None), ``EE`` (all extensions, ordered). Local questions
    about a target argument or set: ``DC`` / ``DS`` (contained in some /
    all extensions), ``AC`` / ``AS`` (attacked by some / all extensions),
    ``SE-containing`` / ``EE-containing`` and ``SE-attacking`` /
    ``EE-attacking`` (witness or list thereof). The universally
    quantified answers are vacuously true for an empty family.
    """
    tag = Semantics(tag)
    if question in _GLOBAL:
        question, target = _GLOBAL[question], ()
    if question not in _QUESTIONS:
        raise ValueError(f"unknown question {question!r}")
    if target is None:
        raise ValueError(f"question {question!r} needs a target argument or set")
    summary, test = _QUESTIONS[question]
    t = pack(checked_argset(f, (target,) if isinstance(target, int) else target))
    return summary(_extensions(f, tag), test(t))
