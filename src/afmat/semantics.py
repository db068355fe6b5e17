"""Conflict-free sets and extension semantics, decided on the attack matrix.

A set is conflict-free when its inner sub-block is all zero: no member
attacks a member, itself included. The compatibility set C(i) of an
argument i that does not attack itself (:func:`basic_sets`) holds every
j != i with no attack in either direction between i and j and no
self-attack on j. The reading is conjunctive: an attack either way keeps
{i, j} from being conflict-free. Self-attackers have no compatibility
set and lie in no conflict-free set. The attack tables
(:func:`afmat.core.attack_tables`) hold the matrix as words: the row
``targets[i]``, the column ``attackers[i]``, and C(i) above i as
``above[i]``.

Outside cf, a set S is handled as a node ``(set, mask, plus, minus,
cand)``: its members, their word, ``plus`` (everything S attacks),
``minus`` (everything that attacks S) and the walk's ``cand`` (0
elsewhere); a cf extension carries only its members. Two word
primitives make these reads: ``_union(rows, mask)``, the OR of the
members' rows (``plus`` from the targets, ``minus`` from the attackers),
and ``_defended(attackers, within, by)``, the members of ``within`` with
no attacker outside ``by`` (Dung's defence function at ``by = plus``).
With ``full`` the word of all arguments, the core criteria are word tests:

* stable      -- ``mask | plus == full``: S attacks every outsider.
* admissible  -- ``minus & ~plus == 0``: S attacks each of its attackers.
* complete    -- admissible, and ``_defended(attackers, full & ~(mask |
                 plus), plus) == 0``: S defends no outsider it leaves
                 unattacked.
* range       -- ``mask | plus``.

These are the paper's block tests on the natural matrix
(:func:`afmat.core.extract_subblocks`) read a word at a time: ``plus``
on the outsiders marks the non-zero columns of the outgoing block, and
``minus`` the non-zero rows of the incoming block. The norm-form reading
of the same verdicts lives in :mod:`afmat.core`. :func:`is_stable`,
:func:`is_admissible`, :func:`is_complete` and :func:`range_of` apply
the tests to a node OR-ed from a candidate's members (``_node``).

Three engines give every family; each passes its sets on as they come,
and no engine owes an order.

* The enumerator, ``_conflict_free``, gives cf: the paper's basic-set
  enumeration. It walks the compatibility tree on a stack of ``(set,
  cand)``, where ``cand`` holds the arguments above max(S) compatible
  with every member; the child for i in ``cand`` is ``(set + (i,), cand
  & above[i])``. Every conflict-free set is reached once, in
  lexicographic preorder, and yielded as its members alone.
* The walk, ``_walk``, gives ad, the sets pr and sst compare.
  It walks the same tree with nodes, each child OR-ing in the rows of i,
  and looks ahead: everything the sets below a node can attack lies in
  ``reach = plus | OR(targets[i] for i in cand)``, so a node with
  ``minus & ~reach != 0`` is dropped with its subtree. A kept node is
  yielded when it is admissible, so the walk gives the ad family alone.
* The search, ``_search``, gives st and co by labelling (Modgil &
  Caminada 2009; Nofal, Atkinson & Dunne, AIJ 207, 2014). An argument is
  put in (``inn``, with ``plus`` and ``minus``) or excluded for good
  (``ex``, the self-attackers from the start); putting a in fails if a is
  excluded, and excludes everything a attacks or is attacked by.
  ``_settle`` forces the labels that follow. st: an undecided argument
  whose attackers are all excluded must be in, and an excluded one
  outside ``plus`` needs an undecided attacker. co: an argument outside
  ``inn | plus`` whose attackers all lie in ``plus`` is defended and must
  be in, and an attacker of ``inn`` outside ``plus`` needs an undecided
  attacker. A needed attacker with no candidate fails the labelling; one
  candidate goes in. The search starts with the unattacked arguments in,
  so co's first labelling settles at the grounded extension G. It
  branches on the open constraint with the fewest candidates (each in,
  the ones before it excluded), else on the undecided argument of most
  attacks (in, then excluded), and yields each full labelling as it
  settles it. It needs few labellings where the walk would visit
  millions of sets, but is slower than the walk on 10^4 or more complete
  sets.

The other tags read these. Preferred and semi-stable keep the ad walk's
nodes whose mask (Dung, AIJ 77, 1995) or range (Caminada, COMMA 2006)
is inclusion-maximal, by ``_maximal``; when a stable extension exists,
the semi-stable ones are the stable ones.
Grounded is G, co's first labelling. Ideal and eager come from
``_fixpoint``, which iterates Dung's defence function inside the
intersection of the preferred / semi-stable extensions.

:func:`query` answers each catalogue question with a word test on a
node against the target mask t (contains it, ``t & ~mask == 0``, or
attacks it, ``plus & t != 0``) and a summary of the nodes: some, every,
the least in the public order, or the ordered list of those that pass.
Both tests are monotone: a superset of a passing set passes. So where
one extension lies inside every other (``_least``: the empty set for cf
and ad, G for co), an every-question reads it alone, and a some- or
first-question takes it if it passes (the least-extension rule). cf is
also closed under subsets, so a least passing set is a minimal witness,
and cf's some- and first-questions read it alone (the minimal-witness
rule, ``_cf_answer``): the target itself if it is conflict-free; the
least attacker of the target that does not attack itself. cf's lists
read the enumerator's sets and pack each only when the target is not
empty: a set attacks t iff it holds an attacker of t.
pr's some-questions read co, as every complete extension lies inside a
preferred one, which is complete. Otherwise a question reads the family
as ``_extensions`` yields it, so a some- or every-question stops at its
first witness or counterexample;
for pr, id, and sst / eg without a stable extension, that family comes
from the ad walk, which prunes nothing when every attack is mutual.
Answers are deterministic: lists and first sets follow the public order,
by cardinality and then lexicographically.
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

# A node: (set, mask, plus, minus, cand); the search's nodes carry cand 0.
_Node = tuple[ArgSet, int, int, int, int]


def is_conflict_free(f: Framework, candidate: Iterable[int]) -> bool:
    """True iff the candidate's inner sub-block is all zero."""
    return internal_attack(f, checked_argset(f, candidate)) is None


def basic_sets(f: Framework) -> dict[int, frozenset[int]]:
    """Compatibility set C(i) for every argument i without a self-attack."""
    tables = attack_tables(f)
    free = tables.full & ~tables.loops
    return {
        i: frozenset(unpack(free & ~(tables.targets[i] | tables.attackers[i] | 1 << (i - 1))))
        for i in range(1, f.n + 1)
        if free >> (i - 1) & 1
    }


def _conflict_free(tables: AttackTables) -> Iterator[ArgSet]:
    """Every conflict-free set once, in lexicographic preorder: the child
    of ``(set, cand)`` for i in ``cand`` is ``(set + (i,), cand & above[i])``."""
    above, ones = tables.above, tuple((i,) for i in range(tables.n + 1))  # each (i,) built once
    stack = [((), tables.full & ~tables.loops)]
    push = stack.append
    while stack:
        s, cand = stack.pop()
        yield s
        rest = cand
        while rest:
            i = rest.bit_length()  # highest first, so pops run in lexicographic preorder
            rest ^= 1 << (i - 1)
            push((s + ones[i], cand & above[i]))


def _walk(tables: AttackTables) -> Iterator[_Node]:
    """The ad look-ahead walk, read by ad, pr and sst: every admissible
    node once, in lexicographic preorder."""
    targets, attackers, above = tables.targets, tables.attackers, tables.above
    stack = [((), 0, 0, 0, tables.full & ~tables.loops)]
    push = stack.append
    while stack:
        node = stack.pop()
        s, mask, plus, minus, cand = node
        reach, rest = plus, cand  # inline: a _union call per walk node slows ad EE by up to 30 %
        while rest:
            low = rest & -rest
            reach |= targets[low.bit_length()]
            rest ^= low
        if minus & ~reach:
            continue
        if not minus & ~plus:
            yield node
        rest = cand
        while rest:
            i = rest.bit_length()
            bit = 1 << (i - 1)
            rest ^= bit
            push((s + (i,), mask | bit, plus | targets[i], minus | attackers[i], cand & above[i]))


def _union(rows: tuple[int, ...], mask: int) -> int:
    """The OR of ``rows[a]`` over the members a of ``mask``."""
    word = 0
    while mask:  # highest first: the word shrinks as it goes
        a = mask.bit_length()
        mask ^= 1 << (a - 1)
        word |= rows[a]
    return word


def _defended(attackers: tuple[int, ...], within: int, by: int) -> int:
    """The members of ``within`` that have no attacker outside ``by``."""
    word, out = 0, ~by
    while within:
        a = within.bit_length()
        within ^= 1 << (a - 1)
        if not attackers[a] & out:
            word |= 1 << (a - 1)
    return word


def _settle(
    tables: AttackTables, stable: bool, inn: int, ex: int, plus: int, minus: int, add: int
) -> tuple[int, int, int, int, int] | None:
    """Put the arguments of ``add`` in, then force the labels that follow
    until none does. None if the labelling fails; else the settled
    ``(inn, ex, plus, minus, branch)``, where ``branch`` holds the
    candidates of the tightest open constraint, or is 0 when none is open."""
    targets, attackers, full, loops = tables.targets, tables.attackers, tables.full, tables.loops
    while True:
        hit, by = _union(targets, add), _union(attackers, add)
        if add & (ex | hit):  # self-attackers start in ex; a clash inside the batch lands in hit
            return None
        inn, ex, plus, minus = inn | add, ex | hit | by, plus | hit, minus | by
        grew, add = add, 0
        undecided = full & ~(inn | ex)
        need = (ex if stable else minus) & ~plus
        branch, fewest = 0, full.bit_length() + 1
        while need:
            low = need & -need
            cand = attackers[low.bit_length()] & undecided
            if not cand:
                return None
            if cand & (cand - 1) == 0:
                add |= cand
            elif not add and cand.bit_count() < fewest:
                branch, fewest = cand, cand.bit_count()
            need ^= low
        # st: an argument no one left can attack must be in. co: so must one
        # the set defends; only an argument put in can make the set defend more
        if stable:
            add |= _defended(attackers, undecided, ex)
        elif grew:
            add |= _defended(attackers, full & ~(inn | plus | loops), plus)
        if not add:
            return inn, ex, plus, minus, branch


def _root(tables: AttackTables) -> tuple[int, int, int, int, int]:
    """The first labelling: nothing in, self-attackers excluded, the unattacked to put in."""
    return 0, tables.loops, 0, 0, tables.full & ~_union(tables.targets, tables.full)


def _search(tables: AttackTables, tag: Semantics) -> Iterator[_Node]:
    """The stable or complete extensions as nodes, by the labelling search
    the module docstring describes, each yielded once settled, unsorted."""
    stable = tag is Semantics.STABLE
    full, settle = tables.full, _settle
    hubs: list[int] = []
    stack = [_root(tables)]
    push = stack.append
    while stack:
        node = settle(tables, stable, *stack.pop())
        if node is None:
            continue
        inn, ex, plus, minus, branch = node
        undecided = full & ~(inn | ex)
        if branch:  # each candidate in, the ones before it excluded
            while branch:
                low = branch & -branch
                push((inn, ex, plus, minus, low))
                ex |= low
                branch ^= low
        elif undecided:  # the undecided argument of most attacks in, or excluded
            if not hubs:  # no self-attackers: on dense graphs next() would step past each
                free = [a for a in range(1, tables.n + 1) if not tables.loops >> (a - 1) & 1]
                free.sort(key=lambda a: -(tables.targets[a] | tables.attackers[a]).bit_count())
                hubs = [1 << (a - 1) for a in free]
            hub = next(b for b in hubs if b & undecided)
            push((inn, ex | hub, plus, minus, 0))
            push((inn, ex, plus, minus, hub))
        else:
            yield unpack(inn), inn, plus, minus, 0


def iter_conflict_free(f: Framework) -> Iterator[ArgSet]:
    """Every conflict-free set in the public order: the enumerator's sets,
    all held in memory and sorted first."""
    yield from query(f, "EE", Semantics.CONFLICT_FREE)


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


@dataclass(frozen=True)
class ExtensionFamily:
    """All extensions of one framework under one semantics tag."""

    sets: frozenset[ArgSet]

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, candidate: Iterable[int]) -> bool:
        members = tuple(candidate)  # 1.0 or True equal 1 but name no argument
        return all(type(a) is int for a in members) and argset(members) in self.sets

    def __iter__(self) -> Iterator[ArgSet]:
        return iter(self.ordered())

    def ordered(self) -> list[ArgSet]:
        """Sets sorted by cardinality, then lexicographically."""
        return sorted(sorted(self.sets), key=len)


def _node(tables: AttackTables, members: ArgSet) -> _Node:
    """A walk node for ``members``, its masks OR-ed from the members' rows."""
    mask = pack(members)
    return members, mask, _union(tables.targets, mask), _union(tables.attackers, mask), 0


def _decide(f: Framework, candidate: Iterable[int], tag: Semantics) -> bool:
    """The module docstring's word test of ``tag`` on the candidate's node."""
    members = checked_argset(f, candidate)
    _require_conflict_free(f, members)
    tables = attack_tables(f)
    _, mask, plus, minus, _ = _node(tables, members)
    if tag is Semantics.STABLE:
        return mask | plus == tables.full
    unanswered = minus & ~plus  # the attackers that no member attacks back
    if tag is Semantics.ADMISSIBLE:
        return not unanswered
    if unanswered:  # name the least such attacker b and the least member a it attacks
        b = (unanswered & -unanswered).bit_length()
        hit = tables.targets[b] & mask
        a = (hit & -hit).bit_length()
        raise PreconditionError(
            f"candidate set is not admissible: {b} attacks {a} and no member attacks {b}", pair=(b, a)
        )
    return not _defended(tables.attackers, tables.full & ~(mask | plus), plus)


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
    key, in the order they came in. Only the distinct keys are compared,
    so the time does not depend on the order of the nodes."""
    top: list[int] = []
    for k in sorted({key(v) for v in nodes}, key=int.bit_count, reverse=True):
        if not any(k & ~kept == 0 for kept in top):
            top.append(k)
    keep = set(top)
    return [v for v in nodes if key(v) in keep]


def _fixpoint(tables: AttackTables, fence: int) -> _Node:
    """From S = ``fence``, replace S by the members of ``fence`` that S
    defends until it stops changing; return the node of the fixed point."""
    mask, defended = 0, fence
    while defended != mask:
        mask = defended
        defended = _defended(tables.attackers, fence, _union(tables.targets, mask))
    return _node(tables, unpack(mask))


def _extensions(f: Framework, tag: Semantics) -> Iterable[_Node]:
    """The node of every extension of ``f`` under ``tag``, from the engine
    the module docstring names for the tag; not for cf, whose sets come
    from ``_conflict_free`` without nodes."""
    tables = attack_tables(f)
    if tag is Semantics.GROUNDED:  # first: every co and gr question reads G, and each test costs
        # a member lookup; G is the search's root labelling, settled by the complete rules
        inn, _, plus, minus, _ = _settle(tables, False, *_root(tables))
        return [(unpack(inn), inn, plus, minus, 0)]
    if tag is Semantics.ADMISSIBLE:
        return _walk(tables)
    if tag in (Semantics.STABLE, Semantics.COMPLETE):
        return _search(tables, tag)
    if tag in (Semantics.IDEAL, Semantics.EAGER):
        top = _extensions(f, Semantics.PREFERRED if tag is Semantics.IDEAL else Semantics.SEMI_STABLE)
        fence = tables.full
        for v in top:
            fence &= v[1]
        return [_fixpoint(tables, fence)]
    if tag is Semantics.SEMI_STABLE and (stable := list(_extensions(f, Semantics.STABLE))):
        return stable  # when a stable extension exists, the semi-stable ones are the stable ones
    # sst keeps the range key rather than reading pr: the same sets, but on 10 disjoint
    # 2-cycles and a 3-cycle (59 049 admissible sets) by range takes 0.015 s, by set 1.3 s
    key = (lambda v: v[1]) if tag is Semantics.PREFERRED else (lambda v: v[1] | v[2])
    return _maximal(list(_walk(tables)), key)


def extensions(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions under any supported tag."""
    tag = Semantics(tag)
    if tag is Semantics.CONFLICT_FREE:  # streamed: a list first adds 11 MB at n=24, p=0.05
        return ExtensionFamily(frozenset(_conflict_free(attack_tables(f))))
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
    """The least passing set by (cardinality, set), whatever the node order."""
    return min(((len(v[0]), v[0]) for v in nodes if hit(v)), default=(0, None))[1]


def _listed(nodes: Iterable[_Node], hit: Callable[[_Node], bool]) -> list[ArgSet]:
    return sorted(sorted(v[0] for v in nodes if hit(v)), key=len)


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
# A set, not a tuple of members: on Python 3.11 each Semantics.X lookup costs about 0.1 us.
_FROM_EMPTY = frozenset({Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE})


def _cf_answer(tables: AttackTables, summary: Callable, test: Callable, t: int):
    """A cf some-, first- or list-question about the target mask ``t``, by
    the module docstring's minimal-witness rule and the enumerator's sets."""
    if summary is _listed:
        sets = _conflict_free(tables)
        if test is _attacks:  # a set attacks t iff it holds an attacker of t
            word = _union(tables.attackers, t)
            sets = (s for s in sets if pack(s) & word) if word else ()
        elif t:
            sets = (s for s in sets if not t & ~pack(s))
        return sorted(sorted(sets), key=len)
    if test is _contains:
        v = _node(tables, unpack(t))
        witness = [] if v[1] & v[2] else [v]
    else:
        free = _union(tables.attackers, t) & ~tables.loops
        witness = [_node(tables, unpack(free & -free))] if free else []
    return summary(witness, test(t))


def _least(f: Framework, tag: Semantics) -> _Node | None:
    """The node of the extension that lies inside every other one: the
    empty set for cf and ad, G for co; None for the other tags."""
    if tag in _FROM_EMPTY:
        return (), 0, 0, 0, 0
    return _extensions(f, Semantics.GROUNDED)[0] if tag is Semantics.COMPLETE else None


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
    quantified answers are vacuously true for an empty family. A target
    given with a global question is ignored.

    The answers are those over the whole family; cf, ad, co and pr
    questions take the module docstring's least-extension rule first, cf
    some- and first-questions its minimal-witness rule, and a some- or
    every-question stops at its first witness or counterexample.
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
    if tag is Semantics.CONFLICT_FREE and summary is not _every:
        return _cf_answer(attack_tables(f), summary, test, t)
    hit = test(t)
    if summary is _some and tag is Semantics.PREFERRED:
        tag = Semantics.COMPLETE  # each complete set lies inside a preferred one, which is complete
    least = None if summary is _listed else _least(f, tag)
    use_least = least is not None and (summary is _every or hit(least))  # both tests are monotone
    return summary([least] if use_least else _extensions(f, tag), hit)
