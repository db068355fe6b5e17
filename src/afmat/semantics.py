"""Extension semantics decided on the attack matrix.

The conflict-free walk (:mod:`afmat.conflictfree`) carries three words
for each conflict-free set S: ``mask`` (S itself), ``plus`` (the OR of
the members' rows: everything S attacks) and ``minus`` (the OR of their
columns: everything that attacks S). With ``full`` the word of all
arguments, the core criteria are tests on those words:

* stable      -- ``mask | plus == full``: S attacks every outsider.
* admissible  -- ``minus & ~plus == 0``: S attacks each of its attackers.
* complete    -- admissible, and every j in ``full & ~(mask | plus)``
                 has ``attackers[j] & ~plus != 0``: no outsider that S
                 leaves unattacked is defended by S.
* range       -- ``mask | plus``.

:func:`is_stable`, :func:`is_admissible`, :func:`is_complete` and
:func:`range_of` apply the same tests to words OR-ed from a candidate's
members.

These are the paper's block tests on the natural matrix
(:func:`afmat.core.extract_subblocks`) read a word at a time: ``plus``
restricted to the outsiders marks the non-zero columns of the outgoing
block, and ``minus`` the non-zero rows of the incoming block. Stable
says every outgoing column is non-zero; admissible says every non-zero
incoming row is matched by a non-zero outgoing column for the same
outsider; complete says every outsider with a zero outgoing column has
an attacker whose own outgoing column is zero too.

The same answers can be read off the norm form
(:func:`afmat.core.to_norm_form`): stable means no undefeated zone at
all (q = 0), admissible means the undefeated x members block is zero,
and complete additionally needs every column of the undefeated square
block to be non-zero.

The remaining semantics only compare whole families: preferred picks the
inclusion-maximal admissible sets, grounded the least complete set,
semi-stable the admissible sets with inclusion-maximal range (the set
plus everything it attacks), and ideal / eager the single largest
admissible set inside the intersection of all preferred / all
semi-stable extensions. They take the admissible masks with their
ranges, and the complete masks, straight from the walk.

Family computations and acceptance queries are deterministic: families
order their sets by cardinality and then lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .conflictfree import _Node, _walk
from .core import (
    ArgSet,
    AttackTables,
    Framework,
    InternalInvariantError,
    NormForm,
    PreconditionError,
    attack_tables,
    checked_argset,
    internal_attack,
    unpack,
)


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


CORE_SEMANTICS = (
    Semantics.CONFLICT_FREE,
    Semantics.STABLE,
    Semantics.ADMISSIBLE,
    Semantics.COMPLETE,
)
DERIVED_SEMANTICS = (
    Semantics.PREFERRED,
    Semantics.GROUNDED,
    Semantics.IDEAL,
    Semantics.SEMI_STABLE,
    Semantics.EAGER,
)
SINGLETON_SEMANTICS = (Semantics.GROUNDED, Semantics.IDEAL, Semantics.EAGER)


@dataclass(frozen=True)
class ExtensionFamily:
    """All extensions of one framework under one semantics tag."""

    tag: Semantics
    sets: frozenset[ArgSet]

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, candidate: Iterable[int]) -> bool:
        return tuple(sorted(set(candidate))) in self.sets

    def __iter__(self) -> Iterator[ArgSet]:
        return iter(self.ordered())

    def ordered(self) -> list[ArgSet]:
        """Sets sorted by cardinality, then lexicographically."""
        return sorted(self.sets, key=lambda s: (len(s), s))


def _require_conflict_free(f: Framework, members: ArgSet) -> None:
    clash = internal_attack(f, members)
    if clash is not None:
        raise PreconditionError(
            f"candidate set is not conflict-free: {clash[0]} attacks {clash[1]}",
            pair=clash,
        )


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


def stable_on_norm_form(nf: NormForm) -> bool:
    """Stable iff the undefeated zone is empty."""
    return nf.q == 0


def admissible_on_norm_form(nf: NormForm) -> bool:
    """Admissible iff the undefeated x members block is all zero."""
    member_zone = (1 << nf.k) - 1
    rows = nf.matrix.rows
    return all(rows[r] & member_zone == 0 for r in range(nf.k, nf.k + nf.q))


def complete_on_norm_form(nf: NormForm) -> bool:
    """Complete iff admissible and no column of the undefeated square block is zero."""
    if not admissible_on_norm_form(nf):
        return False
    rows = nf.matrix.rows
    span = range(nf.k, nf.k + nf.q)
    return all(any((rows[r] >> t) & 1 for r in span) for t in span)


def range_of(f: Framework, candidate: Iterable[int]) -> ArgSet:
    """The candidate set plus every argument it attacks."""
    _, mask, plus, _, _ = _node(attack_tables(f), checked_argset(f, candidate))
    return unpack(mask | plus)


def _family(f: Framework, tag: Semantics) -> Iterable[_Node]:
    """The walk nodes of every conflict-free set the core criterion of ``tag`` keeps."""
    tables = attack_tables(f)
    return _select(tag, tables, _walk(tables))


def compute_family(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions under a core tag (cf, st, ad, co), by filtering the
    conflict-free walk through the word test of the criterion."""
    tag = Semantics(tag)
    if tag not in CORE_SEMANTICS:
        raise ValueError(f"{tag.value} is a derived semantics; use compute_derived")
    return ExtensionFamily(tag, frozenset(v[0] for v in _family(f, tag)))


def _maximal(masks: list[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(masks, key=lambda x: x.bit_count(), reverse=True):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return out


def _minimal(masks: list[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(masks, key=lambda x: x.bit_count()):
        if not any(kept & ~m == 0 for kept in out):
            out.append(m)
    return out


def _largest_inside(masks: list[int], fence: int, what: str) -> list[int]:
    """The unique inclusion-maximal mask among ``masks`` confined to ``fence``."""
    inside = [m for m in masks if m & ~fence == 0]
    top = _maximal(inside)
    if len(top) != 1:
        raise InternalInvariantError(f"{what}: expected a unique maximal set, got {len(top)}")
    return top


def _range_maximal(admissible: list[tuple[int, int]]) -> list[int]:
    """The masks whose range is not a proper subset of another's range,
    from ``(mask, range)`` pairs."""
    ranges = [r for _, r in admissible]
    return [
        m
        for m, reach in admissible
        if not any(reach != r and reach & ~r == 0 for r in ranges)
    ]


def compute_derived(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions under a derived tag (pr, gr, id, sst, eg), by set
    comparison over the admissible / complete families."""
    tag = Semantics(tag)
    if tag not in DERIVED_SEMANTICS:
        raise ValueError(f"{tag.value} is a core semantics; use compute_family")
    if tag is Semantics.GROUNDED:
        chosen = _minimal([v[1] for v in _family(f, Semantics.COMPLETE)])
        if len(chosen) != 1:
            raise InternalInvariantError(
                f"grounded: expected a unique minimal complete set, got {len(chosen)}"
            )
        return ExtensionFamily(tag, frozenset(unpack(m) for m in chosen))

    ranged = [(v[1], v[1] | v[2]) for v in _family(f, Semantics.ADMISSIBLE)]
    admissible = [m for m, _ in ranged]
    full = attack_tables(f).full
    if tag is Semantics.PREFERRED:
        chosen = _maximal(admissible)
    elif tag is Semantics.SEMI_STABLE:
        chosen = _range_maximal(ranged)
    elif tag is Semantics.IDEAL:
        fence = full
        for m in _maximal(admissible):
            fence &= m
        chosen = _largest_inside(admissible, fence, "ideal")
    else:  # EAGER
        fence = full
        for m in _range_maximal(ranged):
            fence &= m
        chosen = _largest_inside(admissible, fence, "eager")

    return ExtensionFamily(tag, frozenset(unpack(m) for m in chosen))


def extensions(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions under any supported tag."""
    tag = Semantics(tag)
    if tag in CORE_SEMANTICS:
        return compute_family(f, tag)
    return compute_derived(f, tag)


def _as_target(f: Framework, target: int | Iterable[int]) -> ArgSet:
    if isinstance(target, int):
        target = (target,)
    return checked_argset(f, target)


def _extension_attacks(f: Framework, extension: ArgSet, target: ArgSet) -> bool:
    """An extension attacks a set iff some member attacks some target member."""
    return any((e, a) in f.attacks for e in extension for a in target)


def some_extension(f: Framework, tag: Semantics | str) -> ArgSet | None:
    """The first extension in family order, or None when there is none."""
    ordered = extensions(f, tag).ordered()
    return ordered[0] if ordered else None


def credulously_accepted(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> bool:
    """Is the target contained in at least one extension?"""
    t = set(_as_target(f, target))
    return any(t <= set(e) for e in extensions(f, tag).sets)


def skeptically_accepted(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> bool:
    """Is the target contained in every extension? Vacuously true when the
    family is empty."""
    t = set(_as_target(f, target))
    return all(t <= set(e) for e in extensions(f, tag).sets)


def attacked_by_some(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> bool:
    """Does at least one extension attack the target?"""
    t = _as_target(f, target)
    return any(_extension_attacks(f, e, t) for e in extensions(f, tag).sets)


def attacked_by_all(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> bool:
    """Does every extension attack the target? Vacuously true when the
    family is empty."""
    t = _as_target(f, target)
    return all(_extension_attacks(f, e, t) for e in extensions(f, tag).sets)


def extensions_containing(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> list[ArgSet]:
    t = set(_as_target(f, target))
    return [e for e in extensions(f, tag).ordered() if t <= set(e)]


def extensions_attacking(f: Framework, tag: Semantics | str, target: int | Iterable[int]) -> list[ArgSet]:
    t = _as_target(f, target)
    return [e for e in extensions(f, tag).ordered() if _extension_attacks(f, e, t)]


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
    if question == "exists":
        return len(extensions(f, tag)) > 0
    if question == "SE":
        return some_extension(f, tag)
    if question == "EE":
        return extensions(f, tag).ordered()
    if target is None:
        raise ValueError(f"question {question!r} needs a target argument or set")
    if question == "DC":
        return credulously_accepted(f, tag, target)
    if question == "DS":
        return skeptically_accepted(f, tag, target)
    if question == "AC":
        return attacked_by_some(f, tag, target)
    if question == "AS":
        return attacked_by_all(f, tag, target)
    if question == "EE-containing":
        return extensions_containing(f, tag, target)
    if question == "SE-containing":
        found = extensions_containing(f, tag, target)
        return found[0] if found else None
    if question == "EE-attacking":
        return extensions_attacking(f, tag, target)
    if question == "SE-attacking":
        found = extensions_attacking(f, tag, target)
        return found[0] if found else None
    raise ValueError(f"unknown question {question!r}")
