"""Brute-force reference semantics, deliberately naive.

Everything here works straight off the attack relation with plain set
operations: candidate subsets are scanned exhaustively and the defining
clause of each semantics is applied literally, with no bit tricks, no
sharing and no early exits beyond the clause itself. The point is to be
an independent second route against which the matrix-based path in
:mod:`afmat.semantics` can be checked differentially.

Because the scan is exponential, :func:`oracle_family` refuses
frameworks larger than the fixed, not configurable ``ORACLE_BOUND``.
"""

from __future__ import annotations

from itertools import combinations

from .core import ArgSet, Framework, checked_argset
from .semantics import ExtensionFamily, Semantics

ORACLE_BOUND = 12


class OracleBoundError(ValueError):
    """The framework is too large for an exhaustive subset scan."""


def oracle_defends(f: Framework, s: ArgSet, a: int) -> bool:
    """True iff every attacker of ``a`` is attacked by some member of ``s``."""
    members = checked_argset(f, s)
    if not (type(a) is int and 1 <= a <= f.n):
        raise IndexError(f"argument {a!r} outside 1..{f.n}")
    return all(
        any((c, b) in f.attacks for c in members)
        for b in f.arguments
        if (b, a) in f.attacks
    )


def _subsets(f: Framework) -> list[ArgSet]:
    out: list[ArgSet] = []
    for r in range(f.n + 1):
        out.extend(combinations(f.arguments, r))
    return out


def _conflict_free(f: Framework, s: ArgSet) -> bool:
    return not any((a, b) in f.attacks for a in s for b in s)


def _stable(f: Framework, s: ArgSet) -> bool:
    return _conflict_free(f, s) and all(
        any((b, a) in f.attacks for b in s) for a in f.arguments if a not in s
    )


def _admissible(f: Framework, s: ArgSet) -> bool:
    return _conflict_free(f, s) and all(oracle_defends(f, s, a) for a in s)


def _complete(f: Framework, s: ArgSet) -> bool:
    return _admissible(f, s) and all(
        a in s for a in f.arguments if oracle_defends(f, s, a)
    )


def _range(f: Framework, s: ArgSet) -> frozenset[int]:
    return frozenset(s) | {b for (a, b) in f.attacks if a in s}


def oracle_family(f: Framework, tag: Semantics | str) -> ExtensionFamily:
    """All extensions of ``f`` under ``tag``, by exhaustive subset scan."""
    tag = Semantics(tag)
    if f.n > ORACLE_BOUND:
        raise OracleBoundError(
            f"framework has {f.n} arguments, above the oracle bound {ORACLE_BOUND}"
        )

    subsets = _subsets(f)
    if tag is Semantics.CONFLICT_FREE:
        sets = [s for s in subsets if _conflict_free(f, s)]
    elif tag is Semantics.STABLE:
        sets = [s for s in subsets if _stable(f, s)]
    elif tag is Semantics.ADMISSIBLE:
        sets = [s for s in subsets if _admissible(f, s)]
    elif tag is Semantics.COMPLETE:
        sets = [s for s in subsets if _complete(f, s)]
    elif tag is Semantics.PREFERRED:
        ad = [s for s in subsets if _admissible(f, s)]
        sets = [s for s in ad if not any(set(s) < set(t) for t in ad)]
    elif tag is Semantics.GROUNDED:
        co = [s for s in subsets if _complete(f, s)]
        sets = [s for s in co if not any(set(t) < set(s) for t in co)]
    elif tag is Semantics.IDEAL:
        ad = [s for s in subsets if _admissible(f, s)]
        pr = [s for s in ad if not any(set(s) < set(t) for t in ad)]
        core = set(f.arguments)
        for t in pr:
            core &= set(t)
        inside = [s for s in ad if set(s) <= core]
        sets = [s for s in inside if not any(set(s) < set(u) for u in inside)]
    elif tag is Semantics.SEMI_STABLE:
        ad = [s for s in subsets if _admissible(f, s)]
        sets = [s for s in ad if not any(_range(f, s) < _range(f, t) for t in ad)]
    elif tag is Semantics.EAGER:
        ad = [s for s in subsets if _admissible(f, s)]
        sst = [s for s in ad if not any(_range(f, s) < _range(f, t) for t in ad)]
        core = set(f.arguments)
        for t in sst:
            core &= set(t)
        inside = [s for s in ad if set(s) <= core]
        sets = [s for s in inside if not any(set(s) < set(u) for u in inside)]
    else:  # pragma: no cover - the enum is closed
        raise ValueError(f"unknown semantics {tag!r}")
    return ExtensionFamily(frozenset(sets))


def oracle_grounded_fixpoint(f: Framework) -> ArgSet:
    """Least fixed point of the defense operator, iterated from the empty set.

    An independent second route to the grounded extension: repeatedly
    collect every argument all of whose attackers are attacked by the
    current set, until nothing changes.
    """
    current: ArgSet = ()
    while True:
        nxt = tuple(a for a in f.arguments if oracle_defends(f, current, a))
        if nxt == current:
            return nxt
        current = nxt
