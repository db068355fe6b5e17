"""Shared fixtures-in-code for the test suite.

Holds the small hand-checked frameworks the unit tests revolve around,
a hypothesis strategy for arbitrary small frameworks,
naive grid-walking reference implementations of the sub-block criteria
(independent of the packed-word path in the library), a plain walk over
every conflict-free set, a line-by-line reference TGF reader, a check
that a framework built without the per-pair check is the one the public
constructor builds, and the seeded corpus builder used by the
differential and acceptance tests.
"""

from __future__ import annotations

from itertools import chain, combinations

from hypothesis import strategies as st

from afmat import Framework, GeneratorConfig, NameMap, ParseError, SubBlocks, generate
from afmat.core import ArgSet, AttackTables, Grid, attack_tables

# 3-cycle: no stable extension, grounded/ideal/eager all empty-set.
CYCLE3 = Framework(3, {(1, 2), (2, 3), (3, 1)})

# Five arguments, unique stable extension {1, 3, 5}.
AF5A = Framework(5, {(1, 2), (2, 3), (2, 5), (4, 3), (5, 4)})

# Variant of AF5A with 4 -> 1: two stable extensions, empty grounded.
AF5B = Framework(5, {(1, 2), (2, 3), (2, 5), (4, 1), (4, 3), (5, 4)})

# Dense attacker 2: three preferred extensions with empty intersection.
AF5C = Framework(5, {(1, 4), (2, 1), (2, 3), (2, 4), (2, 5), (3, 2), (4, 1)})

# Mutual attacks 1<->3, 4<->5 plus 5 -> 1: rich norm-form structure.
AF5D = Framework(5, {(1, 2), (1, 3), (3, 1), (4, 5), (5, 1), (5, 4)})

NAMED_FRAMEWORKS = {
    "cycle3": CYCLE3,
    "af5a": AF5A,
    "af5b": AF5B,
    "af5c": AF5C,
    "af5d": AF5D,
}


@st.composite
def frameworks(draw, max_n: int = 7):
    """Hypothesis strategy: any framework on up to ``max_n`` arguments."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return Framework(0)
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    return Framework(n, draw(st.frozensets(pairs, max_size=n * n)))


def powerset(f: Framework):
    return chain.from_iterable(combinations(f.arguments, r) for r in range(f.n + 1))


def naive_conflict_free(f: Framework) -> frozenset[ArgSet]:
    """Power-set filter by the pairwise definition, nothing shared with the library."""
    return frozenset(
        s
        for s in powerset(f)
        if not any((a, b) in f.attacks for a in s for b in s)
    )


def column(grid: Grid, t: int) -> tuple[int, ...]:
    return tuple(row[t] for row in grid)


def nonzero(vector: tuple[int, ...]) -> bool:
    return any(vector)


def stable_by_blocks(sb: SubBlocks) -> bool:
    """Every column of the outgoing block is non-zero."""
    width = len(sb.outsiders)
    return all(nonzero(column(sb.outgoing, t)) for t in range(width))


def admissible_by_blocks(sb: SubBlocks) -> bool:
    """Non-zero incoming rows are matched by non-zero outgoing columns."""
    for t in range(len(sb.outsiders)):
        if nonzero(sb.incoming[t]) and not nonzero(column(sb.outgoing, t)):
            return False
    return True


def complete_by_blocks(sb: SubBlocks) -> bool:
    """Admissible, and each zero outgoing column has an attacker (a 1 in the
    outer column) sitting on a row whose own outgoing column is zero."""
    if not admissible_by_blocks(sb):
        return False
    h = len(sb.outsiders)
    for t in range(h):
        if nonzero(column(sb.outgoing, t)):
            continue
        col = column(sb.outer, t)
        if not nonzero(col):
            return False
        if not any(col[v] and not nonzero(column(sb.outgoing, v)) for v in range(h)):
            return False
    return True


def assemble(sb: SubBlocks) -> Grid:
    """Lay the four blocks out as [[inner, outgoing], [incoming, outer]]."""
    top = tuple(r1 + r2 for r1, r2 in zip(sb.inner, sb.outgoing))
    bottom = tuple(r1 + r2 for r1, r2 in zip(sb.incoming, sb.outer))
    return top + bottom


def plain_walk(tables: AttackTables):
    """Every conflict-free set once as ``(set, mask, plus, minus)``, with no
    look-ahead: a set grows by each argument above its largest member that
    neither attacks itself nor attacks or is attacked by a member. Written
    apart from the library's walk, on the tables' rows alone."""
    free = tables.full & ~tables.loops
    stack = [((), 0, 0, 0)]
    while stack:
        node = stack.pop()
        yield node
        s, mask, plus, minus = node
        above = mask.bit_length()
        rest = (free & ~(plus | minus)) >> above << above
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length()
            stack.append((s + (a,), mask | low, plus | tables.targets[a], minus | tables.attackers[a]))


def reference_parse_tgf(text: str) -> tuple[Framework, NameMap]:
    """TGF reader that handles one attack line at a time.

    The per-line loop that ``afmat.parse_tgf`` replaced with a single
    comprehension, kept as the reference for its results and its errors.
    """
    lines = text.splitlines()
    names: list[str] = []
    index: dict[str, int] = {}
    separator = None
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped == "#":
            separator = ln
            break
        if not stripped:
            raise ParseError(f"line {ln}: empty argument name")
        name = stripped.split()[0]
        if name == "#":
            raise ParseError(f"line {ln}: '#' cannot be an argument name; the separator is a lone '#'")
        if "," in name:
            raise ParseError(f"line {ln}: argument name {name!r} contains ','")
        if name in index:
            raise ParseError(f"line {ln}: duplicate argument name {name!r}")
        index[name] = len(names) + 1
        names.append(name)
    if separator is None:
        raise ParseError("missing '#' separator line")

    attacks = set()
    for ln, raw in enumerate(lines[separator:], start=separator + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) < 2:
            raise ParseError(f"line {ln}: attack line needs a source and a target")
        try:
            attacks.add((index[tokens[0]], index[tokens[1]]))
        except KeyError as exc:
            raise ParseError(f"line {ln}: attack references undeclared argument {exc.args[0]!r}") from None
    return Framework(len(names), attacks), NameMap(tuple(names))


def assert_as_if_public(f: Framework) -> None:
    """``f`` is equal to, hashes like and shares the attack-table cache
    entry of the framework the public constructor builds from its pairs."""
    assert type(f.attacks) is frozenset
    assert all(type(pair) is tuple for pair in f.attacks)
    public = Framework(f.n, list(f.attacks))
    assert f == public and hash(f) == hash(public)
    assert attack_tables(f) is attack_tables(public)


# The acceptance corpus: CORPUS_COUNT frameworks per (n, p) cell.
CORPUS_NS = range(1, 9)
CORPUS_PS = (0.1, 0.3, 0.5)
CORPUS_COUNT = 200


def corpus_seed(n: int, p_index: int, i: int) -> int:
    return n * 1_000_000 + p_index * 10_000 + i


def make_corpus(ns, ps, count) -> list[Framework]:
    """Deterministic random corpus: ``count`` frameworks per (n, p) cell."""
    out = []
    for n in ns:
        for pi, p in enumerate(ps):
            for i in range(count):
                out.append(generate(GeneratorConfig(n=n, p=p, seed=corpus_seed(n, pi, i))))
    return out
