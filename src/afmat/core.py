"""Frameworks and their Boolean attack matrices.

A framework is a finite set of arguments, identified by the integers
1..n, together with a binary attack relation. For every ordering of the
arguments the framework is represented by a square Boolean matrix: cell
(s, t) is 1 exactly when the argument labelling position s attacks the
argument labelling position t. All orderings represent the same
framework; the one for 1, 2, ..., n is called the natural matrix.

Matrix rows are stored as bit-packed integers (bit t-1 of row s holds
cell (s, t)), so row and column tests reduce to word scans. Positions
and argument identifiers are 1-based throughout, matching the domain
convention.

Two structural tools reproduce the paper's exposition, both read
through one block reader, ``_block``. The extension criteria in
:mod:`afmat.semantics` are word tests on the attack tables and call
neither, but read the same blocks a word at a time:

* ``extract_subblocks`` reads the four index-partition blocks of the
  natural matrix for a candidate set (inner, outgoing, incoming, outer).
* ``to_norm_form`` regroups the matrix by dual interchanges so that the
  candidate's members come first, then the outsiders the candidate does
  not attack, then the outsiders it defeats. For a conflict-free
  candidate the top-left block of the result is all zero and every
  column of the members x defeated block contains a 1. The verdicts
  ``stable_on_norm_form``, ``admissible_on_norm_form`` and
  ``complete_on_norm_form`` read its named zones.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

Attack = tuple[int, int]
ArgSet = tuple[int, ...]
Grid = tuple[tuple[int, ...], ...]


class MalformedPermutationError(ValueError):
    """A label sequence is not a permutation of 1..n."""


class PreconditionError(ValueError):
    """An operation was called on a set that violates its precondition.

    ``pair`` names the offending attack when one exists.
    """

    def __init__(self, message: str, pair: Attack | None = None):
        super().__init__(message)
        self.pair = pair


class InternalInvariantError(RuntimeError):
    """A structural guarantee the library relies on failed to hold."""


@dataclass(frozen=True)
class Framework:
    """A finite argumentation framework: arguments 1..n plus attacks.

    ``attacks`` may be given as any iterable of (attacker, target) pairs;
    each pair is checked and the whole canonicalised to a frozenset of
    tuples. Self-attacks are allowed.

    Producers inside afmat that make the identifiers themselves (the file
    readers, :func:`~afmat.generator.generate` and :func:`relabel`) hand
    over a frozenset they already know to be valid through
    ``Framework._checked``, which skips the per-pair check. The result is
    equal to, and hashes like, the one the public constructor builds.
    """

    n: int
    attacks: frozenset[Attack] = frozenset()

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 0:
            raise ValueError(f"argument count must be a non-negative integer, got {n!r}")
        # Each pair is checked before the set is built, so that an endpoint
        # equal to an integer but of another type (1.0, True) cannot hide
        # behind a duplicate, and an unhashable one, or an entry that is no
        # pair (1, None, (1,), (1, 2, 2)), is reported as a bad pair.
        pairs = []
        for pair in self.attacks:
            try:
                a, b = pair
            except (TypeError, ValueError):
                a = b = None
            if not (type(a) is int and type(b) is int):
                raise ValueError(f"attack pair {pair!r} must be a pair of integers")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"attack ({a}, {b}) outside 1..{n}")
            pairs.append((a, b))
        object.__setattr__(self, "attacks", frozenset(pairs))

    @classmethod
    def _checked(cls, n: int, attacks: frozenset[Attack]) -> "Framework":
        """A framework from a frozenset of integer pairs already known to
        lie in 1..n, stored as it is: no per-pair check, no copy."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "attacks", attacks)
        return f

    @property
    def arguments(self) -> range:
        return range(1, self.n + 1)


def argset(members: Iterable[int]) -> ArgSet:
    """Canonical form of a set of arguments: strictly increasing tuple."""
    return tuple(sorted(set(members)))


def checked_argset(f: Framework, members: Iterable[int]) -> ArgSet:
    """Canonicalise ``members`` and verify every one lies in 1..n."""
    # Each member is checked before duplicates collapse, so that one equal to
    # an integer but of another type (1.0, True) cannot hide behind the integer.
    members = tuple(members)
    for a in members:
        if not (type(a) is int and 1 <= a <= f.n):
            raise IndexError(f"argument {a!r} outside 1..{f.n}")
    return argset(members)


def pack(members: Iterable[int]) -> int:
    """Bitmask of a set of arguments (bit i-1 stands for argument i)."""
    mask = 0
    for a in members:
        mask |= 1 << (a - 1)
    return mask


def unpack(mask: int) -> ArgSet:
    """Inverse of :func:`pack`, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class AttackTables(NamedTuple):
    """Bit-packed adjacency of a framework (index 0 of each tuple unused)."""

    n: int
    full: int
    targets: tuple[int, ...]    # targets[i]: everything argument i attacks
    attackers: tuple[int, ...]  # attackers[i]: everything that attacks i
    loops: int                  # the self-attacking arguments
    above: tuple[int, ...]      # above[i]: C(i) restricted to the arguments above i


# How many frameworks keep their attack tables cached. A caller that
# queries one framework many times hits the cache; a stream of distinct
# frameworks does not grow memory without bound.
_TABLES_CACHED = 32


@lru_cache(maxsize=_TABLES_CACHED)
def attack_tables(f: Framework) -> AttackTables:
    targets = [0] * (f.n + 1)
    attackers = [0] * (f.n + 1)
    loops = 0
    for a, b in f.attacks:
        targets[a] |= 1 << (b - 1)
        attackers[b] |= 1 << (a - 1)
        if a == b:
            loops |= 1 << (a - 1)
    full = (1 << f.n) - 1
    # Compatibility C(i): the arguments j != i with no attack in either
    # direction between i and j and no self-attack on j. It is symmetric, so
    # the part above i is all a walk needs; a self-attacker has none.
    free = full & ~loops
    above = [0] * (f.n + 1)
    for i in range(1, f.n + 1):
        if not (loops >> (i - 1)) & 1:
            above[i] = (free >> i << i) & ~(targets[i] | attackers[i])
    return AttackTables(f.n, full, tuple(targets), tuple(attackers), loops, tuple(above))


def internal_attack(f: Framework, members: ArgSet) -> Attack | None:
    """First attack between two members of the set, or None if conflict-free."""
    mask = pack(members)
    tables = attack_tables(f)
    for a in members:
        hit = tables.targets[a] & mask
        if hit:
            return (a, (hit & -hit).bit_length())
    return None


def _require_conflict_free(f: Framework, members: ArgSet) -> None:
    clash = internal_attack(f, members)
    if clash is not None:
        raise PreconditionError(
            f"candidate set is not conflict-free: {clash[0]} attacks {clash[1]}",
            pair=clash,
        )


@dataclass(frozen=True)
class AttackMatrix:
    """Boolean matrix of a framework under a fixed label sequence.

    ``labels[s-1]`` is the argument at row/column position s. Bit t-1 of
    ``rows[s-1]`` is cell (s, t): whether ``labels[s-1]`` attacks
    ``labels[t-1]``.
    """

    n: int
    labels: tuple[int, ...]
    rows: tuple[int, ...]

    def _check_position(self, k: int) -> None:
        if not (type(k) is int and 1 <= k <= self.n):
            raise IndexError(f"position {k!r} outside 1..{self.n}")

    def cell(self, s: int, t: int) -> int:
        self._check_position(s)
        self._check_position(t)
        return (self.rows[s - 1] >> (t - 1)) & 1

    def to_grid(self) -> Grid:
        return tuple(tuple((row >> t) & 1 for t in range(self.n)) for row in self.rows)

    def to_framework(self) -> Framework:
        """Rebuild the framework this matrix represents."""
        attacks = set()
        for s, row in enumerate(self.rows):
            while row:
                low = row & -row
                attacks.add((self.labels[s], self.labels[low.bit_length() - 1]))
                row ^= low
        return Framework(self.n, attacks)


def check_permutation(permutation: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a label sequence as a permutation of 1..n."""
    perm = tuple(permutation)
    if len(perm) != n:
        raise MalformedPermutationError(f"expected {n} labels, got {len(perm)}")
    # type first, as sorted() raises on ("a", 1); 2.0 == 2 and True == 1, but name no argument
    if not all(type(x) is int for x in perm) or sorted(perm) != list(range(1, n + 1)):
        raise MalformedPermutationError(f"labels {perm!r} are not a permutation of 1..{n}")
    return perm


def build_matrix(f: Framework, permutation: Iterable[int]) -> AttackMatrix:
    """Matrix of ``f`` with positions labelled by ``permutation``."""
    perm = check_permutation(permutation, f.n)
    tables = attack_tables(f)
    rows = []
    for a in perm:
        hit = tables.targets[a]
        row = 0
        for t, b in enumerate(perm):
            row |= ((hit >> (b - 1)) & 1) << t
        rows.append(row)
    return AttackMatrix(f.n, perm, tuple(rows))


def natural_matrix(f: Framework) -> AttackMatrix:
    """Matrix of ``f`` under the natural label order 1, 2, ..., n: its
    rows are the attack tables' target words."""
    return AttackMatrix(f.n, tuple(f.arguments), attack_tables(f).targets[1:])


def dual_interchange(m: AttackMatrix, k: int, l: int) -> AttackMatrix:
    """Swap rows k and l together with columns k and l.

    The result is the matrix of the same framework with the labels at
    positions k and l exchanged; applying the same interchange twice
    restores the input.
    """
    m._check_position(k)
    m._check_position(l)
    if k == l:
        return m
    rows = list(m.rows)
    rows[k - 1], rows[l - 1] = rows[l - 1], rows[k - 1]
    flip = (1 << (k - 1)) | (1 << (l - 1))
    for i, row in enumerate(rows):
        if ((row >> (k - 1)) ^ (row >> (l - 1))) & 1:
            rows[i] = row ^ flip
    labels = list(m.labels)
    labels[k - 1], labels[l - 1] = labels[l - 1], labels[k - 1]
    return AttackMatrix(m.n, tuple(labels), tuple(rows))


@dataclass(frozen=True)
class SubBlocks:
    """The four index-partition blocks of the natural matrix for a set S.

    With members i1 < ... < ik and outsiders j1 < ... < jh:

    * ``inner``     k x k block of attacks among members,
    * ``outgoing``  k x h block of attacks from members onto outsiders,
    * ``incoming``  h x k block of attacks from outsiders onto members,
    * ``outer``     h x h block of attacks among outsiders.

    Laid out as [[inner, outgoing], [incoming, outer]] they reassemble
    the matrix under the label order (members, then outsiders).
    """

    members: ArgSet
    outsiders: ArgSet
    inner: Grid
    outgoing: Grid
    incoming: Grid
    outer: Grid


def _block(m: AttackMatrix, rows: Sequence[int], cols: Sequence[int]) -> Grid:
    """The cells (r, c) of ``m`` for the 1-based positions r in ``rows``, c in ``cols``."""
    return tuple(tuple((m.rows[r - 1] >> (c - 1)) & 1 for c in cols) for r in rows)


def extract_subblocks(f: Framework, candidate: Iterable[int]) -> SubBlocks:
    """Read the four partition blocks for ``candidate`` off the natural matrix of ``f``."""
    members = checked_argset(f, candidate)
    inside = set(members)
    outsiders = tuple(a for a in f.arguments if a not in inside)
    m = natural_matrix(f)
    return SubBlocks(
        members=members,
        outsiders=outsiders,
        inner=_block(m, members, members),
        outgoing=_block(m, members, outsiders),
        incoming=_block(m, outsiders, members),
        outer=_block(m, outsiders, outsiders),
    )


_ZONES = ("members", "undefeated", "defeated")


@dataclass(frozen=True)
class NormForm:
    """Zone-partitioned matrix of a conflict-free candidate set.

    Positions 1..k carry the members, positions k+1..k+q the outsiders
    the candidate does not attack (undefeated), and the last l = n-k-q
    positions the outsiders it defeats. Guaranteed structure: the
    k x (k+q) top-left region is all zero and every column of the
    members x defeated block contains a 1.
    """

    matrix: AttackMatrix
    k: int
    q: int

    @property
    def l(self) -> int:
        return self.matrix.n - self.k - self.q

    @property
    def members(self) -> tuple[int, ...]:
        return self.matrix.labels[: self.k]

    @property
    def undefeated(self) -> tuple[int, ...]:
        return self.matrix.labels[self.k : self.k + self.q]

    @property
    def defeated(self) -> tuple[int, ...]:
        return self.matrix.labels[self.k + self.q :]

    def _zone_span(self, zone: str) -> range:
        if zone not in _ZONES:
            raise ValueError(f"unknown zone {zone!r}; expected one of {_ZONES}")
        starts = (1, self.k + 1, self.k + self.q + 1, self.matrix.n + 1)
        i = _ZONES.index(zone)
        return range(starts[i], starts[i + 1])

    def block(self, rows: str, cols: str) -> Grid:
        """One partition block, addressed by zone names."""
        return _block(self.matrix, self._zone_span(rows), self._zone_span(cols))


def stable_on_norm_form(nf: NormForm) -> bool:
    """Stable iff the undefeated zone is empty."""
    return nf.q == 0


def admissible_on_norm_form(nf: NormForm) -> bool:
    """Admissible iff the undefeated x members block is all zero."""
    return not any(map(any, nf.block("undefeated", "members")))


def complete_on_norm_form(nf: NormForm) -> bool:
    """Complete iff admissible and every column of the undefeated square block holds a 1."""
    undefeated = nf.block("undefeated", "undefeated")
    return admissible_on_norm_form(nf) and all(map(any, zip(*undefeated)))


def _group_zone(m: AttackMatrix, wanted: frozenset[int], lo: int, hi: int) -> AttackMatrix:
    """Gather ``wanted`` labels into positions lo..hi by dual interchanges.

    Labels already inside the zone stay where they are; each remaining
    slot receives the smallest wanted label still outside the zone. This
    touches as few positions as possible and fixes the result uniquely.
    """
    for pos in range(lo, hi + 1):
        if m.labels[pos - 1] in wanted:
            continue
        pick = min(x for x in wanted if m.labels.index(x) + 1 > hi)
        m = dual_interchange(m, pos, m.labels.index(pick) + 1)
    return m


def to_norm_form(f: Framework, candidate: Iterable[int]) -> NormForm:
    """Norm form of the natural matrix for a conflict-free candidate set.

    Built by the literal sequence of dual interchanges: first the members
    are gathered at the front, then the columns of the members x outsiders
    region that contain no 1 determine the undefeated outsiders, which are
    gathered next to the members the same way.
    """
    members = checked_argset(f, candidate)
    _require_conflict_free(f, members)
    k = len(members)
    m = _group_zone(natural_matrix(f), frozenset(members), 1, k)

    undefeated = []
    for t in range(k + 1, f.n + 1):
        colbit = 1 << (t - 1)
        if not any(m.rows[r] & colbit for r in range(k)):
            undefeated.append(m.labels[t - 1])
    q = len(undefeated)
    m = _group_zone(m, frozenset(undefeated), k + 1, k + q)

    nf = NormForm(matrix=m, k=k, q=q)
    _verify_norm_form(nf)
    return nf


def _verify_norm_form(nf: NormForm) -> None:
    zero_zone = (1 << (nf.k + nf.q)) - 1
    for r in range(nf.k):
        if nf.matrix.rows[r] & zero_zone:
            raise InternalInvariantError("norm form: top-left region is not zero")
    for t in range(nf.k + nf.q, nf.matrix.n):
        if not any((nf.matrix.rows[r] >> t) & 1 for r in range(nf.k)):
            raise InternalInvariantError("norm form: defeated column without attack")


def relabel(f: Framework, permutation: Iterable[int]) -> Framework:
    """Rename argument i to ``permutation[i-1]`` throughout the framework."""
    perm = check_permutation(permutation, f.n)
    return Framework._checked(f.n, frozenset([(perm[a - 1], perm[b - 1]) for a, b in f.attacks]))
