"""Independent answer checks for the benchmark.

Nothing here calls into :mod:`afmat.semantics` or :mod:`afmat.conflictfree`;
the program's answers come in from the caller. Up to ``ORACLE_BOUND``
arguments a family must equal the brute-force ``oracle_family``. Beyond
it each family is checked clause by clause:
every set is conflict-free (a seeded sample when the family is large),
a seeded sample of sets passes the defining clause of its semantics via
``oracle_defends``, ``gr`` equals ``oracle_grounded_fixpoint``, the
maximality of ``pr``/``sst``/``id``/``eg`` is checked against the
admissible family, and the inclusions st <= sst <= pr <= co <= ad plus
gr/id/eg inside every co/pr/sst extension hold in full; the grounded
extension is in the ad and co families, and pr and sst are non-empty.
Query answers are recomputed with plain set logic over the checked family.
"""

from __future__ import annotations

import random
from typing import Callable

from afmat import ORACLE_BOUND, oracle_defends, oracle_family, oracle_grounded_fixpoint

CF_SAMPLE = 500       # sets tested for conflict-freeness in a large family
CLAUSE_SAMPLE = 24    # sets tested against the semantics' defining clause

# (smaller, larger): every extension of the first tag is one of the second.
INCLUSIONS = (("st", "sst"), ("sst", "pr"), ("pr", "co"), ("co", "ad"))
# (inner, outer): the single inner extension lies inside every outer one.
INSIDE = (("gr", "co"), ("id", "pr"), ("eg", "sst"))
SINGLETON = ("gr", "id", "eg")
MAXIMAL_IN_AD = ("pr", "id", "eg")


class CheckFailure(Exception):
    """An answer of the program disagrees with the independent check."""


def _mask(s) -> int:
    m = 0
    for a in s:
        m |= 1 << (a - 1)
    return m


class FrameworkCheck:
    """Checked families of one framework, and answers derived from them.

    ``compute(tag)`` returns the program's family for a tag the task list
    did not ask for; it is called outside the timed region and its answer
    is checked like any other before use.
    """

    def __init__(self, f, compute: Callable[[str], frozenset], seed: int):
        self.f = f
        self.compute = compute
        self.rng = random.Random(seed)
        self.targets = [0] * (f.n + 1)
        for a, b in f.attacks:
            self.targets[a] |= 1 << (b - 1)
        self.full = (1 << f.n) - 1
        self.families: dict[str, frozenset] = {}

    # -- families ---------------------------------------------------------
    def family(self, tag: str, sets) -> None:
        """Check ``sets`` as the ``tag`` family and remember it."""
        sets = frozenset(sets)
        if tag in self.families:
            if sets != self.families[tag]:
                raise CheckFailure(f"{tag}: family differs from the earlier answer")
            return
        if self.f.n <= ORACLE_BOUND:
            expected = oracle_family(self.f, tag).sets
            if sets != expected:
                extra = sorted(sets - expected)[:3]
                missing = sorted(expected - sets)[:3]
                raise CheckFailure(f"{tag}: differs from oracle, extra {extra} missing {missing}")
        else:
            self._clauses(tag, sets)
        if tag != "cf":  # not kept: it is the largest family and no relation needs it
            self.families[tag] = sets
            self._relations(tag)

    def reference(self, tag: str) -> frozenset:
        if tag in self.families:
            return self.families[tag]
        sets = frozenset(self.compute(tag))
        self.family(tag, sets)
        return sets

    def _range(self, m: int) -> int:
        r = m
        rest = m
        while rest:
            low = rest & -rest
            r |= self.targets[low.bit_length()]
            rest ^= low
        return r

    def _sample(self, sets, k: int) -> list:
        ordered = sorted(sets)
        return ordered if len(ordered) <= k else self.rng.sample(ordered, k)

    def _clauses(self, tag: str, sets: frozenset) -> None:
        f = self.f
        for s in self._sample(sets, CF_SAMPLE):
            m = _mask(s)
            if list(s) != sorted(set(s)) or any(self.targets[a] & m for a in s):
                raise CheckFailure(f"{tag}: {s} is not a conflict-free argument set")
        if tag == "cf":
            return
        if tag in SINGLETON and len(sets) != 1:
            raise CheckFailure(f"{tag}: expected exactly one extension, got {len(sets)}")
        grounded = oracle_grounded_fixpoint(f)
        if tag == "gr" and sets != {grounded}:
            raise CheckFailure(f"gr: {sorted(sets)} is not the grounded fixpoint")
        if tag in ("ad", "co") and grounded not in sets:  # the grounded extension is complete
            raise CheckFailure(f"{tag}: misses the grounded extension {grounded}")
        if tag in ("pr", "sst") and not sets:
            raise CheckFailure(f"{tag}: empty, but every framework has an extension")
        if tag in MAXIMAL_IN_AD or tag == "sst":
            ad_masks = [_mask(t) for t in self.reference("ad")]
            ad_ranges = {self._range(t) for t in ad_masks} if tag == "sst" else ()
        for s in self._sample(sets, CLAUSE_SAMPLE):
            m = _mask(s)
            if tag == "st":
                if self._range(m) != self.full:
                    raise CheckFailure(f"st: {s} leaves an outsider unattacked")
                continue
            if not all(oracle_defends(f, s, a) for a in s):
                raise CheckFailure(f"{tag}: {s} is not admissible")
            if tag in ("co", "gr") and any(
                a not in s for a in f.arguments if oracle_defends(f, s, a)
            ):
                raise CheckFailure(f"{tag}: {s} misses an argument it defends")
            if tag in MAXIMAL_IN_AD:
                fence = self.full
                if tag != "pr":
                    for t in self.reference("pr" if tag == "id" else "sst"):
                        fence &= _mask(t)
                if m & ~fence:
                    raise CheckFailure(f"{tag}: {s} leaves its fence")
                if any(m != t and m & ~t == 0 and t & ~fence == 0 for t in ad_masks):
                    raise CheckFailure(f"{tag}: {s} is not maximal")
            if tag == "sst":
                r = self._range(m)
                if any(r != rt and r & ~rt == 0 for rt in ad_ranges):
                    raise CheckFailure(f"sst: {s} does not have a maximal range")

    def _relations(self, tag: str) -> None:
        fams = self.families
        for small, big in INCLUSIONS:
            if tag in (small, big) and small in fams and big in fams:
                if not fams[small] <= fams[big]:
                    raise CheckFailure(f"{small} is not inside {big}")
        for inner, outer in INSIDE:
            if tag in (inner, outer) and inner in fams and outer in fams:
                for core in fams[inner]:
                    if any(not set(core) <= set(e) for e in fams[outer]):
                        raise CheckFailure(f"{inner} {core} is not inside every {outer} extension")

    # -- queries ----------------------------------------------------------
    def _attacks(self, e, target: int) -> bool:
        return any(self.targets[a] & target for a in e)

    def query(self, question: str, tag: str, target, answer) -> None:
        """Check one answer of ``query(f, question, tag, target)``."""
        fam = self.reference(tag)
        t = set(target)
        tm = _mask(t)
        if question == "SE":
            ok = answer in fam if fam else answer is None
        elif question == "DC":
            ok = answer == any(t <= set(e) for e in fam)
        elif question == "DS":
            ok = answer == all(t <= set(e) for e in fam)
        elif question == "AC":
            ok = answer == any(self._attacks(e, tm) for e in fam)
        elif question == "AS":
            ok = answer == all(self._attacks(e, tm) for e in fam)
        else:
            raise ValueError(f"unknown question {question!r}")
        if not ok:
            raise CheckFailure(f"{question} {tag} target {sorted(t)}: wrong answer {answer!r}")


def parse_cli_output(task: str, text: str):
    """The answer printed by ``afmat solve``: a family, a set or None, or a bool."""
    lines = text.splitlines()

    def argset(line: str) -> tuple:
        if not (line.startswith("[") and line.endswith("]")):
            raise CheckFailure(f"{task}: unreadable output line {line!r}")
        body = line[1:-1]
        return tuple(int(x) for x in body.split(",")) if body else ()

    if task == "EE":
        return frozenset(argset(line) for line in lines)
    if len(lines) != 1:
        raise CheckFailure(f"{task}: expected one output line, got {len(lines)}")
    if task == "SE":
        return None if lines[0] == "NO" else argset(lines[0])
    if lines[0] not in ("YES", "NO"):
        raise CheckFailure(f"{task}: expected YES or NO, got {lines[0]!r}")
    return lines[0] == "YES"
