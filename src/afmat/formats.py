"""Reading and writing framework files (TGF and APX).

Internally arguments are the integers 1..n; external files use names.
Names map to identifiers in order of first appearance and the mapping is
kept so results can be printed with the original names.

Trivial graph format (``.tgf``), line oriented::

    <name> [ignored label ...]      one line per argument
    #                               single separator line
    <src> <dst> [ignored label ...] one line per attack

Every declaration line must start with a name (a whitespace-free token
other than ``#``); a blank line before the separator is rejected as an
empty argument name, and a line such as ``# x`` as a ``#`` name.
Attack lines may be blank (skipped); both endpoints must have been
declared. Duplicate attack lines collapse, duplicate declarations are an
error.

ASPARTIX format (``.apx``), whitespace insensitive::

    arg(<name>).      declares an argument
    att(<src>,<dst>). declares an attack

``%`` starts a comment running to the end of the line. Names may not
contain whitespace, parentheses, commas, dots or percent signs. Repeated
``arg`` facts collapse; an ``att`` fact naming an undeclared argument is
an error, wherever it appears in the file.

The writers emit canonical files (declarations in identifier order,
attacks sorted) so that parse -> format -> parse is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Framework

_APX_NAME = re.compile(r"[^\s(),.%]+\Z")
_APX_FACT = re.compile(r"(arg|att)\s*\(\s*([^\s(),.%]+)\s*(?:,\s*([^\s(),.%]+)\s*)?\)\s*\.")


class ParseError(ValueError):
    """The input text is not a well-formed framework file."""


@dataclass(frozen=True)
class NameMap:
    """Bijection between external argument names and identifiers 1..n.

    ``names[i-1]`` is the name of argument i; first-appearance order in
    the source file fixes the numbering.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("argument names must be unique")

    @classmethod
    def identity(cls, n: int) -> "NameMap":
        return cls(tuple(str(i) for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.names)

    def name_of(self, i: int) -> str:
        if not 1 <= i <= len(self.names):
            raise IndexError(f"argument {i} outside 1..{len(self.names)}")
        return self.names[i - 1]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise ValueError(f"unknown argument name {name!r}") from None


def parse_tgf(text: str) -> tuple[Framework, NameMap]:
    """Parse trivial graph format text into a framework plus its name map."""
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
        for name in tokens[:2]:
            if name not in index:
                raise ParseError(f"line {ln}: attack references undeclared argument {name!r}")
        attacks.add((index[tokens[0]], index[tokens[1]]))
    return Framework(len(names), attacks), NameMap(tuple(names))


def parse_apx(text: str) -> tuple[Framework, NameMap]:
    """Parse ASPARTIX-style text into a framework plus its name map."""
    body = re.sub(r"%[^\n]*", "", text)
    names: list[str] = []
    index: dict[str, int] = {}
    attack_facts: list[tuple[str, str]] = []
    pos = 0
    while True:
        while pos < len(body) and body[pos].isspace():
            pos += 1
        if pos == len(body):
            break
        fact = _APX_FACT.match(body, pos)
        if fact is None:
            snippet = body[pos : pos + 30].strip() or body[pos : pos + 30]
            raise ParseError(f"malformed fact near {snippet!r}")
        kind, first, second = fact.groups()
        if kind == "arg":
            if second is not None:
                raise ParseError(f"arg takes one name, got {fact.group(0).strip()!r}")
            if first not in index:
                index[first] = len(names) + 1
                names.append(first)
        else:
            if second is None:
                raise ParseError(f"att takes two names, got {fact.group(0).strip()!r}")
            attack_facts.append((first, second))
        pos = fact.end()

    attacks = set()
    for src, dst in attack_facts:
        for name in (src, dst):
            if name not in index:
                raise ParseError(f"attack references undeclared argument {name!r}")
        attacks.add((index[src], index[dst]))
    return Framework(len(names), attacks), NameMap(tuple(names))


def _tgf_safe(name: str) -> str:
    if not name or any(c.isspace() for c in name) or name == "#":
        raise ValueError(f"name {name!r} cannot be written in TGF")
    return name


def _apx_safe(name: str) -> str:
    if not _APX_NAME.match(name):
        raise ValueError(f"name {name!r} cannot be written in APX")
    return name


def format_tgf(f: Framework, names: NameMap | None = None) -> str:
    """Canonical TGF text for a framework."""
    nm = names if names is not None else NameMap.identity(f.n)
    lines = [_tgf_safe(nm.name_of(i)) for i in f.arguments]
    lines.append("#")
    lines.extend(f"{nm.name_of(a)} {nm.name_of(b)}" for a, b in sorted(f.attacks))
    return "\n".join(lines) + "\n"


def format_apx(f: Framework, names: NameMap | None = None) -> str:
    """Canonical APX text for a framework."""
    nm = names if names is not None else NameMap.identity(f.n)
    lines = [f"arg({_apx_safe(nm.name_of(i))})." for i in f.arguments]
    lines.extend(f"att({nm.name_of(a)},{nm.name_of(b)})." for a, b in sorted(f.attacks))
    return "\n".join(lines) + "\n"


def detect_format(path: str) -> str | None:
    """Guess the file format from the extension, or None."""
    lowered = str(path).lower()
    if lowered.endswith(".tgf"):
        return "tgf"
    if lowered.endswith(".apx"):
        return "apx"
    return None


def parse(text: str, fmt: str) -> tuple[Framework, NameMap]:
    """Parse ``text`` as the given format (``tgf`` or ``apx``)."""
    if fmt == "tgf":
        return parse_tgf(text)
    if fmt == "apx":
        return parse_apx(text)
    raise ValueError(f"unknown format {fmt!r}")


def render_argset(members: tuple[int, ...], names: NameMap) -> str:
    """Render a set of arguments as ``[a,b,c]`` in ascending identifier order."""
    return "[" + ",".join(names.name_of(i) for i in members) + "]"
