"""TGF / APX parsing, canonical writing and round-trips."""

from __future__ import annotations

import pytest
from helpers import CYCLE3, assert_as_if_public, reference_parse_tgf
from hypothesis import example, given
from hypothesis import strategies as st

from afmat import (
    Framework,
    GeneratorConfig,
    NameMap,
    ParseError,
    format_apx,
    format_tgf,
    generate,
    parse_apx,
    parse_tgf,
)
from afmat.formats import render_argset

TGF_CYCLE = "1\n2\n3\n#\n1 2\n2 3\n3 1\n"
APX_CYCLE = "arg(1). arg(2). arg(3). att(1,2). att(2,3). att(3,1)."

# Malformed APX texts and the error each must raise. Text before, between
# or after the facts is an error wherever it stands.
APX_MALFORMED = {
    "arg(a)": "malformed fact near 'arg(a)'",
    "arg().": "malformed fact near 'arg().'",
    "arg(a,b).": "arg takes one name, got 'arg(a,b).'",
    "att(a).": "att takes two names, got 'att(a).'",
    "att(a b).": "malformed fact near 'att(a b).'",
    "bogus(a).": "malformed fact near 'bogus(a).'",
    "arg(a). x": "malformed fact near 'x'",
    "x arg(a).": "malformed fact near 'x arg(a).'",
    "arg(a).  junk  arg(b).": "malformed fact near 'junk  arg(b).'",
    " \n arg(a) . att( a ,b). " + "y" * 40: "malformed fact near '" + "y" * 30 + "'",
}

names_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=6),
    min_size=0,
    max_size=8,
    unique=True,
)


@st.composite
def named_frameworks(draw):
    names = draw(names_strategy)
    n = len(names)
    if n == 0:
        return Framework(0), NameMap(())
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    return Framework(n, draw(st.frozensets(pairs, max_size=n * n))), NameMap(tuple(names))


# Line ends that str.splitlines honours, and the gaps between tokens.
LINE_ENDS = ("\n", "\r\n", "\x0c", "\u2028")
GAPS = (" ", "\t", "  ")
LABELS = ("", " x", "\tweak label", " a b")


@st.composite
def tgf_texts(draw):
    """TGF files with ignored labels, blank and whitespace-only lines, mixed
    line ends, and one-token lines and undeclared names anywhere after the
    separator."""
    pool = ("a", "b", "c", "d", "e")
    declared = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    name = st.sampled_from(declared) | st.sampled_from(pool) if declared else st.sampled_from(pool)
    gap = st.sampled_from(GAPS)
    edge = st.sampled_from(("", *GAPS))
    label = st.sampled_from(LABELS)
    attack = st.builds(lambda e, s, g, t, lab: f"{e}{s}{g}{t}{lab}", edge, name, gap, name, label)
    line = st.one_of(
        attack, attack, attack,
        edge,
        st.builds(lambda e, s, f: f"{e}{s}{f}", edge, name, edge),
    )
    lines = [d + draw(label) for d in declared]
    lines.append(draw(st.sampled_from(("#", " # ", "#\t"))))
    lines += draw(st.lists(line, max_size=8))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def outcome(reader, text):
    """What a reader makes of ``text``: its result or its error message."""
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc)


class TestNameMap:
    def test_identity(self):
        nm = NameMap.identity(3)
        assert nm.names == ("1", "2", "3")
        assert nm.id_of("2") == 2
        assert nm.name_of(3) == "3"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            NameMap(("a", "b")).id_of("c")

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            NameMap(("a",)).name_of(2)
        # equal to 1, but no argument identifier
        for i in (1.0, True):
            with pytest.raises(IndexError, match=rf"argument {i!r} outside 1\.\.3"):
                NameMap.identity(3).name_of(i)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            NameMap(("a", "a"))


class TestParseTgf:
    def test_cycle(self):
        f, nm = parse_tgf(TGF_CYCLE)
        assert f == CYCLE3
        assert nm.names == ("1", "2", "3")

    def test_single_argument(self):
        f, nm = parse_tgf("a\n#\n")
        assert f == Framework(1)
        assert nm.names == ("a",)

    def test_self_attack(self):
        f, _ = parse_tgf("a\n#\na a\n")
        assert f == Framework(1, {(1, 1)})

    def test_declaration_labels_ignored(self):
        f, nm = parse_tgf("a first argument\nb second\n#\na b\n")
        assert f == Framework(2, {(1, 2)})
        assert nm.names == ("a", "b")

    def test_attack_labels_ignored(self):
        f, _ = parse_tgf("a\nb\n#\na b strongly\n")
        assert f == Framework(2, {(1, 2)})

    def test_duplicate_attacks_collapse(self):
        f, _ = parse_tgf("a\nb\n#\na b\na b\n")
        assert f == Framework(2, {(1, 2)})

    def test_first_appearance_order(self):
        _, nm = parse_tgf("z\ny\nx\n#\n")
        assert nm.names == ("z", "y", "x")
        assert nm.id_of("z") == 1

    def test_blank_attack_lines_skipped(self):
        f, _ = parse_tgf("a\nb\n#\n\na b\n\n")
        assert f == Framework(2, {(1, 2)})

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="separator"):
            parse_tgf("a\nb\n")

    def test_undeclared_attack_endpoint(self):
        with pytest.raises(ParseError, match="line 3: attack references undeclared argument 'b'"):
            parse_tgf("a\n#\na b\n")
        # the source is named when both endpoints are undeclared
        with pytest.raises(ParseError, match="line 4: attack references undeclared argument 'x'"):
            parse_tgf("a\n#\na a\nx y\n")

    def test_empty_argument_name(self):
        with pytest.raises(ParseError, match="empty argument name"):
            parse_tgf("a\n\nb\n#\n")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_tgf("a\na\n#\n")

    def test_hash_declaration_rejected(self):
        # "# x" is not the separator; "#" as a name could not be written back
        with pytest.raises(ParseError, match="line 2: '#' cannot be an argument name"):
            parse_tgf("a\n# x\nb\n#\n")

    def test_one_token_attack_line(self):
        with pytest.raises(ParseError, match="source and a target"):
            parse_tgf("a\n#\na\n")

    def test_comma_in_name_rejected(self):
        # the answer [x,y,z] would read as three arguments x, y and z
        text = "x,y\nz\n#\n"
        with pytest.raises(ParseError, match="line 1: argument name 'x,y' contains ','"):
            parse_tgf(text)
        assert outcome(reference_parse_tgf, text) == outcome(parse_tgf, text)
        with pytest.raises(ValueError, match="cannot be written in TGF"):
            format_tgf(Framework(1), NameMap(("x,y",)))

    @given(tgf_texts())
    @example("a\n#\na a\nz a\na\n")  # the first of two bad lines is named
    @example("a\n#\na\nz a\n")
    @example("a\r\n#\r\n\x0c\u2028a a label\r\n \t\na y\n")
    def test_matches_the_line_by_line_reader(self, text):
        assert outcome(parse_tgf, text) == outcome(reference_parse_tgf, text)


class TestParseApx:
    def test_cycle(self):
        f, nm = parse_apx(APX_CYCLE)
        assert f == CYCLE3
        assert nm.names == ("1", "2", "3")

    def test_single_argument(self):
        f, nm = parse_apx("arg(x).")
        assert f == Framework(1)
        assert nm.names == ("x",)

    def test_undeclared_attack_endpoint(self):
        with pytest.raises(ParseError, match="attack references undeclared argument 'b'"):
            parse_apx("arg(a). att(a,b).")
        # the source is named when both endpoints are undeclared
        with pytest.raises(ParseError, match="attack references undeclared argument 'x'"):
            parse_apx("att(x,y).")

    def test_attack_before_declaration_is_fine(self):
        f, _ = parse_apx("att(a,b). arg(a). arg(b).")
        assert f == Framework(2, {(1, 2)})

    def test_whitespace_insensitive(self):
        f, _ = parse_apx("arg( a ).\n  att(\na , b\n)  . arg(b).")
        assert f == Framework(2, {(1, 2)})

    def test_comments(self):
        f, _ = parse_apx("% header\narg(a). % trailing\narg(b).\natt(a,b).\n")
        assert f == Framework(2, {(1, 2)})

    def test_duplicate_arg_facts_collapse(self):
        f, nm = parse_apx("arg(a). arg(a). arg(b).")
        assert f == Framework(2)
        assert nm.names == ("a", "b")

    @pytest.mark.parametrize("text", list(APX_MALFORMED))
    def test_malformed_facts(self, text):
        with pytest.raises(ParseError) as err:
            parse_apx(text)
        assert str(err.value) == APX_MALFORMED[text]


class TestWriters:
    def test_canonical_tgf(self):
        assert format_tgf(CYCLE3) == TGF_CYCLE

    def test_canonical_apx(self):
        assert format_apx(CYCLE3) == (
            "arg(1).\narg(2).\narg(3).\natt(1,2).\natt(2,3).\natt(3,1).\n"
        )

    def test_unwritable_names(self):
        nm = NameMap(("a b",))
        with pytest.raises(ValueError):
            format_tgf(Framework(1), nm)
        with pytest.raises(ValueError):
            format_apx(Framework(1), NameMap(("a(b",)))

    @given(named_frameworks())
    def test_tgf_round_trip(self, fn):
        f, nm = fn
        assert parse_tgf(format_tgf(f, nm)) == (f, nm)

    @given(named_frameworks())
    def test_apx_round_trip(self, fn):
        f, nm = fn
        assert parse_apx(format_apx(f, nm)) == (f, nm)

    @given(named_frameworks())
    def test_both_formats_carry_the_same_framework(self, fn):
        f, nm = fn
        assert parse_apx(format_apx(f, nm)) == parse_tgf(format_tgf(f, nm))


# Texts whose attack set is empty, holds self-attacks or repeats a pair,
# as TGF and APX, with the framework each carries.
EDGE_TEXTS = {
    "no_attacks": ("a\nb\n#\n", "arg(a). arg(b).", Framework(2)),
    "no_arguments": ("#\n", "", Framework(0)),
    "self_attacks": ("a\nb\n#\na a\na b\nb b\n", "arg(a). arg(b). att(a,a). att(a,b). att(b,b).",
                     Framework(2, {(1, 1), (1, 2), (2, 2)})),
    "duplicates": ("a\nb\n#\na b\nb a\na b x\n\na b\n", "arg(a). arg(b). att(a,b). att(b,a). att(a,b).",
                   Framework(2, {(1, 2), (2, 1)})),
}


class TestCheckedHandoff:
    """The readers hand Framework the attack set they built from their own
    name index; it is the framework the public constructor builds, and no
    pair is checked again."""

    @pytest.mark.parametrize("case", EDGE_TEXTS, ids=str)
    def test_edge_texts(self, case):
        tgf, apx, expected = EDGE_TEXTS[case]
        for f in (parse_tgf(tgf)[0], parse_apx(apx)[0]):
            assert f == expected
            assert_as_if_public(f)

    def test_corpus(self, small_corpus):
        for g in small_corpus:
            for f in (parse_tgf(format_tgf(g))[0], parse_apx(format_apx(g))[0]):
                assert f == g
                assert_as_if_public(f)

    @pytest.mark.parametrize("fmt", ["tgf", "apx"])
    def test_dense_framework(self, fmt):
        # the size of the slowest files-cli call: n=150, p=0.8
        g = generate(GeneratorConfig(n=150, p=0.8, seed=1))
        reader, writer = (parse_tgf, format_tgf) if fmt == "tgf" else (parse_apx, format_apx)
        f, _ = reader(writer(g))
        assert len(f.attacks) > 17_000
        assert f == g
        assert_as_if_public(f)

    def test_readers_check_no_pair(self, pair_checks):
        for text in [TGF_CYCLE, *(t for t, _, _ in EDGE_TEXTS.values())]:
            parse_tgf(text)
        for text in [APX_CYCLE, *(a for _, a, _ in EDGE_TEXTS.values())]:
            parse_apx(text)
        assert pair_checks == []
        # the spy sees the public constructor
        Framework(2, [(1, 2)])
        assert pair_checks == [2]


def test_render_argset():
    nm = NameMap(("a", "b", "c"))
    assert render_argset((1, 3), nm) == "[a,c]"
    assert render_argset((), nm) == "[]"


@pytest.mark.parametrize("members", [(0,), (4,), (1, 4), (-1, 2)])
def test_render_argset_rejects_members_outside_the_map(members):
    with pytest.raises(IndexError, match=r"outside 1\.\.3"):
        render_argset(members, NameMap(("a", "b", "c")))
