"""TGF / APX parsing, canonical writing and round-trips."""

from __future__ import annotations

import pytest
from helpers import CYCLE3
from hypothesis import given
from hypothesis import strategies as st

from afmat import (
    Framework,
    NameMap,
    ParseError,
    format_apx,
    format_tgf,
    parse_apx,
    parse_tgf,
)
from afmat.formats import detect_format, parse, render_argset

TGF_CYCLE = "1\n2\n3\n#\n1 2\n2 3\n3 1\n"
APX_CYCLE = "arg(1). arg(2). arg(3). att(1,2). att(2,3). att(3,1)."


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
        with pytest.raises(ParseError, match="undeclared"):
            parse_tgf("a\n#\na b\n")

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
        with pytest.raises(ParseError, match="undeclared"):
            parse_apx("att(a,b).")

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

    @pytest.mark.parametrize(
        "text",
        ["arg(a)", "arg().", "arg(a,b).", "att(a).", "att(a b).", "bogus(a).", "arg(a). x"],
    )
    def test_malformed_facts(self, text):
        with pytest.raises(ParseError):
            parse_apx(text)


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


def test_detect_format():
    assert detect_format("x/framework.tgf") == "tgf"
    assert detect_format("F.APX") == "apx"
    assert detect_format("notes.txt") is None


def test_parse_dispatch():
    assert parse(TGF_CYCLE, "tgf")[0] == CYCLE3
    assert parse(APX_CYCLE, "apx")[0] == CYCLE3
    with pytest.raises(ValueError):
        parse("", "json")


def test_render_argset():
    nm = NameMap(("a", "b", "c"))
    assert render_argset((1, 3), nm) == "[a,c]"
    assert render_argset((), nm) == "[]"
