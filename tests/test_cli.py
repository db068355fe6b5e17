"""Command-line behaviour: tasks, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import AF5A, AF5D, CORPUS_COUNT, CORPUS_NS, CORPUS_PS, make_corpus

from afmat import (
    Framework,
    InternalInvariantError,
    Semantics,
    format_apx,
    format_tgf,
    parse_tgf,
    query,
)
from afmat.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, run_cli
from afmat.formats import render_argset

SRC = Path(__file__).resolve().parent.parent / "src"
TGF_A = format_tgf(AF5A)
TGF_D = format_tgf(AF5D)


@pytest.fixture
def tgf_a(tmp_path) -> str:
    path = tmp_path / "a.tgf"
    path.write_text(TGF_A, encoding="utf-8")
    return str(path)


@pytest.fixture
def tgf_d(tmp_path) -> str:
    path = tmp_path / "d.tgf"
    path.write_text(TGF_D, encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process_env() -> dict:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


class TestSolve:
    def test_enumerate_stable(self, capsys, tgf_a):
        code, out, _ = run(capsys, "solve", "--format", "tgf", "--semantics", "st",
                           "--task", "EE", tgf_a)
        assert code == EXIT_OK
        assert out == "[1,3,5]\n"

    def test_some_grounded_is_empty_set(self, capsys, tgf_d):
        code, out, _ = run(capsys, "solve", "--semantics", "gr", "--task", "SE", tgf_d)
        assert code == EXIT_OK
        assert out == "[]\n"

    def test_credulous_no(self, capsys, tgf_a):
        code, out, _ = run(capsys, "solve", "--semantics", "st", "--task", "DC",
                           "--arg", "2", tgf_a)
        assert code == EXIT_OK
        assert out == "NO\n"

    def test_credulous_yes(self, capsys, tgf_a):
        code, out, _ = run(capsys, "solve", "--semantics", "st", "--task", "DC",
                           "--arg", "1", tgf_a)
        assert (code, out) == (EXIT_OK, "YES\n")

    def test_skeptical_vacuous_yes_without_extensions(self, capsys, tmp_path):
        cycle = tmp_path / "c.tgf"
        cycle.write_text("1\n2\n3\n#\n1 2\n2 3\n3 1\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--semantics", "st", "--task", "DS",
                           "--arg", "1", str(cycle))
        assert (code, out) == (EXIT_OK, "YES\n")
        code, out, _ = run(capsys, "solve", "--semantics", "st", "--task", "SE", str(cycle))
        assert (code, out) == (EXIT_OK, "NO\n")
        code, out, _ = run(capsys, "solve", "--semantics", "st", "--task", "EE", str(cycle))
        assert (code, out) == (EXIT_OK, "")

    def test_enumeration_order(self, capsys, tgf_d):
        code, out, _ = run(capsys, "solve", "--semantics", "co", "--task", "EE", tgf_d)
        assert code == EXIT_OK
        assert out == "[]\n[4]\n[1,4]\n[2,3]\n[2,3,4]\n[2,3,5]\n"

    def test_attack_tasks(self, capsys, tgf_a):
        code, out, _ = run(capsys, "solve", "--semantics", "ad", "--task", "AC",
                           "--arg", "2", tgf_a)
        assert (code, out) == (EXIT_OK, "YES\n")
        code, out, _ = run(capsys, "solve", "--semantics", "ad", "--task", "AS",
                           "--arg", "2", tgf_a)
        assert (code, out) == (EXIT_OK, "NO\n")

    def test_apx_and_tgf_agree(self, capsys, tmp_path):
        apx = tmp_path / "a.apx"
        apx.write_text(format_apx(AF5A), encoding="utf-8")
        tgf = tmp_path / "a.tgf"
        tgf.write_text(format_tgf(AF5A), encoding="utf-8")
        _, out_apx, _ = run(capsys, "solve", "--semantics", "co", "--task", "EE", str(apx))
        _, out_tgf, _ = run(capsys, "solve", "--semantics", "co", "--task", "EE", str(tgf))
        assert out_apx == out_tgf

    def test_format_override(self, capsys, tmp_path):
        odd = tmp_path / "framework.txt"
        odd.write_text(TGF_A, encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--format", "tgf", "--semantics", "st",
                           "--task", "EE", str(odd))
        assert (code, out) == (EXIT_OK, "[1,3,5]\n")

    def test_format_detection(self, capsys, tmp_path):
        # the extension picks the reader whatever its case; a path with no
        # known extension, or none at all, asks for --format
        upper = tmp_path / "F.APX"
        upper.write_text(format_apx(AF5A), encoding="utf-8")
        assert run(capsys, "solve", "--semantics", "st", "--task", "EE", str(upper)) == (
            EXIT_OK, "[1,3,5]\n", "")
        for name in ("notes.txt", "framework"):
            path = tmp_path / name
            path.write_text(TGF_A, encoding="utf-8")
            code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE", str(path))
            assert code == EXIT_USAGE
            assert "--format" in err

    def test_external_names(self, capsys, tmp_path):
        path = tmp_path / "n.tgf"
        path.write_text("sun\nrain\n#\nsun rain\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--semantics", "gr", "--task", "SE", str(path))
        assert (code, out) == (EXIT_OK, "[sun]\n")


class TestExitCodes:
    def test_missing_arg_flag(self, capsys, tgf_a):
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "DC", tgf_a)
        assert code == EXIT_USAGE
        assert "needs --arg" in err

    def test_unknown_semantics(self, capsys, tgf_a):
        code, _, _ = run(capsys, "solve", "--semantics", "nope", "--task", "EE", tgf_a)
        assert code == EXIT_USAGE

    def test_unknown_argument_name(self, capsys, tgf_a):
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "DC",
                           "--arg", "99", tgf_a)
        assert code == EXIT_USAGE
        assert "unknown argument name" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE",
                           str(tmp_path / "void.tgf"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_undetectable_format(self, capsys, tmp_path):
        path = tmp_path / "framework.txt"
        path.write_text(TGF_A, encoding="utf-8")
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE", str(path))
        assert code == EXIT_USAGE
        assert "--format" in err

    def test_unknown_format(self, capsys, tgf_a):
        for argv in (["solve", tgf_a, "--semantics", "st", "--task", "EE"],
                     ["gen", "--n", "2", "--p", "0"], ["verify", tgf_a]):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert (code, out) == (EXIT_USAGE, "")
            assert "invalid choice" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tgf"
        path.write_text("a\nb\n", encoding="utf-8")  # no separator
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin.tgf"
        path.write_bytes(b"a\xff\n#\n")
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err and str(path) in err

    @pytest.mark.parametrize("suffix, writer", [(".tgf", format_tgf), (".apx", format_apx)])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, suffix, writer):
        plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
        plain.write_text(writer(AF5A), encoding="utf-8")
        marked.write_text(writer(AF5A), encoding="utf-8-sig")
        _, expected, _ = run(capsys, "solve", "--semantics", "co", "--task", "EE", str(plain))
        code, out, _ = run(capsys, "solve", "--semantics", "co", "--task", "EE", str(marked))
        assert (code, out) == (EXIT_OK, expected)

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_no_command(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_oracle_bound_refusal(self, capsys, tmp_path):
        path = tmp_path / "n14.tgf"
        path.write_text(format_tgf(Framework(14)), encoding="utf-8")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "bound" in err

    @pytest.mark.parametrize("error, prefix", [
        (InternalInvariantError("x"), "internal invariant failure: x"),
        (RuntimeError("y"), "internal error: y"),
    ])
    def test_unexpected_failure_exits_internal(self, capsys, monkeypatch, tgf_a, error, prefix):
        import afmat.cli as cli

        def broken(*_):
            raise error

        monkeypatch.setattr(cli.semantics, "query", broken)
        code, _, err = run(capsys, "solve", "--semantics", "st", "--task", "EE", tgf_a)
        assert code == EXIT_INTERNAL
        assert err.startswith(prefix)

    @pytest.mark.parametrize("task", ["SE", "EE"])
    def test_unknown_argument_name_on_global_task(self, capsys, tgf_a, task):
        code, out, err = run(capsys, "solve", "--semantics", "st", "--task", task,
                             "--arg", "zzz", tgf_a)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unknown argument name" in err


class TestCachedParser:
    """The parser is built once, so each call must behave as if it ran alone."""

    SOLVE = ["solve", "{a}", "--semantics", "st", "--task", "EE"]

    # (first call, its exit code, second call): an option of the first
    # call that stayed behind would change what the second one does
    @pytest.mark.parametrize("first, first_code, second", [
        (["solve", "{a}", "--semantics", "st", "--task", "DC", "--arg", "zzz"], EXIT_USAGE, SOLVE),
        (["solve", "{a}", "--format", "apx", "--semantics", "st", "--task", "EE"], EXIT_PARSE, SOLVE),
        (["verify", "{a}"], EXIT_OK, ["verify"]),
        (["--help"], EXIT_OK, SOLVE),
    ], ids=["arg", "format", "verify-path", "help"])
    def test_second_call_behaves_as_if_alone(self, capsys, tgf_a, first, first_code, second):
        import afmat.cli as cli

        first = [a.format(a=tgf_a) for a in first]
        second = [a.format(a=tgf_a) for a in second]
        cli._build_parser.cache_clear()
        alone = run(capsys, *second)
        assert alone[0] == EXIT_OK
        assert run(capsys, *first)[0] == first_code
        assert run(capsys, *second) == alone


NON_ASCII_TGF = "café\nnaïve\nΩ\n日本\n#\ncafé naïve\nnaïve Ω\nΩ café\n日本 日本\n"


@pytest.fixture(scope="module")
def ee_inputs(tmp_path_factory) -> list:
    """The acceptance corpus and one framework with non-ASCII names, as TGF files."""
    root = tmp_path_factory.mktemp("ee")
    corpus = make_corpus(ns=CORPUS_NS, ps=CORPUS_PS, count=CORPUS_COUNT)
    inputs = []
    for i, text in enumerate([format_tgf(f) for f in corpus] + [NON_ASCII_TGF]):
        path = root / f"{i}.tgf"
        path.write_text(text, encoding="utf-8")
        inputs.append((str(path), *parse_tgf(text)))
    return inputs


@pytest.mark.parametrize("tag", [tag.value for tag in Semantics])
def test_ee_output_is_each_rendered_extension_on_its_own_line(capsys, ee_inputs, tag):
    for path, f, names in ee_inputs:
        expected = "".join(render_argset(e, names) + "\n" for e in query(f, "EE", tag))
        assert run(capsys, "solve", path, "--semantics", tag, "--task", "EE") == (
            EXIT_OK, expected, ""), path


class TestGen:
    def test_golden(self, capsys):
        golden = (Path(__file__).parent / "data" / "gen_n6_p03_seed42.tgf").read_text(
            encoding="utf-8"
        )
        code, out, _ = run(capsys, "gen", "--n", "6", "--p", "0.3", "--seed", "42")
        assert (code, out) == (EXIT_OK, golden)

    def test_apx_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--p", "0", "--format", "apx")
        assert (code, out) == (EXIT_OK, "arg(1).\narg(2).\n")

    def test_probability_validation(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--p", "2.0")
        assert code == EXIT_USAGE
        assert "probability" in err

    def test_gen_then_solve_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--n", "5", "--p", "0.2", "--seed", "11")
        assert code == EXIT_OK
        path = tmp_path / "g.tgf"
        path.write_text(out, encoding="utf-8")
        code, out1, _ = run(capsys, "solve", "--semantics", "pr", "--task", "EE", str(path))
        assert code == EXIT_OK
        code, out2, _ = run(capsys, "solve", "--semantics", "pr", "--task", "EE", str(path))
        assert out1 == out2


class TestVerify:
    def test_file(self, capsys, tgf_a):
        code, out, _ = run(capsys, "verify", tgf_a)
        assert code == EXIT_OK
        assert "verification passed" in out
        assert "MISMATCH" not in out

    def test_generated(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--n", "5", "--p", "0.4", "--seed", "3")
        assert code == EXIT_OK
        path = tmp_path / "g.tgf"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert "fixpoint OK" in out

    def test_default_sweep(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert "verification passed on 36 framework(s)" in out

    def test_oversized_framework_is_refused_before_solving(self, capsys, monkeypatch, tmp_path):
        import afmat.cli as cli

        path = tmp_path / "n13.tgf"
        path.write_text(format_tgf(Framework(13)), encoding="utf-8")

        def unreachable(f, tag):
            raise AssertionError("the matrix path ran before the oracle refused")

        monkeypatch.setattr(cli.semantics, "extensions", unreachable)
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "bound" in err

    def test_format_without_path_is_a_usage_error(self, capsys):
        # the seeded sweep reads no file, so the option would do nothing
        code, out, err = run(capsys, "verify", "--format", "apx")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--format" in err

    @pytest.mark.parametrize("option", [["--n", "5"], ["--p", "0.9"], ["--seed", "7"]])
    def test_generator_options_are_usage_errors(self, capsys, option):
        code, out, err = run(capsys, "verify", *option)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments" in err

    def test_mismatch_exits_internal(self, capsys, monkeypatch, tgf_a):
        import afmat.cli as cli
        from afmat import ExtensionFamily

        def skewed(f, tag):
            return ExtensionFamily(frozenset({(1,)}))

        monkeypatch.setattr(cli, "oracle_family", skewed)
        code, out, _ = run(capsys, "verify", tgf_a)
        assert code == EXIT_INTERNAL
        assert "MISMATCH" in out
        assert "verification FAILED" in out


def test_main_raises_system_exit(monkeypatch, capsys):
    import afmat.cli as cli

    monkeypatch.setattr("sys.argv", ["afmat", "gen", "--n", "1", "--p", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == EXIT_OK


def test_answers_are_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "u.tgf"
    path.write_text("café\n#\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "afmat.cli", "solve", str(path), "--semantics", "cf", "--task", "EE"],
        capture_output=True, env={**cli_process_env(), "PYTHONIOENCODING": "ascii"}, check=False,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines() == [b"[]", "[café]".encode("utf-8")]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, lines_read", [
    # 2**14 conflict-free sets, about 330 KB of EE output: far more than a
    # pipe holds, so the writer is still writing when the reader leaves
    (["solve", "{e14}", "--semantics", "cf", "--task", "EE"], 1),
    # a few bytes that a buffered stdout holds until the flush at exit
    (["gen", "--n", "2", "--p", "0"], 0),
], ids=["mid-answer", "final-flush"])
def test_closed_stdout_is_a_quiet_exit_zero(tmp_path, argv, lines_read, unbuffered):
    path = tmp_path / "e14.tgf"
    path.write_text(format_tgf(Framework(14)), encoding="utf-8")
    env = {**cli_process_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "afmat.cli", *(a.format(e14=path) for a in argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (EXIT_OK, b"")


def test_run_cli_stops_quietly_when_stdout_closes(capsys, tgf_a):
    class ClosedPipe(io.StringIO):
        writes = 0

        def write(self, _):
            self.writes += 1
            raise BrokenPipeError

        writelines = write

    closed = ClosedPipe()
    with contextlib.redirect_stdout(closed):
        code = run_cli(["solve", tgf_a, "--semantics", "co", "--task", "EE"])
    assert (code, closed.writes, capsys.readouterr().err) == (EXIT_OK, 1, "")
