"""Command-line behaviour: tasks, formats, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import AF5A, AF5D

from afmat import format_apx, format_tgf
from afmat.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, run_cli

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

    def test_oracle_bound_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "14")
        assert code == EXIT_USAGE
        assert "bound" in err


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

    def test_generated(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--p", "0.4", "--seed", "3")
        assert code == EXIT_OK
        assert "fixpoint OK" in out

    def test_default_sweep(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert "verification passed on 36 framework(s)" in out

    def test_mismatch_exits_internal(self, capsys, monkeypatch, tgf_a):
        import afmat.cli as cli
        from afmat import ExtensionFamily

        def skewed(f, tag, bound):
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
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "afmat.cli", "solve", str(path), "--semantics", "cf", "--task", "EE"],
        capture_output=True, env=env, check=False,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines() == [b"[]", "[café]".encode("utf-8")]
