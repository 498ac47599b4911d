import io
import json
import pathlib
import subprocess
import sys

import pytest

from hyclif.cli import EXIT_EVAL, EXIT_OK, EXIT_SUITE, EXIT_USAGE, main, repl
from hyclif.multivector import AlgebraContext
from hyclif.suites import SUITE_NAMES
from hyclif.tables import FORMATS, PRODUCTS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_canonical(capsys):
    code, out, _ = run_main(capsys, "--dim", "2", "eval", "sigma*sigma")
    assert code == EXIT_OK and out == "1\n"


def test_eval_json(capsys):
    code, out, _ = run_main(capsys, "--dim", "2", "eval", "3/2 e1^t2", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "dim": 2,
        "terms": [{"blade": ["e1", "t2"], "coeff": {"rat": "3/2", "rat_r2": "0"}}],
    }


def test_eval_parse_error(capsys):
    code, _, err = run_main(capsys, "--dim", "2", "eval", "e9")
    assert code == EXIT_EVAL
    assert "out of range" in err


def test_eval_non_ascii_is_a_parse_error(capsys):
    code, out, err = run_main(capsys, "--dim", "2", "eval", "é1")
    assert (code, out, err) == (EXIT_EVAL, "", "error: line 1, col 1: unexpected character 'é'\n")


def test_eval_unbalanced(capsys):
    code, _, err = run_main(capsys, "--dim", "2", "eval", "(e1")
    assert code == EXIT_EVAL and "parenthesis" in err


def test_check_passes(capsys):
    code, out, _ = run_main(capsys, "--dim", "1", "check", "--suite", "hodge", "--trials", "2", "--seed", "5")
    assert code == EXIT_OK
    assert "all identities hold" in out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_report_matches_golden(capsys, n):
    code, out, _ = run_main(capsys, "--dim", str(n), "check", "--suite", "all", "--trials", "3", "--seed", "42")
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"check_all_n{n}.txt").read_bytes()


def test_check_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dim", "1", "check", "--suite", "bogus"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown suite 'bogus'" in err
    for name in SUITE_NAMES + ("all",):
        assert repr(name) in err


@pytest.mark.parametrize("option, valid", [("--product", PRODUCTS), ("--format", FORMATS)])
def test_table_unknown_name(capsys, option, valid):
    argv = ["--dim", "1", "table", "--product", "wedge", option, "bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"unknown {option[2:]} 'bogus'" in err
    for name in valid:
        assert repr(name) in err


def test_check_dim_too_large(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dim", "7", "check", "--suite", "products"])
    assert exc.value.code == EXIT_USAGE


def test_check_failure_exit_code(capsys, monkeypatch):
    import hyclif.suites as suites

    broken = suites.Identity(suite="witt", name="forced", fn=lambda ctx, rng: "boom")
    monkeypatch.setattr(suites, "IDENTITIES", suites.IDENTITIES + [broken])
    code, out, _ = run_main(capsys, "--dim", "1", "check", "--suite", "witt")
    assert code == EXIT_SUITE
    assert "FAIL witt: forced: boom" in out


def test_check_raising_identity_fails_and_the_run_goes_on(capsys, monkeypatch):
    import hyclif.suites as suites

    def boom(ctx, rng):
        raise ValueError("element is not in the theta* ideal")

    broken = suites.Identity(suite="witt", name="raises", fn=boom)
    witt = [ident for ident in suites.IDENTITIES if ident.suite == "witt"]
    monkeypatch.setattr(suites, "IDENTITIES", [broken] + suites.IDENTITIES)
    code, out, err = run_main(capsys, "--dim", "1", "check", "--suite", "witt", "--trials", "2")
    assert (code, err) == (EXIT_SUITE, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == ["FAIL witt: raises: raised ValueError: element is not in the theta* ideal"]
    assert out.count("PASS witt: ") + out.count("SKIP witt: ") == len(witt)
    assert out.endswith("1 identity(ies) FAILED\n")


def test_table_output(capsys):
    code, out, _ = run_main(capsys, "--dim", "1", "table", "--product", "wedge")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("^")


def test_table_too_large(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dim", "4", "table", "--product", "geometric"])
    assert exc.value.code == EXIT_USAGE


def test_dim_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dim", "0", "eval", "1"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["--dim", "2"])  # missing subcommand
    assert exc.value.code == EXIT_USAGE


def test_repl_session():
    stdin = io.StringIO(
        ":dim\n"
        ":let a = e1 + t1\n"
        "a*a\n"
        "ip(a, a)\n"
        ":let sigma = e1\n"
        ":let b =\n"
        "unknownatom\n"
        ":bogus\n"
        "\n"
        ":quit\n"
    )
    stdout = io.StringIO()
    code = repl(AlgebraContext(2), stdin, stdout)
    lines = stdout.getvalue().splitlines()
    assert code == EXIT_OK
    assert lines[0] == "2"
    assert lines[1] == "2"
    assert lines[2] == "2"
    assert lines[3] == "error: 'sigma' is reserved"
    assert lines[4] == "error: usage :let name = expr"
    assert lines[5].startswith("error: line 1, col 1: unknown atom")
    assert lines[6].startswith("error: unknown command")


def test_repl_reserves_generator_names_at_every_index():
    # e<k>, t<k> and s<k> are reserved in :let whether or not k is in range
    names = ("e9", "t4", "s7", "ip", "r2")
    stdin = io.StringIO("".join(f":let {name} = 1\n" for name in names))
    stdout = io.StringIO()
    assert repl(AlgebraContext(3), stdin, stdout) == EXIT_OK
    assert stdout.getvalue().splitlines() == [f"error: {name!r} is reserved" for name in names]


def test_repl_long_flat_line_keeps_session():
    stdin = io.StringIO(" + ".join(["e1"] * 3000) + "\ne2\n")
    stdout = io.StringIO()
    assert repl(AlgebraContext(2), stdin, stdout) == EXIT_OK
    assert stdout.getvalue().splitlines() == ["3000e1", "e2"]


def test_repl_non_ascii_line_keeps_session():
    stdout = io.StringIO()
    code = repl(AlgebraContext(2), io.StringIO("é1\ne1 + ²\n٣ e1\n2e1\n"), stdout)
    assert code == EXIT_OK
    assert stdout.getvalue().splitlines() == [
        "error: line 1, col 1: unexpected character 'é'",
        "error: line 1, col 6: unexpected character '²'",
        "error: line 1, col 1: unexpected character '٣'",
        "2e1",
    ]


def test_repl_eof_exits():
    assert repl(AlgebraContext(1), io.StringIO(""), io.StringIO()) == EXIT_OK


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyclif", "--dim", "1", "eval", "t1*e1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 - e1^t1\n"
