"""Command-line interface: verbs, exit codes, and output shapes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, err = run(capsys, "normalize", "d1*z1")
    assert code == 0
    assert out.strip() == "z1*d1 + 1"
    assert err == ""


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "d1", "z1^2")
    assert code == 0
    assert out.strip() == "z1^2*d1 + 2*z1"


def test_gb_of_scenario_ideal(capsys):
    code, out, _ = run(capsys, "gb", "paper-n2", "I1l", "--l", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "z4" in lines
    assert "d3" in lines
    assert any("z1*d1" in line for line in lines)


def test_gb_of_inline_generators(capsys):
    code, out, _ = run(capsys, "gb", "paper-n2", "z1*d1;d1*z1")
    assert code == 0
    assert out.strip() == "1"


def test_reduce_modulo_scenario_ideal(capsys):
    code, out, _ = run(
        capsys, "reduce", "z1*d1 + z2*d2", "--mod", "I3", "--scenario", "paper-n2"
    )
    assert code == 0
    assert out.strip() == "-1"


def test_member_exit_codes(capsys):
    code, out, _ = run(
        capsys, "member", "z4*d1", "--in", "I3", "--scenario", "paper-n2"
    )
    assert code == 0
    assert out.strip() == "member"

    code, out, _ = run(capsys, "member", "1", "--in", "I3", "--scenario", "paper-n2")
    assert code == 1
    assert "not a member" in out
    assert "normal form: 1" in out


def test_member_inline_ideal(capsys):
    # d1*z1^2 = z1^2*d1 + 2*z1 is a left multiple of z1^2.
    code, out, _ = run(capsys, "member", "d1*z1^2", "--in", "z1^2")
    assert code == 0
    code, out, _ = run(capsys, "member", "z1", "--in", "z1*d2;z1^2", "--ambient", "2")
    assert code == 1
    # Without --ambient the two inline expressions infer different sizes.
    code, _, err = run(capsys, "member", "z1", "--in", "z1*d2;z1^2")
    assert code == 2
    assert "ambient mismatch" in err


def test_reduce_modulo_the_zero_ideal_checks_the_ambient(capsys):
    code, out, _ = run(capsys, "reduce", "z3", "--mod", "0", "--ambient", "3")
    assert (code, out.strip()) == (0, "z3")
    for ideal in ("0", "z1"):
        code, out, err = run(capsys, "reduce", "z3", "--mod", ideal)
        assert code == 2
        assert out == ""
        assert "ambient mismatch" in err


@pytest.mark.parametrize("support", ["x", "2,", "2,,4"])
def test_certify_refuses_a_malformed_support(capsys, support):
    code, out, err = run(
        capsys, "certify", "d1", "--section", "1", "--support", support, "--ambient", "4"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --support expects comma-separated variable indices, got {support!r}\n"


def test_charvar_fixture(capsys):
    code, out, _ = run(capsys, "charvar", "I3", "--scenario", "paper-n2")
    assert code == 0
    assert "dimension: 5" in out
    assert "multiplicity: 2" in out
    assert "verdict: non-holonomic" in out
    assert "graded ideal generators:" in out


def test_certify_with_scenario_section(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        "I1l",
        "--section",
        "Tl",
        "--scenario",
        "paper-n2",
        "--l",
        "2",
    )
    assert code == 0
    assert "certified: ideal is the full annihilator" in out


def test_certify_with_explicit_support(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        "z1*d1;d2;d3;z4 - 1",
        "--section",
        "1",
        "--support",
        "1",
        "--ambient",
        "4",
    )
    # z1 d1, d2, d3, z4-1 is the annihilator of delta(z1) in A_4? No:
    # z4 - 1 does not kill it, so certification must fail with exit 1.
    assert code == 1


def test_verify_builtin_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "paper-n2", "--quiet")
    assert code == 0
    assert "checks passed" in out


def test_verify_lists_checks(capsys):
    code, out, _ = run(capsys, "verify", "paper-n2")
    assert code == 0
    assert out.count("[PASS]") == 56


def test_verify_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "paper-n2", "--quiet", "--report", str(target))
    assert code == 0
    stored = json.loads(target.read_text())
    assert stored["summary"]["all_pass"] is True


def test_report_json_and_strip_timing(capsys):
    code, out, _ = run(capsys, "report", "paper-n2", "--strip-timing")
    assert code == 0
    parsed = json.loads(out)
    assert "timing" not in parsed
    assert parsed["scenario"] == "paper-n2"


def test_report_markdown(capsys):
    code, out, _ = run(capsys, "report", "paper-n2", "--format", "markdown")
    assert code == 0
    assert "| check |" in out


def test_report_out_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = run(
        capsys, "report", "paper-n2", "--format", "markdown", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "| check |" in target.read_text()


def test_errors_exit_two(capsys):
    code, _, err = run(capsys, "normalize", "z1 +")
    assert code == 2
    assert err.startswith("error:")

    code, _, err = run(capsys, "verify", "no-such-scenario")
    assert code == 2
    assert "neither a builtin" in err


def test_unknown_ideal_name_errors(capsys):
    code, _, err = run(capsys, "gb", "paper-n2", "NoSuchIdeal")
    assert code == 2
    assert "error:" in err


def test_exhausted_pair_budget_exits_two(capsys, monkeypatch):
    # The budget counts reduced S-pairs: I1l reduces two, while I3's
    # generators commute pairwise, so all its pairs are skipped.
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "1")
    code, _, err = run(capsys, "gb", "paper-n2", "I1l", "--l", "1")
    assert code == 2
    assert err.startswith("error:")
    assert "WEYLKIT_GB_MAX_PAIRS" in err


def test_template_error_names_scenario_object_and_binding(capsys, tmp_path):
    # c stays signed, so a negative c reaches the template parser.
    path = tmp_path / "signed.json"
    raw = {"name": "signed", "ambient": 2, "sections": {"T": "(z1*d2)^{c}"}, "checks": []}
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(
        capsys, "certify", "z1", "--section", "T", "--scenario", str(path), "--c", "-1"
    )
    assert code == 2
    assert err.startswith("error: signed: section 'T' (c=-1): expected 'num'")


@pytest.mark.parametrize(
    "argv, where",
    [
        (("gb", "paper-n2", "I1l", "--l", "-1"), "paper-n2: ideal 'I1l' (l=-1)"),
        (("gb", "paper-n2", "I3", "--l", "-2"), "paper-n2: ideal 'I3' (l=-2)"),
        (
            ("certify", "I1l", "--section", "Tl", "--scenario", "paper-n2", "--l", "-1"),
            "paper-n2: ideal 'I1l' (l=-1)",
        ),
        (
            ("reduce", "z1", "--mod", "I1l", "--scenario", "paper-n3", "--l", "-1"),
            "paper-n3: ideal 'I1l' (l=-1)",
        ),
    ],
)
def test_negative_l_is_refused(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {where}: parameter l must be nonnegative\n"


def test_huge_coefficient_is_a_named_error(capsys):
    code, out, err = run(capsys, "normalize", "d1^2000*z1^2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "digits" in err
    assert "set_int_max_str_digits" not in err


def run_module(*argv):
    """``python -m weylkit`` in a fresh interpreter, so a traceback would show."""
    env = dict(os.environ)
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weylkit", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_deep_parentheses_are_a_named_error():
    done = run_module("normalize", "(" * 400 + "z1" + ")" * 400)
    assert done.returncode == 2
    assert done.stderr.startswith("error: parentheses nested deeper than 200")
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("normalize", "z1^²"), "unexpected character '²' (position 3)"),
        (("normalize", "z1", "--ambient", str(10**20)), f"ambient {10**20} outside 0..1000"),
        # The inferred ambient comes from the parser's own tokens.
        (("normalize", "zeta2"), "zeta is only valid in symbol polynomials (position 0)"),
        (("normalize", "z" + "1" * 5000), "a number of 5000 digits is too long (position 1)"),
    ],
)
def test_non_ascii_digits_and_huge_ambients_are_named_errors(argv, message):
    done = run_module(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {message}\n"


def test_python_dash_m_runs_the_cli():
    done = run_module("normalize", "d1*z1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "z1*d1 + 1"
