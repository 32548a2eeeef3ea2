"""Scenario files: templating, validation, execution, and report rendering."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import weylkit
from weylkit import (
    Scenario,
    ScenarioError,
    eval_int_expr,
    load_scenario,
    render_json,
    render_markdown,
    run_scenario,
    strip_timing,
    substitute,
)
from weylkit.cli import main
from weylkit.lie import twisted_generators
from weylkit.report import check_lines
from weylkit.scenario import BUILTIN_SCENARIOS, CHECK_SCHEMAS, template_vars


# Integer templates are read by Python's parser held to a whitelist
# (weylkit.parser.read_arithmetic): (text, scope, value).
INTEGER_FORMS = [
    ("2*3 + 1", {}, 7),
    ("-(2 + 3)", {}, -5),
    ("1 - 2 - 3", {}, -4),
    ("l + 1", {"l": 2}, 3),
    ("max(l - 1, 0)", {"l": 0}, 0),
    ("max(l - 1, 0)", {"l": 3}, 2),
    ("max(max(l, c), -c)", {"l": 1, "c": -3}, 3),
    ("2*l - -1", {"l": 1}, 3),
    ("+l*-c", {"l": 2, "c": 3}, -6),
    (" l ", {"l": 4}, 4),
    ("l\n+\t1", {"l": 1}, 2),
    ("0", {}, 0),
    ("9" * 40, {}, int("9" * 40)),
]


@pytest.mark.parametrize("text, scope, value", INTEGER_FORMS)
def test_integer_reader_accepts(text, scope, value):
    assert eval_int_expr(text, scope) == value


INTEGER_REFUSED = [
    "0x10",
    "1_0",
    "007",
    "00",
    "True",
    "1.5",
    "2**3",
    "2/1",
    "2 ^ 3",
    "max(1)",
    "max(1, 2, 3)",
    "max(l, c=1)",
    "max(l, 1, key=abs)",
    "abs(l)",
    "l.real",
    "l if l else 0",
    "l + m",
    "2 +",
    "",
    "(" * 400 + "l" + ")" * 400,
]


@pytest.mark.parametrize("text", INTEGER_REFUSED)
def test_integer_reader_refuses_with_a_named_error(text):
    with pytest.raises(ScenarioError):
        eval_int_expr(text, {"l": 1})


def test_integer_reader_bounds_the_length_it_reads():
    # A sum at the length limit reads on every supported Python; a 5,000-term
    # sum is refused before Python's parser sees it.
    assert eval_int_expr("+".join(["1"] * 500)) == 500
    with pytest.raises(ScenarioError, match="cannot read 9999 characters"):
        eval_int_expr("+".join(["1"] * 5000))


def test_substitution_and_template_vars():
    assert template_vars("z1*d1 - {l} + {max(c - 1, 0)}") == {"l", "c"}
    assert substitute("z1*d1 - {l}", {"l": 2}) == "z1*d1 - 2"
    assert substitute("d2^{l + 1}", {"l": 1}) == "d2^2"
    assert substitute("no placeholders", {}) == "no placeholders"
    with pytest.raises(ScenarioError):
        substitute("z1 - {m}", {"l": 1})


def minimal_raw(**overrides):
    raw = {"name": "unit", "ambient": 2, "checks": []}
    raw.update(overrides)
    return raw


def test_minimal_scenario_runs_empty():
    report = run_scenario(Scenario(minimal_raw()))
    assert report["scenario"] == "unit"
    assert report["summary"] == {
        "total": 0,
        "pass": 0,
        "fail": 0,
        "inconclusive": 0,
        "error": 0,
        "all_pass": True,
    }
    assert report["checks"] == []


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_load_builds_only_what_is_read(monkeypatch, name):
    """Every object load caches is read, by a check of the run or by another
    cached entry: a conjugate subalgebra reads its base and its ``by``
    matrix, a character its subalgebra.  The run adds nothing to the cache."""
    scenario = load_scenario(name)
    built = set(scenario._cache)
    read = set()
    lookup = Scenario._lookup

    def recorded(self, kind, ref, scope):
        found = lookup(self, kind, ref, scope)
        read.add(found[0])
        return found

    monkeypatch.setattr(Scenario, "_lookup", recorded)
    run_scenario(scenario)
    assert set(scenario._cache) == built
    for kind, entry, _ in built:
        spec = scenario._entry(kind, entry)[0]
        if kind == "algebra" and "conjugate_of" in spec:
            read |= {("algebra", spec["conjugate_of"], ()), ("matrix", spec["by"], ())}
        elif kind == "character":
            read.add(("algebra", spec["algebra"], ()))
    assert built and sorted(built - read) == []


def test_builtin_scenarios_load(n2_scenario, n3_scenario):
    assert n2_scenario.ambient == 4
    assert n3_scenario.ambient == 6
    for scenario in (n2_scenario, n3_scenario):
        assert any("l" in c.foreach for c in scenario.checks)
    assert sorted(n2_scenario.raw["ideals"]) == [
        "I1l",
        "I3",
        "presentation",
        "rho-chi-h3",
        "twisted-chi",
        "twisted-chi-l",
    ]


def test_unknown_scenario_name():
    with pytest.raises(ScenarioError, match="neither a builtin"):
        load_scenario("no-such-scenario")


def test_scenario_from_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(minimal_raw(name="tiny")), encoding="utf-8")
    assert load_scenario(str(path)).name == "tiny"


def test_json_errors_carry_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",', encoding="utf-8")
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(str(path))


def check(check_id="c1", kind="membership", **fields):
    base = {
        "id": check_id,
        "kind": kind,
        "provenance": "TRIVIAL",
        "ideal": "J",
        "element": "z1",
    }
    base.update(fields)
    return base


def scenario_with_checks(*checks, **overrides):
    raw = minimal_raw(
        ideals={"J": {"generators": ["z1", "d2"]}},
        checks=list(checks),
        **overrides,
    )
    return Scenario(raw)


def test_duplicate_check_ids_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        scenario_with_checks(check(), check())


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioError, match="kind"):
        scenario_with_checks(check(kind="no_such_kind"))


def test_unknown_reference_rejected():
    with pytest.raises(ScenarioError, match="no ideal called"):
        scenario_with_checks(check(ideal="missing"))


def test_paper_provenance_requires_anchor():
    with pytest.raises(ScenarioError, match="anchor"):
        scenario_with_checks(check(provenance="PAPER"))
    scenario_with_checks(check(provenance="PAPER", anchor="Lemma 1"))


def test_invalid_provenance_rejected():
    with pytest.raises(ScenarioError, match="provenance"):
        scenario_with_checks(check(provenance="GUESS"))


MALFORMED = {
    "conjugate-cycle": (
        {
            "matrices": {"m": [[1, 0], [0, 1]]},
            "subalgebras": {"a": {"conjugate_of": "a", "by": "m"}},
        },
        "subalgebra 'a' has a conjugate_of cycle",
    ),
    "no-basis": ({"subalgebras": {"a": {}}}, "subalgebra 'a' needs a basis"),
    "conjugate-without-by": (
        {"subalgebras": {"b": {"basis": ["E11"]}, "a": {"conjugate_of": "b"}}},
        "subalgebra 'a' needs a 'by' matrix",
    ),
    "character-not-object": ({"characters": {"c": 3}}, "character 'c' must be an object"),
    "foreach-list": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(foreach=[1])]},
        "check 'c1' foreach must map",
    ),
    "sections-list": ({"sections": ["x"]}, "sections must be an object"),
    "chart-equations-string": (
        {"charts": {"c": {"equations": "z1"}}},
        "chart 'c' must be an object with equation lists",
    ),
    "short-point": ({"points": {"p": [1]}}, "point 'p' needs 2 coordinates"),
    "matrix-string": ({"matrices": {"m": "x"}}, "matrix 'm' must be a 2x2 list of integer rows"),
    "matrix-wrong-size": (
        {"matrices": {"n": [[1, 2, 3]]}},
        "matrix 'n' must be a 2x2 list of integer rows",
    ),
    "foreach-empty": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(element="z2", foreach={"l": []})],
        },
        "check 'c1' foreach 'l' must list at least one integer",
    ),
    # JSON true and false are not integers.
    "ambient-bool": ({"ambient": True}, "ambient must be a positive integer"),
    "delta-module-bool": ({"delta_module": [True]}, "delta_module must list indices in 1..2"),
    "foreach-bool": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(foreach={"l": [True]})]},
        "check 'c1' foreach 'l' must list at least one integer",
    ),
    "matrix-bool": (
        {"matrices": {"m": [[True, 0], [0, 1]]}},
        "matrix 'm' must be a 2x2 list of integer rows",
    ),
    "binding-bool": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(ideal={"name": "J", "l": True})],
        },
        "check 'c1', field 'ideal': binding 'l' must be an integer or an integer expression",
    ),
    # A rebinding's text is read at load; its variables are bound at run time.
    "binding-unreadable": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(ideal={"name": "J", "l": "l -"})],
        },
        "check 'c1', field 'ideal': binding 'l': cannot read 'l -': invalid syntax",
    ),
    "anchor-int": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(provenance="PAPER", anchor=5)]},
        "check 'c1' anchor must be a string",
    ),
    "anchor-object": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(anchor={"lemma": 1})]},
        "check 'c1' anchor must be a string",
    ),
    "note-list": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(note=["x"])]},
        "check 'c1' note must be a string",
    ),
    "reference-without-name": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(ideal={"l": 1})]},
        "check 'c1', field 'ideal': reference must be a name or an object with a name",
    ),
    "lmax-bool": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [
                check(kind="interpolation", targets=[{"level": 0, "element": "1"}], lmax=True)
            ],
        },
        "check 'c1', field 'lmax': must be an integer",
    ),
    "point-bool": ({"points": {"p": [True, 0]}}, "point 'p': cannot read 'True'"),
    # Nesting ends in a named error, not in Python's recursion limit.
    "template-nesting": (
        {"sections": {"T": "z1^{" + "(" * 400 + "1" + ")" * 400 + "}"}},
        "section 'T': cannot read",
    ),
    "operator-nesting": (
        {"sections": {"T": "(" * 400 + "z1" + ")" * 400}},
        "section 'T': parentheses nested deeper than 200",
    ),
    # An ambient is bounded before anything of its size is built.
    "ambient-huge": ({"ambient": 2**70}, "ambient must be a positive integer up to 1000"),
    "kind-list": ({"checks": [check(kind=[1])]}, "check 'c1' has unknown kind"),
    # ``expect`` is typed by kind: "false" is a string, not a JSON false.
    "expect-string-bool": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(expect="false")]},
        "check 'c1' expect must be a JSON boolean",
    ),
    "expect-int-bool": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(expect=0)]},
        "check 'c1' expect must be a JSON boolean",
    ),
    "expect-simplicity-string": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(kind="simplicity", expect="yes")],
        },
        "check 'c1' expect must be an object with some of dimension, multiplicity",
    ),
    "expect-simplicity-field": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(kind="simplicity", expect={"dimension": "2"})],
        },
        "check 'c1' expect must be an object with some of dimension, multiplicity",
    ),
    "expect-simplicity-key": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(kind="simplicity", expect={"holonomic": True})],
        },
        "check 'c1' expect must be an object with some of dimension, multiplicity",
    ),
    "expect-rank-string": (
        {
            "subalgebras": {"b": {"basis": ["E11"]}},
            "points": {"p": [1, 0]},
            "checks": [check(kind="tangent_rank", algebra="b", point="p", expect="x")],
        },
        "check 'c1' expect must be an integer",
    ),
    "expect-rank-bool": (
        {
            "subalgebras": {"b": {"basis": ["E11"]}},
            "points": {"p": [1, 0]},
            "checks": [check(kind="tangent_rank", algebra="b", point="p", expect=True)],
        },
        "check 'c1' expect must be an integer",
    ),
    "expect-rank-missing": (
        {
            "subalgebras": {"b": {"basis": ["E11"]}},
            "points": {"p": [1, 0]},
            "checks": [check(kind="tangent_rank", algebra="b", point="p")],
        },
        "check 'c1' expect is required for kind 'tangent_rank'",
    ),
    "expect-unread": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "sections": {"T": "1"},
            "checks": [check(kind="annihilates", section="T", expect=False)],
        },
        "check 'c1' expect: kind 'annihilates' reads no expect",
    ),
    "kernel-coeff-string": (
        {"checks": [check(kind="kernel_element", terms=[{"coeff": "x", "factors": ["E11"]}])]},
        "check 'c1', field 'terms': coeff must be an integer",
    ),
    "kernel-coeff-bool": (
        {"checks": [check(kind="kernel_element", terms=[{"coeff": True, "factors": ["E11"]}])]},
        "check 'c1', field 'terms': coeff must be an integer",
    ),
    "kernel-factors-int": (
        {"checks": [check(kind="kernel_element", terms=[{"factors": 3}])]},
        "check 'c1', field 'terms': factors must be a list of matrix expressions",
    ),
    "kernel-factor-int": (
        {"checks": [check(kind="kernel_element", terms=[{"factors": [3]}])]},
        "check 'c1', field 'terms': factors must be a list of matrix expressions",
    ),
    "target-level-string": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [
                check(kind="interpolation", targets=[{"level": "1", "element": "1"}], lmax=1)
            ],
        },
        "check 'c1', field 'targets': target level must be an integer",
    ),
    "target-element-int": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check(kind="interpolation", targets=[{"level": 0, "element": 1}], lmax=1)],
        },
        "check 'c1', field 'targets': target element must be an expression string",
    ),
    # The zero ideal is written "0"; an empty list is refused.
    "generators-empty": ({"ideals": {"J": {"generators": []}}}, "ideal 'J' needs a generator list"),
    # A twisted ideal names one character and nothing else.
    "twisted-unknown-character": (
        {"ideals": {"T": {"twisted": "chi"}}},
        "ideal 'T' is twisted by an unknown character 'chi'",
    ),
    "twisted-not-string": (
        {
            "subalgebras": {"b": {"basis": ["E11"]}},
            "characters": {"chi": {"algebra": "b", "values": ["1"]}},
            "ideals": {"T": {"twisted": ["chi"]}},
        },
        "ideal 'T': twisted must be a character name",
    ),
    "twisted-with-generators": (
        {
            "subalgebras": {"b": {"basis": ["E11"]}},
            "characters": {"chi": {"algebra": "b", "values": ["1"]}},
            "ideals": {"T": {"twisted": "chi", "generators": ["z1"]}},
        },
        "ideal 'T' takes generators or twisted, not both",
    ),
    # A check list of another JSON type is not iterated.
    "checks-int": ({"checks": 5}, "checks must be a list of check objects"),
    "checks-null": ({"checks": None}, "checks must be a list of check objects"),
    "checks-object": ({"checks": {"a": {}}}, "checks must be a list of check objects"),
    # One record per instance id.
    "foreach-repeat": (
        {"ideals": {"J": {"generators": ["z1"]}}, "checks": [check(foreach={"l": [0, 0]})]},
        "check 'c1' foreach 'l' repeats a value",
    ),
    "instance-id-collision": (
        {
            "ideals": {"J": {"generators": ["z1"]}},
            "checks": [check("c[l=1]"), check("c", foreach={"l": [1]})],
        },
        r"duplicate check instance ids \['c\[l=1\]'\]",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenarios_fail_at_load_time_with_a_named_error(tmp_path, capsys, case):
    overrides, message = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(minimal_raw(**overrides)), encoding="utf-8")
    with pytest.raises(ScenarioError, match=f"^unit: {message}"):
        load_scenario(str(path))
    # In process, a traceback would surface as an uncaught exception here.
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(f"error: unit: {message}", captured.err)


def test_a_malformed_scenario_exits_2_from_a_fresh_interpreter(tmp_path):
    overrides, message = MALFORMED["checks-int"]
    path = tmp_path / "checks-int.json"
    path.write_text(json.dumps(minimal_raw(**overrides)), encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "weylkit", "verify", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr == f"error: unit: {message}\n"
    assert "Traceback" not in done.stdout + done.stderr


# Scenario texts that json.loads itself refuses: (text, message after the path).
UNREADABLE_JSON = {
    "integer-too-long": (
        '{"name": "unit", "ambient": 2, "checks": [{"id": "c", "foreach": {"l": ['
        + "1" * 5000
        + "]}}]}",
        "a number has more digits than Python reads",
    ),
    "nesting-too-deep": ("[" * 100_000, "arrays or objects nested too deeply to read"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_unreadable_json_is_a_named_error(tmp_path, capsys, case):
    text, message = UNREADABLE_JSON[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")


def test_legacy_keys_are_ignored(tmp_path, n2_report):
    # Scenario files written before "sweep" and the chart fields no check read
    # were dropped still carry those keys.
    raw = json.loads(resources.files("weylkit").joinpath("data", "paper-n2.json").read_text())
    raw["sweep"] = {"l": [0, 1, 2, 3]}
    raw["charts"]["O12c"].update(inequations=["z3", "z4"], expected_dimension=2)
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    report = run_scenario(load_scenario(str(path)))
    verdicts = [(c["id"], c["verdict"]) for c in report["checks"]]
    assert verdicts == [(c["id"], c["verdict"]) for c in n2_report["checks"]]


@pytest.mark.parametrize("name, expressions", [("paper-n2", 8), ("paper-n3", 18)])
def test_a_run_parses_only_expression_fields(monkeypatch, name, expressions):
    # Load resolves every table entry; the checks read those results, so a
    # run parses nothing but its expression fields, once per field read.
    scenario = load_scenario(name)
    counts = Counter()

    def counting(key, function):
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return counted

    for module, attribute in (
        (weylkit.scenario, "parse_expression"),
        (weylkit.scenario, "parse_polynomial"),
        (Scenario, "expression"),
    ):
        monkeypatch.setattr(module, attribute, counting(attribute, getattr(module, attribute)))
    assert run_scenario(scenario)["summary"]["all_pass"]
    assert counts == {"expression": expressions, "parse_expression": expressions}


def test_bad_template_reported_at_load_time():
    with pytest.raises(ScenarioError):
        Scenario(
            minimal_raw(
                ideals={"J": {"generators": ["z1 +"]}},
                checks=[check()],
            )
        )


def test_foreach_expansion_and_record_ids():
    scenario = scenario_with_checks(
        check(check_id="m", foreach={"l": [0, 1], "c": [5]}),
    )
    report = run_scenario(scenario)
    assert [c["id"] for c in report["checks"]] == ["m[c=5,l=0]", "m[c=5,l=1]"]


def test_expect_false_memberships():
    scenario = scenario_with_checks(
        check(check_id="in"),
        check(check_id="out", element="z2", expect=False),
    )
    report = run_scenario(scenario)
    verdicts = {c["id"]: c["verdict"] for c in report["checks"]}
    assert verdicts == {"in": "pass", "out": "pass"}


def test_failing_membership_reports_normal_form():
    scenario = scenario_with_checks(
        check(check_id="bad", element="z2"),
    )
    report = run_scenario(scenario)
    (record,) = report["checks"]
    assert record["verdict"] == "fail"
    assert record["witness"]["normal_form"] == "z2"
    assert not report["summary"]["all_pass"]


def test_error_verdict_captures_exceptions(monkeypatch):
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "oops")
    report = run_scenario(scenario_with_checks(check()))
    (record,) = report["checks"]
    assert record["verdict"] == "error"
    assert "WEYLKIT_GB_MAX_PAIRS" in record["witness"]["message"]
    assert report["summary"]["error"] == 1
    assert not report["summary"]["all_pass"]


def test_ideal_reference_with_bindings():
    raw = minimal_raw(
        ideals={"J": {"generators": ["z1*d1 - {l}"]}},
        checks=[
            check(
                check_id="bound",
                ideal={"name": "J", "l": "l + 1"},
                element="z1*d1 - 3",
                foreach={"l": [2]},
            )
        ],
    )
    scenario = Scenario(raw)
    # Load applies the rebinding once, as the run does: J at l = 3 only.
    assert list(scenario._cache) == [("ideal", "J", (("l", 3),))]
    report = run_scenario(scenario)
    assert report["checks"][0]["verdict"] == "pass"
    assert scenario.ideal({"name": "J", "l": 2}) is scenario.ideal({"name": "J", "l": "2"})
    with pytest.raises(ScenarioError, match="unexpected 'True'"):
        scenario.ideal({"name": "J", "l": True})


def test_report_schema_and_ordering(n2_report):
    assert set(n2_report) == {
        "scenario",
        "ambient",
        "engine",
        "summary",
        "checks",
        "timing",
    }
    assert n2_report["engine"]["name"] == "weylkit"
    ids = [c["id"] for c in n2_report["checks"]]
    assert ids == sorted(ids)
    assert n2_report["summary"]["total"] == len(ids)
    assert set(n2_report["timing"]) == {"total_seconds", "per_check"}


def test_render_json_is_canonical(n2_report):
    text = render_json(n2_report)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == n2_report
    assert text == json.dumps(n2_report, indent=2, sort_keys=True) + "\n"


def test_strip_timing(n2_report):
    stripped = strip_timing(n2_report)
    assert "timing" not in stripped
    assert "timing" in n2_report
    assert stripped["checks"] == n2_report["checks"]
    assert render_json(n2_report, include_timing=False) == render_json(stripped)


def test_render_markdown(n2_report):
    text = render_markdown(n2_report)
    assert "| check |" in text
    assert "paper-n2" in text
    assert "**" in text


def test_check_lines(n2_report):
    lines = check_lines(n2_report)
    assert len(lines) == n2_report["summary"]["total"]
    assert all(line.startswith("[PASS]") for line in lines)


def test_every_paper_check_cites_an_anchor(n2_report, n3_report):
    for report in (n2_report, n3_report):
        for record in report["checks"]:
            if record["provenance"] == "PAPER":
                assert record.get("anchor"), record["id"]


def test_builtin_reports_are_fully_green(n2_report, n3_report):
    assert n2_report["summary"]["all_pass"]
    assert n3_report["summary"]["all_pass"]


def test_negative_foreach_l_rejected_at_load():
    with pytest.raises(ScenarioError, match=r"unit: check 'm' foreach \(l=-1\): parameter l must be nonnegative"):
        scenario_with_checks(check(check_id="m", foreach={"l": [0, -1]}))


def test_negative_c_stays_allowed():
    scenario = scenario_with_checks(check(check_id="m", foreach={"c": [-3]}))
    report = run_scenario(scenario)
    assert [(c["id"], c["verdict"]) for c in report["checks"]] == [("m[c=-3]", "pass")]


def test_negative_l_from_a_bound_reference_is_a_named_error():
    raw = minimal_raw(
        ideals={"J": {"generators": ["z1*d1 - {l}"]}},
        checks=[
            check(
                check_id="bound",
                ideal={"name": "J", "l": "l - 1"},
                element="z1*d1",
                foreach={"l": [0]},
            )
        ],
    )
    (record,) = run_scenario(Scenario(raw))["checks"]
    assert record["verdict"] == "error"
    assert record["witness"]["message"] == "unit: ideal 'J' (l=-1): parameter l must be nonnegative"


def test_negative_l_refused_by_every_resolver(n2_scenario):
    for resolve, name in (
        (n2_scenario.ideal, "I1l"),
        (n2_scenario.section, "Tl"),
        (n2_scenario.polynomial, "fourier-Tl"),
        (n2_scenario.character, "chi-l"),
        (n2_scenario.ideal, "twisted-chi-l"),
    ):
        with pytest.raises(ScenarioError, match=rf"paper-n2: \w+ '{name}' \(l=-1\): parameter l"):
            resolve(name, {"l": -1})
    with pytest.raises(ScenarioError, match=r"paper-n2: expression 'z1' \(l=-1\): parameter l"):
        n2_scenario.expression("z1", {"l": -1})


def test_a_twisted_entry_is_the_twisted_system_of_its_character(n2_scenario):
    character = n2_scenario.character("chi-l", {"l": 2})
    twisted = n2_scenario.ideal("twisted-chi-l", {"l": 2, "c": -3})
    # Built once per binding of the character's variables.
    assert twisted is n2_scenario.ideal({"name": "twisted-chi-l", "l": "1 + 1"})
    assert list(twisted.generators) == twisted_generators(character)
    assert str(twisted.generators[0]) == "-z1*d1 + 2"


def test_the_twisted_system_of_the_zero_subalgebra_is_the_zero_ideal():
    scenario = Scenario(
        minimal_raw(
            subalgebras={"z": {"basis": []}},
            characters={"c0": {"algebra": "z", "values": []}},
            ideals={"T0": {"twisted": "c0"}},
        )
    )
    element = scenario.expression("z1*d1")
    assert scenario.ideal("T0").reduce(element) == element


def test_algebra_reference_by_name_or_object_gives_the_same_record():
    records = []
    for ref in ("b", {"name": "b"}):
        raw = minimal_raw(
            subalgebras={"b": {"basis": ["E11", "E12"]}},
            checks=[witness_check("sub", "is_subalgebra", algebra=ref)],
        )
        (record,) = run_scenario(Scenario(raw))["checks"]
        # The record echoes the reference as written; the rest must agree.
        assert record.pop("inputs") == {"algebra": ref}
        records.append(record)
    assert records[0] == records[1]
    assert records[0]["verdict"] == "pass"


def witness_check(check_id, kind, **fields):
    return {"id": check_id, "kind": kind, "provenance": "TRIVIAL", **fields}


# One failing instance of every check kind, on the delta module supported on
# {z2 = 0}: delta is killed by d1 and z2, so "Ann" is its annihilator.
FAILING_RAW = minimal_raw(
    name="witnesses",
    delta_module=[2],
    ideals={
        "Ann": {"generators": ["d1", "z2"]},
        "Loose": {"generators": ["d1", "z1"]},
        "Doubled": {"generators": ["d1", "z2^2"]},
        "Shift": {"generators": ["z2 - {l}"]},
        "Wide": {"generators": ["z2"]},
        "Twisted": {"twisted": "one"},
    },
    sections={"delta": "1", "zero": "z2", "d2delta": "d2"},
    polynomials={"one": "1", "z1": "z1"},
    subalgebras={"open": {"basis": ["E12", "E21"]}, "borel": {"basis": ["E11", "E12"]}},
    characters={
        "bad": {"algebra": "borel", "values": ["0", "1"]},
        "one": {"algebra": "borel", "values": ["1", "0"]},
    },
    charts={"axis": {"equations": ["z1"]}},
    points={"p": [1, 0]},
    checks=[
        witness_check("annihilates", "annihilates", ideal="Loose", section="delta"),
        witness_check("sections-agree", "sections_agree", sections=["delta", "d2delta"]),
        witness_check("certify-zero-section", "certify_annihilator", ideal="Ann", section="zero"),
        witness_check("certify-generator", "certify_annihilator", ideal="Loose", section="delta"),
        witness_check("certify-simplicity", "certify_annihilator", ideal="Doubled", section="delta"),
        witness_check(
            "fourier-image", "fourier_transport", ideal="Ann", section="delta", polynomial="z1"
        ),
        witness_check(
            "fourier-residue", "fourier_transport", ideal="Loose", section="delta", polynomial="one"
        ),
        witness_check("membership", "membership", ideal="Ann", element="z1"),
        witness_check("ideal-contains", "ideal_contains", outer="Ann", inner="Loose"),
        witness_check("module-multiply", "module_multiply", ideal="Ann", factor="z1", inside="Ann"),
        witness_check("unit-ideal", "unit_ideal", ideal="Ann"),
        witness_check("simplicity", "simplicity", ideal="Wide"),
        witness_check(
            "interpolation",
            "interpolation",
            targets=[{"level": 0, "element": "z1"}, {"level": 1, "element": "1"}],
            lmax=1,
            ideal="Shift",
        ),
        witness_check("is-subalgebra", "is_subalgebra", algebra="open"),
        witness_check("character-valid", "character_valid", character="bad"),
        witness_check("twisted-in-ann", "ideal_contains", outer="Ann", inner="Twisted"),
        witness_check(
            "kernel-element",
            "kernel_element",
            terms=[{"coeff": 2, "factors": ["E12", "E21"]}, {"factors": ["E11"]}],
        ),
        witness_check("variety-stable", "variety_stable", algebra="open", chart="axis"),
        witness_check("tangent-rank", "tangent_rank", algebra="borel", point="p", expect=2),
        witness_check("unbound-l", "membership", ideal="Shift", element="z2"),
        witness_check(
            "negative-l",
            "membership",
            ideal={"name": "Shift", "l": "l - 1"},
            element="z2",
            foreach={"l": [0]},
        ),
    ],
)


def test_failure_witnesses_of_every_kind():
    # The frozen report pins every kind's failing witness, the three
    # certify_annihilator stages, both fourier_transport branches and two
    # resolution errors; the builtin goldens only record passes.
    report = run_scenario(Scenario(FAILING_RAW))
    assert {record["kind"] for record in report["checks"]} == set(CHECK_SCHEMAS)
    frozen = (Path(__file__).parent / "data" / "failure-witnesses.json").read_text(encoding="utf-8")
    assert render_json(report, include_timing=False) == frozen
