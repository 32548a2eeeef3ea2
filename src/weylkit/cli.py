"""Command-line interface.

Verbs mirror the engine operations: ``normalize`` and ``mul`` for arithmetic,
``gb``/``reduce``/``member`` for left-ideal work, ``charvar`` and ``certify``
for characteristic-variety certificates, and ``verify``/``report`` to run a
scenario's check list.  Ideals are either names from a scenario file or
inline semicolon-separated generator lists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .charvar import graded_ideal, simplicity_certificate
from .deltamod import DeltaModule, certify_annihilator, section_from_operator
from .groebner import LeftIdeal, PairLimitExceeded
from .parser import _largest_index, parse_expression
from .report import check_lines, render_json, render_markdown
from .runner import run_scenario
from .scenario import Scenario, ScenarioError, load_scenario
from .weyl import WeylElement


def _inferred_ambient(texts: list[str], explicit: int | None) -> int:
    """``--ambient`` when given, else the largest variable index the texts
    name, and at least 1."""
    return explicit if explicit is not None else max(_largest_index(texts), 1)


def _cli_scope(args: argparse.Namespace) -> dict[str, int]:
    scope = {}
    if getattr(args, "l", None) is not None:
        scope["l"] = args.l
    if getattr(args, "c", None) is not None:
        scope["c"] = args.c
    return scope


def _load(args: argparse.Namespace) -> Scenario | None:
    ref = getattr(args, "scenario", None)
    return load_scenario(ref) if ref else None


def _resolve_ideal(ref: str, scenario: Scenario | None, args: argparse.Namespace) -> LeftIdeal:
    if scenario is not None and ref in scenario.raw.get("ideals", {}):
        return scenario.ideal(ref, _cli_scope(args))
    texts = [part.strip() for part in ref.split(";") if part.strip()]
    if not texts:
        raise ScenarioError(f"empty generator list {ref!r}")
    ambient = (
        scenario.ambient
        if scenario is not None
        else _inferred_ambient(texts, getattr(args, "ambient", None))
    )
    return LeftIdeal([parse_expression(text, ambient) for text in texts])


def _cmd_normalize(args: argparse.Namespace) -> int:
    ambient = _inferred_ambient([args.expr], args.ambient)
    print(parse_expression(args.expr, ambient))
    return 0


def _cmd_mul(args: argparse.Namespace) -> int:
    ambient = _inferred_ambient([args.left, args.right], args.ambient)
    left = parse_expression(args.left, ambient)
    right = parse_expression(args.right, ambient)
    print(left * right)
    return 0


def _cmd_gb(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    ideal = _resolve_ideal(args.ideal, scenario, args)
    basis = ideal.groebner_basis()
    for element in basis.elements:
        print(element)
    return 0


def _ideal_and_element(args: argparse.Namespace) -> tuple[LeftIdeal, WeylElement]:
    """The ``--mod``/``--in`` ideal and the expression, in one ambient."""
    scenario = _load(args)
    ideal = _resolve_ideal(args.ideal_ref, scenario, args)
    ambient = scenario.ambient if scenario else _inferred_ambient([args.expr], args.ambient)
    return ideal, parse_expression(args.expr, ambient)


def _cmd_reduce(args: argparse.Namespace) -> int:
    ideal, element = _ideal_and_element(args)
    print(ideal.reduce(element))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    ideal, element = _ideal_and_element(args)
    remainder = ideal.reduce(element)
    if remainder.is_zero():
        print("member")
        return 0
    print(f"not a member; normal form: {remainder}")
    return 1


def _cmd_charvar(args: argparse.Namespace) -> int:
    scenario = _load(args)
    ideal = _resolve_ideal(args.ideal, scenario, args)
    graded = graded_ideal(ideal)
    print("graded ideal generators:")
    for element in graded.generators:
        print(f"  {element}")
    cert = simplicity_certificate(ideal)
    print(f"dimension: {cert.dimension}")
    print(f"multiplicity: {cert.multiplicity}")
    print(f"verdict: {cert.verdict}")
    print(f"simple: {cert.simple}")
    if cert.vanishing is not None:
        print("variety: " + " = ".join(cert.vanishing) + " = 0")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    scenario = _load(args)
    ideal = _resolve_ideal(args.ideal, scenario, args)
    scope = _cli_scope(args)
    if scenario is not None and args.section in scenario.raw.get("sections", {}):
        section = scenario.section(args.section, scope)
    else:
        if scenario is not None:
            module = scenario.delta_module
        else:
            if not args.support:
                raise ScenarioError("certify needs --scenario or --support to fix the delta module")
            try:
                support = frozenset(int(part) for part in args.support.split(","))
            except ValueError:
                raise ScenarioError(
                    f"--support expects comma-separated variable indices, got {args.support!r}"
                ) from None
            module = DeltaModule(ideal.ambient, support)
        section = section_from_operator(module, parse_expression(args.section, module.ambient))
    cert = certify_annihilator(ideal, section)
    if cert.verified:
        print("certified: ideal is the full annihilator")
        print(f"simplicity: {cert.simplicity.describe()}")
        return 0
    print(f"not certified: failed at stage {cert.failing}")
    if cert.witness is not None:
        print(f"failing generator #{cert.witness}: {ideal.generators[cert.witness - 1]}")
    if cert.simplicity is not None:
        print(f"simplicity: {cert.simplicity.describe()}")
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    if not args.quiet:
        for line in check_lines(report):
            print(line)
    summary = report["summary"]
    print(
        f"{summary['pass']}/{summary['total']} checks passed"
        f" ({summary['fail']} failed, {summary['inconclusive']} inconclusive,"
        f" {summary['error']} errored)"
    )
    if args.report:
        Path(args.report).write_text(render_json(report), encoding="utf-8")
    return 0 if summary["all_pass"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    if args.format == "json":
        rendered = render_json(report, include_timing=not args.strip_timing)
    else:
        rendered = render_markdown(report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0 if report["summary"]["all_pass"] else 1


def _add_scope_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l", type=int, default=None, help="bind the template parameter l")
    parser.add_argument("--c", type=int, default=None, help="bind the template parameter c")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Exact Weyl-algebra computations and D-module verification scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normally order an operator expression")
    p.add_argument("expr")
    p.add_argument("--ambient", type=int, default=None)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="multiply two operator expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ambient", type=int, default=None)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("gb", help="print the reduced left Groebner basis of a scenario ideal")
    p.add_argument("scenario")
    p.add_argument("ideal", help="ideal name in the scenario, or ';'-separated generators")
    _add_scope_options(p)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("reduce", help="left normal form of an expression modulo an ideal")
    p.add_argument("expr")
    p.add_argument("--mod", dest="ideal_ref", required=True)
    p.add_argument("--scenario", default=None)
    p.add_argument("--ambient", type=int, default=None)
    _add_scope_options(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("member", help="test left-ideal membership (exit 0 iff member)")
    p.add_argument("expr")
    p.add_argument("--in", dest="ideal_ref", required=True)
    p.add_argument("--scenario", default=None)
    p.add_argument("--ambient", type=int, default=None)
    _add_scope_options(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("charvar", help="characteristic variety data of a left ideal")
    p.add_argument("ideal")
    p.add_argument("--scenario", default=None)
    p.add_argument("--ambient", type=int, default=None)
    _add_scope_options(p)
    p.set_defaults(func=_cmd_charvar)

    p = sub.add_parser("certify", help="certify an ideal as the exact annihilator of a section")
    p.add_argument("ideal")
    p.add_argument("--section", required=True, help="section name or operator applied to delta")
    p.add_argument("--scenario", default=None)
    p.add_argument("--support", default=None, help="delta support indices, e.g. 2,4")
    p.add_argument("--ambient", type=int, default=None)
    _add_scope_options(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="run a scenario's checks (exit 0 iff all pass)")
    p.add_argument("scenario", help="builtin name (paper-n2, paper-n3) or JSON path")
    p.add_argument("--report", default=None, help="also write the JSON report to this path")
    p.add_argument("--quiet", action="store_true", help="print only the summary line")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="run a scenario and render its report")
    p.add_argument("scenario")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--strip-timing", action="store_true", help="omit the timing block (json only)")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PairLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
