"""Command-line front end with deterministic text and JSON reports.

Every subcommand assembles a ReportDocument and renders it either as
indented key/value text or as JSON with a fixed field order.  Identical
invocations (including --seed) produce byte-identical output.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 invalid
parameters.

Each handler imports only the layers it calls, so `--help` and the cheap
subcommands do not load the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import ParameterError
from .names import ALGEBRA_NAMES, COCYCLE_NAMES, MODULE_KINDS, ONLY_GROUPS
from .poly import canonical_string
from .rationals import format_rational, parse_rational

HALF = Fraction(1, 2)

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "command": {"type": "string"},
        "params": {"type": "object"},
        "passed": {"type": "boolean"},
        "details": {"type": "object"},
    },
    "required": ["version", "command", "params", "passed", "details"],
    "additionalProperties": False,
}

_MODULE_PARAM_FLAGS = ("a", "b", "bp", "c", "c1", "c2", "rho")


@dataclass(frozen=True)
class ReportDocument:
    version: str
    command: str
    params: dict
    passed: bool
    details: dict

    def as_mapping(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "params": _jsonable(self.params),
            "passed": self.passed,
            "details": _jsonable(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_mapping(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"version: {self.version}", f"command: {self.command}"]
        for key, value in self.params.items():
            _render_value(key, value, 0, lines)
        for key, value in self.details.items():
            _render_value(key, value, 0, lines)
        lines.append(f"passed: {_scalar_text(self.passed)}")
        return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return str(value)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _render_value(key, value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_value(k, v, indent + 1, lines)
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{pad}{key}: (none)")
            return
        lines.append(f"{pad}{key}:")
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{pad}  -")
                for k, v in item.items():
                    _render_value(k, v, indent + 2, lines)
            elif isinstance(item, (list, tuple)):
                lines.append(f"{pad}  - " + ", ".join(_scalar_text(x) for x in item))
            else:
                lines.append(f"{pad}  - {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{key}: {_scalar_text(value)}")


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virkit",
        description=(
            "Exact window checks for graded Lie algebras and weight modules, "
            "plus the determinant certification and parameter scan."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")

    p = sub.add_parser("jacobi", help="antisymmetry and Jacobi identity on a window")
    p.add_argument("--algebra", required=True, choices=ALGEBRA_NAMES)
    p.add_argument("--rho", help="rational parameter, as num or num/den")
    p.add_argument("--s", default="0", help="degree shift of the Y family: 0 or 1/2")
    p.add_argument("--window", type=int, default=6)
    common(p)

    p = sub.add_parser("cocycle", help="2-cocycle identity on a window")
    p.add_argument("--name", required=True, choices=COCYCLE_NAMES)
    p.add_argument("--rho", required=True, help="base algebra is W(rho)[0]")
    p.add_argument("--window", type=int, default=8)
    common(p)

    p = sub.add_parser("delta", help="determinant of the compatibility system")
    p.add_argument("--print", dest="show", action="store_true",
                   help="print the canonical polynomial string")
    p.add_argument("--check-paper", dest="check_reference", action="store_true",
                   help="compare against the embedded reference table")
    p.add_argument("--specialize-s0", dest="specialize", action="store_true",
                   help="work with the bp = b specialisation")
    common(p)

    p = sub.add_parser("classify", help="scan the rational parameter grid")
    p.add_argument("--s", required=True, help="0 or 1/2")
    p.add_argument("--max-num", type=int, default=4)
    p.add_argument("--max-den", type=int, default=4)
    p.add_argument("--expect-paper", dest="expect_reference", action="store_true",
                   help="compare against the embedded expected case list")
    common(p)

    def module(name: str, summary: str, window: int) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--kind", required=True, choices=MODULE_KINDS)
        for flag in _MODULE_PARAM_FLAGS:
            p.add_argument(f"--{flag}", help="rational parameter")
        p.add_argument("--window", type=int, default=window)
        return p

    p = module("module-check", "module axiom (and optional cyclicity)", 4)
    p.add_argument("--cyclicity", action="store_true",
                   help="also run the window-cyclicity check")
    common(p)

    common(module("cyclicity", "window-cyclicity of every generator", 6))

    p = sub.add_parser("reproduce", help="run the acceptance criteria in order")
    p.add_argument("--only", action="append",
                   choices=tuple(ONLY_GROUPS) + tuple(str(n) for n in range(1, 11)),
                   help="restrict to a criterion group or number (repeatable)")
    common(p)

    return parser


# -- subcommand handlers ----------------------------------------------------------------


def _cmd_jacobi(args) -> ReportDocument:
    from .algebras import check_antisymmetry, check_jacobi, make_algebra

    rho = parse_rational(args.rho) if args.rho is not None else None
    s = parse_rational(args.s)
    alg = make_algebra(args.algebra, rho=rho, s=s)
    anti = check_antisymmetry(alg, args.window)
    jac = check_jacobi(alg, args.window)
    params = {"algebra": args.algebra}
    if rho is not None:
        params["rho"] = rho
    params.update({"s": s, "window": args.window, "seed": args.seed})
    return ReportDocument(
        version=__version__,
        command="jacobi",
        params=params,
        passed=anti.passed and jac.passed,
        details={
            "label": alg.label(),
            "antisymmetry": anti.describe(),
            "jacobi": jac.describe(),
        },
    )


def _cmd_cocycle(args) -> ReportDocument:
    from .algebras import check_cocycle, make_algebra

    rho = parse_rational(args.rho)
    alg = make_algebra("W", rho=rho, s=0)
    report = check_cocycle(args.name, alg, args.window)
    return ReportDocument(
        version=__version__,
        command="cocycle",
        params={"name": args.name, "rho": rho, "window": args.window, "seed": args.seed},
        passed=report.passed,
        details={"label": alg.label(), "identity": report.describe()},
    )


def _cmd_delta(args) -> ReportDocument:
    from .classify import certify_factorization, compute_delta, specialize_s0

    show = args.show or not args.check_reference
    params = {
        "print": args.show,
        "check": args.check_reference,
        "specialize_s0": args.specialize,
        "seed": args.seed,
    }
    details: dict = {}
    passed = True
    if args.specialize:
        cert = specialize_s0()
        if show:
            details["s0_specialization"] = canonical_string(cert.computed)
        if args.check_reference:
            matches = cert.matches_reference()
            details["matches_reference"] = matches
            if not matches:
                details["difference"] = canonical_string(cert.difference)
            passed = matches
    else:
        if show:
            details["delta"] = canonical_string(compute_delta())
        if args.check_reference:
            cert = certify_factorization()
            details["divisible"] = cert.divisible
            details["shape_ok"] = cert.shape_ok
            for i, diff in enumerate(cert.differences, start=1):
                matches = diff.is_zero()
                details[f"delta{i}_match"] = matches
                if not matches:
                    details[f"delta{i}_difference"] = canonical_string(diff)
            passed = cert.divisible and cert.shape_ok and cert.matches_reference()
    return ReportDocument(
        version=__version__, command="delta", params=params, passed=passed, details=details
    )


def _describe_case(case, s: Fraction) -> dict:
    if s == HALF:
        points = [[format_rational(b), format_rational(bp)] for (b, bp) in case.points]
    else:
        points = [format_rational(b) for b in case.points]
    return {
        "rho": format_rational(case.rho),
        "relation": case.relation,
        "points": points,
    }


def _cmd_classify(args) -> ReportDocument:
    from .classify import compare_with_expected, enumerate_cases

    s = parse_rational(args.s)
    result = enumerate_cases(s, args.max_num, args.max_den)
    details: dict = {
        "cases": [_describe_case(case, s) for case in result.cases],
        "hit_count": len(result.hits),
    }
    passed = True
    if args.expect_reference:
        comparison = compare_with_expected(result)
        details["comparison"] = {k: list(v) for k, v in comparison.items()}
        passed = not comparison["missing"] and not comparison["extra"]
    return ReportDocument(
        version=__version__,
        command="classify",
        params={
            "s": s,
            "max_num": args.max_num,
            "max_den": args.max_den,
            "expect": args.expect_reference,
            "seed": args.seed,
        },
        passed=passed,
        details=details,
    )


def _module_from_args(args):
    """The module the flags describe, and the report's params in flag order."""
    from .modules import make_module

    values = {}
    for flag in _MODULE_PARAM_FLAGS:
        raw = getattr(args, flag)
        if raw is not None:
            values[flag] = parse_rational(raw)
    params = {"kind": args.kind, **values, "window": args.window, "seed": args.seed}
    return make_module(args.kind, **values), params


def _cmd_module_check(args) -> ReportDocument:
    from .modules import check_module_axiom, check_window_cyclic, simplicity_criterion

    mod, params = _module_from_args(args)
    axiom = check_module_axiom(mod, args.window)
    details: dict = {"label": mod.label(), "axiom": axiom.describe()}
    passed = axiom.passed
    try:
        details["simple"] = simplicity_criterion(mod)
    except ParameterError:
        pass
    if args.cyclicity:
        cyc = check_window_cyclic(mod, args.window)
        details["cyclicity"] = cyc.describe()
        passed = passed and cyc.passed
    return ReportDocument(
        version=__version__,
        command="module-check",
        params=params,
        passed=passed,
        details=details,
    )


def _cmd_cyclicity(args) -> ReportDocument:
    from .modules import check_window_cyclic

    mod, params = _module_from_args(args)
    report = check_window_cyclic(mod, args.window)
    return ReportDocument(
        version=__version__,
        command="cyclicity",
        params=params,
        passed=report.passed,
        details={"label": mod.label(), "cyclicity": report.describe()},
    )


def _cmd_reproduce(args) -> ReportDocument:
    from . import suite

    only = tuple(args.only) if args.only else None
    results = suite.run_criteria(only=only, seed=args.seed)
    return ReportDocument(
        version=__version__,
        command="reproduce",
        params={
            "only": sorted(set(only)) if only else "all",
            "seed": args.seed,
        },
        passed=all(r.passed for r in results),
        details={"criteria": [r.describe() for r in results]},
    )


_HANDLERS = {
    "jacobi": _cmd_jacobi,
    "cocycle": _cmd_cocycle,
    "delta": _cmd_delta,
    "classify": _cmd_classify,
    "module-check": _cmd_module_check,
    "cyclicity": _cmd_cyclicity,
    "reproduce": _cmd_reproduce,
}


def run_capture(argv: list[str]) -> tuple[int, str]:
    """Parse and execute, returning (exit_code, rendered_output)."""
    args = build_parser().parse_args(argv)
    try:
        doc = _HANDLERS[args.command](args)
    except ParameterError as exc:
        return 2, f"error: {exc}\n"
    text = doc.to_json() if args.output == "json" else doc.to_text()
    return (0 if doc.passed else 1), text


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, text = run_capture(argv)
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


def entry() -> int:
    return main()
