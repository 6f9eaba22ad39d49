"""Command line entry point for the verification suites."""

import argparse
import json
import sys

from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    GridError,
    UnsupportedParametersError,
)
from .suites import SUITES, SuiteConfig, run_suite

# (field, type, help) of each flag; a JSON config file may set the same
# fields, and flags override file values
_FIELDS = (
    ("alpha", float, "first weight exponent"),
    ("beta", float, "second weight exponent"),
    ("p", float, "primary integrability exponent"),
    ("q", float, "secondary integrability exponent"),
    ("s", float, "smoothness index"),
    ("gamma", float, "square function decay index"),
    ("k", int, "derivative order inside the flow"),
    ("m", int, "whole derivative order"),
    ("trunc", int, "coefficient truncation degree"),
    ("quad", int, "quadrature order"),
    ("ensemble", int, "random ensemble size"),
    ("seed", int, "ensemble seed"),
    ("out", str, "output directory for reports and plots"),
)

# the JSON values each field type takes; bool is an int to Python, not to JSON
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verif",
        description="Run numerical verification suites for symmetrized "
        "Jacobi expansions.",
    )
    parser.add_argument("suite", choices=sorted(SUITES) + ["all"])
    for name, kind, text in _FIELDS:
        parser.add_argument(f"--{name}", type=kind, help=text)
    parser.add_argument("--config", help="JSON file with the same fields as the flags")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - {name for name, _, _ in _FIELDS})
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    checked = {}
    for name, kind, _ in _FIELDS:
        if name in data:
            value = data[name]
            allowed, wanted = _JSON_KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"config field {name!r} must be {wanted}, got {value!r}")
            checked[name] = kind(value)
    return checked


def make_config(args: argparse.Namespace) -> SuiteConfig:
    merged = _load_config_file(args.config) if args.config else {}
    for name, _, _ in _FIELDS:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value

    alpha = merged.pop("alpha", None)
    beta = merged.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ConfigError("give both --alpha and --beta or neither")
    pairs = ((alpha, beta),) if alpha is not None else ()
    return SuiteConfig(suite=args.suite, pairs=pairs, **merged)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = make_config(args)
        reports = run_suite(config)
    except json.JSONDecodeError as exc:
        print(f"config error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, AdmissibilityError, GridError,
            UnsupportedParametersError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    failed = False
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"{report.suite}: {status} "
            f"({len(report.cases)} cases, {report.wall_clock_s:.2f}s)"
        )
        for case in report.failing_cases():
            failed = True
            tol = case.get("tolerance")
            bound = f" (tolerance {tol:g})" if tol is not None else ""
            print(f"  failing: {case['name']} value {case['value']:.6g}{bound}")
            if case.get("detail"):
                print(f"    {case['detail']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
