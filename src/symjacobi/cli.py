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

# fields a JSON config file may set; flags override file values
_CONFIG_FIELDS = (
    "alpha",
    "beta",
    "p",
    "q",
    "s",
    "gamma",
    "k",
    "m",
    "trunc",
    "quad",
    "ensemble",
    "seed",
    "out",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verif",
        description="Run numerical verification suites for symmetrized "
        "Jacobi expansions.",
    )
    parser.add_argument("suite", choices=sorted(SUITES) + ["all"])
    parser.add_argument("--alpha", type=float, help="first weight exponent")
    parser.add_argument("--beta", type=float, help="second weight exponent")
    parser.add_argument("--p", type=float, help="primary integrability exponent")
    parser.add_argument("--q", type=float, help="secondary integrability exponent")
    parser.add_argument("--s", type=float, help="smoothness index")
    parser.add_argument("--gamma", type=float, help="square function decay index")
    parser.add_argument("--k", type=int, help="derivative order inside the flow")
    parser.add_argument("--m", type=int, help="whole derivative order")
    parser.add_argument("--trunc", type=int, help="coefficient truncation degree")
    parser.add_argument("--quad", type=int, help="quadrature order")
    parser.add_argument("--ensemble", type=int, help="random ensemble size")
    parser.add_argument("--seed", type=int, help="ensemble seed")
    parser.add_argument("--out", help="output directory for reports and plots")
    parser.add_argument("--config", help="JSON file with the same fields as the flags")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    return data


def make_config(args: argparse.Namespace) -> SuiteConfig:
    merged = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for field in _CONFIG_FIELDS:
        value = getattr(args, field)
        if value is not None:
            merged[field] = value

    alpha = merged.pop("alpha", None)
    beta = merged.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ConfigError("give both --alpha and --beta or neither")
    pairs = ((alpha, beta),) if alpha is not None else ()

    kwargs = {}
    for field in ("p", "q", "s", "gamma", "trunc", "quad", "ensemble", "seed", "out"):
        if field in merged:
            kwargs[field] = merged[field]
    for field in ("k", "m"):
        if field in merged:
            kwargs[field] = int(merged[field])
    return SuiteConfig(suite=args.suite, pairs=pairs, **kwargs)


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
