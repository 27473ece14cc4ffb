"""Command-line front end: verify a scenario file, run the catalog, print bounds."""

from __future__ import annotations

import argparse
import sys

from .scenarios import catalog, emit_report, load_scenario, run_scenario, writable_bound

EXIT_USAGE = 2


def _cmd_verify(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except (OSError, ValueError) as err:
        print(f"error: cannot load scenario: {err}", file=sys.stderr)
        return EXIT_USAGE
    report = run_scenario(config)
    print(emit_report(report, args.format), end="")
    return report.exit_code


def _cmd_catalog(args) -> int:
    entries = catalog()
    if not args.run:
        for cfg in entries:
            print(f"{cfg.name:<28} g={cfg.g} type={list(cfg.type)} n={cfg.n} seed={cfg.seed}")
        return 0
    worst = 0
    for cfg in entries:
        report = run_scenario(cfg)
        print(f"# --- {cfg.name} ---")
        print(emit_report(report, args.format), end="")
        worst = max(worst, report.exit_code)
    return worst


def _cmd_bound(args) -> int:
    try:
        bound = writable_bound(args.g, args.n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(f"bound = {bound.value} = {float(bound.value):.17g}")
    print(f"least sufficient integer h0 = {bound.least_sufficient}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetamu",
        description="Numerical surjectivity and Torelli verdicts on polarized abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one scenario file")
    verify.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    verify.add_argument("--format", choices=("json", "table"), default="json")
    verify.set_defaults(func=_cmd_verify)

    cat = sub.add_parser("catalog", help="list or run the built-in scenarios")
    cat.add_argument("--run", action="store_true", help="run every catalog scenario")
    cat.add_argument("--format", choices=("json", "table"), default="table")
    cat.set_defaults(func=_cmd_catalog)

    bound = sub.add_parser("bound", help="print the surjectivity threshold ((n+1)/n)^g g!")
    bound.add_argument("--g", type=int, required=True)
    bound.add_argument("--n", type=int, required=True)
    bound.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
