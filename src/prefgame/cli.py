"""Command-line entry point.

    prefgame run <config.json>
    prefgame presets <instance.json> [--samples N] [--seed S]
    prefgame gap <instance.json> <policy.json | uniform> [--tau T] [--n N]
    prefgame validate <instance.json>

Exit codes: 0 success, 2 config or usage problem, 3 missing file,
5 validation failure; 4 is retired.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .harness import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_INVALID,
    EXIT_MISSING_FILE,
    EXIT_OK,
    ValidationFailure,
    _COMMON,
    _SCHEMAS,
    _load_checked_instance,
    compare_presets,
    gap_report,
    run_experiment,
)


def _cmd_run(args) -> int:
    summary = run_experiment(args.config)
    for key in sorted(summary):
        if key == "outputs":
            continue
        print(f"{key}: {summary[key]}")
    for path in summary["outputs"]:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    instance = _load_checked_instance(args.instance)
    table = compare_presets(instance, args.samples, args.seed)
    width = max(len(name) for name in table)
    for name, dev in table.items():
        print(f"{name:<{width}}  {dev:.3e}")
    return EXIT_OK


def _cmd_gap(args) -> int:
    instance = _load_checked_instance(args.instance)
    doc = gap_report(instance, args.policy, args.tau, args.n)
    for key in sorted(doc):
        print(f"{key}: {doc[key]}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        _load_checked_instance(args.instance)
    except ValidationFailure as err:
        for p in err.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _flag(parse, entry):
    """argparse type and default: parse the text, check it as the run schema does."""
    check, default = entry

    def read(text):
        try:
            return check(parse(text))
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return {"type": read, "default": default}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefgame",
        description="Exact preference-game experiments on tabular instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets, gap = _SCHEMAS["presets"], _SCHEMAS["gap"]

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_pre = sub.add_parser(
        "presets", help="check every named loss preset against its direct formula"
    )
    p_pre.add_argument("instance", help="path to an instance file")
    p_pre.add_argument("--samples", **_flag(int, presets["samples"]))
    p_pre.add_argument("--seed", **_flag(int, _COMMON["seed"]))
    p_pre.set_defaults(func=_cmd_presets)

    p_gap = sub.add_parser(
        "gap", help="exploitability of a policy on an instance"
    )
    p_gap.add_argument("instance", help="path to an instance file")
    p_gap.add_argument("policy", help="path to a policy file, or 'uniform'")
    p_gap.add_argument("--tau", **_flag(float, gap["tau"]))
    p_gap.add_argument("--n", **_flag(int, gap["n_players"]), help="number of players")
    p_gap.set_defaults(func=_cmd_gap)

    p_val = sub.add_parser("validate", help="check an instance file")
    p_val.add_argument("instance", help="path to an instance file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on the first call in a process.

    parse_args leaves a parser unchanged, so in-process callers share one.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(err.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValidationFailure as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
