"""Command-line experiment runner: one subcommand per scenario mode."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .experiments import MODES, ConfigError, ScenarioConfig, emit_csv, \
    format_csv, parse_config, run_scenario
from .simulate import MODEL, PHYSICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnsat",
        description="Solve, learn and simulate reward-based content delivery "
                    "in delay tolerant networks.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        mp = sub.add_parser(mode, help=f"run the {mode} scenario")
        mp.add_argument("--config", help="path to a key = value config file")
        mp.add_argument("--seed", type=int, help="override the config seed")
        mp.add_argument("--out", help="CSV output path (default: stdout)")
        mp.add_argument("--trials", type=int, help="override the trial count")
        mp.add_argument("--contact-mode", choices=[MODEL, PHYSICAL],
                        help="override the episode contact mode")
    return parser


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    else:
        config = parse_config("")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {args.trials}")
        overrides["trials"] = args.trials
    if args.contact_mode is not None:
        overrides["contact_mode"] = args.contact_mode
    if args.out is not None:
        overrides["out"] = args.out
    return replace(config, mode=args.mode, **overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        table = run_scenario(config)
        if config.out is not None:
            emit_csv(table, config.out)
        else:
            sys.stdout.write(format_csv(table))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"dtnsat {args.mode}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
