"""Command-line experiment runner: ``dtnsat <mode> [options]``, one mode per run."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .experiments import MODES, ConfigError, ScenarioConfig, _csv_lines, emit_csv, \
    parse_config, run_scenario
from .simulate import CONTACT_MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnsat",
        description="Solve, learn and simulate reward-based content delivery "
                    "in delay tolerant networks.")
    parser.add_argument("mode", choices=MODES, help="the scenario mode to run")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", help="override the config seed")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--trials", help="override the trial count")
    parser.add_argument("--contact-mode", metavar="|".join(CONTACT_MODES),
                        help="override the episode contact mode")
    return parser


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    flags = {"seed": args.seed, "trials": args.trials,
             "contact_mode": args.contact_mode}
    config = parse_config(text, {k: v for k, v in flags.items() if v is not None})
    return replace(config, mode=args.mode)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        table = run_scenario(load_config(args))
        if args.out is not None:
            emit_csv(table, args.out)
        else:
            sys.stdout.writelines(_csv_lines(table))
    except (OSError, ValueError) as exc:
        print(f"dtnsat {args.mode}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
