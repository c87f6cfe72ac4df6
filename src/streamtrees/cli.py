"""Command line runner for experiment grids.

Exit codes: 0 success, 2 invalid configuration (message names the field or
stream row), 3 stream names a recognized but unsupported generator. The
options that override config-file keys are built from
``experiments.SETTINGS`` and share their names with those keys.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    PRESET_NAMES,
    SETTINGS,
    ConfigError,
    parse_config_file,
    preset,
    run_experiment,
)
from .specparse import OutOfScopeError, ParseError


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamtrees",
        description="Run a learner x stream x seed experiment grid and write "
                    "results.csv, comparison tables, and error-series files.",
    )
    parser.add_argument("--config", metavar="PATH", help="key=value experiment config file")
    parser.add_argument("--preset", metavar="NAME", help=f"one of: {', '.join(PRESET_NAMES)}")
    for key, (_, kind, metavar, text) in SETTINGS.items():
        parser.add_argument(f"--{key}", type=kind, metavar=metavar, help=text)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.config and args.preset:
            raise ConfigError("config/preset: give either --config or --preset, not both")
        if args.config:
            config = parse_config_file(args.config)
        elif args.preset:
            config = preset(args.preset)
        else:
            raise ConfigError("config: one of --config or --preset is required")
        for key, (field, *_) in SETTINGS.items():
            value = getattr(args, key.replace("-", "_"))
            if value is not None:
                setattr(config, field, value)
        run_experiment(config)
    except (OutOfScopeError, ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OutOfScopeError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
