"""Command-line entry point.

One subcommand per scenario; the scenario named on the command line must
match the one in the config file, so a stale shell history cannot silently
run the wrong experiment.  Exit codes: 0 success, 1 usage/config/runtime
error, 2 success but at least one bound-violation row was recorded.
"""

import argparse
import sys
from pathlib import Path

from .experiments import (SCENARIOS, ConfigError, count_violations, load_config,
                          write_plot_data, write_rows)

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bosonlab",
        description="deterministic experiments for mean-field limits of bosonic dynamics",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="scenario")
    for name, scenario in SCENARIOS.items():
        p = sub.add_parser(name, help=scenario.help, description=scenario.help)
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="override output_path")
        p.add_argument(
            "--plot-data",
            action="store_true",
            help="also emit two-column .dat files next to the CSV",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {} if args.out is None else {"output_path": str(args.out)}
    try:
        config = load_config(args.config.read_text(encoding="utf-8"), overrides=overrides)
        if config.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {config.scenario!r}, "
                f"but the {args.scenario!r} subcommand was invoked"
            )
        rows = SCENARIOS[config.scenario].run(config)
        write_rows(config.output_path, config, rows)
        extra = write_plot_data(config.output_path, config, rows) if args.plot_data else []
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(f"{config.scenario}: wrote {len(rows)} rows to {config.output_path}")
    print(f"config_hash={config.config_hash}")
    for path in extra:
        print(f"plot data: {path}")
    violations = count_violations(rows)
    if violations:
        print(f"BOUND VIOLATION in {violations} row(s); see the violation column", file=sys.stderr)
        return 2
    return 0


def cli():
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
