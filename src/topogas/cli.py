"""Command-line entry point."""

import argparse
import sys

from .errors import ConfigError
from .harness import parse_config, parse_methods, parse_seeds, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="topogas",
        description="Run class-incremental learning experiments on synthetic "
                    "streams and emit CSV metrics.")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seeds", help="comma list of seeds (overrides config)")
    parser.add_argument("--methods", help="comma list of methods (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    try:
        config = parse_config(text)
        if args.out is not None:
            config.out_dir = args.out
        if args.seeds is not None:
            config.seeds = parse_seeds(args.seeds)
        if args.methods is not None:
            config.methods = parse_methods(args.methods)
        config.validate()
        return run_experiment(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
