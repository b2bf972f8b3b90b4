"""Command-line entry point."""

import argparse
import sys

from .errors import ConfigError
from .harness import parse_config, run_experiment, set_key


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
        for key, value in (("out_dir", args.out), ("seeds", args.seeds),
                           ("methods", args.methods)):
            if value is not None:
                set_key(config, key, value)
        return run_experiment(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
