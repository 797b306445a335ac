"""Command line interface: synth | train | evaluate | compare.

Exit codes: 0 success, 1 config or usage error, 2 data error, 3 numerical
failure; every failure prints one line to stderr. All settings come from
one JSON config file; --seed overrides the file's seed.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .errors import ConfigError, DataError, NumericalError


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised as ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(f"{message} (see rss-atlas --help)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rss-atlas",
        description="Signal strength map compression and grid localization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_synth = sub.add_parser("synth", help="synthesize a survey dataset CSV")
    add_common(p_synth)
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_train = sub.add_parser("train", help="fit compressors and GP maps")
    add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="score saved pipelines on the test split")
    add_common(p_eval)

    p_cmp = sub.add_parser("compare", help="train and evaluate the standard five pipelines")
    add_common(p_cmp)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = experiment.load_config(args.config, seed_override=args.seed)
        if args.command == "synth":
            experiment.run_synth(cfg, args.out)
        elif args.command == "train":
            experiment.run_train(cfg)
        elif args.command == "evaluate":
            results = experiment.run_evaluate(cfg)
            for r in results:
                print(f"{r.label}: mean KL {r.mean_kl:.4f}, mean argmax error {r.mean_argmax_error_m:.2f} m")
        elif args.command == "compare":
            for rank, r in enumerate(experiment.run_compare(cfg), 1):
                print(f"{rank}. {r.label}: mean KL {r.mean_kl:.4f}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # Every array the program allocates is sized by the config.
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
