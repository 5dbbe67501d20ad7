"""Command-line entry point for the Monte Carlo simulator."""

from __future__ import annotations

import argparse
import os
import sys

from .config import SystemConfig, load_config
from .experiments import (METHODS, ExperimentSpec, check_grid, emit_results,
                          run_experiment)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo energy-efficiency experiments for the "
                    "reflecting-surface NOMA beamforming downlink.",
    )
    parser.add_argument("--config", help="flat key-value scenario file")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--n-grid", type=_int_list, default=[16, 32, 48, 64],
                        help="comma list of reflecting-element counts")
    parser.add_argument("--m-grid", type=_int_list, default=[8],
                        help="comma list of BS antenna counts")
    parser.add_argument("--methods", default="proposed,conventional",
                        help=f"comma list from {','.join(METHODS)}")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--conventional-mode", default="time-share",
                        choices=["time-share", "single-user"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SystemConfig()
        spec = ExperimentSpec(
            n_grid=args.n_grid, m_grid=args.m_grid, num_trials=args.trials,
            methods=[tok.strip() for tok in args.methods.split(",") if tok.strip()],
            out_dir=args.out, seed=args.seed, workers=args.workers,
            conventional_mode=args.conventional_mode,
        )
        check_grid(config, spec)
        os.makedirs(spec.out_dir, exist_ok=True)
    except ValueError as exc:
        parser.error(str(exc))     # exits 2 with the usage line
    except OSError as exc:         # unreadable --config, or --out not a directory
        parser.error(f"{exc.strerror}: {exc.filename}")
    records = run_experiment(config, spec)
    paths = emit_results(records, spec, config)
    feasible = sum(1 for r in records if r.feasible[0])
    print(f"{len(records)} trials ({feasible} feasible) -> {paths['summary.csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
