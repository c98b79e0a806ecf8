"""Command-line scenario runner.

Exit codes: 0 success, 2 configuration error (at load, or a value the run
cannot use), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from .config import BUDGET_KEYS, SCENARIOS, ConfigError, ExperimentConfig
from .scenarios import emit_report, run
from .tomography import NonConvergenceError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqlink",
        description="Simulate the trapped-ion / solid-state-memory link: "
                    "tomography, CHSH, rate budgets and memory design sweeps.")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="experiment to run (overrides the config file)")
    parser.add_argument("--config", help="JSON config file; defaults cover all "
                                         "published parameters")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--shots", type=int,
                        help="override shots/heralds/trials of the chosen scenario")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv also writes the summary as CSV (the JSON summary, "
                             "matrix and tables are always written)")
    return parser


# Built once: parse_args leaves the parser as it was.
_PARSER = build_parser()


def load_config(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out:
        overrides["output_dir"] = args.out
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        if args.scenario:
            overrides["scenario"] = args.scenario
        if overrides:
            cfg = cfg.with_overrides(**overrides)
    else:  # one build: the flags go straight into the defaults
        cfg = ExperimentConfig.defaults(args.scenario or "ti_qm", **overrides)
    if args.shots is not None:
        scen = cfg.scenario
        if scen not in BUDGET_KEYS:
            raise ConfigError([f"--shots: {scen} has no shot budget; the flag applies "
                               f"to {', '.join(BUDGET_KEYS)}"])
        cfg = cfg.with_overrides(scenarios={scen: {BUDGET_KEYS[scen]: args.shots}})
    return cfg


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # StateError, LinAlgError: a value the run cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        files = emit_report(report, cfg.output_dir, args.format)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"scenario {report.scenario} (seed {report.seed}) "
          f"finished in {report.runtime_s:.2f} s")
    for name, entry in sorted(report.statistics.items()):
        if entry.get("exact"):
            print(f"  {name}: {entry['value']:.6g}")
        else:
            print(f"  {name}: {entry['value']:.6g} +/- {entry['stddev']:.2g}")
    for path in files:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
