"""Regenerate the golden report set that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/update.py

run from the root of the repository (or with hqlink installed) writes the
csv-format reports (``hqlink --scenario <s> --seed <n> --format csv``) of
every scenario at each seed of ``SEEDS`` into tests/golden/reports/, and the
numpy version, BLAS and CPU extensions that made them into
tests/golden/environment.json.
Run it only in a change that means to move a report; its diff shows each move.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from hqlink.config import SCENARIOS, ExperimentConfig
from hqlink.scenarios import emit_report, run

GOLDEN = Path(__file__).resolve().parent
SEEDS = (7, 20260810)


def write_reports(out_dir: Path) -> None:
    """The csv-format reports of every scenario at every seed, into out_dir."""
    for scenario in SCENARIOS:
        for seed in SEEDS:
            emit_report(run(ExperimentConfig.defaults(scenario, master_seed=seed)), out_dir, "csv")


def environment() -> dict:
    """The numpy version, BLAS and CPU extensions that fix a fit's last bits;
    numpy before 1.25 reports no BLAS here, so it matches no fixture."""
    try:
        build = np.show_config(mode="dicts")
    except TypeError:
        return {"numpy": np.__version__, "blas": None, "simd": None}
    blas = build.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": build.get("SIMD Extensions", {}).get("found")}


def main() -> None:
    reports = GOLDEN / "reports"
    shutil.rmtree(reports, ignore_errors=True)
    write_reports(reports)
    (GOLDEN / "environment.json").write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
