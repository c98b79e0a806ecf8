"""The committed report set, tests/golden/reports/, against the reports this
checkout writes; tests/golden/update.py made the set and rewrites it.

Where numpy's version, its BLAS and the CPU's SIMD extensions are those in
tests/golden/environment.json, every file must match byte for byte.
Elsewhere a fit's last bits can move with the arithmetic (a change of Newton
step once moved fitted entries by up to 6.9e-10), so the fitted values (the
matrix entries, and each tomography summary's mle_fidelity value and stddev)
are compared at an absolute FIT_TOL, and every other value, and every file
without a fitted value (counts, budgets, sweeps, CHSH), still exactly.
FIT_TOL is not widened to absorb a move: a fit that moves further is a
report change, made with update.py and shown in the set's diff.
"""

import csv
import importlib.util
import io
import itertools
import json
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports"
_spec = importlib.util.spec_from_file_location("golden_update", GOLDEN / "update.py")
update = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update)

FIT_TOL = 1e-8
FITTED_STATISTIC = "mle_fidelity"
SAME_ENVIRONMENT = update.environment() == json.loads((GOLDEN / "environment.json").read_text())
NAMES = sorted(p.name for p in REPORTS.iterdir())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    update.write_reports(out)
    return out


def _first_difference(golden: str, fresh: str) -> str:
    pairs = itertools.zip_longest(golden.splitlines(), fresh.splitlines())
    for number, (g, f) in enumerate(pairs, 1):
        if g != f:
            return f"line {number}: golden {g!r}, fresh {f!r}"
    return "line endings"


def _split_fitted(name: str, text: str):
    """(the file's content without its fitted values, those values)."""
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        fitted = [float(v) for row in rows if row[0] == FITTED_STATISTIC for v in row[1:]]
        return [row[:1] if row[0] == FITTED_STATISTIC else row for row in rows], fitted
    doc = json.loads(text)
    matrix = doc if "re" in doc else doc["matrix"]
    fitted = matrix.pop("re") + matrix.pop("im") if matrix else []
    stat = doc.get("statistics", {}).get(FITTED_STATISTIC)
    if stat:
        fitted += [stat.pop("value"), stat.pop("stddev")]
    return doc, fitted


def _compare(name: str, golden: str, fresh: str, same_environment: bool) -> str | None:
    """None when ``fresh`` passes for the golden ``golden``, else what moved."""
    golden_rest, golden_fit = _split_fitted(name, golden)
    if same_environment or not golden_fit:
        return None if fresh == golden else f"{name} differs at {_first_difference(golden, fresh)}"
    fresh_rest, fresh_fit = _split_fitted(name, fresh)
    if fresh_rest != golden_rest or len(fresh_fit) != len(golden_fit):
        return f"{name} differs outside its fitted values at {_first_difference(golden, fresh)}"
    moves = [abs(f - g) for f, g in zip(fresh_fit, golden_fit)]
    if not max(moves) <= FIT_TOL:
        return f"{name}: a fitted value moved by {max(moves):.3g} > {FIT_TOL:g}"
    return None


def test_same_file_names(fresh):
    assert sorted(p.name for p in fresh.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(fresh, name):
    message = _compare(name, (REPORTS / name).read_text(), (fresh / name).read_text(),
                       SAME_ENVIRONMENT)
    if message:
        pytest.fail(message, pytrace=False)


def test_fitted_values_are_the_tomography_fits():
    fitted = {name: len(_split_fitted(name, (REPORTS / name).read_text())[1]) for name in NAMES}
    assert {name: n for name, n in fitted.items() if n} == {
        f"{scenario}_seed{seed}_{kind}": n
        for scenario in ("ion_photon", "post_qfc", "ti_qm") for seed in update.SEEDS
        for kind, n in (("summary.json", 34), ("matrix.json", 32), ("summary.csv", 2))}


def _nudge(text: str, anchor: str, delta: float) -> str:
    """``text`` with the first number after ``anchor`` moved by ``delta``."""
    match = re.compile(r"-?[0-9][0-9.e+-]*").search(text, text.index(anchor) + len(anchor))
    return text[:match.start()] + repr(float(match.group()) + delta) + text[match.end():]


@pytest.mark.parametrize("name, anchor, delta, passes", [
    ("ti_qm_seed7_matrix.json", '"re": [', 5e-9, True),
    ("ti_qm_seed7_matrix.json", '"im": [', 2e-8, False),
    ("ti_qm_seed7_summary.json", '"mle_fidelity"', 5e-9, True),
    ("ti_qm_seed7_summary.json", '"analytic_fidelity"', 5e-9, False),
    ("ti_qm_seed7_summary.csv", "mle_fidelity,", -5e-9, True),
    ("ti_qm_seed7_summary.csv", "herald_probability,", 5e-9, False),
    ("ti_qm_seed7_counts.csv", "X,X,", 1, False),
])
def test_another_environment_checks_fits_at_the_tolerance(name, anchor, delta, passes):
    golden = (REPORTS / name).read_text()
    fresh = _nudge(golden, anchor, delta)
    assert (_compare(name, golden, fresh, same_environment=False) is None) == passes
    assert _compare(name, golden, fresh, same_environment=True) is not None


def test_shipped_tables_are_what_stdlib_csv_writes(fresh):
    for name in NAMES:
        if name.endswith(".csv"):
            text = (fresh / name).read_text()
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
            assert out.getvalue() == text, name
