"""hqlink benchmark: closed-loop runs of the simulator's scenarios, in-process.

    python3 perfbench/run.py --workload ti_qm_link --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/``.  One process runs one operation at a time and waits for its
report, as a caller of this batch tool does.  Operations repeat until
``--seconds`` have passed (at least two per run).  The first two use the
given seed, so their report files must be byte-identical; later ones use
seeds derived from it.  The seed is all the program receives from the
benchmark.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces every
operation (on ``ti_qm_link``, the whole scenario with its bootstrap), runs
every fourth one untraced as well to measure the tracing overhead, and prints
the per-layer metrics.  The last line of standard
output is the JSON result; a fuller record (environment, every sample,
failures) goes to ``.perfbench/results/`` and spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 20260810  # the published config's master_seed
SETUP_REPEATS = 5
# In a traced run, every PAIR_EVERY-th operation also runs untraced first.
PAIR_EVERY = 4
# Traced operations per run, at least: two bootstraps hold 202 fits.
MIN_TRACED = 2

# Cold start paid by every CLI call: a fresh interpreter importing the
# package and building the default config.  Interpreter start-up is excluded.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hqlink
from hqlink.config import ExperimentConfig
ExperimentConfig.defaults()
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def program_seed(seed: int, i: int) -> int:
    """Seed handed to the program for the i-th operation of a run; 0 is the seed itself."""
    if i == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def measure_setup(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def check_repeat(digests: dict, seed: int, digest: str) -> list[str]:
    """Report files of a seed already run in this process must match byte for byte."""
    if not digest:
        return []
    first = digests.setdefault(seed, digest)
    if first != digest:
        return [f"report files for seed {seed} differ from an earlier run "
                f"({digest[:12]} != {first[:12]})"]
    return []


def timed_op(workload, hq, seed: int, work: Path):
    """Run one operation, timing only the program's work.

    Returns (wall seconds, cpu seconds, what the operation made or the
    exception it raised, report directory).  Never raises.
    """
    out = work / "report"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        made = workload.run(hq, seed, out)
    except Exception as exc:  # a failed operation is counted, the set carries on
        traceback.print_exc(file=sys.stderr)
        made = exc
    return time.perf_counter() - t0, time.process_time() - c0, made, out


def finish_op(workload, hq, seed: int, op) -> OpResult:
    """Check an operation's outputs and digest its report files, untimed."""
    from workloads import OpResult, report_digest
    _, cpu, made, out = op
    res = OpResult(detail={"cpu_s": cpu})
    if isinstance(made, Exception):
        res.problems.append(f"raised {type(made).__name__}: {made}")
    else:
        try:
            res.problems += workload.check(hq, seed, out, made)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            res.problems.append(f"output check raised {type(exc).__name__}: {exc}")
        for key in ("fidelity", "fidelity_std", "effective_depth"):
            if key in made:
                res.detail[key] = made[key]
        res.digest, res.report_bytes = report_digest(out)
    shutil.rmtree(out, ignore_errors=True)
    return res


def check_calls(spans, expected: dict) -> list[str]:
    """Each hook must fire as often as the workload says, so a rename fails."""
    counts = {name: 0 for name in expected}
    for s in spans:
        if s.name in counts:
            counts[s.name] += 1
    problems = []
    for name, (lo, hi) in expected.items():
        n = counts[name]
        if n < lo or (hi is not None and n > hi):
            want = str(lo) if hi == lo else f"{lo}..{'inf' if hi is None else hi}"
            problems.append(f"hook {name} fired {n} times, expected {want}")
    return problems


LAYER_TIMES = {
    "config.build_s": "config.build",
    "scenarios.analytic_s": "scenarios.analytic",
    "ion.channel_s": "ion.channel",
    "photon.channel_s": "photon.channel",
    "scenarios.emit_s": "scenarios.emit",
    "tomography.sample_s": "tomography.sample",
    "tomography.chsh_s": "tomography.chsh",
    "tomography.mle_s": "tomography.mle",
    "tomography.bootstrap_s": "tomography.bootstrap",
    "memory.bandwidth_match_s": "memory.bandwidth_match",
    "memory.effective_depth_s": "memory.effective_depth",
    "budget.s": "budget",
}
LAYER_COUNTS = {
    "tomography.mle_calls": "tomography.mle",
    "qstate.fidelity_calls": "qstate.fidelity",
    "memory.bandwidth_match_calls": "memory.bandwidth_match",
}
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio",
         "scenarios.emit_bytes": "bytes", "tomography.mle_fit_ms.p50": "ms",
         "tomography.mle_fit_ms.p95": "ms", "trace.overhead_s": "s",
         "tomography.bootstrap_self_s": "s",
         **{k: "s" for k in LAYER_TIMES}, **{k: "count" for k in LAYER_COUNTS}}


def statistic(name: str, values, wall_q: float) -> tuple[float, str]:
    """A metric's value from its samples, and the statistic's label.

    ``wall_s`` takes the workload's percentile ``wall_q``; ``*.p95`` metrics
    their 95th percentile; every other metric its median.
    """
    if name == "wall_s":
        q = wall_q
    else:
        q = 95.0 if name.endswith(".p95") else 50.0
    label = "median" if q == 50.0 else f"p{q:g}"
    return (percentile(values, q) if values else 0.0), label


def layer_samples(spans, report_bytes: int) -> dict:
    """Per-layer values of one traced operation."""
    from spans import outermost, self_times
    out = {}
    for metric, name in LAYER_TIMES.items():
        out[metric] = sum(spans[i].duration for i in outermost(spans, name))
    for metric, name in LAYER_COUNTS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    selfs = self_times(spans)
    out["tomography.bootstrap_self_s"] = sum(
        selfs[i] for i, s in enumerate(spans) if s.name == "tomography.bootstrap")
    out["scenarios.emit_bytes"] = report_bytes  # what emit_report wrote
    return out


def record_op(seed, wall, res, log, digests, records, extra=(), **tags):
    """Check the output digest, count the operation and keep its record."""
    problems = res.problems + check_repeat(digests, seed, res.digest) + list(extra)
    log.record(len(records), problems)
    records.append({"op": len(records), "seed": seed, **tags, "wall_s": wall,
                    "digest": res.digest, "problems": problems, **res.detail})


def run_plain(workload, hq, args, work, log, digests, records):
    walls = []
    t_start = time.perf_counter()
    i = 0
    while True:
        seed = program_seed(args.seed, max(i - 1, 0))
        op = timed_op(workload, hq, seed, work)
        record_op(seed, op[0], finish_op(workload, hq, seed, op), log, digests, records)
        walls.append(op[0])
        i += 1
        elapsed = time.perf_counter() - t_start
        if i >= 2 and elapsed + statistics.median(walls) > args.seconds:
            return walls


def run_traced(workload, hq, args, work, log, digests, records, traces):
    """Traced operations until time is up; every PAIR_EVERY-th one also runs
    plain first, and the paired difference is the tracing overhead."""
    from spans import Tracer
    from workloads import HOOKS
    samples, overheads, fits_ms = [], [], []
    t_start = time.perf_counter()
    j = 0
    while True:
        seed = program_seed(args.seed, j)
        plain = None
        if j % PAIR_EVERY == 0:
            plain = timed_op(workload, hq, seed, work)
            record_op(seed, plain[0], finish_op(workload, hq, seed, plain), log, digests,
                      records, traced=False)
        tracer = Tracer(run_id=j)
        tracer.install(HOOKS)
        try:
            op = timed_op(workload, hq, seed, work)
        finally:
            tracer.uninstall()
        res = finish_op(workload, hq, seed, op)
        record_op(seed, op[0], res, log, digests, records,
                  check_calls(tracer.spans, workload.expected_calls()), traced=True)
        if plain is not None:
            overheads.append(op[0] - plain[0])
        samples.append(layer_samples(tracer.spans, res.report_bytes))
        fits_ms += [s.duration * 1e3 for s in tracer.spans if s.name == "tomography.mle"]
        traces.append({"run_id": j, "seed": seed, "bindings": tracer.bindings,
                       "spans": tracer.dump()})
        j += 1
        elapsed = time.perf_counter() - t_start
        if j >= MIN_TRACED and elapsed + elapsed / j > args.seconds:
            return samples, fits_ms, overheads


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "hqlink" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    from envinfo import environment
    from stats import FailureLog, summarize
    from workloads import WORKLOADS

    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    sys.path.insert(0, str(SRC))
    import hqlink
    import hqlink.cli  # noqa: F401  (binds hqlink.cli)
    if Path(hqlink.__file__).resolve().parent != (SRC / "hqlink").resolve():
        print(f"error: imported hqlink from {hqlink.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace and workload.traced is not None:
        workload = workload.traced
    env = environment(ROOT, SRC)
    for sub in ("work", "results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    digests: dict[int, str] = {}
    log = FailureLog()
    records: list[dict] = []
    samples: dict[str, list] = {}
    try:
        workload.prepare(hq=hqlink, work=work)
        gc.collect()
        if args.trace:
            traces: list[dict] = []
            per_op, fits_ms, overheads = run_traced(workload, hqlink, args, work, log,
                                                    digests, records, traces)
            for name in per_op[0]:
                samples[name] = [s[name] for s in per_op]
            samples["tomography.mle_fit_ms.p50"] = fits_ms
            samples["tomography.mle_fit_ms.p95"] = fits_ms
            samples["trace.overhead_s"] = overheads
            trace_path = OUT / "traces" / f"{workload.name}_seed{args.seed}.json"
            trace_path.write_text(json.dumps(traces) + "\n")
        else:
            walls = run_plain(workload, hqlink, args, work, log, digests, records)
            samples = {"wall_s": walls, "setup_s": setup,
                       "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
                       "ok_frac": [1.0 - log.failed_frac]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, detail = {}, {}
    for name, values in samples.items():
        value, stat = statistic(name, values, workload.wall_q)
        metrics[name] = {"value": value, "unit": UNITS[name]}
        detail[name] = {"value": value, "unit": UNITS[name], "stat": stat,
                        **summarize(values), "samples": values}
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failed_frac": log.failed_frac,
              "failures": log.reasons, "metrics": detail, "operations": records}
    path = OUT / "results" / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for name, d in detail.items():
        print(f"{name}: {d['value']:.6g} {d['unit']} ({d['stat']} of n={d['n']})")
    print(f"failed_frac: {log.failed_frac:.6g} ({log.failed} of {log.attempted} operations)")
    for failure in log.reasons:
        print(f"failed op {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
