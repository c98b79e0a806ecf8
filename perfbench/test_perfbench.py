"""Tests for the benchmark's own helpers: python -m pytest perfbench"""

import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import HookError, Span, Tracer, covered, outermost, self_times  # noqa: E402
from stats import (  # noqa: E402
    FailureLog,
    percentile,
    samples_beyond,
    summarize,
    tail_percentile,
)


# -- percentiles -------------------------------------------------------------


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)


@pytest.mark.parametrize("n, q, beyond", [
    (201, 95, 10), (201, 99, 2), (200, 95, 10), (20, 50, 10), (1, 50, 0), (0, 50, 0)])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    if n:
        ranked = list(range(n))
        assert sum(v > percentile(ranked, q) for v in ranked) == beyond


@pytest.mark.parametrize("n, q", [
    (505, 95.0), (201, 95.0), (180, 90.0), (101, 90.0), (40, 75.0), (20, 50.0),
    (19, None), (2, None), (0, None), (5000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_summarize_reports_count_median_and_supported_tail():
    s = summarize([float(v) for v in range(1, 22)])
    assert s == {"n": 21, "median": 11.0, "tail_q": 50.0, "tail": 11.0}
    assert summarize([3.0, 1.0])["tail_q"] is None
    assert summarize([])["n"] == 0


# -- spans and self time -----------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(-5, -1), (11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [Span("boot", 0.0, 10.0, None, 0),
             Span("mle", 1.0, 4.0, 0, 0),
             Span("inner", 2.0, 3.0, 1, 0),
             Span("mle", 5.0, 9.0, 0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [Span("cfg", 0, 4, None, 0), Span("cfg", 1, 2, 0, 0),
             Span("x", 5, 6, None, 0), Span("cfg", 5.5, 5.8, 2, 0)]
    assert outermost(spans, "cfg") == [0, 3]


@pytest.fixture
def fake_pkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .core import work\n")
    (pkg / "core.py").write_text(textwrap.dedent("""
        def work(x):
            return helper(x) + 1

        def helper(x):
            return 2 * x

        class Conf:
            @classmethod
            def build(cls):
                return cls()
    """))
    (pkg / "user.py").write_text("from .core import work\n\ndef call(x):\n    return work(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.user  # noqa: F401
    yield sys.modules
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_tracer_patches_every_binding_and_restores(fake_pkg):
    core, user, pkg = fake_pkg["fakepkg.core"], fake_pkg["fakepkg.user"], fake_pkg["fakepkg"]
    original = core.work
    tracer = Tracer()
    tracer.install({"work": ["fakepkg.core:work"], "helper": ["fakepkg.core:helper"],
                    "conf": ["fakepkg.core:Conf.build"]}, package="fakepkg")
    try:
        assert user.call(3) == 7
        assert pkg.work(1) == 3
        assert isinstance(core.Conf.build(), core.Conf)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["work", "helper", "work", "helper", "conf"]
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent is None
    assert sorted(tracer.bindings["fakepkg.core:work"]) == [
        "fakepkg.core.work", "fakepkg.user.work", "fakepkg.work"]
    assert core.work is original and user.work is original and pkg.work is original
    assert "build" in vars(core.Conf) and isinstance(vars(core.Conf)["build"], classmethod)


def test_tracer_fails_loudly_on_a_renamed_target(fake_pkg):
    tracer = Tracer()
    original = fake_pkg["fakepkg.core"].work
    with pytest.raises(HookError, match="renamed"):
        tracer.install({"work": ["fakepkg.core:work"], "gone": ["fakepkg.core:vanished"]},
                       package="fakepkg")
    assert fake_pkg["fakepkg.user"].work is original  # partial install rolled back


def test_check_calls_flags_hooks_that_did_not_fire():
    spans = [Span("tomography.mle", 0, 1, None, 0)] * 3
    assert run.check_calls(spans, {"tomography.mle": (3, 3)}) == []
    problems = run.check_calls(spans, {"tomography.mle": (101, 101),
                                       "memory.effective_depth": (0, 0)})
    assert problems == ["hook tomography.mle fired 3 times, expected 101"]
    assert run.check_calls([], {"budget": (1, None)}) == [
        "hook budget fired 0 times, expected 1..inf"]


def test_layer_samples_bootstrap_self_time():
    spans = [Span("tomography.bootstrap", 0.0, 10.0, None, 0),
             Span("tomography.mle", 1.0, 4.0, 0, 0),
             Span("qstate.fidelity", 4.0, 4.5, 0, 0),
             Span("tomography.mle", 5.0, 9.0, 0, 0)]
    out = run.layer_samples(spans + [Span("scenarios.emit", 9.5, 9.6, None, 0)],
                            report_bytes=123)
    assert out["tomography.bootstrap_s"] == pytest.approx(10.0)
    assert out["tomography.mle_s"] == pytest.approx(7.0)
    assert out["tomography.bootstrap_self_s"] == pytest.approx(2.5)
    assert out["tomography.mle_calls"] == 2 and out["qstate.fidelity_calls"] == 1
    assert out["scenarios.emit_bytes"] == 123


# -- failure counting --------------------------------------------------------


def test_failure_log_counts_each_failed_operation():
    log = FailureLog()
    assert log.failed_frac == 0.0
    assert log.record(0, []) is True
    assert log.record(1, ["exit code 3"]) is False
    assert log.record(2, ["a", "b"]) is False
    assert (log.attempted, log.failed) == (3, 2)
    assert log.failed_frac == pytest.approx(2 / 3)


class ScriptedWorkload:
    """Fails in a scripted way per call: raise, bad output, drift or pass."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def run(self, hq, seed, out):
        step = self.script[self.calls % len(self.script)]
        self.calls += 1
        if step == "raise":
            raise RuntimeError("boom")
        (out / "report.txt").write_text(f"{seed} {self.calls if step == 'drift' else ''}")
        return {"step": step}

    def check(self, hq, seed, out, made):
        if made["step"] == "check_raises":
            raise KeyError("summary")
        return ["check failed"] if made["step"] == "bad" else []


def test_failures_are_counted_and_never_abort_the_set(tmp_path):
    wl = ScriptedWorkload(["raise", "bad", "check_raises", "ok"])
    log = FailureLog()
    records = []
    args = SimpleNamespace(seed=5, seconds=1e-9)
    walls = run.run_plain(wl, None, args, tmp_path, log, {}, records)
    walls += run.run_plain(wl, None, args, tmp_path, log, {}, records)
    assert len(walls) == 4 and wl.calls == 4
    assert (log.attempted, log.failed) == (4, 3)
    assert "raised RuntimeError: boom" in records[0]["problems"][0]
    assert records[1]["problems"] == ["check failed"]
    assert "output check raised KeyError" in records[2]["problems"][0]
    assert records[3]["problems"] == []


def test_check_runs_outside_the_timed_region(tmp_path, monkeypatch):
    class SlowCheck(ScriptedWorkload):
        def check(self, hq, seed, out, made):
            clock[0] += 100.0
            return []

    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    op = run.timed_op(SlowCheck(["ok"]), None, 5, tmp_path)
    res = run.finish_op(SlowCheck(["ok"]), None, 5, op)
    assert op[0] == 0.0 and clock[0] == 100.0 and res.problems == []
    assert res.digest and not (tmp_path / "report").exists()


def test_digest_mismatch_on_a_repeated_seed_is_a_failure(tmp_path):
    wl = ScriptedWorkload(["drift"])
    log = FailureLog()
    records = []
    digests = {}
    run.run_plain(wl, None, SimpleNamespace(seed=5, seconds=1e-9), tmp_path, log,
                  digests, records)
    assert records[0]["seed"] == records[1]["seed"] == 5
    assert log.failed == 1 and "differ from an earlier run" in records[1]["problems"][0]
    assert run.check_repeat(digests, 5, records[0]["digest"]) == []
    assert run.check_repeat(digests, 6, "0" * 64) == []
    assert run.check_repeat(digests, 6, "1" * 64) != []


def test_statistic_takes_the_workload_percentile_for_wall_time_only():
    values = [float(v) for v in range(1, 21)]
    assert run.statistic("wall_s", values, 95.0) == (pytest.approx(19.05), "p95")
    assert run.statistic("wall_s", values, 50.0) == (10.5, "median")
    assert run.statistic("setup_s", values, 95.0) == (10.5, "median")
    assert run.statistic("tomography.mle_fit_ms.p95", values, 50.0)[1] == "p95"


def test_program_seed_repeats_the_given_seed_first():
    assert run.program_seed(7, 0) == 7
    derived = {run.program_seed(7, i) for i in range(1, 50)}
    assert len(derived) == 49 and 7 not in derived
    assert run.program_seed(7, 3) == run.program_seed(7, 3) != run.program_seed(8, 3)
