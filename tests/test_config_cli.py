"""Config validation, scenario runner and CLI behavior."""

import ast
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hqlink
import hqlink.cli as cli
from hqlink import memory
from hqlink.budget import ErrorSource
from hqlink.config import BUDGET_KEYS, ConfigError, ExperimentConfig, default_config_dict
from hqlink.memory import bandwidth_match
from hqlink.qstate import StateError
from hqlink.scenarios import RunReport, _csv, _json_text, analytic_fidelity, emit_report, run
from hqlink.tomography import NonConvergenceError


# str-keyed JSON trees: every scalar json encodes, lone surrogates included,
# and lists of floats only, which the encoder writes in one json.dumps call
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 63, 2 ** 300) | st.floats()
    | _ANY_TEXT | st.lists(st.floats(), min_size=1, max_size=6)
    | st.lists(st.floats(), min_size=1, max_size=3).map(tuple),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_ANY_TEXT, kids, max_size=4)),
    max_leaves=24)


class TestConfig:
    def test_defaults_valid_for_every_scenario(self):
        for scenario in ("ion_photon", "post_qfc", "ti_qm", "chsh", "budget",
                         "afc_sweep", "bandwidth_sweep"):
            cfg = ExperimentConfig.defaults(scenario)
            assert cfg.scenario == scenario

    def test_errors_are_enumerated(self):
        bad = {
            "scenario": "warp_drive",
            "master_seed": "tomorrow",
            "ion": {"coherence_time_tau_ms": -1.0},
            "noise": {"snr": -5.0},
        }
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(bad)
        text = str(err.value)
        assert "scenario" in text
        assert "master_seed" in text
        assert "ion" in text
        assert "noise" in text
        assert len(err.value.errors) >= 4

    def test_overrides_nest(self):
        cfg = ExperimentConfig.defaults("ti_qm")
        cfg2 = cfg.with_overrides(scenarios={"ti_qm": {"heralds": 99}})
        assert cfg2.scenario_section()["heralds"] == 99
        # untouched siblings survive
        assert cfg2.scenario_section()["snr"] == 28.0

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "budget", "master_seed": 5}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.scenario == "budget"
        assert cfg.master_seed == 5

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file("/does/not/exist.json")

    def test_defaults_share_no_nested_dict_or_list(self):
        def containers(obj, found):
            if isinstance(obj, (dict, list)):
                found.add(id(obj))
                for v in obj.values() if isinstance(obj, dict) else obj:
                    containers(v, found)
            return found

        a, b = ExperimentConfig.defaults("budget"), ExperimentConfig.defaults("budget")
        assert not containers(a.raw, set()) & containers(b.raw, set())
        a.raw["scenarios"]["ti_qm"]["snr"] = -1.0
        a.raw["scenarios"]["afc_sweep"]["extra"] = 1.0
        fresh = ExperimentConfig.defaults("budget")
        assert fresh.raw["scenarios"] == default_config_dict()["scenarios"]
        assert fresh.raw == b.raw

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


class TestScenarioRuns:
    def test_budget_reports_are_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.defaults("budget").with_overrides(master_seed=7)
        files1 = emit_report(run(cfg), tmp_path / "a")
        files2 = emit_report(run(cfg), tmp_path / "b")
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_seed_changes_samples_not_analytics(self):
        small = {"ti_qm": {"heralds": 360}}
        boot = {"bootstrap_resamples": 100}
        cfg1 = ExperimentConfig.defaults("ti_qm", scenarios=small, pipeline=boot,
                                         master_seed=1)
        cfg2 = cfg1.with_overrides(master_seed=2)
        rep1, rep2 = run(cfg1), run(cfg2)
        assert rep1.statistics["analytic_fidelity"] == rep2.statistics["analytic_fidelity"]
        assert rep1.statistics["mle_fidelity"] != rep2.statistics["mle_fidelity"]

    def test_ion_photon_reproduces_published_fidelity(self):
        cfg = ExperimentConfig.defaults("ion_photon",
                                        pipeline={"bootstrap_resamples": 100})
        rep = run(cfg)
        assert rep.statistics["mle_fidelity"]["value"] == pytest.approx(0.955, abs=0.01)
        assert rep.statistics["analytic_fidelity"]["value"] == pytest.approx(0.955, abs=0.01)

    def test_post_qfc_matches_published_point(self):
        cfg = ExperimentConfig.defaults("post_qfc")
        assert analytic_fidelity(cfg, "post_qfc") == pytest.approx(0.8912, abs=0.01)

    def test_ti_qm_full_chain_reproduces_published_fidelity(self):
        rep = run(ExperimentConfig.defaults("ti_qm"))
        assert rep.statistics["total_trials"]["value"] == 1780
        assert rep.statistics["mle_fidelity"]["value"] == pytest.approx(0.89, abs=0.03)

    def test_optional_fields_serialize_as_null(self, tmp_path):
        rep = run(ExperimentConfig.defaults("budget"))
        files = emit_report(rep, tmp_path)
        summary = next(f for f in files if f.name.endswith("_summary.json"))
        data = json.loads(summary.read_text())
        assert data["matrix"] is None
        # round-trip stable: rewriting the parsed document changes nothing
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == summary.read_text()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(), min_size=32, max_size=32), with_matrix=st.booleans())
    @example(values=[-0.0, 5e-324, 1e308, -1e308, -2.5, 0.1, -5e-324, 1.0] * 4,
             with_matrix=True)
    @example(values=[math.inf, -math.inf, math.nan, -0.0] * 8, with_matrix=True)
    @example(values=[0.0] * 32, with_matrix=False)
    def test_summary_and_matrix_files_are_one_encode_each(self, tmp_path_factory, values,
                                                           with_matrix):
        # emit_report encodes the matrix once and indents it into the summary;
        # both files keep the layout of a plain json.dumps of their document
        report = RunReport(scenario="ti_qm", seed=3)
        report.add("mle_fidelity", values[0], values[1])
        report.add("matrix", values[2])  # a nested key of the same name
        report.budget_rows = [ErrorSource("jitter", 0.0, '\n  "matrix": null,\n')]
        report.rate_table = [("r_369", values[3])]
        report.breakdown = [("emission", values[4])]
        if with_matrix:
            report.matrix = np.empty((4, 4), dtype=complex)
            report.matrix.real = np.reshape(values[:16], (4, 4))
            report.matrix.imag = np.reshape(values[16:], (4, 4))
        out = tmp_path_factory.mktemp("report")
        files = {f.name: f.read_text() for f in emit_report(report, out)}
        doc = report.to_json_dict()
        assert files["ti_qm_seed3_summary.json"] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if with_matrix:
            assert files["ti_qm_seed3_matrix.json"] == (
                json.dumps(doc["matrix"], indent=2, sort_keys=True) + "\n")
        else:
            assert "ti_qm_seed3_matrix.json" not in files

    @settings(max_examples=200, deadline=None)
    @given(tree=JSON_TREES)
    @example(tree={"floats": [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
                              -math.inf, 0.1, 1e16, 1.5e-7]})
    @example(tree={'q"uo\\te': ['"', "\\", "\x00\x1f\t\n\x7f", "é€\U0001f600", "\ud800",
                                 "x\udfffy"], "\ud83d": "\u2028"})
    @example(tree={"ints": [2 ** 64, -2 ** 200, 0, True, False, None], "t": (1, (2.5, "a")),
                   "e": [{}, [], (), {"": {}}], "": ""})
    @example(tree=[])
    @example(tree="top-level \u00ff")
    @example(tree=[math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5])
    @example(tree={"one": [1e-5], "t": (-0.0, 1e16), "deep": [[math.nan], [5e-324, -math.inf]]})
    @example(tree={"int": [0.5, 1, 2.5], "bool": [1.0, True], "null": [0.5, None],
                   "str": [0.25, "x"], "list": [[0.5, 1.5], 0.5], "tuple": (0.5, 2),
                   "np": [np.float64(0.1), 0.2]})
    def test_direct_encoder_matches_json_dumps(self, tree):
        assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.text(st.characters(exclude_characters=',"\r\n')),
                                  max_size=5), max_size=6))
    @example(rows=[["a", "", "b"], [], ["", ""], [" x ", "'", "é€", "\t"]])
    def test_csv_join_is_stdlib_csv(self, rows):
        # a row of one empty field is the exception: csv writes it '""' to
        # tell it from a blank line; no report table has one
        assume([""] not in rows)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        assert _csv(rows) == out.getvalue()

    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, b"x", np.int64(3), bytearray()])
    def test_direct_encoder_rejects_what_json_rejects(self, bad):
        for tree in (bad, [0.5, bad], {"a": {"b": [bad]}}):
            with pytest.raises(TypeError) as expected:
                json.dumps(tree, indent=2, sort_keys=True)
            with pytest.raises(type(expected.value)):
                _json_text(tree)

    def test_rewritten_report_files_are_truncated(self, tmp_path):
        # a second report into the same directory replaces every file whole,
        # also where the old file was longer
        report = RunReport(scenario="ti_qm", seed=3)
        report.matrix = np.eye(4, dtype=complex) / 4
        first = {f.name: f.read_bytes() for f in emit_report(report, tmp_path)}
        for name in first:
            (tmp_path / name).write_bytes(b"x" * 10_000)
        again = {f.name: f.read_bytes() for f in emit_report(report, tmp_path)}
        assert again == first

    def test_sweep_csv_shapes(self, tmp_path):
        rep = run(ExperimentConfig.defaults("bandwidth_sweep"))
        files = emit_report(rep, tmp_path)
        sweep = next(f for f in files if f.name.endswith("_sweep.csv"))
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "detuning_mhz,bandwidth_match"
        assert len(lines) == 122
        vals = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        peak_df, peak = max(vals, key=lambda t: t[1])
        assert peak == pytest.approx(0.7434, abs=0.0005)
        assert peak_df == pytest.approx(0.0, abs=1e-9)
        # symmetric and monotonically declining away from center
        by_df = dict(vals)
        for df in (10.0, 30.0, 50.0):
            assert by_df[df] == pytest.approx(by_df[-df], abs=1e-6)

    def test_afc_sweep_curve(self, tmp_path):
        rep = run(ExperimentConfig.defaults("afc_sweep"))
        files = emit_report(rep, tmp_path)
        sweep = next(f for f in files if f.name.endswith("_sweep.csv"))
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "t_storage_ns,afc_efficiency"
        first = tuple(map(float, lines[1].split(",")))
        assert first[0] == 500.0
        assert first[1] == pytest.approx(0.4376, abs=0.002)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=12))
    @example(rows=[(-0.0, 5e-324), (1e300, -1e300), (2.2250738585072014e-308, -5e-324),
                   (0.1, 1 / 3), (math.inf, math.nan), (-math.inf, 0.0), (123456789.0, 1e16)])
    def test_sweep_csv_is_the_per_row_join(self, tmp_path_factory, rows):
        # the sweep CSV is formatted in one "%.15g" pass per row; its text is
        # the join of f"{v:.15g}" per value it replaced
        report = RunReport(scenario="bandwidth_sweep", seed=3)
        report.sweep_columns = ("detuning_mhz", "bandwidth_match")
        report.sweep = rows
        out = tmp_path_factory.mktemp("sweep")
        emit_report(report, out)
        lines = [",".join(report.sweep_columns)]
        lines += [",".join(f"{v:.15g}" for v in row) for row in rows]
        assert (out / "bandwidth_sweep_seed3_sweep.csv").read_text() == "\n".join(lines) + "\n"

    def test_bandwidth_match_runs_once_per_sweep_point(self, monkeypatch):
        # the benchmark's traced run counts `points` calls of the hook on
        # memory.bandwidth_match; each point's model is the one
        # dataclasses.replace made
        models = []

        def counted(model):
            models.append(model)
            return bandwidth_match(model)

        monkeypatch.setattr(memory, "bandwidth_match", counted)
        cfg = ExperimentConfig.defaults("bandwidth_sweep")
        scen = cfg.scenario_section()
        report = run(cfg)
        dfs = np.linspace(scen["df_start_mhz"], scen["df_stop_mhz"], scen["points"])
        assert len(models) == scen["points"] == len(report.sweep) == 121
        assert models == [replace(cfg.spectral, detuning_mhz=float(df)) for df in dfs]
        assert all(type(m.detuning_mhz) is float for m in models)

    def test_report_paths_embed_scenario_and_seed(self, tmp_path):
        rep = run(ExperimentConfig.defaults("budget", master_seed=31))
        files = emit_report(rep, tmp_path)
        assert all("budget_seed31" in f.name for f in files)

    def test_missing_output_directory_is_made(self, tmp_path):
        # with its parents; a path that is a file raises as mkdir does
        rep = run(ExperimentConfig.defaults("budget"))
        files = emit_report(rep, tmp_path / "a" / "b")
        assert {f.parent for f in files} == {tmp_path / "a" / "b"}
        assert [f.name for f in files] == [f.name for f in emit_report(rep, tmp_path)]
        (tmp_path / "file").write_text("")
        with pytest.raises(FileExistsError):
            emit_report(rep, tmp_path / "file")
        with pytest.raises(NotADirectoryError):
            emit_report(rep, tmp_path / "file" / "below")

    def test_report_into_an_existing_directory_stats_nothing(self, tmp_path, monkeypatch):
        rep = run(ExperimentConfig.defaults("budget"))
        stats = []
        stat = os.stat
        monkeypatch.setattr(os, "stat", lambda *args, **kw: stats.append(args) or stat(*args, **kw))
        emit_report(rep, tmp_path)
        assert stats == []

    def test_csv_summary_format(self, tmp_path):
        rep = run(ExperimentConfig.defaults("budget"))
        files = emit_report(rep, tmp_path, fmt="csv")
        summary = next(f for f in files if f.name.endswith("_summary.csv"))
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == "statistic,value,stddev_or_exact"
        assert any("exact" in ln for ln in lines[1:])


class TestCli:
    def test_full_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["--scenario", "budget", "--seed", "3",
                         "--out", str(tmp_path / "r")])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario budget" in out
        assert (tmp_path / "r" / "budget_seed3_summary.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "budget", "master_seed": 1}))
        code = cli.main(["--config", str(cfg_path), "--scenario", "afc_sweep",
                         "--seed", "9", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "afc_sweep_seed9_summary.json").exists()

    def test_shots_flag_maps_to_scenario_budget_key(self, tmp_path):
        code = cli.main(["--scenario", "ti_qm", "--seed", "5", "--shots", "180",
                         "--out", str(tmp_path / "t")])
        assert code == 0
        summary = json.loads((tmp_path / "t" / "ti_qm_seed5_summary.json").read_text())
        assert summary["statistics"]["total_trials"]["value"] == 180

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000, "maximum recursion depth exceeded"),
    ])
    def test_unreadable_config_file_exit_two(self, content, message, tmp_path, capsys):
        # not UTF-8, or nested deeper than the decoder recurses
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(content)
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg_path}: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_two(self, capsys):
        assert cli.main(["--config", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_field_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scenario": "ti_qm", "noise": {"snr": -2}}))
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "snr" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--scenario", "ti_qm", "--shots", "0"], "scenarios.ti_qm.heralds"),
        (["--scenario", "ion_photon", "--shots", "5"], "scenarios.ion_photon.shots"),
        (["--scenario", "chsh", "--shots", "2"], "scenarios.chsh.trials"),
        (["--scenario", "chsh", "--seed", "-1"], "master_seed"),
        (["--scenario", "budget", "--shots", "90"], "--shots: budget has no shot budget; "
         "the flag applies to ion_photon, post_qfc, ti_qm, chsh"),
        (["--scenario", "afc_sweep", "--shots", "90"], "--shots: afc_sweep has no"),
        (["--scenario", "bandwidth_sweep", "--shots", "90"], "--shots: bandwidth_sweep has no"),
    ])
    def test_unusable_budget_or_seed_exit_two(self, argv, field, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert field in err

    @pytest.mark.parametrize("config, error", [
        ({"rates": {"eta_bww": 0.74}}, "rates.eta_bww: unknown field"),
        ({"scenarios": {"ti_qm": {"shots": 1780}}}, "scenarios.ti_qm.shots: unknown field"),
        ({"error_budget": [{"name": "spam", "infidelity": None}]},
         "error_budget: unknown field"),
        ({"stark": {"echo_period_ns": 500.0}}, "stark: unknown field"),
        ({"spam": {"threshold": 1.5}}, "spam: unknown field"),
        ({"spectral": {"zeeman_split_mhz": 11.22}}, "spectral.zeeman_split_mhz: unknown field"),
        # the pump design is a set of published constants, not configuration
        ({"pump": {"partial_weight": 0.5}}, "pump: unknown field"),
        ({"rates": 5}, "rates: expected an object"),
        ([1, 2], "config: expected a JSON object"),
        # so is the comb's tooth spacing; chsh takes the ti_qm SNR
        ({"comb": {"delta_mhz": 2.0}}, "comb.delta_mhz: unknown field"),
        ({"scenarios": {"chsh": {"snr": 28.0}}}, "scenarios.chsh.snr: unknown field"),
    ])
    def test_unknown_field_exit_two(self, config, error, tmp_path, capsys):
        _assert_exit_two(tmp_path, capsys, "budget", config, error)

    @pytest.mark.parametrize("scenario, config, field", [
        ("ti_qm", {"scenarios": {"ti_qm": {"snr": -2}}}, "scenarios.ti_qm.snr"),
        ("post_qfc", {"scenarios": {"post_qfc": {"snr": float("nan")}}},
         "scenarios.post_qfc.snr"),
        ("ion_photon", {"scenarios": {"ion_photon": {"decoherence_time_us": float("nan")}}},
         "scenarios.ion_photon.decoherence_time_us"),
        # chsh samples the ti_qm link and has no storage time of its own
        ("chsh", {"scenarios": {"chsh": {"decoherence_time_us": -1.0}}},
         "scenarios.chsh.decoherence_time_us: unknown field"),
        ("budget", {"ion": {"zeeman_frequency_mhz": float("nan")}},
         "ion.zeeman_frequency_mhz: expected a finite number >= 0, got nan"),
        ("budget", {"master_seed": True}, "master_seed"),
        ("ti_qm", {"pipeline": {"bootstrap_resamples": 5}}, "pipeline.bootstrap_resamples"),
        ("ti_qm", {"pipeline": {"decoherence_exponent_a": 5}},
         "pipeline.decoherence_exponent_a"),
        ("ti_qm", {"storage": {"residual_infidelity": 0.9}}, "storage.residual_infidelity"),
        ("chsh", {"pipeline": {"apply_storage_residual": False}},
         "pipeline.apply_storage_residual: unknown field"),
        ("budget", {"storage": {"eta_device_h": 0}}, "storage.eta_device_h"),
        ("budget", {"storage": {"eta_device_v": 0.0}}, "storage.eta_device_v"),
        ("ti_qm", {"storage": {"eta_internal_h": 0, "eta_internal_v": 0}},
         "storage.eta_internal_h, storage.eta_internal_v"),
        ("afc_sweep", {"comb": {"d": float("nan")}},
         "comb.d: expected a positive finite number, got nan"),
        ("ti_qm", {"jitter": {"awg_rms_ns": float("nan")}},
         "jitter.awg_rms_ns: expected a finite number >= 0, got nan"),
        ("ti_qm", {"jitter": {"transceiver_rms_ns": float("inf")}},
         "jitter.transceiver_rms_ns: expected a finite number >= 0, got inf"),
        ("ti_qm", {"pipeline": {"spam_error": 0.8}}, "pipeline.spam_error"),
        # a subnormal storage efficiency underflows the herald probability
        ("budget", {"storage": {"eta_internal_h": 0.0, "eta_internal_v": 5e-324}},
         "storage.eta_internal_v: 5e-324 is subnormal"),
        ("chsh", {"storage": {"eta_internal_h": math.nextafter(sys.float_info.min, 0)}},
         "storage.eta_internal_h: 2.225073858507201e-308 is subnormal"),
        # booleans, NaN and strings that only the typed sections used to see
        ("afc_sweep", {"comb": {"d": True}}, "comb.d: expected a positive finite number, "
         "got True"),
        ("ti_qm", {"jitter": {"awg_rms_ns": True}}, "jitter.awg_rms_ns: expected a finite "
         "number >= 0, got True"),
        ("ti_qm", {"spectral": {"gamma_natural_mhz": True}}, "spectral.gamma_natural_mhz: "
         "expected a positive finite number, got True"),
        ("afc_sweep", {"ion": {"coherence_time_tau_ms": float("nan")}},
         "ion.coherence_time_tau_ms: expected a number > 0, got nan"),
        ("afc_sweep", {"noise": {"pbs_extinction": float("nan")}},
         "noise.pbs_extinction: expected a number > 1, got nan"),
        ("ti_qm", {"ion": {"coherence_time_tau_ms": "1"}},
         "ion.coherence_time_tau_ms: expected a number > 0, got '1'"),
        ("bandwidth_sweep", {"spectral": {"qm_bandwidth_mhz": "x"}},
         "spectral.qm_bandwidth_mhz: expected a positive finite number, got 'x'"),
        # compares below infinity, but the rate chain cannot float() it
        ("budget", {"rates": {"r_exp1_hz": 10 ** 400}},
         "rates.r_exp1_hz: expected a positive finite number, got 1000"),
        # the same overflow under each other numeric rule an integer that
        # large used to pass, or crash in with a traceback
        ("budget", {"master_seed": 10 ** 400}, "master_seed: expected an integer >= 0, got 1000"),
        ("budget", {"ion": {"coherence_time_tau_ms": 10 ** 400}},
         "ion.coherence_time_tau_ms: expected a number > 0, got 1000"),
        ("ti_qm", {"scenarios": {"ti_qm": {"snr": 10 ** 400}}},
         "scenarios.ti_qm.snr: expected a number > 0, got 1000"),
        ("afc_sweep", {"comb": {"finesse": 10 ** 400}},
         "comb.finesse: expected a finite number or null, got 1000"),
        ("bandwidth_sweep", {"scenarios": {"bandwidth_sweep": {"df_start_mhz": -10 ** 400}}},
         "scenarios.bandwidth_sweep.df_start_mhz: expected a finite number, got -1000"),
        # a rate-chain stage efficiency takes the stage rule at load, not
        # only when the budget scenario builds its chains
        ("ti_qm", {"rates": {"p_pi": 1.5}}, "rates.p_pi: expected a number in (0, 1], got 1.5"),
        ("ion_photon", {"rates": {"eta_conv_v": 0}},
         "rates.eta_conv_v: expected a number in (0, 1], got 0"),
        # a splitting this large overflows the ion's angular frequency
        ("afc_sweep", {"ion": {"zeeman_frequency_mhz": 1e303}},
         "ion.zeeman_frequency_mhz: zeeman_omega: expected a finite number >= 0, got inf"),
    ])
    def test_bad_value_exit_two(self, scenario, config, field, tmp_path, capsys):
        _assert_exit_two(tmp_path, capsys, scenario, config, field)

    def test_smallest_normal_storage_efficiency_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"storage": {"eta_internal_h": 0.0, "eta_internal_v": sys.float_info.min}}))
        assert cli.main(["--config", str(cfg_path), "--scenario", "chsh",
                         "--out", str(tmp_path / "out")]) == 0
        assert "chsh_analytic" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario, config, field", [
        ("bandwidth_sweep", {"scenarios": {"bandwidth_sweep": {"points": 0}}},
         "scenarios.bandwidth_sweep.points"),
        ("afc_sweep", {"scenarios": {"afc_sweep": {"points": 0}}},
         "scenarios.afc_sweep.points"),
        ("bandwidth_sweep", {"scenarios": {"bandwidth_sweep": {"points": 1.5}}},
         "scenarios.bandwidth_sweep.points"),
        ("bandwidth_sweep", {"scenarios": {"bandwidth_sweep": {"df_start_mhz": float("nan")}}},
         "scenarios.bandwidth_sweep.df_start_mhz"),
        ("bandwidth_sweep", {"scenarios": {"bandwidth_sweep": {"df_start_mhz": 60.0}}},
         "scenarios.bandwidth_sweep.df_start_mhz"),
        ("bandwidth_sweep", {"spectral": {"qm_bandwidth_mhz": float("nan")}},
         "qm_bandwidth_mhz"),
        ("afc_sweep", {"scenarios": {"afc_sweep": {"t_start_ns": -100.0}}},
         "scenarios.afc_sweep.t_start_ns"),
        ("budget", {"rates": {"r_exp1_hz": float("inf")}}, "rates.r_exp1_hz"),
    ])
    def test_bad_memory_design_input_exit_two(self, scenario, config, field, tmp_path,
                                              capsys):
        _assert_exit_two(tmp_path, capsys, scenario, config, field)

    def test_sweep_whose_width_overflows_exit_two(self, tmp_path, capsys):
        # np.linspace would overflow its step and warn before a model field failed
        config = {"scenarios": {"bandwidth_sweep": {"df_start_mhz": -1.7e308,
                                                    "df_stop_mhz": 1.7e308}}}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg_path), "--scenario", "bandwidth_sweep",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration:\n  scenarios.bandwidth_sweep.df_start_mhz, "
            "scenarios.bandwidth_sweep.df_stop_mhz: the width 1.7e+308 - -1.7e+308 overflows; "
            "expected a finite range\n")
        assert not (tmp_path / "out").exists()

    def test_afc_sweep_far_points_read_the_models_limit(self, tmp_path, capsys):
        # t^2 overflows a float from about 1.3e163 ns; the efficiency there is 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenarios": {"afc_sweep": {"t_stop_ns": 1e170}}}))
        assert cli.main(["--config", str(cfg_path), "--scenario", "afc_sweep", "--seed", "1",
                         "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "o" / "afc_sweep_seed1_sweep.csv").read_text().splitlines()[1:]
        far = [line.split(",") for line in rows if float(line.split(",")[0]) > 1.3e163]
        assert len(far) == 45 and all(eff == "0" for _, eff in far)

    @pytest.mark.parametrize("d", [1.5e155, 1e160])
    def test_afc_efficiency_of_an_overflowing_depth_is_zero(self, d):
        # (d/F)^2 overflows to inf against exp() = 0, or raises
        comb = replace(ExperimentConfig.defaults("afc_sweep").comb, d=d)
        assert memory.afc_efficiency(comb, 1000.0) == 0.0

    def test_nonconvergence_exit_three(self, monkeypatch, capsys):
        def explode(cfg):
            raise NonConvergenceError("stuck", 0.5)
        monkeypatch.setattr(cli, "run", explode)
        assert cli.main(["--scenario", "budget"]) == 3
        assert "stuck" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (ValueError("no such state"), 2),
        (StateError("trace 1.5 deviates from 1"), 2),
        (NonConvergenceError("stuck", 0.5), 3),
    ])
    def test_run_errors_exit_without_traceback(self, exc, code, monkeypatch, capsys):
        def explode(cfg):
            raise exc
        monkeypatch.setattr(cli, "run", explode)
        assert cli.main(["--scenario", "budget"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(exc) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, seed, out, shots", itertools.product(
        (None, "ti_qm", "chsh", "budget"), (None, 0, 11), (None, "elsewhere"), (None, 120)))
    def test_load_config_builds_what_defaults_and_overrides_build(self, scenario, seed,
                                                                  out, shots):
        argv = [flag for name, value in (("--scenario", scenario), ("--seed", seed),
                                         ("--out", out), ("--shots", shots))
                if value is not None for flag in (name, str(value))]
        overrides = {k: v for k, v in (("scenario", scenario), ("master_seed", seed),
                                       ("output_dir", out)) if v is not None}
        expected = ExperimentConfig.defaults(scenario or "ti_qm")
        if overrides:
            expected = expected.with_overrides(**overrides)
        args = cli.build_parser().parse_args(argv)
        if shots is not None and scenario == "budget":
            with pytest.raises(ConfigError, match="--shots: budget has no shot budget"):
                cli.load_config(args)
            return
        if shots is not None:
            key = BUDGET_KEYS[expected.scenario]
            expected = expected.with_overrides(scenarios={expected.scenario: {key: shots}})
        cfg = cli.load_config(args)
        assert cfg.raw == expected.raw
        assert cfg == expected

    def test_repeated_calls_keep_their_own_flags(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert cli.main(["--scenario", "budget", "--seed", "3", "--out", str(a)]) == 0
        assert cli.main(["--scenario", "afc_sweep", "--seed", "4", "--format", "csv",
                         "--out", str(b)]) == 0
        assert cli.main(["--scenario", "budget", "--out", str(c)]) == 0
        assert {f.name for f in a.iterdir()} == {
            "budget_seed3_summary.json", "budget_seed3_error_budget.csv",
            "budget_seed3_stages.csv", "budget_seed3_rates.csv"}
        assert {f.name for f in b.iterdir()} == {
            "afc_sweep_seed4_summary.json", "afc_sweep_seed4_sweep.csv",
            "afc_sweep_seed4_summary.csv"}
        assert {f.name for f in c.iterdir()} == {
            f.name.replace("seed3", "seed20260810") for f in a.iterdir()}
        for f in a.iterdir():
            other = c / f.name.replace("seed3", "seed20260810")
            assert other.read_bytes() == f.read_bytes().replace(b'"seed": 3',
                                                                b'"seed": 20260810')

    def test_unwritable_output_exit_two(self, capsys):
        code = cli.main(["--scenario", "budget", "--out", "/proc/definitely/not/writable"])
        assert code == 2


def _assert_exit_two(tmp_path, capsys, scenario, config, field):
    """Running ``scenario`` on ``config`` exits 2, names ``field`` and writes nothing."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))  # NaN and Infinity literals, as json reads
    assert cli.main(["--config", str(cfg_path), "--scenario", scenario,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert field in err
    assert not (tmp_path / "out").exists()


def test_import_leaves_scipy_optimize_unloaded():
    # only the SPAM calibrations need scipy.optimize, and they import it themselves
    src = str(Path(hqlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hqlink, hqlink.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this hqlink."""
    src = str(Path(hqlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_scenarios_run_without_scipy(tmp_path):
    code = """\
import sys, hqlink, hqlink.cli
for scenario in ("budget", "chsh", "afc_sweep", "bandwidth_sweep", "ti_qm"):
    assert hqlink.cli.main(["--scenario", scenario, "--out", sys.argv[1]]) == 0, scenario
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = _fresh_python(code, str(tmp_path))
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "ti_qm_seed20260810_summary.json").exists()


def test_package_source_imports_no_scipy():
    src = Path(hqlink.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(hqlink.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("hqlink is not run from its source tree")
    project = tomllib.loads(pyproject.read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_every_scenario_runs_with_scipy_imports_blocked(tmp_path):
    code = """\
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import hqlink.cli
from hqlink.config import SCENARIOS

for scenario in SCENARIOS:
    assert hqlink.cli.main(["--scenario", scenario, "--out", sys.argv[1]]) == 0, scenario
print(len(SCENARIOS))
"""
    assert _fresh_python(code, str(tmp_path)).split()[-1] == "7"
    assert (tmp_path / "bandwidth_sweep_seed20260810_summary.json").exists()
