"""Scenario parsing, pipeline exit codes, artifact determinism."""

import json
import math

import numpy as np
import pytest

import kflow as kf
from kflow import cli, plots
from kflow.errors import ConfigurationError, DomainError

MINIMAL_MASS = {
    "name": "t-mass",
    "space": {"n": 3, "kappa": 0, "m": 0.5, "theta": 4 * math.pi},
    "mass": {"kind": "kottler_pair", "m_graph": 1.0, "expect_mass": 1.0},
    "checks": ["mass_value", "penrose_equality"],
}

SMALL_FLOW = {
    "name": "t-flow",
    "space": {"n": 3, "kappa": 0, "m": 0.5, "theta": (2 * math.pi) ** 2},
    "grid": {"mode": "torus2d", "resolution": 32},
    "surface": {"slice_lambda": 2.0},
    "flow": {"t_end": 1.0, "dt_max": 0.01},
    "checks": ["q1_monotone", "q1_constant", "area_law", "barrier"],
}


def write_config(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestParsing:
    def test_minimal_fills_defaults(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, MINIMAL_MASS))
        assert scn.seed == 0
        assert scn.warp["r_max"] == 25.0
        assert scn.grid is None

    def test_unknown_key_lists_path(self, tmp_path):
        bad = dict(MINIMAL_MASS, bogus=1)
        with pytest.raises(ConfigurationError) as err:
            cli.parse_scenario(write_config(tmp_path, bad))
        assert any("scenario.bogus" in p for p in err.value.problems)

    def test_nested_unknown_key(self, tmp_path):
        bad = json.loads(json.dumps(SMALL_FLOW))
        bad["flow"]["steps"] = 5
        with pytest.raises(ConfigurationError) as err:
            cli.parse_scenario(write_config(tmp_path, bad))
        assert any("scenario.flow.steps" in p for p in err.value.problems)

    def test_torus_needs_kappa_zero(self, tmp_path):
        bad = json.loads(json.dumps(SMALL_FLOW))
        bad["space"]["kappa"] = -1
        with pytest.raises(ConfigurationError) as err:
            cli.parse_scenario(write_config(tmp_path, bad))
        assert any("torus2d requires kappa=0" in p for p in err.value.problems)

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cli.parse_scenario(write_config(tmp_path, {"name": "x"}))

    def test_roundtrip_normalization(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, SMALL_FLOW))
        again = cli.scenario_from_dict(scn.to_dict())
        assert again.to_dict() == scn.to_dict()

    def test_unknown_check_rejected(self, tmp_path):
        bad = dict(MINIMAL_MASS, checks=["nope"])
        with pytest.raises(ConfigurationError):
            cli.parse_scenario(write_config(tmp_path, bad))

    @pytest.mark.parametrize("section, key, value, where", [
        ("slice_check", "lambdas", ["a"], "scenario.slice_check.lambdas[0]"),
        ("slice_check", "lambdas", [2.0, True], "scenario.slice_check.lambdas[1]"),
        ("slice_check", "lambdas", [math.inf], "scenario.slice_check.lambdas[0]"),
        ("slice_check", "lambdas", 2.0, "scenario.slice_check.lambdas"),
        ("mass", "rho_schedule", [50, None], "scenario.mass.rho_schedule[1]"),
        ("mass", "rho_schedule", [50, math.nan], "scenario.mass.rho_schedule[1]"),
        (None, "seed", -1, "scenario.seed"),
        ("surface", "seed", -1, "scenario.surface.seed"),
        ("grid", "resolution", 0, "scenario.grid.resolution"),
        # A section that would pass without evaluating anything.
        ("slice_check", "lambdas", [], "scenario.slice_check.lambdas"),
        ("inequalities", "count", 0, "scenario.inequalities.count"),
        ("beckner", "count", 0, "scenario.beckner.count"),
        ("beckner", "count", -3, "scenario.beckner.count"),
        # Scalar reals must be finite; tolerances must be positive.
        ("mass", "tol", math.inf, "scenario.mass.tol"),
        ("mass", "expect_mass", math.nan, "scenario.mass.expect_mass"),
        ("space", "m", -math.inf, "scenario.space.m"),
        ("surface", "amplitude", math.nan, "scenario.surface.amplitude"),
        ("mass", "tol", 0.0, "scenario.mass.tol"),
        ("slice_check", "tol_rel", -1e-8, "scenario.slice_check.tol_rel"),
        ("inequalities", "tol_rel", 0, "scenario.inequalities.tol_rel"),
        ("beckner", "tol_rel", 0.0, "scenario.beckner.tol_rel"),
        ("warp", "tol", -1e-11, "scenario.warp.tol"),
    ])
    def test_bad_value_names_key(self, tmp_path, section, key, value, where):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg["slice_check"] = {"lambdas": [2.0]}
        cfg["surface"] = {"base_lambda": 2.0, "amplitude": 0.05}
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigurationError) as err:
            cli.parse_scenario(write_config(tmp_path, cfg))
        assert any(p.startswith(where + ":") for p in err.value.problems), err.value.problems


class TestRunScenario:
    def test_mass_scenario_pass(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, MINIMAL_MASS))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True)
        assert code == 0
        payload = json.loads((tmp_path / "out" / "t-mass" / "mass.json").read_text())
        assert payload["checks"]["mass_value"] is True
        assert abs(payload["mass"] - 1.0) < 1e-6

    def test_flow_scenario_pass_and_artifacts(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, SMALL_FLOW))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True)
        assert code == 0
        base = tmp_path / "out" / "t-flow"
        for name in ("trace.csv", "trace.json", "report.json", "scenario.normalized.json"):
            assert (base / name).exists()
        for name in ("q1.svg", "area_residual.svg", "hmax.svg"):
            assert (base / "plots" / name).exists()
        report = json.loads((base / "report.json").read_text())
        assert report["passed_enabled_checks"] is True
        # Q1 column constant for the slice scenario
        rows = np.loadtxt(base / "trace.csv", delimiter=",", skiprows=1)
        q1 = rows[:, 6]
        assert np.max(np.abs(q1 - q1[0])) <= 1e-9

    def test_monitor_failure_exit_2(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_MASS))
        bad["mass"]["expect_mass"] = 2.0  # impossible expectation
        scn = cli.parse_scenario(write_config(tmp_path, bad))
        assert cli.run_scenario(scn, str(tmp_path / "out"), quiet=True) == 2

    def test_breakdown_exit_2_with_report(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["flow"]["h_floor"] = 10.0  # unreachable floor trips immediately
        scn = cli.parse_scenario(write_config(tmp_path, cfg))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True)
        assert code == 2
        report = json.loads((tmp_path / "out" / "t-flow" / "report.json").read_text())
        assert report["passed"] is False
        assert report["breakdown"]

    def test_one_warp_table_per_scenario(self, tmp_path, monkeypatch):
        calls = []
        real = cli.build_warp_table

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_warp_table", counting)
        scn = cli.scenario_from_dict(dict(SMALL_FLOW, slice_check={"lambdas": [2.0]}))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True, dump_warp=True)
        assert code == 0
        assert len(calls) == 1
        base = tmp_path / "out" / "t-flow"
        for name in ("warp.csv", "trace.csv", "slice_check.json"):
            assert (base / name).exists()

    def test_determinism_byte_identical(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, SMALL_FLOW))
        cli.run_scenario(scn, str(tmp_path / "a"), quiet=True)
        cli.run_scenario(scn, str(tmp_path / "b"), quiet=True)
        for name in ("trace.csv", "report.json", "plots/q1.svg", "plots/hmax.svg"):
            a = (tmp_path / "a" / "t-flow" / name).read_bytes()
            b = (tmp_path / "b" / "t-flow" / name).read_bytes()
            assert a == b, name


class TestMain:
    def test_main_flow(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_FLOW)
        code = cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0

    def test_main_matches_run_scenario(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_FLOW)
        assert cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        scn = cli.parse_scenario(cfg)
        assert cli.run_scenario(scn, str(tmp_path / "b"), quiet=True, only="flow") == 0
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
        assert a_files == b_files
        for rel in a_files:
            if (tmp_path / "a" / rel).is_file():
                assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("flag, value", [("--resolution", "0"), ("--seed", "-1")])
    def test_main_bad_flag_is_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, SMALL_FLOW)
        code = cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                         flag, value])
        assert code == 1
        assert flag in capsys.readouterr().err

    def test_main_missing_section(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_MASS)
        code = cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1

    def test_main_bad_config_is_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["mass", "--config", str(path), "--quiet"])
        assert code == 1

    def test_main_non_finite_t_end_is_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["flow"]["t_end"] = math.nan  # json writes the NaN token, which json.load accepts
        code = cli.main(["flow", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "t_end" in capsys.readouterr().err

    def test_main_non_finite_warp_tol_is_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["warp"] = {"tol": math.nan}
        code = cli.main(["flow", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("slice-check", "slice_check", "lambdas", []),
        ("check-inequalities", "inequalities", "count", 0),
        ("beckner", "beckner", "count", 0),
        ("mass", "mass", "tol", math.inf),
        ("mass", "mass", "expect_mass", math.nan),
    ])
    def test_main_vacuous_or_non_finite_is_error(self, tmp_path, capsys, command, section,
                                                 key, value):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg.setdefault(section, {})[key] = value
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert f"scenario.{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_main_requires_config(self):
        assert cli.main(["mass", "--quiet"]) == 1

    def test_dump_warp(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_FLOW)
        code = cli.main([
            "flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "--dump-warp",
        ])
        assert code == 0
        assert (tmp_path / "o" / "t-flow" / "warp.csv").exists()

    def test_shipped_scenarios_parse(self):
        paths = cli.shipped_scenarios()
        assert len(paths) >= 6
        for path in paths:
            cli.parse_scenario(path)


class TestAllCommand:
    def test_all_runs_shipped_suite(self, tmp_path):
        code = cli.main(["all", "--out", str(tmp_path / "all"), "--quiet"])
        assert code == 0
        names = {p.name for p in (tmp_path / "all").iterdir()}
        assert {"kottler-mass", "perturbed-flow", "slice-equality"} <= names

    def test_all_isolates_a_failing_scenario(self, tmp_path, monkeypatch, capsys):
        bad = json.loads(json.dumps(SMALL_FLOW))
        bad["name"] = "t-bad"
        bad["flow"]["t_end"] = -1.0  # parses, then FlowConfig rejects it at run time
        broken = tmp_path / "c-broken.json"
        broken.write_text("{not json")
        paths = [write_config(tmp_path, bad, "a-bad.json"),
                 write_config(tmp_path, MINIMAL_MASS, "b-good.json"), str(broken)]
        monkeypatch.setattr(cli, "shipped_scenarios", lambda: paths)
        code = cli.main(["all", "--out", str(tmp_path / "all")])
        assert code == 1
        assert (tmp_path / "all" / "t-mass" / "mass.json").exists()
        out, err = capsys.readouterr()
        assert "error:" in err and "t_end" in err
        assert "t-bad: FAIL" in out
        assert "t-mass: pass" in out
        assert "c-broken: FAIL" in out


    def test_all_dump_warp(self, tmp_path, monkeypatch):
        slices = dict(SMALL_FLOW, name="t-slices", slice_check={"lambdas": [2.0]})
        del slices["flow"]
        paths = [write_config(tmp_path, MINIMAL_MASS, "a.json"),
                 write_config(tmp_path, slices, "b.json")]
        monkeypatch.setattr(cli, "shipped_scenarios", lambda: paths)
        assert cli.main(["all", "--out", str(tmp_path / "plain"), "--quiet"]) == 0
        assert cli.main(["all", "--out", str(tmp_path / "dump"), "--quiet", "--dump-warp"]) == 0
        for name in ("t-mass", "t-slices"):
            assert not (tmp_path / "plain" / name / "warp.csv").exists()
            assert (tmp_path / "dump" / name / "warp.csv").exists()
            plain = sorted(p.name for p in (tmp_path / "plain" / name).iterdir())
            dump = sorted(p.name for p in (tmp_path / "dump" / name).iterdir())
            assert dump == sorted(plain + ["warp.csv"])


class TestPlots:
    def test_empty_trace_rejected(self, params_flat, tmp_path):
        trace = kf.FlowTrace(params=params_flat, config=kf.FlowConfig(t_end=1.0))
        with pytest.raises(DomainError):
            plots.emit_plots(trace, str(tmp_path))

    def test_svg_deterministic(self):
        a = plots.svg_line_plot([0, 1, 2], [3.0, 2.0, 5.0], "t", "x", "y")
        b = plots.svg_line_plot([0, 1, 2], [3.0, 2.0, 5.0], "t", "x", "y")
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")

    def test_flat_series_handled(self):
        out = plots.svg_line_plot([0, 1], [1.0, 1.0], "t", "x", "y")
        assert "polyline" in out
