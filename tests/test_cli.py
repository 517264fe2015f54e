"""Scenario parsing, pipeline exit codes, artifact determinism."""

import copy
import errno
import functools
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kflow as kf
from kflow import cli, plots
from kflow.basegrid import ScalarField, beckner_report, low_frequency_field
from kflow.checks import CHECKS
from kflow.errors import ConfigurationError, DomainError, KFlowError

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


SPHERE16 = {"mode": "sphere_axisym", "resolution": 16}

# The artifact each command writes its checks to.
ARTIFACTS = {"flow": "report.json", "mass": "mass.json", "slice-check": "slice_check.json",
             "check-inequalities": "inequalities.json", "beckner": "beckner.json"}

# Runs that leave one enabled check unevaluated: (command, changes to
# SMALL_FLOW, check, part of the reason).
UNEVALUATED = [
    pytest.param("flow", {"flow": {"t_end": 0.5}, "checks": ["p_balance", "area_law"]},
                 "p_balance", "at least 5 samples", id="p_balance-few-samples"),
    pytest.param("flow", {"flow": {"t_end": 1.1, "record_interval": 0.25},
                          "checks": ["p_balance", "area_law"]},
                 "p_balance", "uniformly spaced", id="p_balance-uneven-samples"),
    # On a slice sup |grad phi| is rounding noise, so no decay rate is fitted.
    pytest.param("flow", {"checks": ["grad_decay", "area_law"]},
                 "grad_decay", "late samples", id="grad_decay-slice"),
    # Started at lambda = 2, J - K stays positive: no record pair has J <= K.
    pytest.param("flow", {"seed": 7, "surface": {"base_lambda": 2.0, "amplitude": 0.05},
                          "checks": ["q2_monotone", "area_law"]},
                 "q2_monotone", "J <= K", id="q2_monotone-outside-regime"),
    pytest.param("beckner", {"grid": {"mode": "torus2d", "resolution": 16},
                             "beckner": {"count": 3}, "checks": ["beckner_nonneg"]},
                 "beckner_nonneg", "sphere_axisym and symmetric", id="beckner_nonneg-torus"),
    # Over its own base mass a Kottler graph has no horizon-type inner boundary.
    pytest.param("mass", {"mass": {"m_graph": 0.5, "expect_mass": 0.5},
                          "checks": ["mass_identity", "mass_value"]},
                 "mass_identity", "horizon", id="mass_identity-no-horizon"),
]

SHIPPED = [json.loads(pathlib.Path(path).read_text()) for path in cli.shipped_scenarios()]
ENERGY_PROFILE = next(cfg for cfg in SHIPPED if cfg["name"] == "energy-profile-mass")
PERTURBED_FLOW = next(cfg for cfg in SHIPPED if cfg["name"] == "perturbed-flow")
SYMMETRIC_SLICE = next(cfg for cfg in SHIPPED if cfg["name"] == "symmetric-slice")
# The src/ directory that holds the kflow package under test.
SRC_ROOT = pathlib.Path(cli.__file__).resolve().parents[1]

# Replacement values for one mutated scenario key or list element.
MUTANTS = (math.nan, math.inf, -math.inf, True, "x", None, [], {}, -1, 0)


def write_config(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def assert_breakdown_artifacts(base, reason):
    """A flow breakdown writes the traces and a report.json of the breakdown
    and the verdict alone: no checks are judged and no plots are made."""
    report = json.loads((base / "report.json").read_text())
    assert sorted(report) == ["breakdown", "passed"]
    assert report["passed"] is False
    assert sorted(report["breakdown"]) == ["reason", "t"]
    assert report["breakdown"]["reason"].startswith(reason)
    assert (base / "trace.csv").exists() and (base / "trace.json").exists()
    assert not (base / "plots").exists()


def _locations(obj, path=()):
    """Paths to every dict key and list element inside ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one key deleted or one value replaced."""
    cfg = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    path = draw(st.sampled_from(list(_locations(cfg))))
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
    return cfg


class TestParsing:
    def test_minimal_fills_defaults(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, MINIMAL_MASS))
        assert scn.seed == 0
        assert scn.mass == {"kind": "kottler_pair", "m_graph": 1.0, "rate": 1.0,
                            "expect_mass": 1.0}
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

    def test_normalized_record_fills_defaults(self, tmp_path):
        # The record is the scenario as run: an empty beckner section and a
        # kottler_pair mass section are written with every default filled in.
        cfg = {"name": "t-record", "space": {"n": 3, "kappa": 1, "m": 0.5, "theta": 4 * math.pi},
               "grid": SPHERE16, "beckner": {}, "mass": {"m_graph": 1.0}}
        code = cli.main(["beckner", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path), "--quiet"])
        assert code == 0
        record = json.loads((tmp_path / "t-record" / "scenario.normalized.json").read_text())
        assert record["beckner"] == {"count": 100, "amplitude": 0.2}
        assert record["mass"] == {"kind": "kottler_pair", "m_graph": 1.0, "rate": 1.0}

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
        # Removed: the mass sample radii are fixed (mass.RHO_SCHEDULE).
        pytest.param("mass", "rho_schedule", [50, None], "scenario.mass.rho_schedule",
                     id="mass-rho_schedule-value4-scenario.mass.rho_schedule[1]"),
        pytest.param("mass", "rho_schedule", [50, math.nan], "scenario.mass.rho_schedule",
                     id="mass-rho_schedule-value5-scenario.mass.rho_schedule[1]"),
        (None, "seed", -1, "scenario.seed"),
        # Removed: the surface takes the scenario seed.
        ("surface", "seed", -1, "scenario.surface.seed"),
        ("grid", "resolution", 0, "scenario.grid.resolution"),
        # A section that would pass without evaluating anything.
        ("slice_check", "lambdas", [], "scenario.slice_check.lambdas"),
        ("inequalities", "count", 0, "scenario.inequalities.count"),
        ("beckner", "count", 0, "scenario.beckner.count"),
        ("beckner", "count", -3, "scenario.beckner.count"),
        # Scalar reals must be finite.
        ("mass", "expect_mass", math.nan, "scenario.mass.expect_mass"),
        ("space", "m", -math.inf, "scenario.space.m"),
        ("surface", "amplitude", math.nan, "scenario.surface.amplitude"),
        # Removed keys are unknown, whatever their value: the gate tolerances
        # are fixed in CHECKS, and the warp table, whose tolerance, range and
        # node count are fixed, has no section.
        ("mass", "tol", math.inf, "scenario.mass.tol"),
        ("mass", "tol", 0.0, "scenario.mass.tol"),
        ("slice_check", "tol_rel", -1e-8, "scenario.slice_check.tol_rel"),
        ("inequalities", "tol_rel", 0, "scenario.inequalities.tol_rel"),
        ("beckner", "tol_rel", 0.0, "scenario.beckner.tol_rel"),
        pytest.param("warp", "tol", -1e-11, "scenario.warp",
                     id="warp-tol--1e-11-scenario.warp.tol"),
        pytest.param("warp", "tol", 1e-20, "scenario.warp", id="warp-tol-1e-20-scenario.warp.tol"),
        # Values the libraries reject fail at parse time, under their section.
        ("flow", "dt_max", -1, "scenario.flow"),
        # Removed: the step bound's safety factor is fixed (flow.CFL_SAFETY).
        pytest.param("flow", "cfl_safety", 2, "scenario.flow.cfl_safety",
                     id="flow-cfl_safety-2-scenario.flow"),
        ("grid", "mode", "cube", "scenario.grid.mode"),
        ("mass", "kind", "nope", "scenario.mass.kind"),
        ("space", "n", 2, "scenario.space"),
        # A check needs the section that evaluates it; any JSON value is a check.
        (None, "checks", ["beckner_nonneg"], "scenario.checks"),
        (None, "checks", ["inequality_ensemble"], "scenario.checks"),
        (None, "checks", [["x"]], "scenario.checks"),
        (None, "checks", [{}], "scenario.checks"),
        # Warp factors and mass radii must lie beyond the horizon rho0 = 1.
        ("surface", "slice_lambda", 1.0, "scenario.surface.slice_lambda"),
        ("surface", "base_lambda", 0.5, "scenario.surface.base_lambda"),
        ("inequalities", "base_lambda", -2.0, "scenario.inequalities.base_lambda"),
        ("slice_check", "lambdas", [2.0, 0.999], "scenario.slice_check.lambdas[1]"),
        # Removed: a radius schedule of any value is an unknown key.
        pytest.param("mass", "rho_schedule", [0.5, 100, 200], "scenario.mass.rho_schedule",
                     id="mass-rho_schedule-value36-scenario.mass.rho_schedule[0]"),
        ("mass", "rho_schedule", [50, 50, 200], "scenario.mass.rho_schedule"),
        ("mass", "rho_schedule", [100, 50, 200], "scenario.mass.rho_schedule"),
        ("mass", "rho_schedule", [50, 100], "scenario.mass.rho_schedule"),
        # Amplitudes may not be negative; a torus2d or sphere_axisym grid needs
        # the 8 nodes make_grid asks for.
        ("surface", "amplitude", -0.05, "scenario.surface.amplitude"),
        ("inequalities", "amplitude", -0.1, "scenario.inequalities.amplitude"),
        ("beckner", "amplitude", -0.2, "scenario.beckner.amplitude"),
        ("grid", "resolution", 4, "scenario.grid.resolution"),
        # Removed: the warp table's node count is fixed.
        pytest.param("warp", "target_nodes", 3, "scenario.warp",
                     id="warp-target_nodes-3-scenario.warp.target_nodes"),
        # A name is a directory under --out, so "." and ".." would write outside it.
        (None, "name", "..", "scenario.name"),
        (None, "name", ".", "scenario.name"),
        # A directory name has at most 255 bytes, and a lone surrogate has no
        # UTF-8 bytes at all.
        pytest.param(None, "name", "\u00e9" * 128, "scenario.name", id="name-256-bytes"),
        pytest.param(None, "name", "\ud800", "scenario.name", id="name-lone-surrogate"),
    ])
    def test_bad_value_names_key(self, tmp_path, section, key, value, where):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg["slice_check"] = {"lambdas": [2.0]}
        cfg["surface"] = {"base_lambda": 2.0, "amplitude": 0.05}
        if key == "slice_lambda":
            cfg["surface"] = {}
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigurationError) as err:
            cli.parse_scenario(write_config(tmp_path, cfg))
        assert any(p.startswith(where + ":") for p in err.value.problems), err.value.problems
        known = cli._TABLE if section is None else getattr(cli._TABLE.get(section), "type", {})
        if key not in known:
            assert f"{where}: unknown key" in err.value.problems

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(cfg=mutated_scenarios())
    @example(cfg=dict(ENERGY_PROFILE, mass=dict(ENERGY_PROFILE["mass"], rate=0)))
    def test_mutated_shipped_scenario(self, cfg):
        """A mutated shipped scenario parses or raises ConfigurationError, and a
        parsed mass-only one runs to an exit code or raises a KFlowError."""
        try:
            scn = cli.scenario_from_dict(cfg)
        except ConfigurationError:
            return
        if scn.mass is None or any(getattr(scn, section) is not None
                                   for section in ("flow", "slice_check", "inequalities",
                                                   "beckner")):
            return
        with tempfile.TemporaryDirectory() as out:
            try:
                assert cli.run_scenario(scn, out, quiet=True) in (0, 2)
            except KFlowError:
                pass


class TestRunScenario:
    def test_mass_scenario_pass(self, tmp_path):
        scn = cli.parse_scenario(write_config(tmp_path, MINIMAL_MASS))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True)
        assert code == 0
        payload = json.loads((tmp_path / "out" / "t-mass" / "mass.json").read_text())
        assert payload["checks"]["mass_value"]["ok"] is True
        assert payload["checks"]["mass_value"]["evaluated"] is True
        assert payload["passed"] is True
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
        assert report["passed"] is True
        enabled = {name for name, v in report["checks"].items() if v["enabled"]}
        assert enabled == set(SMALL_FLOW["checks"])
        # Q1 column constant for the slice scenario
        rows = np.loadtxt(base / "trace.csv", delimiter=",", skiprows=1)
        q1 = rows[:, 6]
        assert np.max(np.abs(q1 - q1[0])) <= 1e-9

    def test_monitor_failure_exit_2(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL_MASS))
        bad["mass"]["expect_mass"] = 2.0  # impossible expectation
        scn = cli.parse_scenario(write_config(tmp_path, bad))
        assert cli.run_scenario(scn, str(tmp_path / "out"), quiet=True) == 2

    def test_breakdown_exit_2_with_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kf.flow, "H_FLOOR", 5.0)  # a floor of 10 trips immediately
        scn = cli.parse_scenario(write_config(tmp_path, SMALL_FLOW))
        code = cli.run_scenario(scn, str(tmp_path / "out"), quiet=True)
        assert code == 2
        assert_breakdown_artifacts(tmp_path / "out" / "t-flow", "H_min=")

    def test_rejection_cascade_exit_2_with_report(self, tmp_path, capsys):
        # A slice at the top of the table leaves it on every step.
        cfg = copy.deepcopy(SMALL_FLOW)
        cfg["grid"]["resolution"] = 16
        top = kf.build_warp_table(kf.SpaceParams(**cfg["space"])).lam_nodes[-1]
        cfg["surface"]["slice_lambda"] = float(top)
        out = tmp_path / "out"
        code = cli.main(["flow", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert "flow breakdown" in capsys.readouterr().out
        assert_breakdown_artifacts(out / "t-flow", "step rejection cascade")

    @pytest.mark.parametrize("command", ["check-inequalities", "beckner"])
    def test_worst_relative_is_row_minimum(self, tmp_path, command):
        # Every deficit of these runs is positive, so the worst relative
        # deficit is too; it used to be clipped at 0.
        cfg = {"name": "t-worst", "seed": 3, "space": SMALL_FLOW["space"],
               "grid": {"mode": "torus2d", "resolution": 32}, "inequalities": {"count": 3}}
        if command == "beckner":
            cfg = {"name": "t-worst", "seed": 3,
                   "space": {"n": 3, "kappa": 1, "m": 0.5, "theta": 4 * math.pi},
                   "grid": {"mode": "sphere_axisym", "resolution": 32}, "beckner": {"count": 3}}
        scn = cli.scenario_from_dict(cfg)
        assert cli.run_scenario(scn, str(tmp_path), quiet=True) == 0
        payload = json.loads((tmp_path / "t-worst" / ARTIFACTS[command]).read_text())
        if command == "beckner":
            grid = kf.make_grid("sphere_axisym", 32, n=3)
            reps = [beckner_report(ScalarField(1.0 + low_frequency_field(grid, 3 + k, 0.2),
                                               grid), 3) for k in range(3)]
            assert payload["deficits"] == [rep["sharp"] for rep in reps]
            relative = [rep["sharp"] / rep["scale"] for rep in reps]
        else:
            relative = [row[key] / row["scale"] for row in payload["ensemble"]
                        for key in ("minkowski", "weighted_volume", "heintze_karcher")]
        assert min(relative) > 0.0
        assert payload["worst_relative"] == min(relative)

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

    @pytest.mark.parametrize("name", ["kottler-mass", "energy-profile-mass"])
    def test_mass_determinism_byte_identical(self, tmp_path, name):
        path = next(p for p in cli.shipped_scenarios() if pathlib.Path(p).stem == name)
        scn = cli.parse_scenario(path)
        for out in ("a", "b"):
            assert cli.run_scenario(scn, str(tmp_path / out), quiet=True) == 0
        a = (tmp_path / "a" / name / "mass.json").read_bytes()
        b = (tmp_path / "b" / name / "mass.json").read_bytes()
        assert a == b


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

    @pytest.mark.parametrize("flag, value", [("--resolution", "0"), ("--resolution", "4"),
                                             ("--seed", "-1")])
    def test_main_bad_flag_is_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, SMALL_FLOW)
        code = cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                         flag, value])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_reaches_surface_and_record(self, tmp_path):
        # The initial surface takes the one scenario seed, which --seed
        # overrides; the normalized record is the scenario as run.
        cfg = copy.deepcopy(PERTURBED_FLOW)
        cfg["flow"]["t_end"] = 0.1
        cfg["checks"] = ["area_law"]
        path = write_config(tmp_path, cfg)
        runs = {"default": [], "7": ["--seed", "7"], "8": ["--seed", "8"],
                "coarse": ["--resolution", "32"]}
        trace, record = {}, {}
        for run, flags in runs.items():
            code = cli.main(["flow", "--config", path, "--out", str(tmp_path / run), "--quiet",
                             *flags])
            assert code == 0
            base = tmp_path / run / "perturbed-flow"
            trace[run] = (base / "trace.csv").read_bytes()
            record[run] = json.loads((base / "scenario.normalized.json").read_text())
        assert trace["7"] == trace["default"] != trace["8"]
        assert record["7"] == record["default"] == json.loads(
            json.dumps(cli.parse_scenario(path).to_dict()))
        assert record["8"] == dict(record["default"], seed=8)
        assert record["coarse"] == dict(record["default"],
                                        grid={"mode": "torus2d", "resolution": 32})

    def test_output_name_too_long_is_error(self, tmp_path, capsys):
        # Each component of the output path is at most 255 bytes.
        out = tmp_path / ("d" * 300)
        code = cli.main(["mass", "--config", write_config(tmp_path, MINIMAL_MASS),
                         "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [t-mass] ")
        assert f"[Errno {errno.ENAMETOOLONG}]" in err

    @pytest.mark.parametrize("resolution", [2, 64])
    def test_symmetric_grid_resolution_other_than_one_is_error(self, tmp_path, capsys,
                                                               resolution):
        # The symmetric mode has one node, whatever the resolution asks for.
        cfg = copy.deepcopy(SYMMETRIC_SLICE)
        cfg["grid"]["resolution"] = resolution
        code = cli.main(["flow", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "scenario.grid.resolution" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["2", "64"])
    def test_symmetric_resolution_flag_other_than_one_is_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SYMMETRIC_SLICE)
        code = cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                         "--resolution", value])
        assert code == 1
        assert "--resolution" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_resolution_flag_without_grid_is_error(self, tmp_path, capsys):
        # A scenario without a grid section has no resolution to override.
        path = next(p for p in cli.shipped_scenarios() if pathlib.Path(p).stem == "kottler-mass")
        code = cli.main(["mass", "--config", path, "--out", str(tmp_path / "o"), "--quiet",
                         "--resolution", "5"])
        assert code == 1
        assert ("error: [kottler-mass] --resolution: the scenario has no grid"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["kottler-mass", "energy-profile-mass"])
    def test_mass_run_forms_mass_limit_once(self, tmp_path, monkeypatch, name):
        # The identity reads the estimate the mass section already holds, and
        # mass.json holds the identity formed with its own mass_limit call.
        path = next(p for p in cli.shipped_scenarios() if pathlib.Path(p).stem == name)
        calls = []
        real = kf.mass.mass_limit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kf.mass, "mass_limit", counting)
        monkeypatch.setattr(cli, "mass_limit", counting)
        code = cli.main(["mass", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        scn = cli.parse_scenario(path)
        own = kf.mass_identity_check(scn.graph)
        payload = json.loads((tmp_path / name / "mass.json").read_text())
        assert payload["identity"] == own.as_dict()
        assert payload["identity_residual"] == own.residual

    @pytest.mark.parametrize("name", ["kottler-mass", "kottler-mass-hyperbolic",
                                      "energy-profile-mass"])
    def test_mass_run_builds_graph_once(self, tmp_path, monkeypatch, name):
        # The parse builds the radial graph for its checks; the run reads that one.
        path = next(p for p in cli.shipped_scenarios() if pathlib.Path(p).stem == name)
        built = []

        def counted(real):
            def build(*args, **kwargs):
                built.append(real.__name__)
                return real(*args, **kwargs)
            return build

        for family in ("kottler_pair_graph", "mass_profile_graph"):
            monkeypatch.setattr(cli, family, counted(getattr(cli, family)))
        code = cli.main(["mass", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert len(built) == 1, built

    @pytest.mark.parametrize("args, named", [
        (["flow", "--seed", "abc"], "--seed"),
        (["flow", "--resolution", "1.5"], "--resolution"),
        (["flow", "--bogus"], "--bogus"),
        (["bogus"], "bogus"),
    ])
    def test_malformed_command_line_exits_1(self, tmp_path, capsys, args, named):
        # A malformed command line is a configuration error, exit 1, not a
        # failed check, exit 2; it names what is wrong and writes nothing.
        cfg = write_config(tmp_path, SMALL_FLOW)
        code = cli.main([*args, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "o").exists()

    def test_python_m_kflow_help(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC_ROOT), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-m", "kflow", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: kflow")

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
        # The warp table is fixed, so a warp section of any content is unknown.
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["warp"] = {"tol": math.nan}
        code = cli.main(["flow", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "scenario.warp: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("slice-check", "slice_check", "lambdas", []),
        ("check-inequalities", "inequalities", "count", 0),
        ("beckner", "beckner", "count", 0),
        ("mass", "mass", "tol", math.inf),
        ("mass", "mass", "expect_mass", math.nan),
        # Out of range: these used to fail, or pass, only at run time.
        ("flow", "surface", "amplitude", -0.05),
        ("check-inequalities", "inequalities", "amplitude", -0.1),
        ("beckner", "beckner", "amplitude", -0.2),
        ("flow", "grid", "resolution", 4),
        # Removed keys: a gate tolerance that would pass any run, a second
        # seed and a second integrator.
        ("slice-check", "slice_check", "tol_rel", 1e300),
        ("check-inequalities", "inequalities", "tol_rel", 1e300),
        ("beckner", "beckner", "tol_rel", 1e300),
        ("flow", "surface", "seed", 7),
        ("flow", "flow", "integrator", "rk2_adaptive"),
    ])
    def test_main_vacuous_or_non_finite_is_error(self, tmp_path, capsys, command, section,
                                                 key, value):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg.setdefault(section, {})[key] = value
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"scenario.{section}.{key}" in err
        if key not in cli._TABLE[section].type:
            assert f"scenario.{section}.{key}: unknown key" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, key", [
        ("mass", "mass", "expect_mass"),
        ("mass", "mass", "m_graph"),
        ("mass", "mass", "m_horizon"),
        ("mass", "mass", "m_total"),
        ("flow", "flow", "t_end"),
        ("mass", "space", "theta"),
        ("mass", "space", "n"),
        ("mass", "space", "kappa"),
        ("mass", "space", "m"),
    ])
    def test_main_missing_key_is_error(self, tmp_path, capsys, command, section, key):
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg["checks"].append("mass_value")
        if key in ("m_horizon", "m_total"):
            cfg["mass"].update(kind="mass_profile", m_horizon=0.75, m_total=1.0)
        del cfg[section][key]
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert f"scenario.{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, changes, where", [
        # A sphere_axisym grid's weights sum to |S^(n-1)|: 4 pi at n = 3, 2 pi^2 at n = 4.
        ("flow", {"space": {"n": 3, "kappa": 1, "m": 1.0, "theta": 10.0}, "grid": SPHERE16},
         "scenario.space.theta"),
        ("flow", {"space": {"n": 4, "kappa": 1, "m": 1.0, "theta": 4.0 * math.pi},
                  "grid": SPHERE16}, "scenario.space.theta"),
        # The warp table's tolerance, range and node count are fixed, so a
        # warp section is unknown, whatever it holds.
        pytest.param("flow", {"warp": {"tol": 1e-20}}, "scenario.warp",
                     id="flow-changes2-scenario.warp.tol"),
        pytest.param("mass", {"warp": {"target_nodes": 3}}, "scenario.warp",
                     id="mass-changes3-scenario.warp.target_nodes"),
        pytest.param("flow", {"warp": {"r_max": 1.0}}, "scenario.warp",
                     id="flow-changes4-scenario.surface.slice_lambda"),
        pytest.param("flow", {"warp": {"target_nodes": 1000}}, "scenario.warp",
                     id="flow-changes5-scenario.warp.target_nodes"),
    ])
    def test_main_unbuildable_grid_or_table_is_error(self, tmp_path, capsys, command, changes,
                                                    where):
        # Each fails at parse, before any output exists: a sphere flow would
        # run with quadrature weights of the wrong total area.
        cfg = dict(SMALL_FLOW, mass=dict(MINIMAL_MASS["mass"]), checks=[], **changes)
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{where}: " in err
        assert "scenario.warp: unknown key" in err or "warp" not in changes
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ARTIFACTS)
    def test_main_torus_needs_n_3(self, tmp_path, capsys, command):
        # A torus grid is the 2-D fiber of n = 3, so at n = 4 every command
        # fails at parse, naming the key, before any output exists.
        cfg = dict(SMALL_FLOW, space=dict(SMALL_FLOW["space"], n=4),
                   grid={"mode": "torus2d", "resolution": 16}, mass=dict(MINIMAL_MASS["mass"]),
                   slice_check={"lambdas": [2.0]}, inequalities={"count": 2},
                   beckner={"count": 2}, checks=[])
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "scenario.grid.mode: torus2d requires n=3, got n=4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_main_check_without_its_section_is_error(self, tmp_path, capsys):
        cfg = dict(MINIMAL_MASS, checks=["q1_monotone", "slice_equality", "beckner_nonneg",
                                         "inequality_ensemble", "area_law"])
        code = cli.main(["mass", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        for check in cfg["checks"]:
            assert f"{check!r} needs a" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, key, value, where", [
        ("flow", "surface", "slice_lambda", 0.5, "scenario.surface.slice_lambda"),
        ("flow", "surface", "base_lambda", 1.0, "scenario.surface.base_lambda"),
        ("check-inequalities", "inequalities", "base_lambda", 0.9,
         "scenario.inequalities.base_lambda"),
        ("slice-check", "slice_check", "lambdas", [1.5, 0.5], "scenario.slice_check.lambdas[1]"),
        # The mass sample radii are fixed, so a schedule is an unknown key.
        pytest.param("mass", "mass", "rho_schedule", [0.0, 100.0, 200.0],
                     "scenario.mass.rho_schedule",
                     id="mass-mass-rho_schedule-value4-scenario.mass.rho_schedule[0]"),
        pytest.param("mass", "mass", "rho_schedule", [200.0, 100.0, 50.0],
                     "scenario.mass.rho_schedule",
                     id="mass-mass-rho_schedule-value5-scenario.mass.rho_schedule"),
    ])
    def test_main_inside_horizon_is_error(self, tmp_path, capsys, command, section, key, value,
                                          where):
        # The horizon radius comes from the scenario's space at parse time, so
        # these fail before any output exists, not in the warp table or the
        # mass library at run time.
        cfg = json.loads(json.dumps(SMALL_FLOW))
        cfg["mass"] = dict(MINIMAL_MASS["mass"])
        cfg["surface"] = {}
        cfg.setdefault(section, {})[key] = value
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        known = key in cli._TABLE[section].type
        assert f"{where}: {'must be' if known else 'unknown key'}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mass, where", [
        # The mass sample radii are fixed, so a schedule is an unknown key.
        pytest.param({"m_graph": 1.0, "rho_schedule": [1.1, 100.0, 200.0]},
                     "scenario.mass.rho_schedule: unknown key",
                     id="mass0-scenario.mass.rho_schedule[0]: must be"),
        pytest.param({"kind": "mass_profile", "m_horizon": 0.75, "m_total": 1.0,
                      "rho_schedule": [1.1, 100.0, 200.0]},
                     "scenario.mass.rho_schedule: unknown key",
                     id="mass1-scenario.mass.rho_schedule[0]: must be"),
        ({"kind": "mass_profile", "m_horizon": 0.4, "m_total": 1.0}, "scenario.mass: need base m"),
        # rho_inner = (2 m_graph)^(1/3) = 58.5 reaches the first sample radius 50.
        ({"m_graph": 1e5}, "scenario.mass: the graph's inner radius rho_inner = 58.48"),
    ])
    def test_main_inside_inner_radius_is_error(self, tmp_path, capsys, mass, where):
        # The graph is built at parse time, so a graph that cannot be built,
        # or whose inner radius reaches the mass sample radii, fails before
        # any output exists.
        cfg = dict(MINIMAL_MASS, mass=dict(MINIMAL_MASS["mass"], **mass), checks=[])
        code = cli.main(["mass", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, changes, check, reason", UNEVALUATED)
    def test_main_unevaluated_check_fails(self, tmp_path, command, changes, check, reason):
        # An enabled check that its run leaves unevaluated fails the run with
        # the row's reason, or the run's reason for a figure it could not form.
        cfg = dict(SMALL_FLOW, **changes)
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        artifact = json.loads((tmp_path / "o" / cfg["name"] / ARTIFACTS[command]).read_text())
        verdict = artifact["checks"][check]
        assert verdict == {"enabled": True, "ok": False, "evaluated": False,
                           "reason": verdict["reason"], "value": None, "tolerance": None}
        assert reason in verdict["reason"]
        row = CHECKS[check]
        if row.needs is not None and not row.needs[0](artifact):
            assert verdict["reason"] == row.needs[1]
        else:
            assert artifact[row.figure] is None
            assert verdict["reason"] == artifact["not_evaluated"][row.figure]
        assert artifact["passed"] is False
        others = {name: v["ok"] for name, v in artifact["checks"].items()
                  if v["enabled"] and name != check}
        assert all(others.values()), others

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


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """``kflow all`` over the shipped scenarios: the exit code and the output root."""
    out = tmp_path_factory.mktemp("all")
    return cli.main(["all", "--out", str(out), "--quiet"]), out


class TestAllCommand:
    def test_all_runs_shipped_suite(self, shipped_run):
        code, out = shipped_run
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"kottler-mass", "perturbed-flow", "slice-equality"} <= names

    def test_all_enabled_checks_evaluated(self, shipped_run):
        # No shipped scenario passes a check that was not evaluated.
        _, out = shipped_run
        for cfg in SHIPPED:
            paths = [out / cfg["name"] / name for name in ARTIFACTS.values()]
            artifacts = [json.loads(path.read_text()) for path in paths if path.exists()]
            verdicts = {name: v for a in artifacts for name, v in a["checks"].items()
                        if v["enabled"]}
            assert sorted(verdicts) == sorted(cfg["checks"]), cfg["name"]
            for name, v in verdicts.items():
                assert v["evaluated"] is True and v["ok"] is True, (cfg["name"], name, v)
            assert all(a["passed"] for a in artifacts), cfg["name"]
        pairs = json.loads((out / "perturbed-flow" / "report.json").read_text())
        assert pairs["q2_samples_in_regime"] >= 7

    def test_all_records_rerun_identically(self, shipped_run, tmp_path):
        # Each written record parses again, to itself, and runs to the same bytes.
        _, out = shipped_run
        for cfg in SHIPPED:
            base, again = out / cfg["name"], tmp_path / cfg["name"]
            path = base / "scenario.normalized.json"
            scn = cli.parse_scenario(str(path))
            assert json.loads(json.dumps(scn.to_dict())) == json.loads(path.read_text())
            assert cli.run_scenario(scn, str(tmp_path), quiet=True) == 0
            files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
            for rel in files:
                assert (base / rel).read_bytes() == (again / rel).read_bytes(), (cfg["name"], rel)

    def test_all_isolates_a_failing_scenario(self, tmp_path, monkeypatch, capsys):
        bad = json.loads(json.dumps(SMALL_FLOW))
        bad["name"] = "t-bad"
        # Beyond the table's last node lambda(r_max) ~ 3.5e10: it parses, and
        # only the warp table, built at run time, rejects it.
        bad["surface"] = {"slice_lambda": 1e15}
        broken = tmp_path / "c-broken.json"
        broken.write_text("{not json")
        paths = [write_config(tmp_path, bad, "a-bad.json"),
                 write_config(tmp_path, MINIMAL_MASS, "b-good.json"), str(broken)]
        monkeypatch.setattr(cli, "shipped_scenarios", lambda: paths)
        code = cli.main(["all", "--out", str(tmp_path / "all")])
        assert code == 1
        assert (tmp_path / "all" / "t-mass" / "mass.json").exists()
        out, err = capsys.readouterr()
        assert "error:" in err and "outside tabulated range" in err
        assert "t-bad: FAIL" in out
        assert "t-mass: pass" in out
        assert "c-broken: FAIL" in out

    def test_all_reports_resolution_without_grid_per_scenario(self, tmp_path, monkeypatch,
                                                               capsys):
        # --resolution fails each scenario without a grid; the others run at it.
        slices = dict(SMALL_FLOW, name="t-slices", slice_check={"lambdas": [2.0]},
                      checks=["slice_equality"])
        del slices["flow"]
        paths = [write_config(tmp_path, MINIMAL_MASS, "a.json"),
                 write_config(tmp_path, slices, "b.json")]
        monkeypatch.setattr(cli, "shipped_scenarios", lambda: paths)
        code = cli.main(["all", "--out", str(tmp_path / "all"), "--resolution", "16"])
        assert code == 1
        out, err = capsys.readouterr()
        assert "error: [t-mass] --resolution: the scenario has no grid" in err
        assert "t-mass: FAIL" in out and "t-slices: pass" in out
        assert not (tmp_path / "all" / "t-mass").exists()
        record = json.loads((tmp_path / "all" / "t-slices" / "scenario.normalized.json")
                            .read_text())
        assert record["grid"] == {"mode": "torus2d", "resolution": 16}

    def test_all_output_below_a_file_fails_every_scenario(self, tmp_path, capsys):
        # Every scenario fails to make its directory, and each is reported.
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["all", "--out", str(blocker / "out")])
        assert code == 1
        out, err = capsys.readouterr()
        for cfg in SHIPPED:
            assert f"error: [{cfg['name']}] [Errno {errno.ENOTDIR}]" in err
            assert f"{cfg['name']}: FAIL" in out

    def test_all_with_config_is_error(self, tmp_path, capsys):
        # 'all' runs the shipped scenarios, so a --config would be ignored.
        code = cli.main(["all", "--config", str(tmp_path / "scn.json"),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--config" in err
        assert not (tmp_path / "o").exists()

    def test_all_dump_warp(self, tmp_path, monkeypatch):
        slices = dict(SMALL_FLOW, name="t-slices", slice_check={"lambdas": [2.0]},
                      checks=["slice_equality"])
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
