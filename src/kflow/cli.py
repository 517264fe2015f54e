"""Scenario-driven command line front end.

Subcommands: ``flow``, ``mass``, ``check-inequalities``, ``slice-check``,
``beckner``, ``all``.  A scenario is a single JSON file (unknown keys are
rejected); artifacts (CSV trace, JSON reports, SVG plots) are written under
``--out``.  Exit codes: 0 all enabled checks pass, 2 a monitor/check failed,
1 runtime or configuration error.
"""

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import plots
from .background import SpaceParams, build_warp_table
from .basegrid import ScalarField, beckner_report, low_frequency_field, make_grid
from .errors import ConfigurationError, FlowBreakdownError, KFlowError
from .flow import FlowConfig, monotonicity_report, run_flow
from .mass import (
    kottler_pair_graph,
    mass_identity_check,
    mass_limit,
    mass_profile_graph,
    penrose_deficit,
    radial_shape_operator,
)
from .surface import (
    compute_geometry,
    deficit_scale,
    divergence_identity_residual,
    heintze_karcher_deficit,
    minkowski_deficit,
    random_star_shaped,
    slice_surface,
    weighted_volume_deficit,
)

KNOWN_CHECKS = (
    "q1_monotone",
    "q1_constant",
    "area_law",
    "barrier",
    "p_balance",
    "q2_monotone",
    "final_bound",
    "h_limit",
    "grad_decay",
    "mass_value",
    "mass_identity",
    "penrose",
    "penrose_equality",
    "s2_nonneg",
    "slice_equality",
    "inequality_ensemble",
    "beckner_nonneg",
)


@dataclass
class Scenario:
    name: str
    space: dict
    grid: dict = None
    surface: dict = None
    flow: dict = None
    mass: dict = None
    slice_check: dict = None
    inequalities: dict = None
    beckner: dict = None
    warp: dict = field(default_factory=lambda: {"r_max": 25.0, "target_nodes": 4000})
    checks: list = field(default_factory=list)
    seed: int = 0

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


# Schema markers: a finite real number, and a list of finite real numbers.
_REAL = "finite real"
_REALS = "list of finite reals"

_SCHEMA = {
    "name": str,
    "space": {"n": int, "kappa": int, "m": _REAL, "theta": _REAL},
    "grid": {"mode": str, "resolution": int},
    "surface": {
        "slice_lambda": _REAL,
        "base_lambda": _REAL,
        "amplitude": _REAL,
        "seed": int,
    },
    "flow": {
        "t_end": _REAL,
        "cfl_safety": _REAL,
        "dt_max": _REAL,
        "h_floor": _REAL,
        "record_interval": _REAL,
        "integrator": str,
    },
    "mass": {
        "kind": str,
        "m_graph": _REAL,
        "m_horizon": _REAL,
        "m_total": _REAL,
        "rate": _REAL,
        "rho_schedule": _REALS,
        "expect_mass": _REAL,
        "tol": _REAL,
    },
    "slice_check": {"lambdas": _REALS, "tol_rel": _REAL},
    "inequalities": {
        "count": int,
        "amplitude": _REAL,
        "base_lambda": _REAL,
        "tol_rel": _REAL,
    },
    "beckner": {"count": int, "amplitude": _REAL, "tol_rel": _REAL},
    "warp": {"r_max": _REAL, "target_nodes": int, "tol": _REAL},
    "checks": list,
    "seed": int,
}

# Tolerances that must be strictly positive: a zero or negative tolerance
# fails every check, so it is a configuration error, not a monitor failure.
_TOLERANCES = (
    ("mass", "tol"),
    ("slice_check", "tol_rel"),
    ("inequalities", "tol_rel"),
    ("beckner", "tol_rel"),
    ("warp", "tol"),
)


def _finite_real_problem(path, val):
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        return f"{path}: expected a finite real number, got {val!r}"
    return None


def _check_keys(obj, schema, path, problems):
    if not isinstance(obj, dict):
        problems.append(f"{path}: expected an object")
        return
    for key, val in obj.items():
        if key not in schema:
            problems.append(f"{path}.{key}: unknown key")
            continue
        want = schema[key]
        if isinstance(want, dict):
            _check_keys(val, want, f"{path}.{key}", problems)
        elif want is _REAL:
            problem = _finite_real_problem(f"{path}.{key}", val)
            if problem:
                problems.append(problem)
        elif want is _REALS:
            if not isinstance(val, list):
                problems.append(f"{path}.{key}: expected a list, got {type(val).__name__}")
                continue
            for i, item in enumerate(val):
                problem = _finite_real_problem(f"{path}.{key}[{i}]", item)
                if problem:
                    problems.append(problem)
        elif not isinstance(val, want) or isinstance(val, bool):
            problems.append(f"{path}.{key}: expected {want}, got {type(val).__name__}")


def parse_scenario(path):
    """Load and validate a scenario file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(raw)


def scenario_from_dict(raw):
    problems = []
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario: top level must be a JSON object")
    _check_keys(raw, _SCHEMA, "scenario", problems)
    for req in ("name", "space"):
        if req not in raw:
            problems.append(f"scenario.{req}: missing required key")
    if problems:
        raise ConfigurationError(problems)

    name = raw["name"]
    if not name or any(c in name for c in r'/\:*?"<>| '):
        problems.append("scenario.name: must be nonempty and filesystem-safe")

    grid_cfg = raw.get("grid")
    if grid_cfg is not None:
        mode = grid_cfg.get("mode")
        kappa = raw["space"].get("kappa")
        if mode == "torus2d" and kappa != 0:
            problems.append(f"scenario.grid.mode: torus2d requires kappa=0, got kappa={kappa}")
        if mode == "sphere_axisym" and kappa != 1:
            problems.append(
                f"scenario.grid.mode: sphere_axisym requires kappa=+1, got kappa={kappa}"
            )
        if "resolution" not in grid_cfg or "mode" not in grid_cfg:
            problems.append("scenario.grid: needs both mode and resolution")

    surface_cfg = raw.get("surface")
    if surface_cfg is not None:
        has_slice = "slice_lambda" in surface_cfg
        has_random = "base_lambda" in surface_cfg
        if has_slice == has_random:
            problems.append(
                "scenario.surface: give exactly one of slice_lambda or base_lambda(+amplitude)"
            )
    for check in raw.get("checks", []):
        if check not in KNOWN_CHECKS:
            problems.append(f"scenario.checks: unknown check {check!r}")
    if raw.get("flow") is not None and surface_cfg is None:
        problems.append("scenario.flow: needs a surface section")
    if raw.get("flow") is not None and grid_cfg is None:
        problems.append("scenario.flow: needs a grid section")
    for key, value, low in (
        ("seed", raw.get("seed", 0), 0),
        ("surface.seed", (surface_cfg or {}).get("seed", 0), 0),
        ("grid.resolution", (grid_cfg or {}).get("resolution", 1), 1),
        # A count of 0, like an empty lambdas list, would let the section
        # pass without evaluating anything.
        ("inequalities.count", (raw.get("inequalities") or {}).get("count", 1), 1),
        ("beckner.count", (raw.get("beckner") or {}).get("count", 1), 1),
    ):
        if value < low:
            problems.append(f"scenario.{key}: must be >= {low}, got {value}")
    if (raw.get("slice_check") or {}).get("lambdas") == []:
        problems.append("scenario.slice_check.lambdas: must not be empty")
    for section, key in _TOLERANCES:
        value = (raw.get(section) or {}).get(key, 1.0)
        if value <= 0.0:
            problems.append(f"scenario.{section}.{key}: must be > 0, got {value}")
    if problems:
        raise ConfigurationError(problems)
    return Scenario(**copy.deepcopy(raw))


def _space_params(scn):
    sp = scn.space
    return SpaceParams(n=sp["n"], kappa=sp["kappa"], m=float(sp["m"]), theta=float(sp["theta"]))


def _grid(scn, params, resolution=None):
    cfg = scn.grid
    if cfg is None:
        raise ConfigurationError("scenario.grid: required for this pipeline")
    res = int(cfg["resolution"] if resolution is None else resolution)
    mode = cfg["mode"]
    if mode == "torus2d":
        return make_grid(mode, res, math.sqrt(params.theta))
    if mode == "sphere_axisym":
        return make_grid(mode, res, n=params.n)
    return make_grid(mode, res, params.theta, n=params.n, kappa=params.kappa)


def _warp(scn, params):
    cfg = scn.warp or {}
    return build_warp_table(
        params,
        r_max=float(cfg.get("r_max", 25.0)),
        tol=float(cfg.get("tol", 1e-11)),
        target_nodes=int(cfg.get("target_nodes", 4000)),
    )


def _initial_surface(scn, grid, warp, seed):
    cfg = scn.surface
    if "slice_lambda" in cfg:
        return slice_surface(grid, warp, lam_value=float(cfg["slice_lambda"]))
    base_r = warp.r_from_rho(float(cfg["base_lambda"]))
    return random_star_shaped(
        grid, warp, seed=cfg.get("seed", seed), amplitude=float(cfg.get("amplitude", 0.0)),
        base_r=base_r,
    )


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _flow_checks(scn, report, trace):
    """Evaluate the enabled flow checks against the monitor report."""
    results = {}
    n = trace.params.n
    for check in scn.checks:
        if check == "q1_monotone":
            results[check] = report.q1_ok
        elif check == "q1_constant":
            q1 = trace.column("Q1")
            results[check] = bool(np.max(np.abs(q1 - q1[0])) <= 1e-9)
        elif check == "area_law":
            results[check] = report.area_law_ok
        elif check == "barrier":
            results[check] = report.barrier_lower_ok and report.barrier_upper_ok
        elif check == "p_balance":
            results[check] = report.p_balance_ok
        elif check == "q2_monotone":
            results[check] = report.q2_ok
        elif check == "final_bound":
            results[check] = report.final_bound_ok
        elif check == "h_limit":
            results[check] = report.h_final_gap <= 1e-3
        elif check == "grad_decay":
            rate = report.grad_decay_rate
            target = -1.0 / (n - 1)
            results[check] = bool(
                not math.isnan(rate) and abs(rate - target) <= 0.2 * abs(target)
            )
    return results


def _run_flow_pipeline(scn, out_dir, params, grid, warp, seed, quiet):
    surface = _initial_surface(scn, grid, warp, seed)
    fl = scn.flow
    config = FlowConfig(
        t_end=float(fl["t_end"]),
        cfl_safety=float(fl.get("cfl_safety", 0.2)),
        dt_max=float(fl.get("dt_max", 0.005)),
        h_floor=float(fl["h_floor"]) if "h_floor" in fl else None,
        record_interval=float(fl.get("record_interval", 0.25)),
        integrator=fl.get("integrator", "rk2_adaptive"),
    )
    try:
        trace = run_flow(surface, config)
    except FlowBreakdownError as exc:
        trace = exc.trace
        if trace is not None:
            trace.to_csv(os.path.join(out_dir, "trace.csv"))
            _write_json(os.path.join(out_dir, "trace.json"), trace.as_dict())
        _write_json(
            os.path.join(out_dir, "report.json"),
            {"passed": False, "breakdown": trace.breakdown if trace else str(exc)},
        )
        if not quiet:
            print(f"[{scn.name}] flow breakdown: {exc}")
        return 2
    trace.to_csv(os.path.join(out_dir, "trace.csv"))
    _write_json(os.path.join(out_dir, "trace.json"), trace.as_dict())
    report = monotonicity_report(trace)
    checks = _flow_checks(scn, report, trace)
    payload = report.as_dict()
    payload["checks"] = checks
    payload["passed_enabled_checks"] = all(checks.values()) if checks else True
    _write_json(os.path.join(out_dir, "report.json"), payload)
    plots.emit_plots(trace, os.path.join(out_dir, "plots"))
    ok = payload["passed_enabled_checks"]
    if not quiet:
        print(f"[{scn.name}] flow: {'pass' if ok else 'FAIL'} "
              f"(area residual {report.area_law_residual:.3g}, q1 jump {report.q1_max_jump:.3g})")
    return 0 if ok else 2


def _run_mass_pipeline(scn, out_dir, params, grid, warp, seed, quiet):
    cfg = scn.mass
    kind = cfg.get("kind", "kottler_pair")
    if kind == "kottler_pair":
        graph = kottler_pair_graph(params, float(cfg["m_graph"]))
    elif kind == "mass_profile":
        graph = mass_profile_graph(
            params,
            float(cfg["m_horizon"]),
            float(cfg["m_total"]),
            rate=float(cfg.get("rate", 1.0)),
        )
    else:
        raise ConfigurationError(f"scenario.mass.kind: unknown kind {kind!r}")
    schedule = [float(x) for x in cfg.get("rho_schedule", [50.0, 100.0, 200.0])]
    est = mass_limit(graph, schedule)
    sigma_area = graph.rho_inner ** (params.n - 1) * params.theta
    deficit = penrose_deficit(est.mass, sigma_area, params)
    payload = est.as_dict()
    payload["penrose_deficit"] = deficit
    payload["sigma_area"] = sigma_area
    checks = {}
    if "mass_identity" in scn.checks or "s2_nonneg" in scn.checks:
        report = mass_identity_check(graph, schedule)
        payload["identity"] = report.as_dict()
        payload["identity_residual"] = report.residual
        if "mass_identity" in scn.checks:
            checks["mass_identity"] = report.residual <= 1e-5 * max(1.0, abs(report.lhs_mass))
    if "mass_value" in scn.checks:
        expect = float(cfg["expect_mass"])
        tol = float(cfg.get("tol", 1e-6))
        checks["mass_value"] = abs(est.mass - expect) <= tol * max(1.0, abs(expect))
    if "penrose" in scn.checks:
        checks["penrose"] = deficit >= -1e-6
    if "penrose_equality" in scn.checks:
        checks["penrose_equality"] = abs(deficit) <= 1e-6
    if "s2_nonneg" in scn.checks:
        rho_probe = np.linspace(graph.rho_inner + 1e-4, graph.rho_inner + 20.0, 60)
        s2_min = float(np.min(radial_shape_operator(graph, rho_probe).s2))
        checks["s2_nonneg"] = s2_min >= -1e-9
        payload["s2_min_probe"] = s2_min
    payload["checks"] = checks
    payload["passed_enabled_checks"] = all(checks.values()) if checks else True
    _write_json(os.path.join(out_dir, "mass.json"), payload)
    ok = payload["passed_enabled_checks"]
    if not quiet:
        print(f"[{scn.name}] mass: {'pass' if ok else 'FAIL'} "
              f"(mass {est.mass:.8g}, penrose deficit {deficit:.3g})")
    return 0 if ok else 2


def _run_slice_check(scn, out_dir, params, grid, warp, seed, quiet):
    cfg = scn.slice_check or {}
    lambdas = [float(x) for x in cfg.get("lambdas", [1.5, 2.0, 4.0])]
    tol_rel = float(cfg.get("tol_rel", 1e-8))
    rows = []
    ok = True
    for lam in lambdas:
        geom = compute_geometry(slice_surface(grid, warp, lam_value=lam))
        scale = deficit_scale(geom)
        vals = {
            "lambda": lam,
            "minkowski": minkowski_deficit(geom),
            "weighted_volume": weighted_volume_deficit(geom),
            "heintze_karcher": heintze_karcher_deficit(geom),
            "divergence": divergence_identity_residual(geom),
            "scale": scale,
        }
        rows.append(vals)
        for key in ("minkowski", "weighted_volume", "heintze_karcher", "divergence"):
            if abs(vals[key]) > tol_rel * scale:
                ok = False
    payload = {"slices": rows, "tol_rel": tol_rel, "passed": ok}
    _write_json(os.path.join(out_dir, "slice_check.json"), payload)
    if not quiet:
        print(f"[{scn.name}] slice-check: {'pass' if ok else 'FAIL'}")
    if "slice_equality" in scn.checks and not ok:
        return 2
    return 0


def _run_inequalities(scn, out_dir, params, grid, warp, seed, quiet):
    cfg = scn.inequalities or {}
    count = int(cfg.get("count", 20))
    amplitude = float(cfg.get("amplitude", 0.1))
    base_r = warp.r_from_rho(float(cfg.get("base_lambda", 2.0)))
    tol_rel = float(cfg.get("tol_rel", 1e-7))
    worst = 0.0
    rows = []
    for k in range(count):
        surf = random_star_shaped(grid, warp, seed=seed + k, amplitude=amplitude, base_r=base_r)
        geom = compute_geometry(surf)
        scale = deficit_scale(geom)
        deficits = {
            "minkowski": minkowski_deficit(geom),
            "weighted_volume": weighted_volume_deficit(geom),
            "heintze_karcher": heintze_karcher_deficit(geom),
        }
        rows.append({"seed": seed + k, **deficits, "scale": scale})
        worst = min(worst, min(d / scale for d in deficits.values()))
    ok = worst >= -tol_rel
    payload = {"ensemble": rows, "worst_relative": worst, "tol_rel": tol_rel, "passed": ok}
    _write_json(os.path.join(out_dir, "inequalities.json"), payload)
    if not quiet:
        print(f"[{scn.name}] check-inequalities: {'pass' if ok else 'FAIL'} (worst {worst:.3g})")
    if "inequality_ensemble" in scn.checks and not ok:
        return 2
    return 0


def _run_beckner(scn, out_dir, params, grid, warp, seed, quiet):
    cfg = scn.beckner or {}
    count = int(cfg.get("count", 100))
    amplitude = float(cfg.get("amplitude", 0.2))
    tol_rel = float(cfg.get("tol_rel", 1e-8))
    asserted = grid.mode in ("sphere_axisym", "symmetric")
    worst = 0.0
    deficits = []
    for k in range(count):
        pert = low_frequency_field(grid, seed + k, amplitude)
        rep = beckner_report(ScalarField(1.0 + pert, grid), params.n)
        deficits.append(rep["sharp"])
        scale = max(rep["scale"], 1e-300)
        worst = min(worst, rep["sharp"] / scale)
    ok = (worst >= -tol_rel) if asserted else True
    payload = {
        "mode": grid.mode,
        "asserted": asserted,
        "count": count,
        "worst_relative": worst,
        "deficits": deficits,
        "tol_rel": tol_rel,
        "passed": ok,
    }
    _write_json(os.path.join(out_dir, "beckner.json"), payload)
    if not quiet:
        tag = "pass" if ok else "FAIL"
        note = "" if asserted else " (diagnostic only)"
        print(f"[{scn.name}] beckner: {tag}{note} (worst {worst:.3g})")
    if "beckner_nonneg" in scn.checks and not ok:
        return 2
    return 0


# Pipeline sections in run order: command -> (Scenario attribute, runner,
# needs the warp table).  Every section but ``mass`` needs the grid.
_SECTIONS = {
    "flow": ("flow", _run_flow_pipeline, True),
    "mass": ("mass", _run_mass_pipeline, False),
    "slice-check": ("slice_check", _run_slice_check, True),
    "check-inequalities": ("inequalities", _run_inequalities, True),
    "beckner": ("beckner", _run_beckner, False),
}


def run_scenario(scn, out_root, *, seed=None, resolution=None, quiet=False, dump_warp=False,
                 only=None):
    """Run the pipelines the scenario configures (or just the ``only`` command's
    section); return the exit code."""
    if seed is not None and seed < 0:
        raise ConfigurationError(f"--seed: must be >= 0, got {seed}")
    if resolution is not None and resolution < 1:
        raise ConfigurationError(f"--resolution: must be >= 1, got {resolution}")
    sections = [
        entry for command, entry in _SECTIONS.items()
        if getattr(scn, entry[0]) is not None and only in (None, command)
    ]
    if not sections:
        if only is not None:
            raise ConfigurationError(
                f"scenario {scn.name!r} has no section for command {only!r}"
            )
        raise ConfigurationError(f"scenario {scn.name}: no pipeline section present")
    out_dir = os.path.join(out_root, scn.name)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "scenario.normalized.json"), scn.to_dict())
    eff_seed = scn.seed if seed is None else int(seed)
    params = _space_params(scn)
    warp = grid = None
    if dump_warp or any(needs_warp for _, _, needs_warp in sections):
        warp = _warp(scn, params)
    if any(attr != "mass" for attr, _, _ in sections):
        grid = _grid(scn, params, resolution)
    if dump_warp:
        warp.to_csv(os.path.join(out_dir, "warp.csv"))
    code = 0
    for _, runner, _ in sections:
        code = max(code, runner(scn, out_dir, params, grid, warp, eff_seed, quiet))
    return code


def shipped_scenarios():
    """Paths of the scenario files installed with the package."""
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(
        os.path.join(here, name) for name in os.listdir(here) if name.endswith(".json")
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="kflow", description=__doc__)
    parser.add_argument("command", choices=[*_SECTIONS, "all"])
    parser.add_argument("--config", help="scenario JSON path (not used by 'all')")
    parser.add_argument("--out", default="out", help="output directory root")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--resolution", type=int, default=None, help="override grid resolution")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--dump-warp", action="store_true", help="also write warp.csv")
    args = parser.parse_args(argv)

    options = dict(seed=args.seed, resolution=args.resolution, quiet=args.quiet,
                   dump_warp=args.dump_warp)
    if args.command == "all":
        codes = {}
        for path in shipped_scenarios():
            name = os.path.splitext(os.path.basename(path))[0]
            try:
                scn = parse_scenario(path)
                name = scn.name
                codes[name] = run_scenario(scn, args.out, **options)
            except KFlowError as exc:
                print(f"error: [{name}] {exc}", file=sys.stderr)
                codes[name] = 1
        if not args.quiet:
            for name in sorted(codes):
                print(f"{name}: {'pass' if codes[name] == 0 else 'FAIL'}")
        return max(codes.values()) if codes else 1

    try:
        if not args.config:
            raise ConfigurationError(f"--config is required for {args.command!r}")
        return run_scenario(parse_scenario(args.config), args.out, only=args.command, **options)
    except KFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
