"""Scenario-driven command line front end.

Subcommands: ``flow``, ``mass``, ``check-inequalities``, ``slice-check``,
``beckner``, ``all``.  A scenario is a single JSON file (unknown keys are
rejected); artifacts (CSV trace, JSON reports, SVG plots) are written under
``--out``.  Exit codes: 0 all enabled checks pass, 2 a monitor/check failed
or was not evaluated, 1 runtime or configuration error or a malformed command line.
"""

import argparse
import copy
import inspect
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import plots
from .background import SpaceParams, build_warp_table, find_horizon
from .basegrid import (MODES, ScalarField, _sphere_area_problem, beckner_report,
                       low_frequency_field, make_grid, resolution_problem)
from .checks import CHECKS, judge
from .errors import ConfigurationError, FlowBreakdownError, KFlowError
from .flow import FlowConfig, monotonicity_report, run_flow
from .mass import (
    RHO_SCHEDULE,
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

# Key types besides int, str and list: a finite real number, and a nonempty
# list of them.  The type of a section is the table of its keys.
_REAL = "a finite real number"
_REALS = "a nonempty list of finite real numbers"


class _Key(NamedTuple):
    """One scenario key.

    ``default`` is used when the key is absent; None leaves it absent.
    ``range`` is a ``(test, text)`` pair, read as "must be <text>".
    ``required`` is a ``(test, reason)`` pair on the whole scenario, or None
    for an optional key.
    """

    type: object
    default: object = None
    range: tuple = None
    required: tuple = None


_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")


def _is_file_name(v):
    """Whether ``v`` can name one directory: no separator or reserved
    character, not '.' or '..', and 1 to 255 bytes in UTF-8."""
    try:
        size = len(v.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return 0 < size <= 255 and v not in (".", "..") and not any(c in v for c in r'/\:*?"<>| ')


_FILE_NAME = (_is_file_name, "nonempty, filesystem-safe, at most 255 UTF-8 bytes and not "
                             "'.' or '..'")
_ALWAYS = (lambda raw: True, "")


def _one_of(values):
    return (lambda v: v in values, f"one of {values}")


def _if_present(*sections):
    return (lambda raw: any(raw.get(s) is not None for s in sections),
            f" (needed by {' and '.join(sections)})")


def _if_mass_kind(kind):
    return (lambda raw: raw["mass"].get("kind", _TABLE["mass"].type["kind"].default) == kind,
            f" (mass.kind is {kind!r})")


def _if_check(check):
    return (lambda raw: isinstance(raw.get("checks"), list) and check in raw["checks"],
            f" ({check} is enabled)")


def _parameter_keys(func):
    """Keys of a section passed to ``func`` as keyword arguments: one per
    parameter, typed by its annotation, with the parameter's default, and
    required without one."""
    types = {int: int, float: _REAL}
    return {
        name: _Key(types[p.annotation], None if p.default is p.empty else p.default,
                   required=_ALWAYS if p.default is p.empty else None)
        for name, p in inspect.signature(func).parameters.items()
    }


# The scenario table: every key a scenario may hold, with its type, default,
# range and required-ness.  The parser and the runners both read it.
_TABLE = {
    "name": _Key(str, range=_FILE_NAME, required=_ALWAYS),
    "seed": _Key(int, 0, _NONNEGATIVE),
    "checks": _Key(list, []),
    "space": _Key(_parameter_keys(SpaceParams), required=_ALWAYS),
    "grid": _Key({
        "mode": _Key(str, range=_one_of(MODES), required=_ALWAYS),
        "resolution": _Key(int, range=_AT_LEAST_ONE, required=_ALWAYS),
    }, required=_if_present("flow", "slice_check", "inequalities", "beckner")),
    "surface": _Key({
        "slice_lambda": _Key(_REAL),
        "base_lambda": _Key(_REAL),
        "amplitude": _Key(_REAL, 0.0, _NONNEGATIVE),
    }, required=_if_present("flow")),
    "flow": _Key(_parameter_keys(FlowConfig)),
    "mass": _Key({
        "kind": _Key(str, "kottler_pair", _one_of(("kottler_pair", "mass_profile"))),
        "m_graph": _Key(_REAL, required=_if_mass_kind("kottler_pair")),
        "m_horizon": _Key(_REAL, required=_if_mass_kind("mass_profile")),
        "m_total": _Key(_REAL, required=_if_mass_kind("mass_profile")),
        "rate": _Key(_REAL, inspect.signature(mass_profile_graph).parameters["rate"].default),
        "expect_mass": _Key(_REAL, required=_if_check("mass_value")),
    }),
    "slice_check": _Key({
        "lambdas": _Key(_REALS, [1.5, 2.0, 4.0]),
    }),
    "inequalities": _Key({
        "count": _Key(int, 20, _AT_LEAST_ONE),
        "amplitude": _Key(_REAL, 0.1, _NONNEGATIVE),
        "base_lambda": _Key(_REAL, 2.0),
    }),
    "beckner": _Key({
        "count": _Key(int, 100, _AT_LEAST_ONE),
        "amplitude": _Key(_REAL, 0.2, _NONNEGATIVE),
    }),
}


class Scenario:
    """A parsed scenario: one attribute per top-level key of the table, each
    present section with its defaults filled in (``_settings``), and the
    ``params``, ``flow_config`` and ``graph`` its parse builds, for the runs."""

    params = flow_config = graph = None

    def __init__(self, raw):
        for key, spec in _TABLE.items():
            value = raw.get(key, spec.default)
            if isinstance(spec.type, dict) and value is not None:
                value = _settings(key, value)
            setattr(self, key, copy.deepcopy(value))

    def to_dict(self):
        return {key: getattr(self, key) for key in _TABLE if getattr(self, key) is not None}


def _settings(section, given):
    """A scenario section as the runners, the library constructors and the
    normalized record read it: the table's defaults filled in, and reals as
    float, so an int-valued input writes the same artifacts as the equal
    float."""
    settings = {}
    for key, spec in _TABLE[section].type.items():
        value = given.get(key, spec.default)
        if value is None:
            continue
        if spec.type is _REAL:
            value = float(value)
        elif spec.type is _REALS:
            value = [float(x) for x in value]
        settings[key] = value
    return settings


def _is(value, kind):
    """Whether ``value`` has the table type ``kind``; list elements are checked apart."""
    if isinstance(value, bool):
        return False
    if kind is _REAL:
        return isinstance(value, (int, float)) and math.isfinite(value)
    if kind is _REALS:
        return isinstance(value, list) and value != []
    return isinstance(value, kind)


def _check(obj, table, path, problems, raw):
    """Append each way ``obj`` breaks ``table`` to ``problems``: an unknown or
    missing key, a value of the wrong type, or one out of range."""
    if not isinstance(obj, dict):
        problems.append(f"{path}: expected an object, got {obj!r}")
        return
    problems.extend(f"{path}.{key}: unknown key" for key in obj if key not in table)
    for key, spec in table.items():
        where, value = f"{path}.{key}", obj.get(key)
        if key not in obj:
            if spec.required and spec.required[0](raw):
                problems.append(f"{where}: missing required key{spec.required[1]}")
        elif isinstance(spec.type, dict):
            _check(value, spec.type, where, problems, raw)
        elif not _is(value, spec.type):
            problems.append(f"{where}: expected {getattr(spec.type, '__name__', spec.type)}, "
                            f"got {value!r}")
        elif spec.type is _REALS and not all(_is(x, _REAL) for x in value):
            problems.extend(f"{where}[{i}]: expected {_REAL}, got {x!r}"
                            for i, x in enumerate(value) if not _is(x, _REAL))
        elif spec.range and not spec.range[0](value):
            problems.append(f"{where}: must be {spec.range[1]}, got {value!r}")


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
    _check(raw, _TABLE, "scenario", problems, raw)
    if problems:
        raise ConfigurationError(problems)
    scn = Scenario(raw)

    # Rules that relate keys to each other, then the library's own checks.
    n, kappa = scn.space["n"], scn.space["kappa"]
    mode = scn.grid["mode"] if scn.grid else None
    if mode == "torus2d" and kappa != 0:
        problems.append(f"scenario.grid.mode: torus2d requires kappa=0, got kappa={kappa}")
    if mode == "torus2d" and n != 3:
        problems.append(f"scenario.grid.mode: torus2d requires n=3, got n={n}")
    if mode == "sphere_axisym" and kappa != 1:
        problems.append(f"scenario.grid.mode: sphere_axisym requires kappa=+1, got kappa={kappa}")
    problem = mode and resolution_problem(mode, scn.grid["resolution"])
    if problem:
        problems.append(f"scenario.grid.resolution: {problem}")
    # The sphere's quadrature weights sum to |S^(n-1)|, so no other fiber area fits it.
    problem = mode == "sphere_axisym" and n >= 3 and _sphere_area_problem(n, scn.space["theta"])
    if problem:
        problems.append(f"scenario.space.theta: {problem}")
    surface = scn.surface
    if surface is not None and ("slice_lambda" in surface) == ("base_lambda" in surface):
        problems.append(
            "scenario.surface: give exactly one of slice_lambda or base_lambda(+amplitude)"
        )
    for check in scn.checks:
        # A check may be any JSON value, and a list is not a valid dict key.
        row = CHECKS.get(check) if isinstance(check, str) else None
        if row is None:
            problems.append(f"scenario.checks: unknown check {check!r}")
        elif getattr(scn, row.section) is None:
            problems.append(f"scenario.checks: {check!r} needs a {row.section} section")
    try:
        scn.params = SpaceParams(**scn.space)
        rho0 = find_horizon(scn.params)
    except KFlowError as exc:
        problems.append(f"scenario.space: {exc}")
    else:
        problems.extend(f"{at}: must be > the horizon radius rho0 = {rho0:.12g}, got {x!r}"
                        for at, x in _warp_factors(scn) if x <= rho0)
        cfg = scn.mass or {}
        try:  # the graph the runs read; its mass is sampled beyond its inner radius
            if cfg.get("kind") == "kottler_pair":
                scn.graph = kottler_pair_graph(scn.params, cfg["m_graph"])
            elif cfg.get("kind") == "mass_profile":
                scn.graph = mass_profile_graph(scn.params, cfg["m_horizon"], cfg["m_total"],
                                               rate=cfg["rate"])
        except KFlowError as exc:
            problems.append(f"scenario.mass: {exc}")
        if scn.graph is not None and scn.graph.rho_inner >= RHO_SCHEDULE[0]:
            problems.append(f"scenario.mass: the graph's inner radius rho_inner = "
                            f"{scn.graph.rho_inner:.12g} must be < {RHO_SCHEDULE[0]:g}, "
                            "the first radius of the mass samples")
    if scn.flow is not None:
        try:
            scn.flow_config = FlowConfig(**scn.flow)
        except KFlowError as exc:
            problems.append(f"scenario.flow: {exc}")
    if problems:
        raise ConfigurationError(problems)
    return scn


# Keys whose values are warp factors lambda (radii rho of the background),
# which must lie beyond the horizon radius rho0 of the scenario's space.
_WARP_FACTORS = (
    ("surface", "slice_lambda"),
    ("surface", "base_lambda"),
    ("inequalities", "base_lambda"),
    ("slice_check", "lambdas"),
)


def _warp_factors(scn):
    """(path, value) of each warp-factor value the scenario gives or defaults to."""
    for section, key in _WARP_FACTORS:
        value = (getattr(scn, section) or {}).get(key)
        where = f"scenario.{section}.{key}"
        if isinstance(value, list):
            yield from ((f"{where}[{i}]", x) for i, x in enumerate(value))
        elif value is not None:
            yield where, value


def _beyond_table(scn, warp):
    """A problem for each warp factor above the table's largest."""
    lam_max = warp.lam_nodes[-1]
    return [f"{at}: {x!r} is outside tabulated range ({warp.rho0:.12g}, {lam_max:.12g}] "
            "of the warp table" for at, x in _warp_factors(scn) if x > lam_max]


def _grid(grid, params):
    mode, res = grid["mode"], grid["resolution"]
    if mode == "torus2d":
        return make_grid(mode, res, math.sqrt(params.theta))
    return make_grid(mode, res, params.theta, n=params.n, kappa=params.kappa)


def _initial_surface(scn, grid, warp, seed):
    cfg = scn.surface
    if "slice_lambda" in cfg:
        return slice_surface(grid, warp, lam_value=cfg["slice_lambda"])
    base_r = warp.r_from_rho(cfg["base_lambda"])
    return random_star_shaped(grid, warp, seed=seed, amplitude=cfg["amplitude"], base_r=base_r)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(scn, out_dir, artifact, section, payload, detail, quiet):
    """Judge the section's checks on the run's figures, write them as the
    artifact and return the exit code: 0 when every enabled check was
    evaluated and is ok, else 2."""
    payload["checks"], payload["passed"] = judge(section, payload, scn.checks)
    _write_json(os.path.join(out_dir, artifact), payload)
    if not quiet:
        failed = [f"{name}: {v['reason'] or 'out of tolerance'}"
                  for name, v in payload["checks"].items() if v["enabled"] and not v["ok"]]
        print(f"[{scn.name}] {section}: {'FAIL' if failed else 'pass'} ({detail})"
              + "".join(f"\n  {line}" for line in failed))
    return 0 if payload["passed"] else 2


def _run_flow_pipeline(scn, out_dir, grid, warp, seed, quiet):
    surface = _initial_surface(scn, grid, warp, seed)
    try:
        trace = run_flow(surface, scn.flow_config)
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
    plots.emit_plots(trace, os.path.join(out_dir, "plots"))
    return _finish(scn, out_dir, "report.json", "flow", report.as_dict(),
                   f"area residual {report.area_law_residual:.3g}, "
                   f"q1 jump {report.q1_max_jump:.3g}", quiet)


def _run_mass_pipeline(scn, out_dir, grid, warp, seed, quiet):
    params, graph = scn.params, scn.graph
    est = mass_limit(graph)
    # The identity holds for graphs whose inner boundary is a horizon.
    identity = mass_identity_check(graph, estimate=est) if graph.horizon_graph else None
    sigma_area = graph.rho_inner ** (params.n - 1) * params.theta
    rho_probe = np.linspace(graph.rho_inner + 1e-4, graph.rho_inner + 20.0, 60)
    payload = {
        **est.as_dict(),
        "expect_mass": scn.mass.get("expect_mass"),
        "identity": identity.as_dict() if identity else None,
        "identity_residual": identity.residual if identity else None,
        "not_evaluated": {} if identity else {
            "identity_residual": "needs a graph whose inner boundary is a horizon"},
        "penrose_deficit": penrose_deficit(est.mass, sigma_area, params),
        "sigma_area": sigma_area,
        "s2_min_probe": float(np.min(radial_shape_operator(graph, rho_probe).s2)),
    }
    return _finish(scn, out_dir, "mass.json", "mass", payload,
                   f"mass {est.mass:.8g}, penrose deficit {payload['penrose_deficit']:.3g}",
                   quiet)


# The inequality deficits a slice check and an ensemble report for each surface.
_DEFICITS = {
    "minkowski": minkowski_deficit,
    "weighted_volume": weighted_volume_deficit,
    "heintze_karcher": heintze_karcher_deficit,
}


def _deficits(geom):
    """Each deficit of ``_DEFICITS`` and the scale they are judged against."""
    return {**{key: deficit(geom) for key, deficit in _DEFICITS.items()},
            "scale": deficit_scale(geom)}


def _run_slice_check(scn, out_dir, grid, warp, seed, quiet):
    rows = []
    for lam in scn.slice_check["lambdas"]:
        geom = compute_geometry(slice_surface(grid, warp, lam_value=lam))
        rows.append({"lambda": lam, **_deficits(geom),
                     "divergence": divergence_identity_residual(geom)})
    worst = max(abs(row[key]) / row["scale"] for row in rows
                for key in (*_DEFICITS, "divergence"))
    payload = {"slices": rows, "worst_relative": worst}
    return _finish(scn, out_dir, "slice_check.json", "slice_check", payload,
                   f"worst {worst:.3g}", quiet)


def _run_inequalities(scn, out_dir, grid, warp, seed, quiet):
    cfg = scn.inequalities
    base_r = warp.r_from_rho(cfg["base_lambda"])
    rows = []
    for k in range(cfg["count"]):
        surf = random_star_shaped(grid, warp, seed=seed + k, amplitude=cfg["amplitude"],
                                  base_r=base_r)
        rows.append({"seed": seed + k, **_deficits(compute_geometry(surf))})
    worst = min(row[key] / row["scale"] for row in rows for key in _DEFICITS)
    payload = {"ensemble": rows, "worst_relative": worst}
    return _finish(scn, out_dir, "inequalities.json", "inequalities", payload,
                   f"worst {worst:.3g}", quiet)


def _run_beckner(scn, out_dir, grid, warp, seed, quiet):
    cfg = scn.beckner
    deficits, relative = [], []
    for k in range(cfg["count"]):
        pert = low_frequency_field(grid, seed + k, cfg["amplitude"])
        rep = beckner_report(ScalarField(1.0 + pert, grid), scn.params.n)
        deficits.append(rep["sharp"])
        relative.append(rep["sharp"] / max(rep["scale"], 1e-300))
    worst = min(relative)
    payload = {"mode": grid.mode, "count": cfg["count"], "worst_relative": worst,
               "deficits": deficits}
    return _finish(scn, out_dir, "beckner.json", "beckner", payload, f"worst {worst:.3g}",
                   quiet)


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
    if resolution is not None:
        problem = (resolution_problem(scn.grid["mode"], resolution) if scn.grid
                   else "the scenario has no grid")
        if problem:
            raise ConfigurationError(f"--resolution: {problem}")
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
    # The scenario as run: the flags override its seed and grid resolution.
    record = scn.to_dict()
    if seed is not None:
        record["seed"] = int(seed)
    if resolution is not None:
        record["grid"] = dict(scn.grid, resolution=resolution)
    warp = grid = None
    if dump_warp or any(needs_warp for _, _, needs_warp in sections):
        warp = build_warp_table(scn.params)
        problems = _beyond_table(scn, warp)
        if problems:
            raise ConfigurationError(problems)
    if any(attr != "mass" for attr, _, _ in sections):
        grid = _grid(record["grid"], scn.params)
    out_dir = os.path.join(out_root, scn.name)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "scenario.normalized.json"), record)
    if dump_warp:
        warp.to_csv(os.path.join(out_dir, "warp.csv"))
    code = 0
    for _, runner, _ in sections:
        code = max(code, runner(scn, out_dir, grid, warp, record["seed"], quiet))
    return code


def shipped_scenarios():
    """Paths of the scenario files installed with the package."""
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(
        os.path.join(here, name) for name in os.listdir(here) if name.endswith(".json")
    )


def _run_file(path, out_root, **options):
    """Parse and run one scenario file; return its name (the file's stem if it
    does not parse) and exit code.  An error, also one making or writing the
    output, prints ``error: [name] ...`` and exits 1."""
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        scn = parse_scenario(path)
        name = scn.name
        return name, run_scenario(scn, out_root, **options)
    except (KFlowError, OSError) as exc:
        print(f"error: [{name}] {exc}", file=sys.stderr)
        return name, 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2, which reads as a failed check
        raise ConfigurationError(message)


def main(argv=None):
    parser = _Parser(prog="kflow", description=__doc__)
    parser.add_argument("command", choices=[*_SECTIONS, "all"])
    parser.add_argument("--config", help="scenario JSON path (an error with 'all')")
    parser.add_argument("--out", default="out", help="output directory root")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--resolution", type=int, default=None, help="override grid resolution")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--dump-warp", action="store_true", help="also write warp.csv")
    try:
        args = parser.parse_args(argv)
        if (args.command == "all") != (args.config is None):
            need = "required for" if args.config is None else "not used by"
            raise ConfigurationError(f"--config is {need} {args.command!r}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    options = dict(seed=args.seed, resolution=args.resolution, quiet=args.quiet,
                   dump_warp=args.dump_warp)
    if args.command != "all":
        return _run_file(args.config, args.out, only=args.command, **options)[1]
    codes = dict(_run_file(path, args.out, **options) for path in shipped_scenarios())
    if not args.quiet:
        for name in sorted(codes):
            print(f"{name}: {'pass' if codes[name] == 0 else 'FAIL'}")
    return max(codes.values()) if codes else 1


if __name__ == "__main__":
    raise SystemExit(main())
