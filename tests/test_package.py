"""Package surface: every public name a module lists, and every name the
package re-exports, resolves; kflow runs with scipy blocked."""

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import kflow
from kflow import cli

SRC = pathlib.Path(kflow.__file__).parent
MODULES = sorted(
    f"kflow.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"kflow.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), f"kflow.{node.module}.{alias.name}"
            assert hasattr(kflow, alias.asname or alias.name), alias.name
            if public is not None:
                assert alias.name in public, f"kflow.{node.module}.__all__ lacks {alias.name}"


# Run in a fresh interpreter: the pytest process already holds scipy.  A None
# entry in sys.modules makes every import of scipy or its submodules fail.
_SCIPY_BLOCKED_RUN = """
import math, sys, tempfile
from pathlib import Path
sys.modules["scipy"] = None
import kflow as kf
import kflow.cli as cli

params = kf.SpaceParams(3, 0, 0.5, (2.0 * math.pi) ** 2)
warp = kf.build_warp_table(params)
grid = kf.make_grid("torus2d", 16, math.sqrt(params.theta))
surf = kf.random_star_shaped(grid, warp, seed=4, amplitude=0.03, base_r=warp.r_from_rho(2.0))
kf.run_flow(surf, kf.FlowConfig(t_end=0.05))

spheres = {n: kf.make_grid("sphere_axisym", 24, n=n) for n in (3, 4, 5)}
for n, sphere in spheres.items():
    assert abs(sphere.quad_weights.sum() - kf.sphere_area(n - 1)) < 1e-12 * sphere.theta
sphere_warp = kf.build_warp_table(kf.SpaceParams(4, 1, 1.0, kf.sphere_area(3)))
surf = kf.random_star_shaped(spheres[4], sphere_warp, seed=4, amplitude=0.05,
                             base_r=sphere_warp.r_from_rho(3.0))
kf.run_flow(surf, kf.FlowConfig(t_end=0.05))

graph = kf.kottler_pair_graph(params, 1.0)
kf.mass_limit(graph)
kf.mass_identity_check(graph)

scenarios = Path(kf.__file__).parent / "scenarios"
with tempfile.TemporaryDirectory() as out:
    for command, name in (("beckner", "beckner-sphere"), ("slice-check", "sphere-slice")):
        code = cli.main([command, "--config", str(scenarios / f"{name}.json"),
                         "--out", out, "--quiet"])
        assert code == 0, f"kflow {command} on {name}.json exited {code}"
"""


def test_kflow_runs_without_scipy():
    """A torus flow, sphere grids at n = 3, 4, 5, a sphere flow, the mass
    layer and the sphere scenarios of `kflow beckner` and `kflow slice-check`
    run in a process that cannot import scipy."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _leaf_keys(table, prefix=""):
    for key, spec in table.items():
        if isinstance(spec.type, dict):
            yield from _leaf_keys(spec.type, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_settable_surface():
    """Every value a scenario or a library entry point lets a caller set; a
    new setting shows up as a diff to this test."""
    assert sorted(_leaf_keys(cli._TABLE)) == sorted([
        "name", "seed", "checks",
        "space.n", "space.kappa", "space.m", "space.theta",
        "grid.mode", "grid.resolution",
        "surface.slice_lambda", "surface.base_lambda", "surface.amplitude",
        "flow.t_end", "flow.dt_max", "flow.record_interval",
        "mass.kind", "mass.m_graph", "mass.m_horizon", "mass.m_total", "mass.rate",
        "mass.expect_mass",
        "slice_check.lambdas",
        "inequalities.count", "inequalities.amplitude", "inequalities.base_lambda",
        "beckner.count", "beckner.amplitude",
    ])
    assert [f.name for f in dataclasses.fields(kflow.FlowConfig)] == [
        "t_end", "dt_max", "record_interval"]
    signatures = {
        kflow.build_warp_table: "(params)",
        kflow.mass_limit: "(graph)",
        kflow.mass_identity_check: "(graph, *, estimate=None)",
        kflow.kottler_pair_graph: "(params, m_graph)",
        kflow.mass_profile_graph: "(params, m_horizon, m_total, rate=1.0)",
    }
    for func, signature in signatures.items():
        assert str(inspect.signature(func)) == signature, func.__name__
