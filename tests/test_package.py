"""Package surface: every public name a module lists, and every name the
package re-exports, resolves; only a sphere grid loads scipy.special."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import kflow

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


# Run in a fresh interpreter: the pytest process may already hold scipy.special.
_SCIPY_FREE_RUN = """
import math, sys, tempfile
from pathlib import Path
import kflow as kf
import kflow.cli as cli

params = kf.SpaceParams(3, 0, 0.5, (2.0 * math.pi) ** 2)
warp = kf.build_warp_table(params)
grid = kf.make_grid("torus2d", 16, math.sqrt(params.theta))
surf = kf.random_star_shaped(grid, warp, seed=4, amplitude=0.03, base_r=warp.r_from_rho(2.0))
kf.run_flow(surf, kf.FlowConfig(t_end=0.05))
graph = kf.kottler_pair_graph(params, 1.0)
kf.mass_limit(graph)
kf.mass_identity_check(graph)
config = Path(kf.__file__).parent / "scenarios" / "kottler-mass.json"
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["mass", "--config", str(config), "--out", out, "--quiet"]) == 0
assert "scipy.special" not in sys.modules, "scipy.special loaded without a sphere grid"

sphere = kf.make_grid("sphere_axisym", 24)
assert "scipy.special" in sys.modules
from scipy.special import roots_jacobi
assert sphere.aux["mu"].tobytes() == roots_jacobi(24, 0.0, 0.0)[0].tobytes()
"""


def test_only_sphere_grids_load_scipy_special():
    """Torus flows, the mass layer and `kflow mass` run without scipy.special;
    the first sphere grid loads it and keeps roots_jacobi's nodes."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
