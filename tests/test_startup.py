"""Start-up cost: `run`, `sweep`, `coupler` and `solve` need numpy and
scipy.sparse only.

No package module loads scipy.linalg, scipy.integrate or scipy.optimize.
Each check runs in a fresh interpreter against the package source in this
checkout and reads which modules got loaded; no time is measured.  A last
check reads the package's exports.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ghzforge
from ghzforge.scenario import bundled_scenario_path

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.optimize")

# Imports the CLI, records the public SciPy subpackages loaded by that import
# alone, runs each argv list of argv[1] through cli.main, and prints one JSON
# line with the exit codes and which DEFERRED modules are loaded by then.
_PROBE = """
import json, sys
from ghzforge import cli

def scipy_packages():
    return sorted(
        name for name, module in sys.modules.items()
        if name.startswith("scipy.") and name.count(".") == 1
        and not name.split(".")[1].startswith("_") and hasattr(module, "__path__")
    )

on_import = scipy_packages()
cli.build_parser()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name in json.loads(sys.argv[2]) if name in sys.modules]
print(json.dumps({"on_import": on_import, "codes": codes, "loaded": loaded}))
"""

# Imports every ghzforge submodule and prints one JSON line with their names
# and which DEFERRED modules are loaded by then.
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
import ghzforge

names = [f"ghzforge.{info.name}" for info in pkgutil.iter_modules(ghzforge.__path__)]
for name in names:
    importlib.import_module(name)
loaded = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
print(json.dumps({"imported": names, "loaded": loaded}))
"""


def _probe(script, args, cwd):
    """Run script in a fresh interpreter with args and DEFERRED as JSON
    arguments; return the JSON record it prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *map(json.dumps, args), json.dumps(DEFERRED)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_commands_load_only_numpy_and_scipy_sparse(tmp_path):
    doc = json.loads(bundled_scenario_path("single_tlr_ghz_effective").read_text())
    doc["t_final_ns"] = 0.5
    scenario = tmp_path / "single_tlr_ghz_effective.json"
    scenario.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    commands = [
        ["run", str(scenario), "--out-dir", out],
        [
            "sweep", str(bundled_scenario_path("single_tlr_drive_sweep")),
            "--param", "omega_r_multiple", "--values", "20", "--window", "0:0.05",
            "--workers", "1", "--out-dir", out,
        ],
        ["coupler", "--lc-ph", "200", "--ic-ua", "1.5", "--mca-ph", "60", "--mcb-ph", "60",
         "--out-dir", out],
        ["solve", "--mode", "single", "--g-ghz", "0.05"],
    ]
    record = _probe(_PROBE, [commands], tmp_path)
    assert record["on_import"] == ["scipy.sparse"]
    assert record["codes"] == [0] * len(commands)
    assert record["loaded"] == []


def test_no_module_loads_a_deferred_scipy_package(tmp_path):
    record = _probe(_IMPORT_ALL, [], tmp_path)
    assert {"ghzforge.cli", "ghzforge.dynamics", "ghzforge.operators"} <= set(record["imported"])
    assert record["loaded"] == []


def test_every_exported_name_resolves():
    """Each name in `ghzforge.__all__` and in every submodule's `__all__`
    exists, so deleting a function cannot leave a dangling export."""
    modules = [ghzforge] + [
        importlib.import_module(f"ghzforge.{info.name}")
        for info in pkgutil.iter_modules(ghzforge.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in exporting} >= {"ghzforge", "ghzforge.operators", "ghzforge.model"}
    missing = [
        f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)
    ]
    assert missing == []
