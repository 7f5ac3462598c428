"""Start-up cost: importing the CLI loads numpy and the standard library
only, and `scipy.sparse` is loaded by the first RK4 run and by nothing else.

No package module loads scipy.linalg, scipy.integrate or scipy.optimize,
and none loads scipy.sparse or multiprocessing on import.  Each check runs
in a fresh interpreter against the package source in this checkout and
reads which modules got loaded; no time is measured.  A last check reads
the package's exports.
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
DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.sparse")
WATCHED = (*DEFERRED, "multiprocessing")

# Imports the CLI, records the public SciPy subpackages loaded by that import
# alone and whether it loaded multiprocessing, runs each argv list of
# argv[1] through cli.main, and prints one JSON line with the exit codes
# and, after each command, which of the modules in argv[2] are loaded.
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
pool_on_import = "multiprocessing" in sys.modules
cli.build_parser()
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv))
    loaded.append([name for name in json.loads(sys.argv[2]) if name in sys.modules])
print(json.dumps(
    {"on_import": on_import, "pool_on_import": pool_on_import, "codes": codes, "loaded": loaded}
))
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


def _probe(script, args, cwd, watched=DEFERRED):
    """Run script in a fresh interpreter with args and watched as JSON
    arguments; return the JSON record it prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *map(json.dumps, args), json.dumps(watched)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def _short_scenario(tmp_path, name, **changes):
    """A bundled scenario with some keys replaced, written under tmp_path."""
    doc = json.loads(bundled_scenario_path(name).read_text())
    doc.update(changes)
    path = tmp_path / f"{name}_{'_'.join(map(str, changes.values()))}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_commands_load_scipy_sparse_only_for_rk4(tmp_path):
    """Exact runs, `coupler` and `solve` leave scipy.sparse unloaded; the
    first `full` run loads it, and a one-worker sweep loads no pool.  The
    exact runs propagate the exchange sector, so numpy alone covers it."""
    out = str(tmp_path / "out")
    exact = [tmp_path / "effective", tmp_path / "rotating"]
    commands = [
        ["run", _short_scenario(tmp_path, "single_tlr_ghz_effective", t_final_ns=0.5),
         "--out-dir", str(exact[0])],
        ["run", _short_scenario(tmp_path, "single_tlr_ghz", variant="rotating", t_final_ns=0.5),
         "--out-dir", str(exact[1])],
        ["coupler", "--lc-ph", "200", "--ic-ua", "1.5", "--mca-ph", "60", "--mcb-ph", "60",
         "--out-dir", out],
        ["solve", "--mode", "single", "--g-ghz", "0.05"],
        ["run", _short_scenario(tmp_path, "single_tlr_ghz", t_final_ns=0.05), "--out-dir", out],
        [
            "sweep", str(bundled_scenario_path("single_tlr_drive_sweep")),
            "--param", "omega_r_multiple", "--values", "20", "--window", "0:0.05",
            "--workers", "1", "--out-dir", out,
        ],
    ]
    record = _probe(_PROBE, [commands], tmp_path, WATCHED)
    assert record["on_import"] == []
    assert record["pool_on_import"] is False
    assert record["codes"] == [0] * len(commands)
    assert record["loaded"] == [[]] * 4 + [["scipy.sparse"]] * 2
    for directory in exact:
        (summary,) = (json.loads(path.read_text()) for path in directory.glob("*_summary.json"))
        assert summary["propagator"] == "exact"
        assert (summary["diagnostics"]["propagated_dim"], summary["dim"]) == (30, 40)


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
