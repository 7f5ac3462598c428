"""Record the reference fidelities the benchmark checks every request against.

    python3 benchmark/record_references.py

Runs one request of each workload with the code in ./src and writes
benchmark/references.json.  The committed file was recorded from the code
the benchmark was defined on; re-record only when a workload definition
changes, never to make a changed program pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workload as wl


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    from ghzforge import cli

    references = {}
    for name, spec in wl.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
            work = Path(tmp)
            scenario = wl.scenario_path(spec, root, work)
            argv = wl.request_argv(spec, scenario, work / "out", list(spec.values), serial=True)
            if cli.main(argv) != 0:
                raise SystemExit(f"{name}: request failed")
            if spec.command == "run":
                (path,) = (work / "out").glob("*_summary.json")
                summary = json.loads(path.read_text())
                references[name] = {"fidelity_at_t_final": summary["fidelity_at_t_final"]}
            else:
                (path,) = (work / "out").glob("*_sweep_summary.json")
                points = json.loads(path.read_text())["points"]
                peaks = {wl.token(p["omega_r_multiple"]): p["peak_fidelity"] for p in points}
                references[name] = {"peak_fidelity": peaks}
    (wl.HERE / "references.json").write_text(json.dumps(references, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
