"""ghzforge benchmark: one command that runs a workload, checks it and
prints every metric with its unit.

    python3 benchmark/run.py --workload coupled_gate|single_sweep|effective_gate \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ghzforge from ./src.  The
workload itself runs in a child process (benchmark/workload.py) so that its
peak memory, pool workers included, can be read from the kernel's rusage
for that child.  Set-up time is measured in fresh interpreters of its own.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones; see benchmark/NOTES.md for what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_LAYERS = ("operators", "model", "analytic", "dynamics", "scenario", "selftest", "cli")
SETUP_CODE = "import ghzforge.cli as cli; cli.build_parser()"
# The set-up interpreter prints the system-wide monotonic clock once ready,
# so interpreter teardown is not counted as set-up.
SETUP_MARK_CODE = SETUP_CODE + "; import time; print(repr(time.monotonic()))"
RUN_BUDGET_S = 170  # the whole run, child included, ends within this
# BLAS is pinned to one thread for every workload: the sweep already runs
# one process per core, and a shared 2-core host is steadier without
# BLAS threads competing for it.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "gates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}
PER_LAYER_UNITS = {
    **{f"setup.import_ms.{m}": "ms" for m in IMPORT_LAYERS},
    "scenario.load_ms": "ms",
    "model.build_ms": "ms",
    "model.dim": "count",
    "model.h_nnz": "count",
    "dynamics.evolve_s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us": "us",
    "dynamics.useful_gflop_s": "GFLOP/s",
    "dynamics.observe_ms": "ms",
    "dynamics.samples": "count",
    "dynamics.observe_us_per_sample": "us",
    "dynamics.max_norm_drift": "ratio",
    "dynamics.sweep_point_s": "s",
    "dynamics.sweep_workers": "count",
    "dynamics.sweep_parallel_efficiency": "ratio",
    "cli.write_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.unattributed_ms": "ms",
    "trace.overhead_fraction": "ratio",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("GHZFORGE_THREADS", None)  # the sweep uses the program's default pool
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    return env


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than eleven samples there is no such percentile; the maximum
    is reported instead, as the 100th.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(env: dict) -> list[float]:
    """Spawn to `ghzforge.cli` ready, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_MARK_CODE], env=env, check=True,
                              timeout=60, capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def import_ms(env: dict) -> dict[str, float]:
    """Cumulative import time of each ghzforge module, median of fresh runs."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_LAYERS}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE], env=env,
                              check=True, timeout=60, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("ghzforge."):
                module = parts[2].strip()[len("ghzforge."):]
                if module in samples:
                    samples[module].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def run_child(argv: list[str], env: dict, log: Path, deadline: float):
    """Run the workload child; return its exit code and peak RSS in MB.

    os.wait4 gives the rusage of this child alone, which includes the pool
    workers it reaped; the set-up interpreters are not counted.  Past the
    deadline the child's whole process group, pool workers too, is killed.
    """
    with open(log, "w") as handle:
        proc = subprocess.Popen(argv, env=env, stdout=handle, stderr=subprocess.STDOUT,
                                start_new_session=True)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cpu_record() -> dict:
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as handle:
            record["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        record["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    record["caches"] = caches
    return record


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ghzforge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd().resolve()
    if not (root / "src" / "ghzforge" / "cli.py").is_file():
        print(f"no ghzforge sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)

    # set-up first: it also warms the file cache for the child's imports
    if args.trace:
        imports = import_ms(env)
    else:
        setup = setup_seconds(env)
    result_path = work / "result.json"
    child = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result_path),
    ]
    rc, peak_rss_mb = run_child(child, env, work / "child.log", deadline)
    if rc != 0 or not result_path.is_file():
        sys.stderr.write((work / "child.log").read_text()[-4000:])
        print(f"workload child exited with {rc}", file=sys.stderr)
        return 1
    child_result = json.loads(result_path.read_text())

    environment = {
        **cpu_record(),
        **child_result["environment"],
        "blas_threads": {key: BLAS_THREADS for key in BLAS_ENV},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "sweep_values_order": child_result["values"],
    }
    print("environment: " + json.dumps(environment, sort_keys=True))
    for failure in child_result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    attempted, failed = child_result["attempted"], child_result["failed"]
    if args.trace:
        metrics = {f"setup.import_ms.{m}": v for m, v in imports.items()}
        metrics.update(child_result["layers"])
        if child_result["missing_boundaries"]:
            print("missing boundaries (reported as 0): "
                  + ", ".join(child_result["missing_boundaries"]))
        units = PER_LAYER_UNITS
    else:
        walls = child_result["walls"]
        tail_s, tail_rank = tail(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": tail_s,
            "gates_per_s": child_result["gates"] / sum(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_fraction": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
        print(f"wall_s_tail is p{tail_rank:.1f} of {len(walls)} timed requests; "
              f"setup_s is the median of {SETUP_REPEATS} fresh interpreters")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
