#!/usr/bin/env python3
"""dstable benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {tables,sampling,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/``. Set-up
is repeated in fresh worker processes and its median reported; the last
worker then runs the workload for S seconds of op time, single-threaded and
closed-loop, and checks every output. Prints a run record line, then, as the
last line, one JSON object: end-to-end metrics with --trace 0, per-layer
metrics (from a traced run) with --trace 1. End-to-end times are scaled to a
reference host speed by a calibration kernel (see worker.py and README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PACKAGE = ROOT / "src" / "dstable"
WORKLOADS = ("tables", "sampling", "cli")
# Set-up is timed in fresh processes, half before the measured run and half
# after it, so that a slow spell of the shared host moves few of them.
SETUP_RUNS_BEFORE = 3
SETUP_RUNS_AFTER = 3
WORKER_TIMEOUT_S = 170
THREAD_CAP = 1  # numeric-library threads per process, at most nproc
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "params.calls": "count", "params.self_s": "s", "params.errors": "count",
    "genfun.calls": "count", "genfun.self_s": "s", "genfun.errors": "count",
    "pmf.calls": "count", "pmf.self_s": "s", "pmf.errors": "count",
    "pmf.ds_pmf_s": "s", "pmf.masses_computed": "count", "pmf.mode_scan_s": "s",
    "pmf.inversion_s": "s", "pmf.oracle_max_abs_diff": "mass",
    "pmf.tail_bound_met_ratio": "ratio",
    "sampler.calls": "count", "sampler.self_s": "s", "sampler.errors": "count",
    "sampler.draws": "count", "sampler.us_per_draw": "us",
    "sampler.jumps_per_draw": "ratio", "sampler.thin_s": "s", "sampler.gof_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.errors": "count",
    "cli.bytes_out": "bytes", "cli.exit_outside_contract": "count",
    "import_s": "s", "trace.overhead_ratio": "ratio", "trace.op_wall_s": "s",
    "trace.unattributed_s": "s", "fail_ratio": "ratio", "probe.failed": "count",
}


def run_worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no dstable package under {PACKAGE}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = [run_worker(common + ["--setup-only"]) for _ in range(SETUP_RUNS_BEFORE)]
    spans = HERE / "out" / f"spans-{args.workload}.npz"
    run = run_worker(common + ["--trace", str(args.trace), "--spans", str(spans)])
    setups.append(run)
    setups += [run_worker(common + ["--setup-only"]) for _ in range(SETUP_RUNS_AFTER)]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run["attempted"],
        "op_time_s": run["op_time_s"],
        "raw": dict(
            run["raw"],
            setup_s=statistics.median(s["raw_setup_s"] for s in setups),
            ops_per_s=run["attempted"] / run["raw"]["op_time_s"],
        ),
        "failures": run["failures"],
        "wrong": run["wrong"],
        "probes": run["probes"],
        "shares": run["shares"],
        "gof": run["gof"],
        "setup_s_runs": [s["setup_s"] for s in setups],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "nproc": os.cpu_count(),
        "thread_cap": THREAD_CAP,
    }
    print(json.dumps({"record": record}))

    if args.trace:
        layers = dict(run["layers"], import_s=import_s)
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        op_time = run["op_time_s"]
        values = {
            "setup_s": setup_s,
            "op_ms.p50": run["p50_ms"],
            "op_ms.p90": run["p90_ms"],
            "ops_per_s": run["attempted"] / op_time,
            "items_per_s": run["items"] / op_time,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": run["wrong"] == 0 and run["probes"]["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
