"""One benchmark process: set up a workload, then run and check its ops.

Started by run.py in a fresh interpreter, so that ``setup_s`` includes the
import of dstable. With --setup-only it stops once the first op is ready.
Prints one JSON object as its last line of output.
"""

import time

T0 = time.perf_counter()
T0_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import dstable  # noqa: E402
import dstable.cli  # noqa: E402  (not imported by the package itself)

T_IMPORT = time.perf_counter() - T0

import numpy as np  # noqa: E402

from stats import percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GOF_FAMILY_ALPHA, PROPERTIES, WORKLOADS, WrongAnswer  # noqa: E402

MIN_OPS = 100  # p90 then has at least ten ops beyond it
MEASURE_DEADLINE_S = 120.0  # keeps a slow build inside the per-run limit
TRACE_DEADLINE_S = 70.0  # a traced run also replays its ops untraced

# An op's time is the CPU time the process spends on it (one thread does all
# the work). Its wall time also holds the time it waited for a CPU that other
# tenants of a shared host held, which sets the tail of the op times by the
# tenants' load, not by the code; wall times go to the record. The run still
# lasts --seconds of wall-clock op time.
# The CPU speed of a shared host drifts too, by tens of percent within
# minutes. A fixed kernel is therefore timed (in CPU time) every
# CALIBRATION_PERIOD_S between ops, and each op's time is scaled by
# K_REF_S / (the median kernel time within CALIBRATION_WINDOW_S of the op):
# end-to-end times are "reference-speed" seconds.
K_REF_S = 2.0e-3
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_WINDOW_S = 1.0
_KERNEL_A = np.arange(10_000.0)
_KERNEL_B = np.ones(10_000)


def calibration_kernel() -> float:
    """CPU time of a fixed mix of interpreter and numpy work (about 2 ms).

    The numpy part is dot products over reversed views of 64 KB arrays,
    which is what a PMF recursion step does; it tracks cache and memory
    contention from other tenants better than in-cache dot products.
    """
    t = time.process_time()
    x = 0
    for k in range(20_000):
        x += k & 7
    for n in range(8000, 8100):
        x += float(np.dot(_KERNEL_A[n:0:-1], _KERNEL_B[:n]))
    return time.process_time() - t


class Record:
    """One op: wall-clock start, CPU and wall seconds, scaled CPU seconds, outcome."""

    __slots__ = (
        "op", "start", "seconds", "wall", "scaled", "status", "cause", "items", "pvalue",
    )

    def __init__(self, op, start, seconds, wall):
        self.op, self.start, self.seconds, self.wall = op, start, seconds, wall
        self.scaled = seconds
        self.status, self.cause, self.items, self.pvalue = "ok", None, 0, None


def describe(exc: BaseException, op) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{Path(frame.filename).name}:{frame.name}"
    return f"{type(exc).__name__} at {where} [{op.label}]"


def describe_op(op) -> str:
    return " ".join(op.argv) if hasattr(op, "argv") else op.label


class Calibration:
    """Kernel times taken between ops, and the scaling they give each op."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def tick(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CALIBRATION_PERIOD_S:
            self.samples.append((time.perf_counter(), calibration_kernel()))

    def scale(self, records: list) -> None:
        """Set each record's reference-speed time from the kernels around it."""
        self.samples.append((time.perf_counter(), calibration_kernel()))
        when = np.array([w for w, _ in self.samples])
        took = np.array([k for _, k in self.samples])
        for r in records:
            mid = r.start + r.wall / 2
            near = np.abs(when - mid) <= CALIBRATION_WINDOW_S + r.wall / 2
            local = np.median(took[near]) if near.any() else took[np.argmin(np.abs(when - mid))]
            r.scaled = r.seconds * K_REF_S / local


def attempt(wl, op, tracer=None, i: int = 0) -> Record:
    """Run one op (timed), then check its output (untimed)."""
    if tracer is not None:
        tracer.begin_op(i)
    t, c = time.perf_counter(), time.process_time()
    try:
        result = wl.run(op)
        exc = None
    except Exception as err:  # every failure is counted, none filtered
        result, exc = None, err
    rec = Record(op, t, time.process_time() - c, time.perf_counter() - t)
    if tracer is not None:
        tracer.end_op()
    if exc is not None:
        rec.status, rec.cause = "error", describe(exc, op)
    else:
        try:
            rec.items, rec.pvalue = wl.check(op, result)
        except WrongAnswer as wrong:
            if wrong.known is None:
                rec.status, rec.cause = "wrong", f"wrong: {wrong} [{describe_op(op)}]"
            else:
                rec.status, rec.cause = "defect", f"defect: {wrong.known} [{op.label}]"
        except Exception as err:
            rec.status, rec.cause = "wrong", f"check raised {describe(err, op)}"
    return rec


def measure(wl, seconds: float, deadline: float, min_ops: int, tracer=None) -> list:
    records = []
    calibration = Calibration()
    spent = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        calibration.tick()
        rec = attempt(wl, wl.ops[i % len(wl.ops)], tracer, i)
        records.append(rec)
        spent += rec.wall
        i += 1
        if spent >= seconds and len(records) >= min_ops:
            break
        if time.perf_counter() - start >= deadline:
            break
    calibration.scale(records)
    return records


def probe(wl) -> list:
    """The workload's ops on known defects, once each, after timing.

    They are reported apart from the timed ops, and their outcome depends
    only on the code: a fix shows as fewer probe failures, not as a change
    in how many timed ops a run happened to get through.
    """
    return [attempt(wl, op) for op in wl.probes]


def gate_goodness_of_fit(records: list) -> None:
    """Fail ops whose p-value is below the run's Bonferroni threshold."""
    gated = [r for r in records if r.pvalue is not None and r.status == "ok"]
    threshold = GOF_FAMILY_ALPHA / max(len(gated), 1)
    for r in gated:
        if r.pvalue < threshold:
            r.status = "wrong"
            r.cause = (
                f"wrong: chi-square p = {r.pvalue:.3e} < {threshold:.3e} [{describe_op(r.op)}]"
            )


def replay(wl, records: list) -> float:
    """Untraced reference-speed time of the same ops, for the tracing overhead."""
    calibration = Calibration()
    again = []
    for rec in records:
        calibration.tick()
        t, c = time.perf_counter(), time.process_time()
        try:
            wl.run(rec.op)
        except Exception:
            pass
        again.append(Record(rec.op, t, time.process_time() - c, time.perf_counter() - t))
    calibration.scale(again)
    return sum(r.scaled for r in again)


def summarize_probes(records: list) -> dict:
    return {
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "wrong": sum(r.status == "wrong" for r in records),
        "failures": dict(Counter(r.cause for r in records if r.status != "ok")),
    }


def summarize(wl, records: list) -> dict:
    failures = Counter(r.cause for r in records if r.status != "ok")
    shares = Counter()
    for r in records:
        for name, flag in zip(PROPERTIES, wl.labels(r.op, r.items)):
            shares[name] += flag
    pvalues = [r.pvalue for r in records if r.pvalue is not None]
    ms = sorted(1e3 * r.scaled for r in records)
    raw_ms = sorted(1e3 * r.wall for r in records)
    return {
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "wrong": sum(r.status == "wrong" for r in records),
        "failures": dict(failures),
        "shares": {name: shares[name] / len(records) for name in PROPERTIES},
        "gof": {"ops": len(pvalues), "min_p": min(pvalues) if pvalues else None},
        "op_time_s": sum(r.scaled for r in records),
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "raw": {
            "op_time_s": sum(r.wall for r in records),
            "cpu_op_time_s": sum(r.seconds for r in records),
            "p50_ms": percentile(raw_ms, 50),
            "p90_ms": percentile(raw_ms, 90),
        },
        "items": sum(r.items for r in records if r.status == "ok"),
    }


def layer_metrics(wl, tracer: Tracer, records: list, untraced: float, probes: list) -> dict:
    s = tracer.summary()
    draws = s["calls:sampler.sample_ds"]
    tables = tracer.tables
    out = {}
    for layer in ("params", "genfun", "pmf", "sampler", "cli"):
        out[f"{layer}.calls"] = s[f"{layer}.calls"]
        out[f"{layer}.self_s"] = s[f"{layer}.self_s"]
        out[f"{layer}.errors"] = tracer.errors[layer]
    out.update({
        "pmf.ds_pmf_s": s["incl_s:pmf.ds_pmf"],
        "pmf.masses_computed": tracer.masses_computed,
        "pmf.mode_scan_s": s["incl_s:pmf.mode_scan"],
        "pmf.inversion_s": s["incl_s:pmf.ds_pmf_inversion"],
        "pmf.oracle_max_abs_diff": wl.oracle_max_abs_diff,
        "pmf.tail_bound_met_ratio": tracer.tables_met / tables if tables else 0.0,
        "sampler.draws": draws,
        "sampler.us_per_draw": 1e6 * s["incl_s:sampler.sample_ds"] / draws if draws else 0.0,
        "sampler.jumps_per_draw": s["calls:sampler.sample_bsib"] / draws if draws else 0.0,
        "sampler.thin_s": s["incl_s:sampler.thin"],
        "sampler.gof_s": s["incl_s:sampler.tv_against_table"],
        "cli.bytes_out": wl.bytes_out,
        # an exception out of cli.main would end the process with exit code 1
        "cli.exit_outside_contract": wl.exit_outside_contract
        + (sum(r.status == "error" for r in records) if wl.name == "cli" else 0),
        "trace.overhead_ratio": sum(r.scaled for r in records) / untraced,
        "trace.op_wall_s": s["incl_s:bench.op"],
        "trace.unattributed_s": s["bench.self_s"],
        "fail_ratio": sum(r.status != "ok" for r in records) / len(records),
        "probe.failed": sum(r.status != "ok" for r in probes),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    if not Path(dstable.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported dstable from {dstable.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", dstable.errors.TailBoundUnreachable)
    wl = WORKLOADS[args.workload](dstable, args.seed)
    wl.warm_up()
    wl.oracle_max_abs_diff, wl.bytes_out, wl.exit_outside_contract = 0.0, 0, 0
    setup_s, setup_cpu_s = time.perf_counter() - T0, time.process_time() - T0_CPU
    speed = K_REF_S / float(np.median([calibration_kernel() for _ in range(15)]))
    out = {"setup_s": setup_cpu_s * speed, "import_s": T_IMPORT, "raw_setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            records = measure(wl, args.seconds, TRACE_DEADLINE_S, 1, tracer)
            tracer.uninstall()
            untraced = replay(wl, records)
            if args.spans is not None:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                tracer.dump(args.spans)
        else:
            records = measure(wl, args.seconds, MEASURE_DEADLINE_S, MIN_OPS)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = probe(wl)
        gate_goodness_of_fit(records + probes)
        if args.trace:
            out["layers"] = layer_metrics(wl, tracer, records, untraced, probes)
        out.update(summarize(wl, records))
        out["probes"] = summarize_probes(probes)
        out["numpy"] = np.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
