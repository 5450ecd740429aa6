"""hrx benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload study-tail --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; hrx is imported from its ``src``.  One
process, one thread, jobs in a closed loop: each job is an in-process
``hrx.cli.main([...])`` call and the next starts when it returns.  Jobs
run in whole passes until ``--seconds`` have elapsed.  Every job's output
is checked; a job that exits nonzero, raises, or writes a wrong result is
a failed operation.

With ``--trace 0`` the last line reports setup_s, ops_per_s, job_p90_s
and peak_rss_mb.  With ``--trace 1`` half the time runs
untraced and half with the tracer installed, and the last line reports
the per-layer metrics.  Earlier lines give every metric with its unit
and a ``meta`` line with the machine, versions and calibration rates.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import LAYERS, SpanSummary, Tracer
from workloads import WORKLOADS, Outcome, make_workload, run_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Fresh interpreters per run for setup_s; their median is reported.
PROBES = 5
PROBE_TIMEOUT_S = 60
CALIBRATION_LOOPS = 1_000_000
# Caps the spans kept in memory (about 80k per pass on every workload);
# per-pass counts are exact whatever the number of passes.
TRACED_PASSES = 8


def calibration_rate() -> float:
    """Million iterations per second of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_LOOPS):
        acc += (i % 7) * 0.5
    return CALIBRATION_LOOPS / (perf_counter() - t0) / 1e6


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_probe(workload: str, index: int) -> dict:
    out_csv = WORK / f"probe-{workload}-{index}.csv"
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(out_csv)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_hrx():
    sys.path.insert(0, str(SRC))
    import hrx
    if not Path(hrx.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hrx from {hrx.__file__}, not {SRC}")
    return hrx


class Runner:
    """Runs jobs of one workload, checks them and keeps the tallies."""

    def __init__(self, hrx, workload) -> None:
        self.hrx = hrx
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.byte_identical = 0
        self.failures: list[str] = []

    def record(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.byte_identical += outcome.byte_identical
        if not outcome.ok:
            self.failed += 1
            self.failures.append(outcome.detail)

    def job(self, job, tracer: Tracer | None) -> tuple[float, int]:
        argv = self.workload.argv(job)
        t0 = perf_counter()
        try:
            if tracer is None:
                rc, out, err = run_cli(self.hrx.cli, argv)
            else:
                rc, out, err = tracer.run_job(run_cli, self.hrx.cli, argv)
        except Exception:  # a job that raises is a failed operation
            elapsed = perf_counter() - t0
            self.record(Outcome(False, 0, False, traceback.format_exc(limit=3)))
            return elapsed, 0
        elapsed = perf_counter() - t0
        outcome = self.workload.check(job, rc, out, err)
        self.record(outcome)
        return elapsed, outcome.ops

    def phase(self, seconds: float, tracer: Tracer | None = None,
              max_passes: int | None = None) -> dict:
        """Whole passes until `seconds` have elapsed (at least one), or
        until `max_passes` passes have run."""
        pass_times, pass_ops, job_times, job_kinds = [], [], [], []
        deadline = perf_counter() + seconds
        if tracer is not None:
            tracer.install(self.hrx)
        try:
            while True:
                spent, ops = 0.0, 0
                for job in self.workload.next_pass():
                    elapsed, done = self.job(job, tracer)
                    job_times.append(elapsed)
                    job_kinds.append(self.workload.kind(job))
                    spent += elapsed
                    ops += done
                pass_times.append(spent)
                pass_ops.append(ops)
                if perf_counter() >= deadline or len(pass_times) == max_passes:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {"pass_times": pass_times, "pass_ops": pass_ops,
                "job_times": job_times, "job_kinds": job_kinds}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(probes: list[dict], timed: dict) -> tuple[dict, list[str]]:
    """The gated timings read the 90th percentile of each kind of job.

    Job times on a shared host are bimodal (a contended and an idle state,
    about 1.6x apart, switching within a second), and the share of each
    state drifts over minutes and hours.  A percentile flips between the
    two states when that share crosses it; the 90th percentile stayed in
    the slower state in nearly every run measured, lower ones did not.
    """
    job_times = timed["job_times"]
    by_kind: dict[object, list[float]] = {}
    for kind, elapsed in zip(timed["job_kinds"], job_times):
        by_kind.setdefault(kind, []).append(elapsed)
    # Every pass runs each kind of job once.
    pass_p90 = sum(_p90(times) for times in by_kind.values())
    p90 = _p90(job_times)
    p50 = statistics.median(job_times)
    metrics = {
        "setup_s": (statistics.median(p["import_s"] + p["first_s"] for p in probes), "s"),
        "ops_per_s": (statistics.fmean(timed["pass_ops"]) / pass_p90, "1/s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"jobs: {len(job_times)} in {len(timed['pass_times'])} passes; "
        f"{sum(1 for t in job_times if t > p90)} jobs beyond job_p90_s",
        f"job_p50_s (not gated): {p50:.6g} s; "
        f"{sum(1 for t in job_times if t > p50)} jobs beyond it",
        f"setup_s: median of {len(probes)} fresh interpreters",
    ]
    return metrics, notes


def per_layer(probes: list[dict], warm: SpanSummary, untraced: dict,
              traced: dict, s: SpanSummary) -> dict:
    passes = len(traced["pass_times"])
    metrics = {}
    for name in ("gauss.bvn_survival.tail", "gauss.bvn_survival.other",
                 "gauss.std_normal_survival", "hr_core.hr_approx",
                 "hr_core.tau", "triangular.exact_joint_max_cdf",
                 "norming.solve_bn", "oracle.quad_semi_infinite"):
        metrics[f"{name}.calls"] = (s.calls_of(name) / passes, "count/pass")
    for name in ("gauss.bvn_survival.tail", "gauss.bvn_survival.other",
                 "hr_core.hr_approx", "triangular.exact_joint_max_cdf",
                 "oracle.quad_semi_infinite"):
        metrics[f"{name}.us_per_call"] = (s.us_per_call(name), "us")
    metrics.update({
        "norming.solve_bn.cold_us": (warm.first_call_us("norming.solve_bn"), "us"),
        "norming.solve_bn.warm_us": (s.us_per_call("norming.solve_bn"), "us"),
        "oracle.quad_semi_infinite.evaluations": (
            s.amount_of("oracle.quad_semi_infinite") / passes, "count/pass"),
        "oracle.mc.us_per_mpair": (1e6 * s.us_per_amount("oracle.mc"), "us"),
        "cli.run_study.self_share": (s.self_share("cli.run_study"), "share"),
        "cli.write_records.us_per_record": (s.us_per_amount("cli.write_records"), "us"),
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.warmup_s": (statistics.median(p["first_s"] for p in probes), "s"),
        "trace.overhead": (statistics.median(traced["pass_times"])
                           / statistics.median(untraced["pass_times"]), "ratio"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (s.self_share(layer), "share")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hrx" / "__init__.py").is_file():
        print(f"error: no hrx package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    calibration_before = calibration_rate()
    probes = [run_probe(args.workload, i) for i in range(PROBES)]
    hrx = import_hrx()

    workload = make_workload(args.workload, args.seed, WORK / f"{args.workload}.csv")
    runner = Runner(hrx, workload)
    for probe in probes:
        runner.record(Outcome(probe["ok"], 0, False, probe["detail"]))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
    }
    # One untimed pass fills the norming cache and runs the first quadrature.
    if args.trace == 0:
        runner.phase(0.0)
        timed = runner.phase(args.seconds)
        metrics, notes = end_to_end(probes, timed)
    else:
        warm_tracer = Tracer()
        runner.phase(0.0, warm_tracer)
        untraced = runner.phase(args.seconds / 2)
        tracer = Tracer()
        traced = runner.phase(args.seconds / 2, tracer, TRACED_PASSES)
        metrics = per_layer(probes, SpanSummary(warm_tracer), untraced, traced,
                            SpanSummary(tracer))
        shares = {layer: metrics[f"{layer}.self_share"][0] for layer in LAYERS}
        dominant = max(shares, key=shares.get)
        span_file = WORK / f"trace-{args.workload}.npz"
        tracer.save(span_file)
        meta["dominant_layer"] = dominant
        meta["span_file"] = str(span_file.relative_to(ROOT))
        notes = [
            f"traced passes: {len(traced['pass_times'])}; "
            f"spans: {len(tracer.start)}",
            f"dominant layer: {dominant} (self share {shares[dominant]:.3f})",
        ]
    meta["calibration_mloops_per_s"] = [calibration_before, calibration_rate()]
    meta["byte_identical_jobs"] = runner.byte_identical
    meta["failures"] = runner.failures[:5]

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
