"""Benchmark of the lazystates decision routes, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it carries the environment and the raw counts.  `all` runs every
workload in both modes and ends with one JSON object keyed by workload.

An end-to-end run splits its seconds over WORKERS_PER_RUN worker processes
and also times the set-up (importing the package and building the su(n)
bases the workload needs) in SETUP_PROBES fresh interpreters, reporting the
median as `setup_s`.  Times are in reference seconds (calibrate.py); the
report line also gives them in wall seconds.

`correct` is false when an operation gives a wrong answer with no known
cause or the norm identity fails.  Wrong answers with a known cause, such
as the finite-difference rate defect, stay counted in `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed for `setup_s`; the median is reported
SETUP_PROBES = 5

#: an end-to-end run splits its seconds over this many worker processes, one
#: after another, so one process's luck with the shared host counts less
WORKERS_PER_RUN = 2

#: a run times at least this many operations: p90 keeps 10 samples beyond it
MIN_OPS = 100

PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
WORKLOAD_NAMES = ("verdict_scan", "entropy_dynamics", "gaussian_fock", "cli_manifest")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread, at most nproc, and no oversubscription noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    return proc.stdout.strip().splitlines()[-1]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def quantile(sorted_values, q):
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def run_workers(workload, seed, seconds, trace, workdir):
    """Raw outputs of the run's worker processes, one after another."""
    parts = 1 if trace else WORKERS_PER_RUN
    outputs = []
    for part in range(parts):
        outputs.append(json.loads(run_child(
            [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds / parts), "--trace", str(trace),
             "--workdir", str(workdir), "--part", str(part),
             "--min-ops", str(-(-MIN_OPS // parts))],
            WORKER_TIMEOUT_S,
        )))
    return outputs


def timing_metrics(outputs, setup, scaled):
    """Set-up and operation timings, in reference or in raw wall seconds."""
    lat = sorted(
        x * (f if scaled else 1.0)
        for out in outputs for x, f in zip(out["latencies"], out["scales"])
    )
    return {
        "setup_s": statistics.median(p["raw_s"] * (p["scale"] if scaled else 1.0)
                                     for p in setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * quantile(lat, 0.5),
        "op_p90_ms": 1e3 * quantile(lat, 0.9),
    }


def run_workload(workload, seed, seconds, trace):
    """Return (report, result) for one run; raise BenchError on failure."""
    workdir = ROOT / ".perfbench_run" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        if not trace:
            setup = [
                json.loads(run_child([str(HERE / "probe.py"), workload], PROBE_TIMEOUT_S))
                for _ in range(SETUP_PROBES)
            ]
        outputs = run_workers(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for out in outputs:
        if Path(out["package"]) != (SRC / "lazystates").resolve():
            raise BenchError(f"imported lazystates from {out['package']}, not from {SRC}")
    return summarize(workload, outputs, setup, trace)


def summarize(workload, outputs, setup, trace):
    """(report, result) from the workers' raw outputs and the set-up probes.

    `correct` holds when every failed operation is a known defect; those
    still count in `failed`.
    """
    end_to_end, per_layer = declared_metrics()
    counts = {key: sum(out[key] for out in outputs)
              for key in ("cycles", "attempted", "ok", "known_defect",
                          "identity_checks", "identity_mismatches")}
    failed = (counts["attempted"] - counts["ok"] - counts["identity_checks"]
              + counts["identity_mismatches"])
    raw_timings = {}
    if trace:
        values = outputs[0]["metrics"]
    else:
        values = timing_metrics(outputs, setup, scaled=True)
        values["peak_rss_mb"] = max(out["peak_rss_mb"] for out in outputs)
        values["ok_frac"] = 1.0 - failed / counts["attempted"]
        raw_timings = timing_metrics(outputs, setup, scaled=False)
    units = per_layer if trace else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": failed == counts["known_defect"],
        "attempted": counts["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = dict(
        counts, workload=workload, trace=trace, env=outputs[0]["env"],
        op_samples=sum(len(out.get("latencies", ())) for out in outputs),
        failed_frac=failed / counts["attempted"], wall_clock=raw_timings,
        setup_scales=[p["scale"] for p in setup],
        first_failures=[out["first_failure"] for out in outputs if out["first_failure"]],
    )
    return report, result


def print_table(workload, result):
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="lazystates benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lazystates" / "__init__.py").is_file():
        print(f"perfbench: no lazystates sources under {SRC}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOAD_NAMES for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    combined = {}
    try:
        for workload, trace in runs:
            report, result = run_workload(workload, args.seed, args.seconds, trace)
            print(json.dumps(report))
            print_table(workload, result)
            combined.setdefault(workload, {})["trace" if trace else "end_to_end"] = result
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result if args.workload != "all" else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
