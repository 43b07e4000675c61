"""One worker process of a run: build inputs, time operations, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --part K --min-ops M

is started by run.py with `src/` on PYTHONPATH and BLAS pinned to one
thread; it prints one JSON object with its raw latencies, reference-clock
scales (calibrate.py), counts and environment.

Both modes first run WARMUP_OPS untimed (but checked) operations.  Untraced
(`--trace 0`): whole cycles run in a closed loop, one operation at a time,
until S seconds have passed and at least M operations were timed.  Only the
operation is timed; its check runs outside the clock.

Traced (`--trace 1`): a fixed amount of work, `trace_cycles` cycles worth
about S/2 seconds at the seed, runs twice, alternating one untraced cycle
with the same cycle traced, so per-layer totals compare across commits and
the two halves give the tracing overhead.  The su(n) bases are built under
the tracer first, so `build_su_basis` carries the workload's set-up cost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import probe
import workloads
from calibrate import ReferenceClock
from tracer import FUNCTIONS, TARGETS, Tracer

#: untimed warm-up operations (checked and counted) before timing starts
WARMUP_OPS = 8

#: nominal seconds per cycle at the seed (one BLAS thread), sizing the
#: traced run's fixed work from --seconds
NOMINAL_CYCLE_S = {
    "verdict_scan": 0.2,
    "entropy_dynamics": 1.5,
    "gaussian_fock": 3.8,
    "cli_manifest": 0.25,
}


def trace_cycles(workload, seconds):
    return max(1, round(seconds / (2.0 * NOMINAL_CYCLE_S[workload])))


class Tally:
    """Latencies and outcomes of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes = Counter()
        self.first_failure: str | None = None
        self.clock = ReferenceClock()

    def run_cycle(self, ops, timed=True):
        """Run one cycle; return the seconds spent inside operations.

        Untimed operations (the warm-up) still have their outcomes counted.
        """
        busy = 0.0
        if timed:
            self.clock.start()
        for op in ops:
            start = perf_counter()
            try:
                out = op.run()
            except Exception:
                elapsed = perf_counter() - start
                outcome = workloads.WRONG
                self._note(op, traceback.format_exc())
            else:
                elapsed = perf_counter() - start
                try:
                    outcome = op.check(out)
                except Exception:  # output too malformed to compare
                    outcome = workloads.WRONG
                    self._note(op, traceback.format_exc())
                if outcome == workloads.WRONG:
                    self._note(op, f"wrong answer: {out!r:.300}")
            busy += elapsed
            if timed:
                self.latencies.append(elapsed)
                self.clock.after(len(self.latencies), elapsed)
            self.outcomes[outcome] += 1
        return busy

    def _note(self, op, detail):
        if self.first_failure is None:
            self.first_failure = f"{op.kind}: {detail}"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run(workload, seed, seconds, trace, workdir, part, min_ops):
    """Run one workload; return counts, raw timings and environment.

    `part` numbers the worker within a run: it picks the pool cycle to start
    from, and only part 0 runs the norm-identity gate.
    """
    probe.import_package(workload)
    tracer = None
    setup_wall = 0.0
    if trace:
        tracer = Tracer()
        tracer.install()
        start = perf_counter()
        probe.build_bases(workload)
        setup_wall = perf_counter() - start
        tracer.uninstall()
    else:
        probe.build_bases(workload)

    pool = workloads.WORKLOADS[workload](np.random.default_rng(seed), workdir)
    gate_checks = gate_mismatches = 0
    if workload == "verdict_scan" and part == 0:
        gate_checks, gate_mismatches = workloads.norm_identity_gate(pool[0])

    tally = Tally()
    # an untimed warm-up lets first-call costs (lazy imports, allocator
    # growth, BLAS buffers) settle before anything is timed
    tally.run_cycle(pool[-1][:WARMUP_OPS], timed=False)
    package = Path(workloads.bloch.__file__).resolve().parent
    result = {"package": str(package), "env": environment(seed)}
    first = 2 * part  # parts of one run start on different pool cycles
    if trace:
        plain_s = traced_s = 0.0
        cycles = trace_cycles(workload, seconds)
        for index in range(first, first + cycles):
            ops = pool[index % len(pool)]
            plain_s += tally.run_cycle(ops)
            tracer.install()
            try:
                traced_s += tally.run_cycle(ops)
            finally:
                tracer.uninstall()
        ops = cycles * len(pool[0])
        lat = tally.latencies
        scale = sum(x * f for x, f in zip(lat, tally.clock.scales(len(lat)))) / sum(lat)
        result["metrics"] = layer_metrics(
            tracer, setup_wall + traced_s, scale,
            traced_ops_per_s=ops / (traced_s * scale),
            untraced_ops_per_s=ops / (plain_s * scale),
        )
    else:
        cycles = 0
        start = perf_counter()
        while perf_counter() - start < seconds or len(tally.latencies) < min_ops:
            tally.run_cycle(pool[(first + cycles) % len(pool)])
            cycles += 1
        result.update(
            latencies=tally.latencies,
            scales=tally.clock.scales(len(tally.latencies)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

    result.update(
        cycles=cycles,
        attempted=sum(tally.outcomes.values()) + gate_checks,
        ok=tally.outcomes[workloads.OK],
        known_defect=tally.outcomes[workloads.KNOWN_DEFECT],
        identity_checks=gate_checks,
        identity_mismatches=gate_mismatches,
        first_failure=tally.first_failure,
    )
    return result


def layer_metrics(tracer, wall_s, scale, traced_ops_per_s, untraced_ops_per_s):
    """Per-layer metrics; seconds are reference seconds (see calibrate.py)."""
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name] * scale
    for module in TARGETS:
        metrics[f"{module}.self_share"] = tracer.module_self_s(module) / wall_s
        metrics[f"{module}.errors"] = tracer.errors[module]
    rates = tracer.calls["dynamics.entropy_rate"]
    metrics["dynamics.entropy_rate.fd_share"] = (
        tracer.calls["dynamics.evolve"] / (2.0 * rates) if rates else 0.0
    )
    metrics["trace.traced_ops_per_s"] = traced_ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s
    metrics["trace.overhead_frac"] = untraced_ops_per_s / traced_ops_per_s - 1.0
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.trace, args.workdir,
                 args.part, args.min_ops)
    if result["first_failure"]:
        print(f"first failed operation: {result['first_failure']}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
