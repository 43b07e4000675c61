"""Quick self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Checks that a tiny run of every workload, untraced and traced, prints every
metric of BENCHMARK.json with its unit; that an injected wrong verdict is
counted as a failed operation and clears `correct`; that the tracer leaves
the package as it found it; and that the benchmark refuses to run, printing
no result, in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

failures = []


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run_bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def tiny_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace)])
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0: {proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result keys")
            expect(result["correct"] and result["attempted"] >= 1, f"{label} correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in declared},
                   f"{label} prints every declared metric with its unit")


def injected_wrong_verdict():
    import run
    import worker
    from lazystates import laziness

    original = laziness.is_lazy

    def flipped(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, is_lazy=not report.is_lazy)

    workdir = ROOT / ".perfbench_run" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    laziness.is_lazy = flipped
    try:
        raw = worker.run("verdict_scan", 7, 0.0, 0, str(workdir), part=0, min_ops=40)
    finally:
        laziness.is_lazy = original
        shutil.rmtree(workdir, ignore_errors=True)
    probe = {"raw_s": 1.0, "scale": 1.0}
    report, result = run.summarize("verdict_scan", [raw], [probe], trace=0)
    expect(result["failed"] == result["attempted"] - report["identity_checks"]
           and not result["correct"] and result["metrics"]["ok_frac"]["value"] < 1.0,
           "an injected wrong verdict fails every operation, lowers ok_frac, clears correct")


def tracer_restores_package():
    import lazystates
    from tracer import TARGETS, Tracer

    before = {(mod, name): getattr(getattr(lazystates, mod), name)
              for mod, names in TARGETS.items() for name in names}
    init = lazystates.bloch.DensityMatrix.__init__
    tracer = Tracer()
    tracer.install()
    wrapped = lazystates.laziness.is_lazy is not before[("laziness", "is_lazy")]
    tracer.uninstall()
    after = {key: getattr(getattr(lazystates, key[0]), key[1]) for key in before}
    expect(wrapped and before == after and lazystates.bloch.DensityMatrix.__init__ is init,
           "tracer wraps on install and restores every attribute on uninstall")


def refuses_without_sources():
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(["--workload", "verdict_scan", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "exits non-zero with no result where only the benchmark files exist")


def main():
    import lazystates.cli  # noqa: F401  (the tracer patches it when loaded)

    tracer_restores_package()
    injected_wrong_verdict()
    refuses_without_sources()
    tiny_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
