"""Set-up phase of a workload, timed in a fresh interpreter.

    python3 perfbench/probe.py <workload>

prints the seconds spent importing `lazystates` and building the su(n)
bases the workload relies on, and the reference-clock scale measured right
after (see calibrate.py).  Only the standard library is imported before
the clock starts, so the time includes numpy and scipy.
"""

import json
import statistics
import sys
import time

#: reference-clock samples taken after the set-up (about 15 ms)
CLOCK_SAMPLES = 25

#: local dimensions whose su(n) basis each workload builds once and reuses
SETUP_DIMS = {
    "verdict_scan": (2, 3, 4, 6, 8),
    "entropy_dynamics": (),
    "gaussian_fock": (),
    "cli_manifest": (2, 3, 4),
}


def import_package(workload):
    import lazystates  # noqa: F401  (the import is what is timed)

    if workload == "cli_manifest":
        import lazystates.cli  # noqa: F401  (not imported by the package itself)


def build_bases(workload):
    from lazystates import su_algebra

    for dim in SETUP_DIMS[workload]:
        su_algebra.build_su_basis(dim)


def main():
    workload = sys.argv[1]
    start = time.perf_counter()
    import_package(workload)
    build_bases(workload)
    elapsed = time.perf_counter() - start

    from calibrate import host_speed

    scale = statistics.median(host_speed() for _ in range(CLOCK_SAMPLES))
    print(json.dumps({"raw_s": elapsed, "scale": scale}))


if __name__ == "__main__":
    main()
