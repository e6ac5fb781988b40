"""cordesfem benchmark: time to solution of solve-estimate-mark-refine
workloads, with per-layer timings traced from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload adaptive_switch_dg3 --seed 1 \
        --seconds 20 --trace 0

The workload repeats until `--seconds` would be exceeded (at least once).
Each repetition's output is checked against `perfbench/reference.json`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Spans and a full
result record go to `.perfbench_out/` in the working directory.
`--record` rewrites the reference of the chosen workload and size instead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Seconds one calibration pass takes on a quiet 2-core Xeon host; the
# reported times are scaled to a host of that speed (see `Calibration`).
CAL_REF_S = 0.075


def cap_thread_pools() -> int:
    """Cap every BLAS/OpenMP pool at the usable core count; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "nproc": nproc,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


class Calibration:
    """A fixed CPU kernel, independent of cordesfem, timed right before and
    after every timed stretch of the workload.

    Other tenants of a shared host slow every instruction stream by up to
    2x, in bursts of seconds to minutes, so the median wall time of one run
    swings by +-25% between runs. The kernel runs the kinds of work the
    workloads do (interpreted loops, small dense products, sparse assembly
    and LU, sorts), which slow down together with the workload, so
    `scaled` cancels most of that drift while leaving a change to
    cordesfem's own cost fully visible.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        # every array stays below glibc's 128 KiB mmap threshold, so the
        # kernel neither raises that threshold nor adds to peak_rss_mb
        rng = np.random.default_rng(0)
        n = 25
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.laplacian = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self.small = rng.standard_normal((10, 10))
        self.blocks = rng.standard_normal((50, 10, 10))
        self.vector = rng.standard_normal(10_000)
        self.triplets = (rng.standard_normal(5000),
                         (rng.integers(0, 1000, 5000), rng.integers(0, 1000, 5000)))
        self.times = []

    def measure(self) -> float:
        """Run one pass; return (and keep) its wall time."""
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(100_000):
            acc += i * i
            table[i & 63] = acc
        for _ in range(5000):
            self.small @ self.small + self.small
        for _ in range(60):
            np.einsum("kij,kjl->kil", self.blocks, self.blocks)
        for _ in range(30):
            splu(self.laplacian)
            np.sort(self.vector)
            sp.coo_matrix(self.triplets, shape=(1000, 1000)).tocsr()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the host speed of CAL_REF_S, judged by the calibration
    passes right before and after them."""
    return seconds * 2 * CAL_REF_S / (before + after)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test")
    ap.add_argument("--record", action="store_true",
                    help="record the reference of this workload and size")
    return ap.parse_args(argv)


def timed_setup(wl, args, cycle, out):
    """Run the workload set-up of one cycle `setup_repeats` times; return
    the last state and the times."""
    times = []
    for _ in range(wl.setup_repeats):
        gc.collect()
        start = time.perf_counter()
        state = wl.setup(args.size, args.seed, cycle, out)
        times.append(time.perf_counter() - start)
    return state, times


def run_once(wl, state, ref, size, SolverError, tracer=None):
    """One timed repetition: (seconds, check values, list of mismatches).
    With a tracer, only the timed step is in its "timed" phase."""
    # free earlier reference cycles (a space and its Operators point at
    # each other) so every repetition starts from the same heap
    gc.collect()
    if tracer:
        tracer.phase = "timed"
    start = time.perf_counter()
    try:
        result = wl.run(state)
    except SolverError as err:
        return time.perf_counter() - start, None, [f"SolverError: {err}"]
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.phase = "check"
    values = wl.observe(state, result)
    return elapsed, values, wl.check(values, ref, size)


def record(wl, args, out):
    """Write the reference values of one workload and size."""
    import cordesfem.adapt as adapt
    from workloads import REFERENCE, doerfler_tie

    ties = []
    original = adapt.mark

    def mark(report, strategy="doerfler", param=0.5):
        ties.append(doerfler_tie(report.per_element, param))
        return original(report, strategy, param)

    adapt.mark = mark
    try:
        state = wl.setup(args.size, args.seed, 0, out)
        values = wl.observe(state, wl.run(state))
    finally:
        adapt.mark = original
    if "levels" in values:
        for k, level in enumerate(values["levels"]):
            level["tie_at_cut"] = ties[k] if k < len(ties) else False
        ref = values
    else:
        ref = values["solves"][0]
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(wl.name, {})[args.size] = ref
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_thread_pools()
    if not (SRC / "cordesfem" / "__init__.py").is_file():
        print(f"cordesfem sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from cordesfem.solver import SolverError
    from tracing import PER_LAYER, Tracer
    from workloads import REFERENCE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_root = Path.cwd() / ".perfbench_out"
    out = out_root / f"{wl.name}-{args.size}"
    out.mkdir(parents=True, exist_ok=True)
    if args.record:
        return record(wl, args, out)

    env = environment(nproc)
    seed_note = (f"seed {args.seed} draws the initial guesses" if wl.uses_seed
                 else f"seed {args.seed} ignored: {wl.name} is deterministic")
    print(json.dumps({"workload": wl.name, "size": args.size,
                      "seed": seed_note, "env": env}))
    ref = json.loads(REFERENCE.read_text())[wl.name][args.size]

    tracer = Tracer() if args.trace else None
    calibration = Calibration()
    setup_times, times, traced_times, layer_runs, failures = [], [], [], [], []
    setup_scaled, times_scaled = [], []
    values = None
    begin = time.perf_counter()
    for cycle in itertools.count():
        # set-ups are spread over the run, like the repetitions, so that
        # both sample the same machine load
        cycle_start = time.perf_counter()
        before = calibration.measure()
        if tracer:
            tracer.phase = "setup"
            tracer.install()
        state, cycle_setups = timed_setup(wl, args, cycle, out)
        if tracer:
            # an untraced repetition for the overhead, then a traced one
            tracer.uninstall()
        middle = calibration.measure()
        dt, values, bad = run_once(wl, state, ref, args.size, SolverError)
        after = calibration.measure()
        setup_times += cycle_setups
        setup_scaled += [scaled(t, before, middle) for t in cycle_setups]
        times.append(dt)
        times_scaled.append(scaled(dt, middle, after))
        failures.append(bad)
        if tracer:
            tracer.install()
            dt, values, bad = run_once(wl, state, ref, args.size, SolverError,
                                       tracer)
            tracer.uninstall()
            traced_times.append(dt)
            layer_runs.append(tracer.take())
            failures.append(bad)
        # free this cycle's space and Operators before the next set-up
        # builds new ones, so peak_rss_mb does not depend on the cycle count
        del state
        now = time.perf_counter()
        if now - begin + (now - cycle_start) > args.seconds:
            break

    attempted = len(failures)
    failed = sum(1 for bad in failures if bad)
    units = dict(PER_LAYER)
    if tracer:
        first = layer_runs[0]
        metrics = {
            name: statistics.median(run[name] for run in layer_runs)
            if units[name] == "s" else first[name]
            for name in first
        }
        # the two repetitions of a cycle run back to back, under one load
        metrics["trace.overhead_s"] = statistics.median(
            traced - plain for traced, plain in zip(traced_times, times))
        metrics = {n: {"value": metrics[n], "unit": u} for n, u in PER_LAYER}
        tracer.write_spans(out_root / f"spans-{wl.name}-{args.size}-seed{args.seed}.csv")
    else:
        metrics = {
            "time_to_solution_s": {"value": statistics.median(times_scaled),
                                   "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted,
                             "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record_path = out_root / f"result-{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        **result, "workload": wl.name, "size": args.size, "seed": seed_note,
        "env": env, "times_s": times, "traced_times_s": traced_times,
        "setup_times_s": setup_times, "calibration_s": calibration.times,
        "failures": [bad for bad in failures if bad], "last_values": values,
    }, indent=1))
    for bad in failures:
        for line in bad:
            print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
