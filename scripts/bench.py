#!/usr/bin/env python3
"""Layer timings at fixed sizes plus the perfbench workloads, in one
BENCH_<tag>.json.

Run from the repository root:

    PYTHONPATH=src python scripts/bench.py --tag mytag

Layers: on `unit_square_mesh(2)` bisected uniformly 9 times (4,096
elements: 40,960 DG p=3 dofs and 18,241 C0 p=3 dofs), each of 3
repetitions times the mesh layer: the last of those bisections, one
`uniform_refine` from 2,048 to 4,096 elements (`refine_s`), and one
`verify_ellipticity_cordes` of `rotated_anisotropic` (10 control pairs) at
the element centroids of the mesh it made (`cordes_s`). On that mesh it
builds a fresh space and times, in one process, the
`Operators` build and three parts of it (`pattern_s`: `forms.face_pattern`;
`volume_s`: `Operators._volume`; `faces_s`: `forms.face_tables` and
`Operators._faces`; `face_traces_s`: `forms.face_tables` alone, the face
traces that `faces_s` includes; each timed by wrapping it within this
script), one Newton solve of `poisson_singleton`, `error_norm_k` and
`estimate`. Inside the Newton solve it records the factor time and
fill, nnz(L + U - I) / nnz(A), of the first `scipy.sparse.linalg.splu`
call, which factors the first frozen Jacobian (`jacobian_lu_s`), the
number of `splu` calls (`lu_factors`) and the triangular solves of the
kept factorizations, refinements included (`SolveStats.lu_solves`). The
`splu` time and fill of the norm Gram matrix, which the Newton solve does
not factor, come from one `solver.factorize` of it as stored
(`gram_lu_s`). At the converged state it then times one
`nonlinear_residual` (`residual_s`), one `frozen_jacobian` with its
`jacobian_coefficients` (`jacobian_s`) and the whole `solver.factorize`
of that Jacobian as stored (`factorize_s`: everything from the matrix to its LU,
not `splu` alone).
Last, it times one `transfer_solution` of a random function on the mesh
one bisection short (2,048 elements), whose space is built once, onto the
fresh space (`transfer_s`), and one `cordes.tabulate` of `rotated_anisotropic` (10
control pairs) at the fresh space's element quadrature points
(`tabulate_s`).
Times are raw wall seconds; the file keeps every repetition and their
median. One pass of perfbench's `Calibration` kernel runs right before and
one right after each repetition, and their mean is that repetition's
`calibration_s`; `scaled` holds the median over the repetitions of each
`_s` time times `CAL_REF_S / calibration_s`, the time at perfbench's
reference host speed, so that layer times taken minutes apart on a shared
host compare. One more, untimed pass per case records the tracemalloc
peak, in MB, of the `Operators` build, of one `forms.face_pattern` call
with the arguments the build passes it (`pattern_peak_mb`), of the Newton
solve and of the `tabulate` above (`table_peak_mb`), and the size the
build and the table keep, their tracemalloc current size once they return
(`operators_retained_mb`, `table_retained_mb`; tracemalloc slows what it
traces, so no timed repetition runs under it).

Workloads: every workload that BENCHMARK.json lists runs once through
`perfbench/run.py` in a subprocess, with its run length and seed 1; the
file keeps the JSON line it prints. Nothing in perfbench/ is changed.

The file also keeps `src_lines`, the line count (newlines, as `wc -l`
counts them) of the measured package's `cordesfem/*.py`, next to the
timings.

`--size tiny` is a seconds-long check that the script works: 3 bisections
(640 DG dofs), 1 repetition, 1 s workload runs at perfbench's tiny size.

Both parts are measured on the same host in one invocation, so two
BENCH files taken back to back compare two versions of the source tree.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg as spla

import cordesfem
from cordesfem import (
    FormParams,
    SpaceConfig,
    build_space,
    estimate,
    get_problem,
    solve_discrete,
    uniform_refine,
    unit_square_mesh,
    verify_ellipticity_cordes,
)
from cordesfem import cordes, forms, solver
from cordesfem.adapt import error_norm_k, transfer_solution
from cordesfem.fespace import DiscreteFunction
from cordesfem.forms import (
    frozen_jacobian, get_operators, jacobian_coefficients, nonlinear_residual,
)

ROOT = Path(__file__).resolve().parent.parent
# perfbench's calibration kernel, read only; run.py's main is guarded
sys.path.insert(0, str(ROOT / "perfbench"))
from run import CAL_REF_S, Calibration

# (name, continuity flag s) of the layer cases, all at p = 3
CASES = (("dg_p3", 0), ("c0_p3", 1))
SEED = 1
# size -> (bisections of unit_square_mesh(2), repetitions, workload seconds
# or None for BENCHMARK.json's run length)
SIZES = {"full": (9, 3, None), "tiny": (3, 1, 1.0)}


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def lu_spans(fn, *args):
    """fn(*args) and the (seconds, fill) of every splu call it makes."""
    spans, splu = [], spla.splu

    def recorded(A, *rest, **options):
        seconds, lu = timed(lambda: splu(A, *rest, **options))
        spans.append((seconds, (lu.nnz - A.shape[0]) / A.nnz))
        return lu

    spla.splu = recorded
    try:
        return fn(*args), spans
    finally:
        spla.splu = splu


# (parts, owner, function name) of the timed parts of an Operators build;
# a function's time counts toward each of its parts
PARTS = ((("pattern_s",), forms, "face_pattern"),
         (("volume_s",), forms.Operators, "_volume"),
         (("faces_s", "face_traces_s"), forms, "face_tables"),
         (("faces_s",), forms.Operators, "_faces"))


def part_times(fn, *args):
    """fn(*args) and the seconds it spends in each part of PARTS."""
    seconds = dict.fromkeys((part for parts, _, _ in PARTS for part in parts), 0.0)
    saved = [(owner, name, getattr(owner, name)) for _, owner, name in PARTS]

    def wrapped(parts, f):
        def timed_part(*a):
            span, result = timed(f, *a)
            for part in parts:
                seconds[part] += span
            return result
        return timed_part

    for (parts, _, _), (owner, name, f) in zip(PARTS, saved):
        setattr(owner, name, wrapped(parts, f))
    try:
        return fn(*args), seconds
    finally:
        for owner, name, f in saved:
            setattr(owner, name, f)


def traced_mb(fn, *args):
    """The tracemalloc peak of what fn(*args) allocates and the part of it
    still held when fn returns, its result included, in MB."""
    tracemalloc.start()
    try:
        result = fn(*args)  # held while measured
        held, peak = tracemalloc.get_traced_memory()
        return peak / 2**20, held / 2**20
    finally:
        tracemalloc.stop()


def layer_times(coarse, s, repeat):
    """Wall times of one level's layers, `repeat` times on fresh meshes,
    each one uniform bisection of `coarse`, and fresh spaces."""
    problem = get_problem("poisson_singleton")
    aniso = get_problem("rotated_anisotropic")
    params = FormParams.defaults(3, s)
    parent = build_space(coarse, SpaceConfig(p=3, s=s))
    guess = DiscreteFunction(
        parent, np.random.default_rng(SEED).standard_normal(parent.dim))
    runs, cal = [], Calibration()
    for _ in range(repeat):
        before = cal.measure()
        t_refine, mesh = timed(uniform_refine, coarse)
        centroids = mesh.vertices[mesh.tri].mean(axis=1)
        t_cordes, _ = timed(verify_ellipticity_cordes, aniso, centroids)
        t_space, space = timed(build_space, mesh, SpaceConfig(p=3, s=s))
        t_ops, (_, parts) = timed(part_times, get_operators, space)
        t_solve, ((u, stats), lus) = timed(
            lu_spans, solve_discrete, space, problem, params)
        t_jac, jac_fill = lus[0]
        _, [(t_gram, gram_fill)] = lu_spans(
            solver.factorize, get_operators(space).norm_gram)
        t_residual, _ = timed(nonlinear_residual, space, problem, u, params)
        t_jacobian, J = timed(lambda: frozen_jacobian(
            space, jacobian_coefficients(space, problem, u), params))
        t_factorize, _ = timed(solver.factorize, J)
        t_err, err = timed(error_norm_k, space, u, problem.exact)
        t_est, report = timed(estimate, space, problem, u)
        t_transfer, _ = timed(transfer_solution, guess, space)
        x = space.points(space.elem_rule.points).reshape(-1, 2)
        t_tabulate, _ = timed(cordes.tabulate, aniso, x)
        calibration = (before + cal.measure()) / 2
        runs.append({
            "ndofs": space.dim, "refine_s": t_refine, "cordes_s": t_cordes,
            "space_s": t_space, "operators_s": t_ops, **parts,
            "solve_s": t_solve, "gram_lu_s": t_gram, "jacobian_lu_s": t_jac,
            "gram_fill": gram_fill, "jacobian_fill": jac_fill,
            "residual_s": t_residual, "jacobian_s": t_jacobian,
            "factorize_s": t_factorize,
            "error_norm_k_s": t_err, "estimate_s": t_est,
            "transfer_s": t_transfer, "tabulate_s": t_tabulate,
            "calibration_s": calibration,
            "newton_iters": stats.newton_iters, "lu_factors": len(lus),
            "lu_solves": stats.lu_solves,
            "error_norm_k": err,
            "eta_total": report.total,
        })
        del space, u, report, J, x
    del parent, guess
    out = {"elements": mesh.n_elements, "ndofs": runs[0]["ndofs"], "runs": runs}
    for key in runs[0]:
        if key.endswith(("_s", "_fill")):
            out[key] = statistics.median(run[key] for run in runs)
    out["scaled"] = {
        key: statistics.median(run[key] * CAL_REF_S / run["calibration_s"]
                               for run in runs)
        for key in runs[0] if key.endswith("_s") and key != "calibration_s"}
    space = build_space(mesh, SpaceConfig(p=3, s=s))
    out["operators_peak_mb"], out["operators_retained_mb"] = traced_mb(
        get_operators, space)
    ef, faces = mesh.elem_faces, get_operators(space).faces
    sd = (faces.elems[ef, 1] == np.arange(len(ef))[:, None]).astype(int)
    out["pattern_peak_mb"] = traced_mb(
        forms.face_pattern, faces, ef, sd, space.dim)[0]
    out["solve_peak_mb"] = traced_mb(solve_discrete, space, problem, params)[0]
    x = space.points(space.elem_rule.points).reshape(-1, 2)
    out["table_peak_mb"], out["table_retained_mb"] = traced_mb(
        cordes.tabulate, aniso, x)
    return out


def src_lines() -> int:
    """Lines of the imported package's modules, as `wc -l` counts them."""
    package = Path(cordesfem.__file__).parent
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def perfbench(workload, seconds, size):
    """The last (JSON) line that perfbench/run.py prints for one workload."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--size", size],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args()
    refines, repeat, seconds = SIZES[args.size]
    seconds = seconds or bench["run_seconds"]

    coarse = unit_square_mesh(2)  # one bisection short of the layer mesh
    for _ in range(refines - 1):
        coarse = uniform_refine(coarse)
    result = {
        "tag": args.tag,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine()},
        "args": {"size": args.size, "refines": refines, "repeat": repeat,
                 "seed": SEED, "seconds": seconds},
        "src_lines": src_lines(),
        # the workloads run first: Linux carries the peak RSS of this process
        # at fork into a child's ru_maxrss, which perfbench reports
        "perfbench": {
            wl["name"]: perfbench(wl["name"], seconds, args.size)
            for wl in bench["workloads"]
        },
        "layers": {name: layer_times(coarse, s, repeat) for name, s in CASES},
    }
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, layer in result["layers"].items():
        times = ", ".join(f"{k} {v:.3f}" for k, v in layer.items()
                          if k.endswith(("_s", "_fill", "_mb")))
        print(f"{name} ({layer['ndofs']} dofs): {times}")
    for name, run in result["perfbench"].items():
        metrics = ", ".join(f"{k} {m['value']:.4g}"
                            for k, m in run["metrics"].items())
        print(f"{name}: {metrics}")
    print(f"src_lines {result['src_lines']}")
    print(f"wrote {path.resolve()}")


if __name__ == "__main__":
    main()
