#!/usr/bin/env python3
"""Uniform-refinement convergence studies over the benchmark registry.

Runs every (problem, p, continuity) combination, prints a rate table, and
writes one trace per study to --out as <problem>_p<p>_<cont>.csv (cont is
dg or c0ip); it writes no summary.
"""

import argparse
from pathlib import Path

import numpy as np

from cordesfem import (
    AdaptiveConfig,
    FormParams,
    SpaceConfig,
    adaptive_solve,
    get_problem,
)
from cordesfem.cli import domain_mesh


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--n0", type=int, default=4)
    ap.add_argument("--out", default="out/uniform")
    ap.add_argument("--problems", nargs="*",
                    default=["poisson_singleton", "two_control_switch",
                             "rotated_anisotropic"])
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'problem':24s} {'p':>2s} {'cont':>5s} {'slope':>7s} "
          f"{'eta/err':>9s} {'ndofs':>8s}")
    for name in args.problems:
        prob = get_problem(name)
        for p in (2, 3):
            for s in (0, 1):
                cfg = AdaptiveConfig(
                    space=SpaceConfig(p=p, s=s),
                    params=FormParams.defaults(p, s),
                    uniform=True,
                    max_iters=args.levels,
                )
                trace = adaptive_solve(prob, domain_mesh(prob.domain, args.n0), cfg)
                tag = f"{name}_p{p}_{'c0ip' if s else 'dg'}"
                trace.write_csv(outdir / f"{tag}.csv")
                errs = np.array([st.err_norm_k for st in trace.steps])
                hs = np.array([st.h_max for st in trace.steps])
                n = min(3, len(errs))
                slope = np.polyfit(np.log(hs[-n:]), np.log(errs[-n:]), 1)[0]
                ratio = trace.steps[-1].eta_total / errs[-1]
                print(f"{name:24s} {p:2d} {'c0ip' if s else 'dg':>5s} "
                      f"{slope:7.3f} {ratio:9.3f} {trace.steps[-1].ndofs:8d}")


if __name__ == "__main__":
    main()
