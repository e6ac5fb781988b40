#!/usr/bin/env python3
"""Sample the discrete strong-monotonicity constant and the stabilization
continuity constant across refinement levels.

These are the runtime surrogates for the penalty-threshold conditions; if the
monotonicity constant drifts toward zero the penalties sigma/rho are too small
for the chosen degree.
"""

import argparse

import numpy as np

from cordesfem import (
    DiscreteFunction,
    FormParams,
    SpaceConfig,
    build_space,
    get_problem,
    jump_seminorm,
    nonlinear_residual,
    norm_k,
    stab_form,
    uniform_refine,
)
from cordesfem.cli import domain_mesh


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default="two_control_switch")
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--cont", choices=["dg", "c0ip"], default="dg")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    s = 1 if args.cont == "c0ip" else 0
    prob = get_problem(args.problem)
    params = FormParams.defaults(args.p, s)
    mesh = domain_mesh(prob.domain, 2)

    print(f"{'level':>5s} {'ndofs':>7s} {'c_mon':>9s} {'C_stab':>9s}")
    for level in range(args.levels):
        space = build_space(mesh, SpaceConfig(p=args.p, s=s))
        c_mon, c_stab = np.inf, 0.0
        for _ in range(args.samples):
            w = rng.standard_normal(space.dim)
            v = rng.standard_normal(space.dim)
            rw = nonlinear_residual(space, prob, DiscreteFunction(space, w), params)
            rv = nonlinear_residual(space, prob, DiscreteFunction(space, v), params)
            c_mon = min(c_mon, float((rw - rv) @ (w - v)) / norm_k(space, w - v) ** 2)
            jw, jv = jump_seminorm(space, w), jump_seminorm(space, v)
            if jw > 0 and jv > 0:
                c_stab = max(c_stab, abs(stab_form(space, w, v)) / (jw * jv))
        print(f"{level:5d} {space.dim:7d} {c_mon:9.4f} {c_stab:9.4f}")
        mesh = uniform_refine(mesh)


if __name__ == "__main__":
    main()
