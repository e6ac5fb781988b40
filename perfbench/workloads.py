"""The three benchmark workloads and their output checks.

Each workload has a set-up step (timed as `setup_s`), a timed step
(`time_to_solution_s`) that only calls the public cordesfem API, and an
`observe` step outside the timed part that turns the result into the
numbers compared with `reference.json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through module attributes so that the tracer's wrappers, which
# replace those attributes, see them.
from cordesfem import adapt, cli, cordes, fespace, forms, mesh, problems, solver

REFERENCE = Path(__file__).with_name("reference.json")

# Relative tolerance of every output check. Seeded initial guesses move
# err_norm_k by ~1e-8 relative and the solution by ~4e-11 in norm_k, so
# 1e-6 sits two orders above solver noise, while any change to the
# discretization (penalties, quadrature, liftings) moves these numbers by
# far more than 1e-4.
RTOL = 1e-6
# A Doerfler cut whose two neighbouring estimators differ by less than this
# (relative) is a tie: roundoff may mark either element, and the mesh
# sequence after it may legitimately differ from the reference.
TIE_GAP = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def _centroid_samples(mesh):
    v, t = mesh.vertices, mesh.tri
    return 0.5 * (v[t[:, 0]] + 0.5 * (v[t[:, 1]] + v[t[:, 2]]))


# ---------------------------------------------------------------- studies


@dataclass
class StudyWorkload:
    """A `cli.run_study` run; deterministic, so the seed is unused."""

    name: str
    sizes: dict  # size -> StudyConfig keyword overrides
    base: dict
    setup_repeats: int = 20  # per cycle
    uses_seed: bool = False

    def config(self, size: str, out: Path) -> cli.StudyConfig:
        return cli.StudyConfig(out=str(out), **self.base, **self.sizes[size])

    def setup(self, size: str, seed: int, cycle: int, out: Path):
        """Problem construction, the Cordes check and the initial mesh, as
        `run_study` does them before its loop."""
        config = self.config(size, out)
        problem = problems.get_problem(config.problem)
        mesh0 = mesh.unit_square_mesh(config.n0)
        if not cordes.verify_ellipticity_cordes(
                problem, _centroid_samples(mesh0)).passed:
            raise RuntimeError(f"{config.problem} fails the Cordes check")
        return config

    def run(self, config):
        return cli.run_study(config)

    def observe(self, config, summary) -> dict:
        steps = json.loads((Path(config.out) / "trace.json").read_text())
        return {"levels": [
            {k: s[k] for k in ("ndofs", "eta_total", "err_norm_k")}
            for s in steps
        ]}

    def check(self, values: dict, ref: dict, size: str) -> list:
        got, want = values["levels"], ref["levels"]
        for k, (g, r) in enumerate(zip(got, want)):
            if g["ndofs"] == r["ndofs"] and _close(g["eta_total"], r["eta_total"]) \
                    and _close(g["err_norm_k"], r["err_norm_k"]):
                continue
            if k > 0 and want[k - 1]["tie_at_cut"]:
                return self._check_invariants(got[k:], want, size)
            return [f"level {k}: got {g}, reference {r}"]
        if len(got) != len(want):
            return [f"{len(got)} levels, reference has {len(want)}"]
        return []

    def _check_invariants(self, got: list, want: list, size: str) -> list:
        """Checks for the levels after a tied Doerfler cut: the estimator
        stays reliable and efficient as in the reference, dofs grow, and
        the run stops at its tolerance."""
        ratios = [r["err_norm_k"] / r["eta_total"] for r in want]
        lo, hi = 0.8 * min(ratios), 1.25 * max(ratios)
        errs = [f"err/eta {g['err_norm_k'] / g['eta_total']:.4g} outside "
                f"[{lo:.4g}, {hi:.4g}] at {g['ndofs']} dofs"
                for g in got if not lo <= g["err_norm_k"] / g["eta_total"] <= hi]
        dofs = [g["ndofs"] for g in got]
        if dofs != sorted(set(dofs)):
            errs.append(f"dofs do not grow: {dofs}")
        eta_tol = self.sizes[size].get("eta_tol")
        if eta_tol is not None and got[-1]["eta_total"] > eta_tol:
            errs.append(f"stopped at eta {got[-1]['eta_total']:.4g} > {eta_tol}")
        return errs


# ------------------------------------------------------------ fixed-mesh solves


@dataclass
class SolveWorkload:
    """Cold-start `solve_discrete` calls on a fixed uniform mesh."""

    name: str
    sizes: dict  # size -> (mesh n, number of solves)
    problem: str
    p: int
    setup_repeats: int = 1  # per cycle
    uses_seed: bool = True

    def setup(self, size: str, seed: int, cycle: int, out: Path):
        """Problem, Cordes check, mesh, space and its Operators. The initial
        guesses of each cycle are fresh draws from the seed: the Newton
        step count depends on the guess (a few draws in a hundred take one
        step fewer), and fresh draws let the median over cycles, rather
        than one unlucky draw, set the run's time."""
        n, solves = self.sizes[size]
        problem = problems.get_problem(self.problem)
        mesh0 = mesh.unit_square_mesh(n)
        if not cordes.verify_ellipticity_cordes(
                problem, _centroid_samples(mesh0)).passed:
            raise RuntimeError(f"{self.problem} fails the Cordes check")
        space = fespace.build_space(mesh0, fespace.SpaceConfig(p=self.p, s=0))
        forms.get_operators(space)
        rng = np.random.default_rng([seed, cycle])
        guesses = [rng.standard_normal(space.dim) for _ in range(solves)]
        return space, problem, forms.FormParams.defaults(self.p, 0), guesses

    def run(self, state):
        space, problem, params, guesses = state
        return [solver.solve_discrete(space, problem, params,
                                      solver.SolveOptions(initial_guess=g))[0]
                for g in guesses]

    def observe(self, state, solutions) -> dict:
        space, problem = state[0], state[1]
        return {"solves": [
            {"norm_k": forms.norm_k(space, u),
             "err_norm_k": adapt.error_norm_k(space, u, problem.exact)}
            for u in solutions
        ]}

    def check(self, values: dict, ref: dict, size: str) -> list:
        return [f"solve {i}: got {s}, reference {ref}"
                for i, s in enumerate(values["solves"])
                if not all(_close(s[k], ref[k]) for k in ("norm_k", "err_norm_k"))]


# README.md says why each workload was chosen and what it should show.
WORKLOADS = {w.name: w for w in (
    StudyWorkload(
        name="adaptive_switch_dg3",
        base=dict(problem="two_control_switch", p=3, s=0, n0=2,
                  strategy="doerfler", strategy_param=0.5, levels=60),
        sizes={"full": dict(eta_tol=0.16), "tiny": dict(eta_tol=0.7)},
    ),
    SolveWorkload(
        name="solve_aniso_dg3",
        problem="rotated_anisotropic", p=3,
        sizes={"full": (12, 3), "tiny": (3, 2)},
    ),
    StudyWorkload(
        name="uniform_poisson_c0p3",
        base=dict(problem="poisson_singleton", p=3, s=1, n0=2, uniform=True),
        sizes={"full": dict(levels=4), "tiny": dict(levels=2)},
    ),
)}


def doerfler_tie(eta_sq: np.ndarray, theta: float) -> bool:
    """Whether the Doerfler cut of `mark` falls inside a near-tie: the last
    marked and first unmarked estimators agree to TIE_GAP, or the marked
    share sits within TIE_GAP of theta."""
    order = np.lexsort((np.arange(len(eta_sq)), -eta_sq))
    cum = np.cumsum(eta_sq[order])
    total = eta_sq.sum()
    count = int(np.searchsorted(cum, theta * total)) + 1
    if count >= len(eta_sq):
        return False
    last, first_out = eta_sq[order[count - 1]], eta_sq[order[count]]
    return bool(last - first_out <= TIE_GAP * last
                or cum[count - 1] - theta * total <= TIE_GAP * total
                or (count > 1 and theta * total - cum[count - 2] <= TIE_GAP * total))
