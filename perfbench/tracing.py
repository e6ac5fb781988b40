"""Out-of-program tracing of the cordesfem layers.

Every traced function is replaced, at every module or class attribute that
binds it, by a wrapper that records a span (name, start, end, parent, run
id, phase) and updates the counters of its layer. Modules import names
directly (`from .forms import get_operators`), so patching only the
defining module would miss most calls; `Tracer.install` therefore scans
every loaded `cordesfem` module for attributes that are the original
function. A traced name that no longer exists raises `TraceError`, so a
renamed function shows up as a broken benchmark, never as a zero.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import scipy.sparse as sp


class TraceError(RuntimeError):
    pass


# (owner, attribute, span name); owner is a cordesfem module or a
# "module:Class" path. Span names are the per-layer metric prefixes.
TRACED = (
    ("cordesfem.mesh", "refine_conforming", "mesh.refine"),
    ("cordesfem.mesh", "write_mesh_txt", "mesh.export"),
    ("cordesfem.mesh", "write_vtk", "mesh.export"),
    ("cordesfem.basis:RefBasis", "eval", "basis.eval"),
    ("cordesfem.fespace", "build_space", "fespace.build"),
    ("cordesfem.forms", "get_operators", "forms.get_operators"),
    ("cordesfem.forms:Operators", "__init__", "forms.operators"),
    ("cordesfem.forms", "nonlinear_residual", "forms.residual"),
    ("cordesfem.forms", "frozen_jacobian", "forms.jacobian"),
    ("cordesfem.cordes", "f_gamma_field", "cordes.fgamma"),
    ("cordesfem.cordes", "frozen_coefficients", "cordes.frozen"),
    ("cordesfem.solver", "solve_discrete", "solver.solve"),
    ("scipy.sparse.linalg", "splu", "solver.lu_factor"),
    ("cordesfem.adapt", "adaptive_solve", "adapt.loop"),
    ("cordesfem.adapt", "error_norm_k", "adapt.error"),
    ("cordesfem.adapt", "estimate", "adapt.estimate"),
    ("cordesfem.adapt", "transfer_solution", "adapt.transfer"),
    ("cordesfem.adapt", "mark", "adapt.mark"),
    ("cordesfem.cli", "run_study", "cli.study"),
)

# per-layer metrics: (name, unit); self times are "<span>_s"
PER_LAYER = (
    ("forms.operators_s", "s"),
    ("forms.operators_builds", "count"),
    ("forms.operators_hits", "count"),
    ("forms.matrix_nnz", "count"),
    ("basis.eval_calls", "count"),
    ("basis.eval_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.solves", "count"),
    ("solver.newton_iters", "count"),
    ("solver.fallback_iters", "count"),
    ("solver.step_accept_ratio", "ratio"),
    ("solver.lu_factor_s", "s"),
    ("solver.lu_factors", "count"),
    ("solver.lu_fill", "ratio"),
    ("solver.lu_nnz", "count"),
    ("forms.residual_s", "s"),
    ("forms.residual_calls", "count"),
    ("forms.jacobian_s", "s"),
    ("forms.jacobian_calls", "count"),
    ("cordes.fgamma_s", "s"),
    ("cordes.fgamma_calls", "count"),
    ("cordes.fgamma_points", "count"),
    ("cordes.frozen_s", "s"),
    ("cordes.frozen_calls", "count"),
    ("adapt.loop_s", "s"),
    ("adapt.error_s", "s"),
    ("adapt.estimate_s", "s"),
    ("adapt.transfer_s", "s"),
    ("adapt.mark_s", "s"),
    ("adapt.levels", "count"),
    ("adapt.marked_frac", "ratio"),
    ("mesh.refine_s", "s"),
    ("mesh.elements_out", "count"),
    ("fespace.build_s", "s"),
    ("fespace.dofs_built", "count"),
    ("mesh.export_s", "s"),
    ("mesh.export_bytes", "B"),
    ("cli.study_s", "s"),
    ("trace.overhead_s", "s"),
)


def _resolve(owner: str):
    modname, _, clsname = owner.partition(":")
    try:
        obj = importlib.import_module(modname)
        return getattr(obj, clsname) if clsname else obj
    except (ImportError, AttributeError) as err:
        raise TraceError(f"traced owner {owner!r} is missing: {err}") from err


def _sparse_nnz(obj) -> int:
    """Stored entries of every sparse matrix held by an Operators object."""
    total = 0
    for value in vars(obj).values():
        items = value.values() if isinstance(value, dict) else (value,)
        total += sum(m.nnz for m in items if sp.issparse(m))
    return total


class Tracer:
    """Span recorder with per-layer counters.

    Spans are kept in memory as tuples and written by `write_spans`. Only
    spans and counts of the phase named "timed" enter `take()`.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id, phase)
        self.counts = defaultdict(float)
        self.self_time = defaultdict(float)
        self.phase = "setup"
        self.run_id = 0
        self._stack = []  # [span index, child time]
        self._patches = []
        self._solve_jac_seen = None  # Jacobian seen in the open solve span

    # ------------------------------------------------------------ install
    def install(self):
        import cordesfem  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "cordesfem" or n.startswith("cordesfem.")]
        for owner_path, attr, span in TRACED:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"traced function {owner_path}.{attr} is missing")
            wrapper = self._wrap(original, span)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [(m, a) for m in modules for a, v in vars(m).items()
                          if v is original and (m, a) != (owner, attr)]
            for site, name in sites:
                self._patches.append((site, name, getattr(site, name)))
                setattr(site, name, wrapper)
        return self

    def uninstall(self):
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()

    # -------------------------------------------------------------- spans
    def _wrap(self, fn, span):
        tracer = self

        def traced(*args, **kwargs):
            before = tracer._before(span, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append([idx, 0.0])
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                tracer.spans[idx] = (span, start, end, parent,
                                     tracer.run_id, tracer.phase)
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                if tracer.phase == "timed":
                    tracer.self_time[span] += end - start - child
                    tracer.counts[span + ".calls"] += 1
                    if exc is None or span == "solver.solve":
                        tracer._after(span, args, result, exc, before)

        return functools.wraps(fn)(traced)

    def _before(self, span, args):
        if span == "forms.get_operators":
            return self.counts["forms.operators.calls"]
        if span == "solver.solve":
            outer = self._solve_jac_seen
            self._solve_jac_seen = False
            return outer
        return None

    def _after(self, span, args, result, exc, before):
        c = self.counts
        if span == "forms.get_operators":
            c["forms.operators_hits"] += c["forms.operators.calls"] == before
        elif span == "forms.operators":
            c["forms.matrix_nnz"] += _sparse_nnz(args[0])
        elif span == "mesh.refine":
            c["mesh.elements_out"] += result.n_elements
        elif span == "mesh.export":
            c["mesh.export_bytes"] += os.path.getsize(args[1])
        elif span == "fespace.build":
            c["fespace.dofs_built"] += result.dim
            c["fespace.elements_built"] += result.mesh.n_elements
        elif span == "cordes.fgamma":
            problem, x = args[0], args[1]
            pairs = len(problem.controls.alphas) * len(problem.controls.betas)
            c["cordes.fgamma_points"] += len(x) * pairs
        elif span == "forms.jacobian":
            if self._solve_jac_seen is not None:
                self._solve_jac_seen = True
        elif span == "forms.residual":
            if self._solve_jac_seen:
                c["solver.trials"] += 1
        elif span == "solver.solve":
            stats = result[1] if exc is None else getattr(exc, "stats", None)
            if stats is not None:
                c["solver.newton_iters"] += stats.newton_iters
                c["solver.fallback_iters"] += stats.fallback_iters
                c["solver.accepted"] += len(stats.residual_history) - 1
            self._solve_jac_seen = before
        elif span == "solver.lu_factor":
            a = args[0]
            c["solver.lu_nnz"] += result.L.nnz + result.U.nnz - a.shape[0]
            c["solver.lu_a_nnz"] += a.nnz
        elif span == "adapt.loop":
            c["adapt.levels"] += len(result.steps)
            c["adapt.marked"] += sum(s.marked for s in result.steps)

    # ------------------------------------------------------------- output
    def take(self) -> dict:
        """Per-layer metrics of the timed spans since the last call, except
        the tracing overhead; resets the counters for the next run."""
        c, t = self.counts, self.self_time
        self.counts, self.self_time = defaultdict(float), defaultdict(float)
        self.run_id += 1

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {
            "forms.operators_builds": c["forms.operators.calls"],
            "forms.operators_hits": c["forms.operators_hits"],
            "forms.matrix_nnz": c["forms.matrix_nnz"],
            "basis.eval_calls": c["basis.eval.calls"],
            "solver.solves": c["solver.solve.calls"],
            "solver.newton_iters": c["solver.newton_iters"],
            "solver.fallback_iters": c["solver.fallback_iters"],
            "solver.step_accept_ratio": ratio("solver.accepted", "solver.trials"),
            "solver.lu_factors": c["solver.lu_factor.calls"],
            "solver.lu_fill": ratio("solver.lu_nnz", "solver.lu_a_nnz"),
            "solver.lu_nnz": c["solver.lu_nnz"],
            "forms.residual_calls": c["forms.residual.calls"],
            "forms.jacobian_calls": c["forms.jacobian.calls"],
            "cordes.fgamma_calls": c["cordes.fgamma.calls"],
            "cordes.fgamma_points": c["cordes.fgamma_points"],
            "cordes.frozen_calls": c["cordes.frozen.calls"],
            "adapt.levels": c["adapt.levels"],
            "adapt.marked_frac": ratio("adapt.marked", "fespace.elements_built"),
            "mesh.elements_out": c["mesh.elements_out"],
            "fespace.dofs_built": c["fespace.dofs_built"],
            "mesh.export_bytes": c["mesh.export_bytes"],
        }
        for name, unit in PER_LAYER:
            if unit == "s" and name != "trace.overhead_s":
                values[name] = t[name[:-2]]
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "run", "phase"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[0], repr(s[1]), repr(s[2]), s[3], s[4], s[5]])
