"""Batch driver: uniform and adaptive convergence studies with file outputs.

Configuration is a flat INI-style file (key = value under a [study] section)
with full command-line overrides; runs are single-threaded and reproducible
byte-for-byte for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .adapt import AdaptiveConfig, adaptive_solve
from .cordes import verify_ellipticity_cordes
from .fespace import FESpace, SpaceConfig
from .forms import FormParams
from .mesh import MeshLevel, convex_polygon_mesh, uniform_refine, unit_square_mesh
from .mesh import write_mesh_txt, write_vtk
from .problems import UNIT_SQUARE, get_problem
from .solver import SolveOptions


@dataclass
class StudyConfig:
    problem: str = "poisson_singleton"
    p: int = 2
    s: int = 0  # 0 = dg, 1 = c0ip
    q: int | None = None
    theta: float = 0.5
    sigma: float | None = None  # None -> 10 p^2
    rho: float | None = None  # None -> 10 p^4 (dg) or 0 (c0ip); no effect on c0ip
    strategy: str = "doerfler"
    strategy_param: float = 0.5
    uniform: bool = False
    levels: int = 5
    n0: int = 2
    max_dofs: int | None = None
    eta_tol: float | None = None
    seed: int = 0
    threads: int = 1
    out: str = "study_out"
    write_meshes: bool = True
    write_vtk: bool = False
    tol: float = 1e-10

    def form_params(self) -> FormParams:
        base = FormParams.defaults(self.p, self.s, theta=self.theta)
        sigma = base.sigma if self.sigma is None else self.sigma
        rho = base.rho if self.rho is None else self.rho
        return FormParams(theta=self.theta, sigma=sigma, rho=rho)

    def space_config(self) -> SpaceConfig:
        return SpaceConfig(p=self.p, s=self.s, q=self.q)


MARKERS = ("max", "doerfler")
CONTINUITIES = ("dg", "c0ip")  # s = 0, 1
SLOPE_WINDOW = 3  # the levels the summary's slopes are fitted over


def _fit_slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of log y vs log x over the last SLOPE_WINDOW
    points, with R^2; requires at least 4 levels, else (None, None)."""
    ok = np.isfinite(y) & (y > 0)
    x, y = x[ok], y[ok]
    if len(y) < 4:
        return None, None
    lh, ly = np.log(x[-SLOPE_WINDOW:]), np.log(y[-SLOPE_WINDOW:])
    A = np.column_stack([lh, np.ones_like(lh)])
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else 0.0
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def domain_mesh(domain: np.ndarray, n0: int) -> MeshLevel:
    """unit_square_mesh(n0) on the unit square; any other convex polygon is
    fan-triangulated and bisected uniformly until it has at least the
    2 n0^2 elements of that mesh."""
    if np.array_equal(domain, UNIT_SQUARE):
        return unit_square_mesh(n0)
    mesh = convex_polygon_mesh(domain)
    while mesh.n_elements < 2 * n0**2:
        mesh = uniform_refine(mesh)
    return mesh


def run_study(config: StudyConfig) -> dict:
    """Execute the study, write trace.csv / summary.json / mesh exports and
    return the summary dict."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    problem = get_problem(config.problem)
    mesh0 = domain_mesh(problem.domain, config.n0)
    # the scheme evaluates a at the element quadrature points, so check there
    space0 = FESpace(mesh0, config.space_config())
    samples = space0.points(space0.elem_rule.points).reshape(-1, 2)
    report = verify_ellipticity_cordes(problem, samples)
    if not report.passed:
        raise SystemExit(
            f"problem {config.problem!r} fails the ellipticity/Cordes check "
            f"(nu_est={report.nu_est:.6g}, declared nu={problem.nu:.6g})"
        )

    def callback(step, mesh, space, u, rep):
        if config.write_meshes:
            write_mesh_txt(mesh, out / f"mesh_{step.k}.txt")
        if config.write_vtk:
            write_vtk(mesh, out / f"mesh_{step.k}.vtk",
                      {"eta_sq": rep.per_element})

    acfg = AdaptiveConfig(
        space=config.space_config(),
        params=config.form_params(),
        strategy=config.strategy,
        strategy_param=config.strategy_param,
        max_dofs=config.max_dofs,
        eta_tol=config.eta_tol,
        max_iters=config.levels if config.uniform or config.max_dofs is None
        else 100,
        solve_opts=SolveOptions(tol=config.tol),
        uniform=config.uniform,
    )
    trace = adaptive_solve(problem, mesh0, acfg, callback=callback)
    trace.write_csv(out / "trace.csv")
    trace.write_json(out / "trace.json")

    ndofs = np.array([s.ndofs for s in trace.steps], dtype=float)
    err = np.array([s.err_norm_k for s in trace.steps])
    eta = np.array([s.eta_total for s in trace.steps])
    slope_err, r2_err = _fit_slope(ndofs, err)
    slope_eta, r2_eta = _fit_slope(ndofs, eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(eta > 0, err / eta, np.nan)
        eff = np.where(err > 0, eta / err, np.nan)
    summary = {
        "problem": config.problem,
        "params": {
            "p": config.p,
            "s": config.s,
            "q": config.space_config().q,
            "theta": config.theta,
            "sigma": config.form_params().sigma,
            "rho": config.form_params().rho,
            "strategy": config.strategy,
            "strategy_param": config.strategy_param,
            "uniform": config.uniform,
            "seed": config.seed,
        },
        "levels": len(trace.steps),
        "slope_error": slope_err,
        "slope_error_r2": r2_err,
        "slope_eta": slope_eta,
        "slope_eta_r2": r2_eta,
        "c_rel_obs": float(np.nanmax(rel)) if np.any(np.isfinite(rel)) else None,
        "c_eff_obs": float(np.nanmax(eff)) if np.any(np.isfinite(eff)) else None,
        "nu_est": report.nu_est,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise SystemExit(f"cannot read config file {path!r}")
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser.items(section)))
    return merged


def _truthy(raw) -> bool:
    return str(raw).lower() in ("1", "true", "yes")


# each field's parser from its annotation: "int | None" parses as int
_PARSERS = {
    f.name: {"str": str, "int": int, "float": float, "bool": _truthy}[
        f.type.split(" |")[0]]
    for f in fields(StudyConfig)
}
# the flags that set a field of the same name, as the config file does
_PLAIN_FLAGS = [name for name in _PARSERS if name not in (
    "s", "strategy", "strategy_param", "uniform", "write_meshes", "write_vtk")]


def _setting(values: dict, key: str, raw) -> None:
    """Apply one config-file pair or command-line flag to `values`."""
    if key == "cont":
        if raw not in CONTINUITIES:
            raise SystemExit(f"invalid cont value {raw!r}; expected dg or c0ip")
        values["s"] = CONTINUITIES.index(raw)
    elif key == "mark":  # <strategy>:<strategy_param>
        strategy, _, param = raw.partition(":")
        _setting(values, "strategy", strategy.strip())
        _setting(values, "strategy_param", param)
    elif key == "strategy" and raw not in MARKERS:
        raise SystemExit(
            f"invalid strategy value {raw!r}; expected max or doerfler")
    elif key in _PARSERS:
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError:
            raise SystemExit(f"invalid {key} value {raw!r}")
    else:
        raise SystemExit(f"unknown config key {key!r}")


def build_config(argv=None) -> StudyConfig:
    """StudyConfig from the config file's pairs, then the flags, which win."""
    ap = argparse.ArgumentParser(
        prog="cordesfem",
        description="Adaptive DG / C0-IP studies for HJB and Isaacs equations "
        "with Cordes coefficients.",
    )
    ap.add_argument("--config", help="INI-style key = value configuration file")
    for name in _PLAIN_FLAGS:
        ap.add_argument("--" + name.replace("_", "-"), dest=name,
                        type=_PARSERS[name])
    ap.add_argument("--cont", help="dg or c0ip")
    ap.add_argument("--mark", help="max:<mu> or doerfler:<theta>")
    ap.add_argument("--uniform", action="store_true", default=None)
    ap.add_argument("--vtk", action="store_true", default=None,
                    dest="write_vtk")
    args = vars(ap.parse_args(argv))

    values: dict = {}
    path = args.pop("config")
    pairs = list(_load_config_file(path).items()) if path else []
    for key, raw in pairs + list(args.items()):
        if raw is not None:
            _setting(values, key, raw)
    return StudyConfig(**values)


def main(argv=None) -> int:
    config = build_config(argv)
    if config.threads != 1:
        print("note: assembly is single-threaded; --threads accepted for "
              "compatibility, runs remain deterministic", file=sys.stderr)
    summary = run_study(config)
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
