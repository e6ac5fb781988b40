"""Golden-number regression: per-level results of short studies.

The rate and band tests of the acceptance suite tolerate drifts of a few
percent, so a refactor of assembly or estimation could move every number
without failing them. This test pins `(ndofs, eta_total, err_norm_k,
newton_iters)` of every registry problem, both continuities and p in {2, 3}
over 3 uniform levels from `domain_mesh(problem.domain, 2)` (the
`unit_square_mesh(2)` of the unit square) at relative 1e-8, and of a few
adaptive Doerfler 0.5 studies over 6 levels, with `marked` too.

The symmetric sine benchmarks have Doerfler ties, elements whose estimators
differ by roundoff only. Marking takes each tie group whole, so the
adaptive meshes do not move with roundoff-level changes either.

Add the cases that `tests/data/golden.json` lacks, and print their keys,
with

    PYTHONPATH=src python tests/test_golden.py

Every entry it holds stays as it is, so to change one on purpose (only
when a change of its numbers is intended), delete it from the file first.
Print each entry's largest relative deviation from the file, rewriting
nothing, with `--drift`; it exits with status 1 if any deviation is at
least RTOL, or inf (a pinned count or the number of levels changed).
"""

import json
import sys
from pathlib import Path

import pytest

from cordesfem import (
    AdaptiveConfig,
    FormParams,
    SpaceConfig,
    adaptive_solve,
    get_problem,
    registry,
)
from cordesfem.cli import domain_mesh

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
RTOL = 1e-8
CASES = [
    (name, cont, p)
    for name in [problem.name for problem in registry()]
    for cont in ("dg", "c0")
    for p in (2, 3)
]
ADAPTIVE_CASES = [("two_control_switch", "dg", 3), ("rotated_anisotropic", "c0", 2)]
ADAPTIVE_LEVELS = 6
ALL_CASES = [(*case, False) for case in CASES]
ALL_CASES += [(*case, True) for case in ADAPTIVE_CASES]


def _key(name, cont, p, adaptive=False):
    return f"{name}/{cont}/p{p}" + ("/doerfler0.5" if adaptive else "")


def _levels(name, cont, p, adaptive=False):
    s = 0 if cont == "dg" else 1
    config = AdaptiveConfig(
        space=SpaceConfig(p=p, s=s),
        params=FormParams.defaults(p, s),
        max_iters=ADAPTIVE_LEVELS if adaptive else 3,
        uniform=not adaptive,
    )
    problem = get_problem(name)
    trace = adaptive_solve(problem, domain_mesh(problem.domain, 2), config)
    fields = ["ndofs", "eta_total", "err_norm_k", "newton_iters"]
    fields += ["marked"] if adaptive else []
    return [{f: r[f] for f in fields} for r in trace.records()]


def _check(got, expected, levels):
    assert len(got) == len(expected) == levels
    for k, (g, e) in enumerate(zip(got, expected)):
        assert g.keys() == e.keys(), k
        for field in g:
            if field in ("eta_total", "err_norm_k"):
                assert g[field] == pytest.approx(e[field], rel=RTOL), (k, field)
            else:
                assert g[field] == e[field], (k, field)


@pytest.mark.parametrize("name,cont,p", CASES)
def test_golden_levels(name, cont, p):
    expected = json.loads(GOLDEN.read_text())[_key(name, cont, p)]
    _check(_levels(name, cont, p), expected, 3)


@pytest.mark.parametrize("name,cont,p", ADAPTIVE_CASES)
def test_golden_adaptive_levels(name, cont, p):
    expected = json.loads(GOLDEN.read_text())[_key(name, cont, p, True)]
    _check(_levels(name, cont, p, True), expected, ADAPTIVE_LEVELS)


def _drift(got, expected):
    """The largest relative deviation of the pinned floats, or inf where an
    exact field or the number of levels differs."""
    if len(got) != len(expected) or any(
            g[f] != e[f] for g, e in zip(got, expected) for f in g
            if f not in ("eta_total", "err_norm_k")):
        return float("inf")
    return max(abs(g[f] - e[f]) / abs(e[f]) for g, e in zip(got, expected)
               for f in ("eta_total", "err_norm_k"))


def _report_drift(levels, path):
    """Prints the drift of each entry of `levels` from the golden file at
    `path`; returns the exit status of `--drift`: 1 if any drift is at least
    RTOL or not a number, else 0."""
    stored = json.loads(path.read_text())
    drifts = {key: _drift(got, stored[key]) for key, got in levels.items()}
    for key, drift in drifts.items():
        print(f"{key:45s} {drift:.2e}")
    return int(not all(drift < RTOL for drift in drifts.values()))


def _add_missing(path):
    """Adds the cases that the golden file at `path` lacks, keeping every
    entry it holds; returns their keys."""
    golden = json.loads(path.read_text()) if path.exists() else {}
    missing = [case for case in ALL_CASES if _key(*case) not in golden]
    golden.update({_key(*case): _levels(*case) for case in missing})
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1) + "\n")
    return [_key(*case) for case in missing]


def test_regeneration_adds_only_missing_cases(tmp_path):
    path = tmp_path / "golden.json"
    blob = GOLDEN.read_bytes()
    path.write_bytes(blob)
    assert _add_missing(path) == [] and path.read_bytes() == blob
    stored = json.loads(blob)
    key = _key("poisson_singleton", "dg", 2)
    path.write_text(json.dumps({k: v for k, v in stored.items() if k != key}))
    assert _add_missing(path) == [key]
    restored = json.loads(path.read_text())
    assert restored.keys() == stored.keys()
    assert all(restored[k] == v for k, v in stored.items() if k != key)
    _check(restored[key], stored[key], 3)


def test_drift_exit_status(tmp_path, capsys):
    # the stored levels against doctored copies of the golden file, with no
    # recomputation: status 0 below RTOL, 1 at a float drift of RTOL or
    # more, a changed pinned count or a changed number of levels
    stored = json.loads(GOLDEN.read_text())
    key = _key("poisson_singleton", "c0", 3)
    path = tmp_path / "golden.json"

    def status(doctor):
        golden = json.loads(GOLDEN.read_text())
        doctor(golden[key])
        path.write_text(json.dumps(golden))
        capsys.readouterr()
        return _report_drift(stored, path), capsys.readouterr().out.splitlines()

    def scale(factor):
        def doctor(levels):
            levels[-1]["err_norm_k"] *= factor
        return doctor

    def bump(levels):
        levels[0]["newton_iters"] += 1

    code, lines = status(lambda levels: None)
    assert code == 0
    assert lines == [f"{k:45s} {0.0:.2e}" for k in stored]
    assert status(scale(1.0 + RTOL / 10))[0] == 0
    assert status(scale(1.0 + 10 * RTOL))[0] == 1
    for doctor in (bump, list.pop):
        code, lines = status(doctor)
        assert code == 1
        assert f"{key:45s} {float('inf'):.2e}" in lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--drift"]:
        sys.exit(_report_drift({_key(*case): _levels(*case) for case in ALL_CASES},
                               GOLDEN))
    added = _add_missing(GOLDEN)
    print(f"added {len(added)} cases to {GOLDEN}", *added, sep="\n")
