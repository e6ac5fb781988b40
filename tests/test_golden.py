"""Golden-number regression: per-level results of short uniform studies.

The rate and band tests of the acceptance suite tolerate drifts of a few
percent, so a refactor of assembly or estimation could move every number
without failing them. This test pins `(ndofs, eta_total, err_norm_k,
newton_iters)` of every registry problem, both continuities and p in {2, 3}
over 3 uniform levels from `unit_square_mesh(2)` at relative 1e-8.

Uniform levels are used because the symmetric sine benchmarks have exact
Doerfler ties, so roundoff-level changes could flip adaptive marking.

Regenerate `tests/data/golden.json` (only when a change of the numbers is
intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from cordesfem import (
    AdaptiveConfig,
    FormParams,
    SpaceConfig,
    adaptive_solve,
    get_problem,
    registry,
    unit_square_mesh,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
RTOL = 1e-8
CASES = [
    (name, cont, p)
    for name in [problem.name for problem in registry()]
    for cont in ("dg", "c0")
    for p in (2, 3)
]


def _key(name, cont, p):
    return f"{name}/{cont}/p{p}"


def _levels(name, cont, p):
    s = 0 if cont == "dg" else 1
    config = AdaptiveConfig(
        space=SpaceConfig(p=p, s=s),
        params=FormParams.defaults(p, s),
        max_iters=3,
        uniform=True,
    )
    trace = adaptive_solve(get_problem(name), unit_square_mesh(2), config)
    return [
        {
            "ndofs": st.ndofs,
            "eta_total": st.eta_total,
            "err_norm_k": st.err_norm_k,
            "newton_iters": st.newton_iters,
        }
        for st in trace.steps
    ]


@pytest.mark.parametrize("name,cont,p", CASES)
def test_golden_levels(name, cont, p):
    expected = json.loads(GOLDEN.read_text())[_key(name, cont, p)]
    got = _levels(name, cont, p)
    assert len(got) == len(expected) == 3
    for k, (g, e) in enumerate(zip(got, expected)):
        assert g["ndofs"] == e["ndofs"], k
        assert g["newton_iters"] == e["newton_iters"], k
        for field in ("eta_total", "err_norm_k"):
            assert g[field] == pytest.approx(e[field], rel=RTOL), (k, field)


if __name__ == "__main__":
    golden = {_key(*case): _levels(*case) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
