"""Study driver: argument parsing, config files, outputs, reproducibility."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from cordesfem import cli, get_problem
from cordesfem.cli import build_config, main, run_study
from cordesfem.cordes import CoefficientField


def test_arg_parsing_defaults():
    cfg = build_config(["--problem", "poisson_singleton", "--out", "/tmp/x"])
    assert cfg.problem == "poisson_singleton"
    assert cfg.p == 2 and cfg.s in (0, 1)
    assert cfg.threads == 1


def test_arg_parsing_overrides():
    cfg = build_config([
        "--problem", "two_control_switch", "--p", "3", "--cont", "c0ip",
        "--theta", "0.5", "--sigma", "90", "--rho", "0",
        "--mark", "doerfler:0.6", "--max-dofs", "1000", "--out", "/tmp/x",
        "--seed", "7",
    ])
    assert cfg.p == 3 and cfg.s == 1
    assert cfg.strategy == "doerfler" and cfg.strategy_param == 0.6
    assert cfg.max_dofs == 1000 and cfg.seed == 7


def test_invalid_mark_value_rejected():
    with pytest.raises(SystemExit):
        build_config(["--problem", "poisson_singleton", "--out", "/tmp/x",
                      "--mark", "median:0.5"])


@pytest.mark.parametrize("uniform", ["false", "true"])
def test_invalid_config_strategy_rejected(tmp_path, uniform):
    # checked when the file is read, as --mark is, also where a uniform
    # study would never mark
    cfgfile = tmp_path / "study.ini"
    cfgfile.write_text(
        "[study]\nproblem = poisson_singleton\nstrategy = bogus\n"
        f"uniform = {uniform}\nout = {tmp_path / 'out'}\n"
    )
    with pytest.raises(SystemExit, match="invalid strategy value 'bogus'"):
        build_config(["--config", str(cfgfile)])
    cfgfile.write_text("[study]\nstrategy = max\n")
    assert build_config(["--config", str(cfgfile)]).strategy == "max"


def test_config_file_round_trips_every_field(tmp_path):
    # every StudyConfig field is an INI key of the same name, parsed by its
    # annotation; each value differs from the default
    want = cli.StudyConfig(
        problem="two_control_switch", p=3, s=1, q=7, theta=0.25, sigma=12.5,
        rho=3.0, strategy="max", strategy_param=0.3, uniform=True, levels=4,
        n0=3, max_dofs=900, eta_tol=0.01, seed=5, threads=2,
        out=str(tmp_path / "out"), write_meshes=False, write_vtk=True,
        tol=1e-9)
    assert all(getattr(want, f.name) != f.default for f in fields(want))
    cfgfile = tmp_path / "study.ini"
    cfgfile.write_text("[study]\n" + "".join(
        f"{f.name} = {getattr(want, f.name)}\n" for f in fields(want)))
    assert build_config(["--config", str(cfgfile)]) == want


@pytest.mark.parametrize("flag,value,field,expected", [
    ("--problem", "two_control_switch", "problem", "two_control_switch"),
    ("--p", "3", "p", 3), ("--q", "7", "q", 7), ("--theta", "0.25", "theta", 0.25),
    ("--sigma", "12.5", "sigma", 12.5), ("--rho", "3", "rho", 3.0),
    ("--levels", "4", "levels", 4), ("--n0", "3", "n0", 3),
    ("--max-dofs", "900", "max_dofs", 900), ("--eta-tol", "0.01", "eta_tol", 0.01),
    ("--seed", "5", "seed", 5), ("--threads", "2", "threads", 2),
    ("--out", "elsewhere", "out", "elsewhere"), ("--tol", "1e-9", "tol", 1e-9),
    ("--cont", "c0ip", "s", 1), ("--mark", "max:0.3", "strategy_param", 0.3),
    ("--uniform", None, "uniform", True), ("--vtk", None, "write_vtk", True),
])
def test_each_flag_sets_its_field(flag, value, field, expected):
    argv = [flag] if value is None else [flag, value]
    assert getattr(build_config(argv), field) == expected


def test_flag_values_parsed_by_argparse(capsys):
    with pytest.raises(SystemExit):
        build_config(["--p", "x"])
    assert "invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("cont", ["DG", "foo"])
def test_invalid_cont_rejected_in_file_and_flag(tmp_path, cont):
    # a config file checks cont as --cont does
    cfgfile = tmp_path / "study.ini"
    cfgfile.write_text(f"[study]\ncont = {cont}\n")
    for argv in (["--config", str(cfgfile)], ["--cont", cont]):
        with pytest.raises(SystemExit, match=f"invalid cont value '{cont}'"):
            build_config(argv)
    cfgfile.write_text("[study]\ncont = dg\n")
    assert build_config(["--config", str(cfgfile), "--cont", "c0ip"]).s == 1


def test_config_file_with_cli_override(tmp_path):
    cfgfile = tmp_path / "study.ini"
    cfgfile.write_text(
        "[study]\nproblem = poisson_singleton\np = 3\nuniform = true\n"
        "levels = 2\nout = {}\n".format(tmp_path / "out")
    )
    cfg = build_config(["--config", str(cfgfile), "--p", "2"])
    assert cfg.problem == "poisson_singleton"
    assert cfg.p == 2  # command line wins
    assert cfg.uniform is True


def test_uniform_study_outputs(tmp_path):
    out = tmp_path / "study"
    summary = run_study(build_config([
        "--problem", "poisson_singleton", "--p", "2", "--cont", "dg",
        "--uniform", "--levels", "2", "--n0", "2", "--out", str(out),
    ]))
    assert (out / "trace.csv").exists()
    assert (out / "trace.json").exists()
    disk = json.loads((out / "summary.json").read_text())
    assert disk["problem"] == "poisson_singleton"
    assert disk["levels"] == 2
    # fewer than 4 levels: slopes reported as n/a, never guessed
    assert disk["slope_error"] is None
    assert summary["params"]["p"] == 2
    assert (out / "mesh_0.txt").exists()


def test_adaptive_study_slope_fields(tmp_path):
    out = tmp_path / "study"
    summary = run_study(build_config([
        "--problem", "poisson_singleton", "--p", "2", "--cont", "dg",
        "--uniform", "--levels", "4", "--n0", "2", "--out", str(out),
    ]))
    # 4 levels: slope vs ndofs is fitted; for p=2 expect about -1/2
    assert summary["slope_error"] is not None
    assert -0.8 < summary["slope_error"] < -0.2
    assert 0.9 <= summary["slope_error_r2"] <= 1.0
    assert summary["c_eff_obs"] > 0


def test_rerun_byte_identical_trace(tmp_path):
    args = ["--problem", "two_control_switch", "--p", "2", "--cont", "dg",
            "--mark", "doerfler:0.5", "--max-dofs", "400", "--n0", "2",
            "--seed", "3", "--threads", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_study(build_config(args + ["--out", str(out_a)]))
    run_study(build_config(args + ["--out", str(out_b)]))
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_study_keeps_the_global_random_state(tmp_path):
    # nothing in a study draws from numpy's global generator, so a run
    # leaves the caller's state as it was
    np.random.seed(12345)
    before = np.random.get_state()
    run_study(build_config([
        "--problem", "poisson_singleton", "--p", "2", "--cont", "dg",
        "--uniform", "--levels", "1", "--seed", "11", "--out", str(tmp_path / "x"),
    ]))
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


def test_bad_problem_name_rejected(tmp_path):
    with pytest.raises((SystemExit, KeyError)):
        run_study(build_config(["--problem", "no_such", "--out",
                                str(tmp_path / "x")]))


def test_cordes_check_sees_quadrature_points(tmp_path, monkeypatch):
    # a = diag(1, 2) on the strip x < 0.1 breaks the declared nu = 1 there
    # only; every element centroid of the n0 = 2 mesh lies at x >= 0.125
    base = get_problem("poisson_singleton")

    def a(x, alpha, beta):
        out = base.coeffs.a(x, alpha, beta).copy()  # the registry's is read-only
        out[:, 1, 1] += x[:, 0] < 0.1
        return out

    strip = replace(base, coeffs=CoefficientField(a, base.coeffs.f))
    monkeypatch.setattr(cli, "get_problem", lambda name: strip)
    with pytest.raises(SystemExit, match="fails the ellipticity/Cordes check"):
        run_study(build_config([
            "--problem", "poisson_singleton", "--p", "2", "--cont", "dg",
            "--uniform", "--levels", "1", "--n0", "2",
            "--out", str(tmp_path / "x"),
        ]))


def test_study_meshes_the_problem_domain(tmp_path, monkeypatch):
    # every mesh of a study on a pentagon lies inside the pentagon
    pentagon = np.array([[0.2, 0.0], [0.8, 0.0], [1.0, 0.6], [0.5, 1.0], [0.0, 0.6]])
    base = get_problem("poisson_singleton")
    prob = replace(base, domain=pentagon, exact=None)
    monkeypatch.setattr(cli, "get_problem", lambda name: prob)
    out = tmp_path / "x"
    run_study(build_config([
        "--problem", "poisson_singleton", "--p", "2", "--cont", "dg",
        "--uniform", "--levels", "2", "--n0", "2", "--out", str(out),
    ]))
    edges = np.roll(pentagon, -1, axis=0) - pentagon
    for k in range(2):
        lines = (out / f"mesh_{k}.txt").read_text().splitlines()
        v = np.array([[float(t) for t in ln.split()[1:]] for ln in lines
                      if ln.startswith("v ")])
        rel = v[:, None, :] - pentagon[None]
        cross = edges[None, :, 0] * rel[..., 1] - edges[None, :, 1] * rel[..., 0]
        assert cross.min() >= -1e-12
        assert len(v) > len(pentagon)
