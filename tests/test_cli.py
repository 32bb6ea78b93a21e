import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monopole_lab.cli import main, spec_from_config
from monopole_lab.errors import ConfigError

CASE2 = {
    "family": "case2",
    "mu": 1.0,
    "B": 0.5,
    "geometry": {"roots": [3, 2, -1, -4], "a3": -1.0},
    "integrator": {"t_end": 2.0, "tol": 1e-9, "stride": 5, "seed": 7},
    "grid": {"n": 32, "stencil": 4},
}

CASE1 = {
    "family": "case1",
    "mu": 1.0,
    "B": 0.5,
    "geometry": {"alpha": [3.0, 2.0, 1.0]},
    "integrator": {"t_end": 2.0, "tol": 1e-9, "stride": 5, "seed": 3},
    "grid": {"n": 24},
}


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_roots_admissible(tmp_path, capsys):
    code = main(["roots", "--config", _write(tmp_path, CASE2)])
    out = capsys.readouterr().out
    assert code == 0
    assert "admissible: True" in out
    assert "roots: 3 2 -1 -4" in out


def test_roots_inadmissible(tmp_path, capsys):
    cfg = dict(CASE2, geometry={"roots": [4, 1, -2, -3], "a3": -1.0})
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    assert code == 1
    assert "root_inequalities: False" in capsys.readouterr().out


def test_roots_and_coefficients_together_is_config_error(tmp_path, capsys):
    cfg = dict(CASE2, geometry={"roots": [3, 2, -1, -4], "a3": -1.0, "a2": 15.0})
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert capsys.readouterr().err == 'config error: give either "roots" or coefficients, not both\n'


def test_roots_of_a_quartic_without_four_real_roots(tmp_path, capsys):
    # P = -x^4 - x^2 - 1 has no real root: a numerical failure, not a refused config
    cfg = dict(CASE2, geometry={"a3": -1.0, "a2": -1.0, "a0": 0.0, "a1": -1.0})
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    assert code == 1
    assert "roots: not four distinct real roots\n" in capsys.readouterr().out


def test_missing_key_names_it(tmp_path, capsys):
    cfg = dict(CASE2, geometry={"a2": 15.0, "a0": -10.0, "a1": -24.0})
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert '"a3"' in capsys.readouterr().err


def test_quartic_config_round_trip():
    from monopole_lab.cli import quartic_from_config
    from monopole_lab.polyroots import from_roots

    params = from_roots([3, 2, -1, -4], -1.0)
    assert quartic_from_config({"a3": params.a3, "a2": params.a2, "a0": params.a0, "a1": params.a1}) == params


def test_config_rejects_user_k(tmp_path):
    cfg = dict(CASE2, k=3.0)
    with pytest.raises(ConfigError):
        spec_from_config(cfg)
    cfg = dict(CASE2, k=2.0)  # matches -4B/a3: tolerated
    assert spec_from_config(cfg).k == 2.0


def test_config_case1_nu_must_match_b(tmp_path):
    cfg = dict(CASE1, nu=0.3)
    with pytest.raises(ConfigError):
        spec_from_config(cfg)


def test_simulate_deterministic(tmp_path, capsys):
    cfg_path = _write(tmp_path, CASE2)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    b1 = (out1 / "simulate.csv").read_bytes()
    b2 = (out2 / "simulate.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "t,u1,u2,p1,p2,H,F"


def test_simulate_e3_schema(tmp_path):
    cfg = {
        "family": "vy",
        "mu": 1.0,
        "geometry": {"vyA": 2.0, "vyB": 1.0},
        "integrator": {"t_end": 2.0, "tol": 1e-9, "stride": 5, "seed": 2},
    }
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    header = (out / "simulate.csv").read_text().splitlines()[0]
    assert header == "t,M1,M2,M3,x1,x2,x3,H,F,C1,C2"


def test_verify_subcommand(tmp_path, capsys):
    cfg = dict(CASE1, grid={"n": 48, "stencil": 4})
    code = main(["verify", "--config", _write(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "C6*" in out and "duality" in out
    # the duality row is reported, but only (C1)-(C6) and (C6*) set the exit code
    assert out.splitlines()[-1].endswith("(tol 1e-06; duality not gated)")


NEAR = dict(CASE2, geometry={"roots": [3, 2.99, -1, -4.99], "a3": -1.0}, grid={"n": 64, "stencil": 4})


@pytest.mark.parametrize(
    "name, cfg, verify_tol, metric_tol",
    [("case1", CASE1, 1e-10, 1e-9), ("case2", CASE2, 1e-10, 1e-9), ("near", NEAR, 1e-10, 1e-8)],
)
def test_grid_checks_read_round_off(tmp_path, capsys, name, cfg, verify_tol, metric_tol):
    # exact jets: verify's residuals for n from 16 to 128 and metric-check's
    # curvature gap at grid.n 64 are round-off; the near-coalescing quartic
    # passes both at the default tolerance
    path = _write(tmp_path, dict(cfg, grid={"n": 64, "stencil": 4}))
    for n in (16, 32, 64, 128):
        assert main(["verify", "--config", path, "--grid", str(n), "--tol", repr(verify_tol)]) == 0, n
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith(f"grid {n}x{n}, derivatives from exact jets")
    for n_stencil in ("2", "4"):  # the stencil order no longer moves the table
        main(["verify", "--config", path, "--stencil", n_stencil])
    assert len(set(capsys.readouterr().out.split("family")[1:])) == 1
    assert main(["metric-check", "--config", path, "--out", str(tmp_path), "--tol", repr(metric_tol)]) == 0
    assert main(["metric-check", "--config", path, "--out", str(tmp_path)]) == 0


def test_flux_subcommand(tmp_path, capsys):
    code = main(["flux", "--config", _write(tmp_path, CASE1), "--grid", "128"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flux / (2 pi) : 1" in out
    # off-quantization value breaches only when integrality is demanded
    cfg = dict(CASE1, B=0.3)
    assert main(["flux", "--config", _write(tmp_path, cfg), "--grid", "128"]) == 0
    assert (
        main(
            [
                "flux",
                "--config",
                _write(tmp_path, cfg),
                "--grid",
                "128",
                "--require-integer",
            ]
        )
        == 1
    )


def test_flux_grid_below_rule_minimum_is_config_error(tmp_path, capsys):
    # a quadrature size under 64, from the config or from --grid, exits 2
    cfg_path = _write(tmp_path, dict(CASE1, grid={"n": 8}))
    assert main(["flux", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert main(["flux", "--config", cfg_path, "--grid", "16"]) == 2
    assert main(["flux", "--config", cfg_path, "--grid", "64"]) == 0


@pytest.mark.parametrize("n_traj", [0, -2])
def test_simulate_rejects_empty_batch(tmp_path, capsys, n_traj):
    # a batch with no trajectory is a config error, not a zero-drift success
    out = tmp_path / "out"
    cfg_path = _write(tmp_path, dict(CASE1, n_trajectories=n_traj))
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and '"n_trajectories"' in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--stride", "0"], "stride"),
        (["--stride=-1"], "stride"),
        (["--tol", "0"], "tol"),
        (["--tol=-1"], "tol"),
        (["--tol", "nan"], "tol"),
        (["--t-end", "nan"], "t_end"),
        (["--t-end=-1"], "t_end"),
        (["--t-end", "inf"], "t_end"),
        ([], "stride"),  # from the config itself
    ],
)
def test_simulate_rejects_bad_integrator_settings(tmp_path, capsys, flags, key):
    # each would crash, loop forever, or run as something else than asked
    out = tmp_path / "out"
    cfg = dict(CASE1, integrator=dict(CASE1["integrator"], stride=0 if not flags else 5))
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f'"{key}"' in err and err.count("\n") == 1
    assert not list(out.glob("*.csv"))


def test_unresolved_series_is_an_error_line(tmp_path, capsys):
    # alpha1 = 1e10 far above alpha2: the conformal branch series cannot be
    # resolved, one error line.  At 1e6 it resolves (K1 to 1.5e-17 of a
    # 30-digit quadrature, 32768 samples), and the curvature of so stretched a
    # metric, from the series' q1 and q1', fails its gate: exit 1, reported,
    # no traceback
    cfg = dict(CASE1, geometry={"alpha": [1e10, 2.0, 1.0]})
    assert main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SeriesNotResolved:") and err.count("\n") == 1
    cfg = dict(CASE1, geometry={"alpha": [1e6, 2.0, 1.0]})
    assert main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "max |K_closed - K_numeric|" in out and "Traceback" not in out + err


def test_elliptic_table(tmp_path, capsys):
    out = tmp_path / "t"
    out.mkdir()
    code = main(
        [
            "elliptic-table",
            "--config",
            _write(tmp_path, CASE2),
            "--out",
            str(out),
            "--samples",
            "17",
        ]
    )
    assert code == 0
    lines = (out / "elliptic_table.csv").read_text().splitlines()
    assert lines[0] == "u,Q,dQ"
    assert len(lines) == 18
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 2.0, 0.0]


def test_metric_check(tmp_path, capsys):
    cfg = dict(CASE1, grid={"n": 8})
    out = tmp_path / "m"
    out.mkdir()
    code = main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "metric_check.csv").read_text().splitlines()
    assert lines[0] == "u1,u2,lambda,K_closed,K_numeric"
    assert len(lines) == 65


def test_metric_check_rows_match_pointwise(tmp_path, capsys):
    # u1 is the outer loop of the rows; each row is the pointwise evaluation
    import numpy as np

    from monopole_lab import geometry as geo

    cfg = dict(CASE2, grid={"n": 5})
    out = tmp_path / "m"
    assert main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "metric_check.csv", delimiter=",", skiprows=1)
    spec = spec_from_config(cfg)
    m = spec.model
    u1 = np.linspace(0.15, 0.85, 5) * m.K1
    u2 = np.linspace(0.15, 0.85, 5) * m.K2
    lam_fn = lambda a, b: float(geo.torus_lambda(m, a, b))
    expected = [(a, b) for a in u1 for b in u2]
    assert np.array_equal(rows[:, :2], np.array(expected))
    for (a, b), row in zip(expected, rows):
        assert row[2] == pytest.approx(lam_fn(a, b), rel=1e-13)
        assert row[3] == pytest.approx(geo.curvature_closed(spec, (a, b)), rel=1e-14)
        assert abs(row[4] - geo.curvature_numeric(lam_fn, (a, b), h=1e-3)) < 1e-8
    worst = float(np.max(np.abs(rows[:, 3] - rows[:, 4])))
    assert f"max |K_closed - K_numeric| = {worst:.3e}" in capsys.readouterr().out


@pytest.mark.parametrize("n", [0, -2])
def test_metric_check_empty_grid_is_config_error(tmp_path, capsys, n):
    cfg = dict(CASE1, grid={"n": n})
    assert main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "config error: metric-check grid n" in capsys.readouterr().err
    assert not (tmp_path / "metric_check.csv").exists()


@pytest.mark.parametrize(
    "cfg_grid, flags, code",
    [
        ({"n": 0, "stencil": 4}, [], 2),
        ({"n": 32, "stencil": 4}, ["--grid", "0"], 2),
        # below the old stencil minimum (9 at order 4, 5 at order 2): every
        # derivative is exact and every point is read, so these run
        ({"n": 32, "stencil": 4}, ["--grid", "8"], 0),
        ({"n": 32, "stencil": 4}, ["--grid", "4", "--stencil", "2"], 0),
        ({"n": 32, "stencil": 3}, [], 2),
        ({"n": 1, "stencil": 2}, [], 0),
    ],
    ids=[f"cfg_grid{i}-flags{i}" for i in range(6)],  # stable ids: the code is left out of them
)
def test_verify_grid_below_stencil_minimum_is_config_error(tmp_path, capsys, cfg_grid, flags, code):
    cfg = dict(CASE2, grid=cfg_grid)
    args = ["verify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]
    assert main(args + flags) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: verify") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize(
    "command, cfg, csv",
    [
        ("elliptic-table", CASE2, "elliptic_table.csv"),
        ("metric-check", dict(CASE1, grid={"n": 8}), "metric_check.csv"),
        ("simulate", dict(CASE1, integrator=dict(CASE1["integrator"], t_end=0.1)), "simulate.csv"),
    ],
)
def test_out_directory_is_created(tmp_path, capsys, command, cfg, csv):
    out = tmp_path / "new" / "nested"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / csv).read_text().count("\n") > 1


def test_unknown_family(tmp_path, capsys):
    # roots reads only the geometry, but refuses a config of another family as
    # every subcommand does: one config error line, exit 2; a bare geometry runs
    cfg = dict(CASE2, family="case3")
    for command in ("roots", "simulate"):
        assert main([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == 'config error: "family" = "case3": must be one of case1, case2, case2_limit, vy\n'
    assert main(["roots", "--config", _write(tmp_path, dict(CASE2, family="case1"))]) == 2
    assert capsys.readouterr().err == "config error: roots takes case2 configs, not case1\n"
    assert main(["roots", "--config", _write(tmp_path, CASE2["geometry"])]) == 0


def test_batch_member_matches_solo_run(tmp_path):
    # member i of a batch is the run of seed + i on its own, byte for byte
    cfg = dict(CASE1, n_trajectories=3)
    cfg["integrator"] = {"t_end": 1.0, "tol": 1e-9, "stride": 5, "seed": 11}
    cfg_path = _write(tmp_path, cfg)
    batch = tmp_path / "batch"
    assert main(["simulate", "--config", cfg_path, "--out", str(batch)]) == 0
    solo_path = _write(tmp_path, dict(cfg, n_trajectories=1), "solo.json")
    for i in range(3):
        solo = tmp_path / f"solo{i}"
        assert main(["simulate", "--config", solo_path, "--out", str(solo), "--seed", str(11 + i)]) == 0
        member = (batch / f"simulate_{i:03d}.csv").read_bytes()
        assert member == (solo / "simulate.csv").read_bytes()


def test_batch_trajectories(tmp_path):
    cfg = dict(CASE2, n_trajectories=3)
    cfg["integrator"] = {"t_end": 0.5, "tol": 1e-8, "stride": 5, "seed": 1}
    out = tmp_path / "batch"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("simulate_*.csv"))
    assert files == ["simulate_000.csv", "simulate_001.csv", "simulate_002.csv"]


def test_flux_explicit_grid_zero_is_config_error(tmp_path, capsys):
    # an explicit --grid 0 is a size, not "use the config's": it is below the
    # rule's minimum and exits 2
    assert main(["flux", "--config", _write(tmp_path, CASE1), "--grid", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n = 0" in err


def test_cli_import_does_not_load_scipy():
    # scipy is a test dependency only: importing the CLI does not load it, and
    # with it blocked every model still builds and the closed forms, the
    # inverse, the flux and a verify run all work
    root = Path(__file__).resolve().parents[1]
    code = "import sys, monopole_lab.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
    code = f"""
import sys
sys.modules["scipy"] = None
from monopole_lab import build_model, from_roots
from monopole_lab.cli import main
from monopole_lab.elliptic import jacobi_special
from monopole_lab.geometry import area_and_flux, conformal_case1
canonical = build_model(from_roots([3, 2, -1, -4], -1.0))
even = build_model(from_roots([2, 1, -1, -2], -1.0))
conformal_case1((3.0, 2.0, 1.0))
jacobi_special(even, 0.3)
canonical.branch1.invert(2.5)
area_and_flux(canonical, 0.5)
sys.exit(main(["verify", "--config", {str(root / "demos/configs/case2.json")!r}]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_all_and_package_exports_agree():
    # every name in a module's __all__ exists, and the package root imports
    # only names its modules export
    import ast
    import importlib

    root = Path(__file__).resolve().parents[1] / "src" / "monopole_lab"
    for node in ast.parse((root / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"monopole_lab.{node.module}")
            missing = [a.name for a in node.names if a.name not in module.__all__]
            assert not missing, (node.module, missing)
    for path in sorted(root.glob("*.py")):
        module = importlib.import_module(f"monopole_lab.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (path.stem, missing)


def _bad(cfg: dict, **change) -> dict:
    """`cfg` with the top-level keys of `change` replaced; a dict value replaces a section's keys."""
    out = dict(cfg)
    for key, value in change.items():
        out[key] = dict(cfg[key], **value) if isinstance(value, dict) and key in cfg else value
    return out


CASE2_LIMIT = {"family": "case2_limit", "mu": 1.0, "B": 0.6, "geometry": {"beta1": 2.0, "beta3": -1.0, "beta4": -3.0}}
VY = {"family": "vy", "mu": 1.0, "geometry": {"vyA": 2.0, "vyB": 1.0}}


@pytest.mark.parametrize(
    "command, cfg, flags, key",
    [
        # each of these used to end in a traceback
        ("simulate", _bad(CASE1, integrator={"t_end": "abc"}), [], '"t_end"'),
        ("metric-check", _bad(CASE1, grid={"n": "abc"}), [], "metric-check grid n"),
        ("verify", _bad(CASE1, grid={"n": "abc"}), [], "verify grid n"),
        ("simulate", _bad(CASE1, mu="x"), [], '"mu"'),
        ("simulate", _bad(CASE1, geometry={"alpha": [1, 2, 3]}), [], '"alpha"'),
        ("simulate", _bad(CASE1, geometry={"alpha": [3, 2]}), [], '"alpha"'),
        ("roots", _bad(CASE2, geometry={"roots": [3, 2, -1, -4], "a3": 1}), [], '"a3"'),
        ("simulate", _bad(CASE2, geometry={"roots": [3, 2, -1, -4], "a3": 1}), [], '"a3"'),
        ("roots", _bad(CASE2, geometry={"roots": [3, -1, -2]}), [], '"roots"'),
        ("simulate", _bad(CASE2_LIMIT, geometry={"beta3": -3.0, "beta4": -1.0}), [], '"beta3"'),
        ("simulate", _bad(VY, geometry={"vyA": 1, "vyB": 2}), [], '"vyA"'),
        ("metric-check", _bad(CASE1, grid=[1]), [], '"grid"'),
        ("simulate", _bad(CASE1, integrator={"seed": -1}), [], '"seed"'),
        ("simulate", CASE1, ["--seed", "-1"], '"seed"'),
        ("elliptic-table", CASE2, ["--samples", "-3"], "--samples"),
        # and these used to run another system than the one asked for
        ("metric-check", _bad(CASE1, grid={"n": 16.9}), [], "metric-check grid n"),
        ("flux", _bad(CASE1, grid={"n": 64.5}), [], "flux grid n"),
        ("simulate", _bad(CASE1, integrator={"stride": 2.7}), [], '"stride"'),
        ("simulate", _bad(CASE1, geometry={"alpha": "321"}), [], '"alpha"'),
        ("simulate", _bad(CASE1, mu=True), [], '"mu"'),
        ("simulate", _bad(CASE1, n_trajectories="2"), [], '"n_trajectories"'),
        # non-finite JSON numbers, sections and thresholds
        ("simulate", _bad(CASE1, B=float("nan")), [], '"B"'),
        ("simulate", _bad(CASE1, integrator={"tol": "1e400"}), [], '"tol"'),
        ("simulate", _bad(CASE1, integrator=5), [], '"integrator"'),
        ("simulate", _bad(CASE1, family=1), [], '"family"'),
        ("verify", CASE1, ["--stencil", "3"], "verify stencil"),
        ("verify", CASE1, ["--tol", "nan"], "--tol"),
        ("metric-check", CASE1, ["--tol=-1"], "--tol"),
        ("flux", CASE1, ["--tol", "inf"], "--tol"),
        ("simulate", CASE1, ["--max-drift", "nan"], "--max-drift"),
        # and these ran, each key ignored: one no subcommand reads for the config's family
        ("simulate", dict(CASE2, seed=1000), [], '"seed"'),
        ("verify", _bad(CASE2, integrator={"t_edn": 1.0}), [], '"integrator.t_edn"'),
        ("simulate", dict(CASE2, grdi={"n": 32}), [], '"grdi"'),
        ("verify", _bad(CASE2, geometry={"rootz": 1}), [], '"geometry.rootz"'),
        ("simulate", dict(CASE2, n_trajectory=3), [], '"n_trajectory"'),
        ("metric-check", dict(CASE2, nu=0.5), [], '"nu"'),
        ("roots", _bad(CASE2, geometry={"alpha": [3.0, 2.0, 1.0]}), [], '"geometry.alpha"'),
        ("simulate", dict(VY, grid={"n": 8}), [], '"grid"'),
    ],
)
def test_bad_outside_input_is_one_config_error_line(tmp_path, capsys, command, cfg, flags, key):
    path = tmp_path / "cfg.json"
    # a JSON number beyond the float range, which json.dumps cannot write itself
    path.write_text(json.dumps(cfg).replace('"1e400"', "1e400"))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and key in err
    assert not out.exists() or not any(out.iterdir())


# the config shapes that bench/workloads.py writes, copied as literals
_BENCH_SHAPE = {
    "family": "case2", "mu": 1.0, "B": 0.5, "integrator": {"t_end": 2.0, "tol": 1e-10, "stride": 10, "seed": 7},
}
BENCH_SHAPES = {
    "torus-flow": dict(_BENCH_SHAPE, geometry={"roots": [3.0, 2.0, -1.0, -4.0], "a3": -1.0}),
    **{
        f"sphere-{fam}{tag}": dict(_BENCH_SHAPE, family=fam, geometry=geometry, **extra, **batch)
        for fam, geometry, extra in (
            ("case1", {"alpha": [3.0, 2.0, 1.0]}, {}),
            ("case2_limit", {"beta1": 2.0, "beta3": -1.0, "beta4": -3.0}, {"B": 0.6}),
        )
        for tag, batch in (("", {"n_trajectories": 4}), ("-single", {}))
    },
    **{
        f"grid-{name}": dict(_BENCH_SHAPE, family=fam, geometry=geometry, grid={"n": 8, "stencil": 4})
        for name, fam, geometry in (
            ("case1", "case1", {"alpha": [3.0, 2.0, 1.0]}),
            ("case2", "case2", {"roots": [3.0, 2.0, -1.0, -4.0], "a3": -1.0}),
            ("near", "case2", {"roots": [3.0, 2.99, -1.0, -4.99], "a3": -1.0}),
        )
    },
}
TAKES = {  # subcommand -> the families it runs, and flags that keep each run short
    "roots": (("case2",), []),
    "elliptic-table": (("case2",), ["--samples", "32"]),
    "metric-check": (("case1", "case2"), []),
    "simulate": (("case1", "case2", "case2_limit", "vy"), ["--t-end", "0.05"]),
    "verify": (("case1", "case2"), ["--grid", "16"]),
    "flux": (("case1", "case2"), ["--grid", "64"]),
}


def _only_read_by(command: str, cfg: dict) -> dict:
    """`cfg` with only the keys that `command` reads."""
    if command == "roots":
        return {"geometry": cfg["geometry"]}
    own = {"simulate": ("integrator", "n_trajectories"), "elliptic-table": ()}.get(command, ("grid",))
    keep = ("family", "mu", "B", "geometry", "nu", "k", *own)
    return {k: v for k, v in cfg.items() if k in keep}


def test_shipped_configs_run_and_help_lists_the_schema(tmp_path, capsys):
    # every demo config and every shape the benchmark writes runs under each
    # subcommand that takes its family, whole: exit 0 (roots on the
    # inadmissible quartic, 1), and the bytes of a run on only the keys that
    # subcommand reads, so no key meant for another subcommand is refused or
    # changes what runs
    from monopole_lab.cli import SCHEMA

    demos = Path(__file__).resolve().parents[1] / "demos" / "configs"
    shapes = {p.stem: json.loads(p.read_text()) for p in sorted(demos.glob("*.json"))} | BENCH_SHAPES
    assert len(shapes) == 13
    out = tmp_path / "out"
    for name, cfg in shapes.items():
        if name != "inadmissible":
            spec_from_config(cfg)
        for command, (families, flags) in TAKES.items():
            if cfg["family"] not in families or (name == "inadmissible" and command != "roots"):
                continue
            runs = []
            for c in (cfg, _only_read_by(command, cfg)):
                code = main([command, "--config", _write(tmp_path, c), "--out", str(out)] + flags)
                captured = capsys.readouterr()
                csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
                runs.append((code, captured.out, captured.err, csvs))
                shutil.rmtree(out, ignore_errors=True)
            assert runs[0] == runs[1], (name, command)
            assert runs[0][:3:2] == (1 if name == "inadmissible" else 0, ""), (name, command)
    # the defaults of an absent key, as they were
    bare = _write(tmp_path, {"family": "case1", "geometry": {"alpha": [3.0, 2.0, 1.0]}})
    for argv, line in (
        (["verify"], "family case1, grid 64x64, derivatives from exact jets"),
        (["metric-check"], f"wrote 1024 samples to {out / 'metric_check.csv'}"),
        (["simulate", "--t-end", "0.05"], "simulate.csv (seed 0): "),
    ):
        assert main(argv + ["--config", bare, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(line)
    # --help names every config key of SCHEMA with its scope and default, and each flag's default
    for command in TAKES:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        lines = capsys.readouterr().out.splitlines()
        for scope, keys in SCHEMA.items():
            for path, key in keys.items():
                default = "required" if key.default is None else f"= {key.default}"
                if path.startswith("--") and scope == command:
                    assert any(line.split()[:1] == [path] and line.endswith(default) for line in lines), path
                elif not path.startswith("--") and key.kind is not dict:
                    assert any(
                        line.split()[:1] == [path] and f" {scope} " in line and line.endswith(default) for line in lines
                    ), path


@pytest.mark.parametrize("content", [b"[1, 2]", b"5", b"null", b"\xff\xfe", None, b"{", "missing"])
def test_config_file_that_is_not_an_object_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--seed", "1"],
        ["roots", "--tol", "1"],
        ["elliptic-table", "--seed", "1"],
        ["elliptic-table", "--tol", "1"],
        ["metric-check", "--seed", "1"],
        ["verify", "--seed", "1"],
        ["flux", "--seed", "1"],
    ],
)
def test_flags_nothing_reads_are_rejected(argv):
    from monopole_lab.cli import _parser

    with pytest.raises(SystemExit) as exc:
        _parser().parse_args(argv + ["--config", "c.json"])
    assert exc.value.code == 2


def test_benchmark_argv_still_parses():
    # the argument forms that bench/workloads.py passes to main()
    from monopole_lab.cli import _parser

    base = ["--config", "c.json", "--out", "o"]
    for argv in (
        ["simulate", *base, "--seed", "3", "--max-drift", "1e-06"],
        ["verify", *base, "--grid", "24", "--stencil", "4", "--tol", "1e-05"],
        ["flux", *base, "--grid", "128", "--require-integer"],
        ["elliptic-table", *base, "--branch", "q2", "--samples", "300"],
        ["metric-check", *base],
    ):
        assert _parser().parse_args(argv).fn.__name__ == "cmd_" + argv[0].replace("-", "_")


@pytest.mark.parametrize(
    "command, cfg, section, key, csv",
    [
        ("metric-check", dict(CASE1, grid={"n": 32}), "grid", "n", "metric_check.csv"),
        ("simulate", dict(CASE1, integrator=dict(CASE1["integrator"], t_end=0.5)), "integrator", "stride", "simulate.csv"),
    ],
)
def test_integral_float_reads_as_the_int(tmp_path, capsys, command, cfg, section, key, csv):
    as_float = dict(cfg, **{section: dict(cfg[section], **{key: float(cfg[section][key])})})
    runs = []
    for c in (cfg, as_float):
        out = tmp_path / "out"  # the same path both times, so stdout can match too
        assert main([command, "--config", _write(tmp_path, c), "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, (out / csv).read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command, cfg", [("simulate", CASE1), ("metric-check", CASE1), ("elliptic-table", CASE2)])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, monkeypatch, command, cfg, under):
    # these three write into --out: a regular file, or a path under one, fails
    # before anything is computed and leaves the file as it was
    from monopole_lab import dynamics, geometry

    def computed(*_args, **_kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(dynamics, "integrate", computed)
    monkeypatch.setattr(geometry, "curvature_from_jet", computed)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "x" if under else afile
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --out = ") and captured.err.count("\n") == 1
    assert afile.read_text() == "kept"


@pytest.mark.parametrize(
    "family, header",
    [
        ("case1", "t,M1,M2,M3,x1,x2,x3,H,F,C1,C2"),
        ("vy", "t,M1,M2,M3,x1,x2,x3,H,F,C1,C2"),
        ("case2", "t,u1,u2,p1,p2,H,F"),
        ("case2_limit", "t,u1,u2,p1,p2,H,F"),
    ],
)
def test_simulate_header_per_family(tmp_path, family, header):
    # the state's fields, then the trajectory's monitors, in order, each
    # column holding what its name says
    from monopole_lab import dynamics

    cfg = Path(__file__).resolve().parents[1] / "demos" / "configs" / f"{family}.json"
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--t-end", "0.05"]) == 0
    assert (out / "simulate.csv").read_text().splitlines()[0] == header
    conf = json.loads(cfg.read_text())
    spec, integ = spec_from_config(conf), conf["integrator"]
    s0 = dynamics.random_state(spec, np.random.default_rng(integ["seed"]))
    traj = dynamics.integrate(spec, s0, 0.05, tol=integ["tol"], stride=integ["stride"])
    table = np.loadtxt(out / "simulate.csv", delimiter=",", skiprows=1, ndmin=2)
    names = header.split(",")
    assert table[:, 0].tobytes() == traj.times.tobytes()
    assert table[:, 1 : 1 + traj.states.shape[1]].tobytes() == traj.states.tobytes()
    for key, series in traj.monitors.items():
        assert table[:, names.index(key)].tobytes() == series.tobytes()


def _old_csv_rows(rows) -> str:
    """The rows as the writer formatted them value by value: the byte oracle."""
    from monopole_lab.cli import FMT

    return "".join(",".join(FMT % v for v in row) + "\n" for row in rows)


def test_csv_writer_bytes_match_the_value_by_value_form(tmp_path, capsys):
    from monopole_lab.cli import _write_csv

    rng = np.random.default_rng(5)
    table = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    table[0] = [np.nan, np.inf, -np.inf]
    table[1] = [-0.0, 0.0, 5e-324]
    table[2] = [1.0, -2.5, 1e16]
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c", table)
    assert path.read_text() == "a,b,c\n" + _old_csv_rows(table)
    # the subcommands' files: each value re-formatted by the oracle, byte for byte
    runs = [
        ("simulate", CASE2, ["--t-end", "0.5"], "simulate.csv"),
        ("simulate", CASE1, ["--t-end", "0.5"], "simulate.csv"),
        ("elliptic-table", CASE2, ["--samples", "33", "--branch", "q2"], "elliptic_table.csv"),
        ("metric-check", dict(CASE2, grid={"n": 6}), [], "metric_check.csv"),
    ]
    for command, cfg, flags, csv in runs:
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)] + flags) == 0
        header, *lines = (out / csv).read_text().splitlines(keepends=True)
        rows = np.loadtxt(out / csv, delimiter=",", skiprows=1, ndmin=2)
        assert "".join(lines) == _old_csv_rows(rows), command


def test_csv_rewrite_in_place_leaves_only_the_new_bytes(tmp_path):
    # an existing file is rewritten, not replaced: a shorter table over a longer
    # file leaves exactly the new bytes, and a symlink stays a link to them
    from monopole_lab.cli import _write_csv

    rng = np.random.default_rng(9)
    long, short = rng.standard_normal((700, 3)), rng.standard_normal((5, 3))
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c", long)
    _write_csv(path, "a,b,c", short)
    assert path.read_text() == "a,b,c\n" + _old_csv_rows(short)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    _write_csv(target, "a,b,c", long)
    link.symlink_to(target)
    _write_csv(link, "x,y,z", short)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == "x,y,z\n" + _old_csv_rows(short)


class _SecondBlockFails:
    """A table whose rows from 256 on, the writer's second block, cannot be read."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, key):
        if key.start >= 256:
            raise RuntimeError("second block")
        return self.rows[key]


def test_csv_write_that_fails_part_way_leaves_no_old_byte(tmp_path):
    from monopole_lab.cli import _write_csv

    rng = np.random.default_rng(10)
    old, new = np.full((2000, 3), 1.0 / 3.0), rng.standard_normal((600, 3))
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c", old)
    assert path.stat().st_size > 4 * len(_old_csv_rows(new[:256]))
    with pytest.raises(RuntimeError, match="second block"):
        _write_csv(path, "a,b,c", _SecondBlockFails(new))
    # the header and the first block, flushed at close, and nothing after them
    assert path.read_text() == "a,b,c\n" + _old_csv_rows(new[:256])


@pytest.mark.parametrize(
    "command, cfg, csv",
    [
        ("simulate", dict(CASE1, integrator=dict(CASE1["integrator"], t_end=0.1)), "simulate.csv"),
        ("elliptic-table", CASE2, "elliptic_table.csv"),
    ],
)
def test_output_file_that_cannot_be_opened_is_config_error(tmp_path, capsys, command, cfg, csv):
    # a directory where the CSV goes: one "config error:" line naming the file,
    # exit 2, and not the exit 1 kept for numerical breaches
    out = tmp_path / "out"
    (out / csv).mkdir(parents=True)
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {out / csv}: ")
    assert captured.err.count("\n") == 1
    assert (out / csv).is_dir() and not any((out / csv).iterdir())


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "family, geometry",
    [
        ("case2", {"roots": [3, 2, -1, -3], "a3": -1.0}),
        ("case2", {"a3": -1.0, "a2": 0.0, "a0": 0.0, "a1": -1.0}),
        ("case2", {"roots": [2, 2, -1, -3], "a3": -1.0}),
        ("case2", {"roots": [4, 1, -2, -3], "a3": -1.0}),
        ("case2_limit", {"beta1": 2.0, "beta3": -1.0, "beta4": -2.0}),
    ],
    ids=["root-sum", "no-real-roots", "double-root", "inadmissible", "cylinder-root-sum"],
)
def test_refused_geometry_is_one_config_error_line(tmp_path, capsys, command, family, geometry):
    # a geometry the library refuses is the config's fault: exit 2, one line,
    # and nothing made under --out, as for a3 >= 0 or an alpha out of order
    out = tmp_path / "out"
    cfg = dict(CASE2, family=family, geometry=geometry)
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith('config error: "geometry" = ') and captured.err.count("\n") == 1


def test_output_does_not_depend_on_earlier_calls(tmp_path, capsys, monkeypatch):
    # specs of one quartic share one model and its last torus point: a chain of
    # calls in one process, another mu and B of the quartic included, prints
    # and writes the bytes each call does in a fresh interpreter
    near = dict(CASE2, geometry={"roots": [3, 2.99, -1, -4.99], "a3": -1.0}, grid={"n": 16})
    case2, near = _write(tmp_path, CASE2), _write(tmp_path, near, "near.json")
    other = _write(tmp_path, dict(CASE2, mu=0.3, B=-0.2), "other.json")
    chain = [
        ["simulate", "--config", case2, "--seed", "5", "--out", "sim5"],
        ["verify", "--config", near],
        ["elliptic-table", "--config", case2, "--branch", "q2", "--samples", "64", "--out", "table"],
        ["metric-check", "--config", near, "--out", "metric"],
        ["simulate", "--config", case2, "--seed", "9", "--out", "sim9"],
        ["simulate", "--config", other, "--seed", "5", "--out", "other5"],
        ["simulate", "--config", case2, "--seed", "5", "--out", "sim5_again"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    (tmp_path / "chain").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "chain")
    for argv in chain:
        code = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "monopole_lab.cli", *argv],
            cwd=tmp_path / "fresh",
            capture_output=True,
            text=True,
            env=env,
        )
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    csvs = sorted(p.relative_to(tmp_path / "chain") for p in (tmp_path / "chain").rglob("*.csv"))
    assert csvs == sorted(p.relative_to(tmp_path / "fresh") for p in (tmp_path / "fresh").rglob("*.csv"))
    assert len(csvs) == 6
    for rel in csvs:
        assert (tmp_path / "chain" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes(), rel
    first, again = (tmp_path / "chain" / name / "simulate.csv" for name in ("sim5", "sim5_again"))
    assert first.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("family", ["case1", "vy"])
def test_e3_csv_does_not_depend_on_the_blas_kernel(tmp_path, family):
    # the e(3)* flow, its projection, monitors and initial state run in Python
    # floats, so the kernel OpenBLAS picks at run time moves no bit of the CSV.
    # A BLAS dot would: Prescott's generic kernel rounds a 3-vector's dot by
    # its memory offset, and SkylakeX's differs from Haswell's left fold
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(root / "src")
    csvs = {}
    for core in ("default", "Prescott", "Haswell"):
        run_env = env if core == "default" else dict(env, OPENBLAS_CORETYPE=core)
        out = tmp_path / core
        argv = ["simulate", "--config", str(root / "demos" / "configs" / f"{family}.json"), "--t-end", "5"]
        done = subprocess.run(
            [sys.executable, "-m", "monopole_lab.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=run_env, timeout=60,
        )
        assert done.returncode == 0, (core, done.stderr)
        csvs[core] = (out / "simulate.csv").read_bytes()
    assert csvs["Prescott"] == csvs["default"]
    assert csvs["Haswell"] == csvs["default"]
