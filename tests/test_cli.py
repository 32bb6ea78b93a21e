import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_missing_key_names_it(tmp_path, capsys):
    cfg = dict(CASE2, geometry={"a2": 15.0, "a0": -10.0, "a1": -24.0})
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert '"a3"' in capsys.readouterr().err


def test_quartic_config_round_trip():
    from monopole_lab.cli import quartic_from_config
    from monopole_lab.polyroots import from_roots

    params = from_roots([3, 2, -1, -4], -1.0)
    assert quartic_from_config(params.config_dict()) == params


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
    # alpha1 far above alpha2: the conformal branch series cannot be resolved
    cfg = dict(CASE1, geometry={"alpha": [1e6, 2.0, 1.0]})
    assert main(["metric-check", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SeriesNotResolved:") and err.count("\n") == 1


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
    "cfg_grid, flags",
    [
        ({"n": 0, "stencil": 4}, []),
        ({"n": 32, "stencil": 4}, ["--grid", "0"]),
        ({"n": 32, "stencil": 4}, ["--grid", "8"]),
        ({"n": 32, "stencil": 4}, ["--grid", "4", "--stencil", "2"]),
        ({"n": 32, "stencil": 3}, []),
    ],
)
def test_verify_grid_below_stencil_minimum_is_config_error(tmp_path, capsys, cfg_grid, flags):
    cfg = dict(CASE2, grid=cfg_grid)
    args = ["verify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: verify") and err.count("\n") == 1


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
    cfg = dict(CASE2, family="case3")
    code = main(["roots", "--config", _write(tmp_path, cfg)])
    # the roots subcommand only needs the geometry, so this still parses;
    # simulate must reject it
    code = main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2


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
    # scipy is imported by the one function that needs it; the CLI's cold
    # start does not pay for it
    code = "import sys, monopole_lab.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
