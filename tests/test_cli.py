import json
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
