"""Command-line interface.

Subcommands: roots | elliptic-table | metric-check | simulate | verify | flux.
Every run is driven by a JSON config (see demos/configs/) plus a few flags;
outputs are deterministic given the config and seed.  Exit codes: 0 all
thresholds met, 1 numerical threshold breached, 2 configuration error.

Config schema (family-specific geometry sub-object):

    {
      "family": "case1" | "case2" | "case2_limit" | "vy",
      "mu": 1.0, "B": 0.5,
      "geometry": {
         case1:       {"alpha": [3, 2, 1]},
         case2:       {"a3": -1, "a2": 15, "a0": -10, "a1": -24}
                      or {"roots": [3, 2, -1, -4], "a3": -1},
         case2_limit: {"beta1": 2, "beta3": -1, "beta4": -3},
         vy:          {"vyA": 2, "vyB": 1}
      },
      "integrator": {"t_end": 50, "tol": 1e-10, "stride": 10, "seed": 7},
      "grid": {"n": 64, "stencil": 4}
    }

The quartic key "a0" is the LINEAR coefficient and "a1" the constant
(P = a3 x^4 + a2 x^2 + a0 x + a1).  "k" is always derived as -4B/a3; a config
that sets it to anything else is rejected.  With "n_trajectories": N > 1,
simulate runs seeds seed, ..., seed + N - 1 in sequence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import verify as ver
from .elliptic import LimitModel
from .errors import ConfigError, MonopoleLabError
from .fields import (
    Family,
    SystemSpec,
    case1_spec,
    case2_limit_spec,
    case2_spec,
    vy_spec,
)
from .polyroots import QuarticParams, admissibility, from_roots

FMT = "%.17g"


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f'missing "{key}" key in {where}')
    return cfg[key]


def quartic_from_config(geom: dict) -> QuarticParams:
    if "roots" in geom:
        if any(k in geom for k in ("a2", "a0", "a1")):
            raise ConfigError('give either "roots" or coefficients, not both')
        return from_roots(geom["roots"], float(geom.get("a3", -1.0)))
    try:
        return QuarticParams(
            a3=float(_need(geom, "a3", "geometry")),
            a2=float(_need(geom, "a2", "geometry")),
            a0=float(_need(geom, "a0", "geometry")),
            a1=float(_need(geom, "a1", "geometry")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def spec_from_config(cfg: dict) -> SystemSpec:
    family = _need(cfg, "family")
    mu = float(cfg.get("mu", 0.0))
    b = float(cfg.get("B", 0.0))
    geom = _need(cfg, "geometry")
    try:
        fam = Family(family)
    except ValueError as exc:
        raise ConfigError(f'unknown family "{family}"') from exc
    if fam == Family.CASE_I:
        spec = case1_spec(_need(geom, "alpha", "geometry"), mu=mu, B=b)
        if "nu" in cfg and float(cfg["nu"]) != b:
            raise ConfigError(
                f'case1 runs live on the leaf (M,x) = B; "nu" = {cfg["nu"]} mismatches B = {b}'
            )
    elif fam == Family.CASE_II:
        spec = case2_spec(quartic_from_config(geom), mu=mu, B=b)
    elif fam == Family.CASE_II_LIMIT:
        spec = case2_limit_spec(
            LimitModel(
                beta1=float(_need(geom, "beta1", "geometry")),
                beta3=float(_need(geom, "beta3", "geometry")),
                beta4=float(_need(geom, "beta4", "geometry")),
            ),
            mu=mu,
            B=b,
        )
    else:
        spec = vy_spec(
            float(_need(geom, "vyA", "geometry")),
            float(_need(geom, "vyB", "geometry")),
            mu=mu,
            B=b,
        )
    if "k" in cfg:
        if fam == Family.VY:
            raise ConfigError('"k" has no meaning for the VY family')
        if not math.isclose(float(cfg["k"]), spec.k, rel_tol=1e-12):
            raise ConfigError(
                f'"k" is derived as -4B/a3 = {spec.k}; config says {cfg["k"]} (remove the key)'
            )
    return spec


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc


def _write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    cfg = _load_config(args.config)
    geom = cfg.get("geometry", cfg)
    params = quartic_from_config(geom)
    report = admissibility(params)
    print(f"P(x) = {params.a3:g} x^4 + {params.a2:g} x^2 + {params.a0:g} x + {params.a1:g}")
    if report.roots is not None:
        b = report.roots.beta
        print(f"roots: {b[0]:.12g} {b[1]:.12g} {b[2]:.12g} {b[3]:.12g}")
    else:
        print("roots: not four distinct real roots")
    print(f"discriminant: {report.discriminant:.12g}")
    print(f"coefficient_conditions: {report.conditions_35}")
    print(f"discriminant_condition: {report.condition_36}")
    print(f"root_inequalities: {report.root_inequalities}")
    print(f"admissible: {report.admissible}")
    return 0 if report.admissible else 1


def cmd_elliptic_table(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    if spec.family != Family.CASE_II:
        raise ConfigError("elliptic-table needs a case2 config")
    model = spec.model
    branch = model.branch1 if args.branch == "q1" else model.branch2
    period = 2.0 * branch.K
    u = np.linspace(0.0, period, args.samples)
    rows = zip(u, branch.value(u), branch.deriv(u))
    out = Path(args.out) / "elliptic_table.csv"
    _write_csv(out, "u,Q,dQ", rows)
    print(f"wrote {args.samples} samples of {args.branch} over one period to {out}")
    print(f"K1 = {model.K1:.15g}  K2 = {model.K2:.15g}")
    return 0


def cmd_metric_check(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    n = int(cfg.get("grid", {}).get("n", 32))
    if n < 1:
        raise ConfigError(f"metric-check grid n = {n}: must be at least 1")
    if spec.family == Family.CASE_II:
        model = spec.model
        lam_fn = lambda a, b: geo.torus_lambda(model, a, b)
        k_closed = lambda a, b: geo.curvature_closed(spec, (a, b))
        K1, K2 = model.K1, model.K2
    elif spec.family == Family.CASE_I:
        conf = geo.conformal_case1(spec.alpha)
        lam_fn = conf.lam
        k_closed = lambda a, b: geo.curvature_closed(spec)
        K1, K2 = conf.K1, conf.K2
    else:
        raise ConfigError("metric-check supports case1 and case2")
    u1 = np.linspace(0.15, 0.85, n) * K1
    u2 = np.linspace(0.15, 0.85, n) * K2
    # the whole grid at once: rows run over u2 inside u1, as the flattened (u1, u2) mesh
    a, b = u1[:, None], u2[None, :]
    lam = np.broadcast_to(lam_fn(a, b), (n, n))
    kc = np.broadcast_to(k_closed(a, b), (n, n))
    kn = geo.curvature_numeric(lam_fn, (a, b), h=1e-3)
    worst = float(np.max(np.abs(kc - kn)))
    rows = zip(np.repeat(u1, n), np.tile(u2, n), lam.ravel(), kc.ravel(), kn.ravel())
    out = Path(args.out) / "metric_check.csv"
    _write_csv(out, "u1,u2,lambda,K_closed,K_numeric", rows)
    print(f"wrote {n * n} samples to {out}")
    print(f"max |K_closed - K_numeric| = {worst:.3e}")
    return 0 if worst <= args.tol else 1


def _simulate_one(spec: SystemSpec, cfg_int: dict, seed: int, path: Path) -> dict:
    rng = np.random.default_rng(seed)
    s0 = dyn.random_state(spec, rng)
    traj = dyn.integrate(
        spec,
        s0,
        t_end=float(cfg_int.get("t_end", 50.0)),
        tol=float(cfg_int.get("tol", 1e-10)),
        stride=int(cfg_int.get("stride", 10)),
    )
    if spec.family in (Family.CASE_I, Family.VY):
        header = "t,M1,M2,M3,x1,x2,x3,H,F,C1,C2"
        mon = np.column_stack(
            [traj.monitors["H"], traj.monitors["F"], traj.monitors["C1"], traj.monitors["C2"]]
        )
    else:
        header = "t,u1,u2,p1,p2,H,F"
        mon = np.column_stack([traj.monitors["H"], traj.monitors["F"]])
    rows = np.column_stack([traj.times, traj.states, mon])
    _write_csv(path, header, rows)
    drifts = {}
    for key, series in traj.monitors.items():
        scale = max(1.0, abs(float(series[0])))
        drifts[key] = traj.max_drift(key) / scale
    return drifts


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    cfg_int = dict(cfg.get("integrator", {}))
    if args.t_end is not None:
        cfg_int["t_end"] = args.t_end
    if args.tol is not None:
        cfg_int["tol"] = args.tol
    if args.stride is not None:
        cfg_int["stride"] = args.stride
    seed = args.seed if args.seed is not None else int(cfg_int.get("seed", 0))
    n_traj = int(cfg.get("n_trajectories", 1))
    if n_traj < 1:
        raise ConfigError(f'"n_trajectories" must be at least 1, got {n_traj}')
    out_dir = Path(args.out)
    if n_traj == 1:
        jobs = [(seed, out_dir / "simulate.csv")]
    else:
        jobs = [(seed + i, out_dir / f"simulate_{i:03d}.csv") for i in range(n_traj)]
    worst = 0.0
    for sd, path in jobs:
        drifts = _simulate_one(spec, cfg_int, sd, path)
        line = "  ".join(f"{k} drift {v:.3e}" for k, v in drifts.items())
        print(f"{path.name} (seed {sd}): {line}")
        worst = max(worst, max(drifts.values()))
    print(f"max relative drift: {worst:.3e}")
    return 0 if worst <= args.max_drift else 1


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    n = args.grid if args.grid is not None else int(cfg.get("grid", {}).get("n", 64))
    stencil = args.stencil or int(cfg.get("grid", {}).get("stencil", 4))
    if stencil not in (2, 4):
        raise ConfigError(f"verify stencil order {stencil}: must be 2 or 4")
    if n < ver.min_grid_size(stencil):
        raise ConfigError(
            f"verify grid n = {n}: stencil order {stencil} needs n >= {ver.min_grid_size(stencil)}"
        )
    if spec.family == Family.CASE_I:
        grid = ver.build_case1_grid(spec, n)
    elif spec.family == Family.CASE_II:
        grid = ver.build_case2_grid(spec, n)
    else:
        raise ConfigError("verify supports case1 and case2")
    report = ver.check_classical(grid, stencil)
    c6s = ver.check_quantum_c6star(grid, stencil)
    dual = ver.check_duality(grid, stencil)
    print(f"family {spec.family.value}, grid {n}x{n}, stencil order {stencil}")
    print(f"{'condition':<12}{'max normalized residual':>26}")
    for name, val in report.residuals.items():
        print(f"{name:<12}{val:>26.3e}")
    print(f"{'C6*':<12}{c6s:>26.3e}")
    print(f"{'duality':<12}{dual:>26.3e}")
    worst = max(report.max_residual, c6s)
    print(f"max residual: {worst:.3e} (tol {args.tol:g})")
    return 0 if worst <= args.tol else 1


def cmd_flux(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    n = args.grid if args.grid is not None else int(cfg.get("grid", {}).get("n", 256))
    if spec.family == Family.CASE_II:
        obj = spec.model
    elif spec.family == Family.CASE_I:
        obj = geo.NeumannConstants(alpha=spec.alpha)
    else:
        raise ConfigError("flux supports case1 and case2")
    try:
        res = geo.area_and_flux(obj, spec.B, n)
    except ValueError as exc:  # quadrature size below the rule's minimum
        raise ConfigError(f"flux grid n = {n}: {exc}") from exc
    print(f"area          : {res['area']:.12g}")
    print(f"flux / (2 pi) : {res['flux_over_2pi']:.12g}")
    print(f"nearest int   : {res['nearest_integer']}")
    print(f"gap           : {res['gap']:.3e}")
    if args.require_integer and res["gap"] > args.tol:
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every main()."""
    parser = argparse.ArgumentParser(
        prog="monopole-lab",
        description="integrable magnetic-monopole generalisations: roots, elliptic tables, "
        "metrics, flows, condition checks, flux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default: float, tol_help: str = "threshold for exit code"):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=tol_default, help=tol_help)
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("roots", help="root/admissibility report")
    common(p, 0.0)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("elliptic-table", help="dump (u, Q, dQ) over one period")
    common(p, 0.0)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--branch", choices=("q1", "q2"), default="q1")
    p.set_defaults(fn=cmd_elliptic_table)

    p = sub.add_parser("metric-check", help="conformal factor and curvature cross-check")
    common(p, 1e-6)
    p.set_defaults(fn=cmd_metric_check)

    p = sub.add_parser("simulate", help="integrate a trajectory and monitor H, F")
    common(p, None, "integrator tolerance (overrides the config)")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--max-drift", type=float, default=1e-6, help="breach threshold")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="integrability-condition residual table")
    common(p, 1e-6)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--stencil", type=int, choices=(2, 4), default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("flux", help="area and flux quantization report")
    common(p, 1e-6)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--require-integer", action="store_true")
    p.set_defaults(fn=cmd_flux)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MonopoleLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
