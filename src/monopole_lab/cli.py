"""Command-line interface.

Subcommands: roots | elliptic-table | metric-check | simulate | verify | flux.
Every run is driven by a JSON config (see demos/configs/) plus a few flags;
outputs are deterministic given the config and seed.  Exit codes: 0 all
thresholds met, 1 numerical breach, 2 configuration error or refused geometry.

Config schema ("num": a finite number, never a bool; "int": an integral num,
64.0 too; "= v": the default of an absent key; each section is an object):

    {
      "family": "case1" | "case2" | "case2_limit" | "vy",
      "mu": num = 0, "B": num = 0,
      "geometry": {
         case1:       {"alpha": [3 nums, strictly descending]},
         case2:       {"a3": num < 0, "a2": num, "a0": num, "a1": num}
                      or {"roots": [4 nums summing to 0], "a3": num < 0 = -1},
         case2_limit: {"beta1", "beta3", "beta4": nums, beta1 > 0 > beta3 > beta4},
         vy:          {"vyA", "vyB": nums, vyA > vyB > 0}
      },
      "integrator": {"t_end": num >= 0 = 50, "tol": num > 0 = 1e-10,
                     "stride": int >= 1 = 10, "seed": int >= 0 = 0},
      "grid": {"n": int, "stencil": 2 | 4 = 4},
      "n_trajectories": int >= 1 = 1
    }

Grid n is >= 1 in metric-check (= 32) and verify (= 64), >= 64 in flux (= 256);
verify checks the stencil, which selects nothing.  A flag gets the checks of
the config value it overrides, and a bad value exits 2 with one "config error:"
line naming it.  The quartic key "a0" is the LINEAR coefficient and "a1" the
constant (P = a3 x^4 + a2 x^2 + a0 x + a1).  "k" is always derived as -4B/a3;
a config that sets it to anything else is rejected.  With "n_trajectories":
N > 1, simulate runs seeds seed, ..., seed + N - 1 in sequence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import verify as ver
from .elliptic import LimitModel
from .errors import ConfigError, GeometryError, MonopoleLabError
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


def _typed(value, kind):
    """`value` as `kind` (see _read), or None when it is not one."""
    if isinstance(kind, list):
        items = [_typed(v, float) for v in value] if isinstance(value, list) else []
        return tuple(items) if len(items) == len(kind) and None not in items else None
    if kind is not float and kind is not int:
        return value if isinstance(value, kind) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None
    return kind(value) if kind is float or value % 1 == 0 else None


def _read(section: dict, key: str, kind, default=None, ok=None, need: str = "", label: str = "", flag=None):
    """The value of `key` in `section` as `kind`, or `default` when it is absent.

    A `flag` other than None stands in for the config's value and gets its checks.
    float takes a finite number and int an integral one, never a bool; [float] * n
    a list of n numbers, as a tuple; any other kind is an isinstance check.  `ok`
    is the range check: the value must be `need`.  A failure raises ConfigError.
    """
    if flag is None and key not in section:
        if default is None:
            raise ConfigError(f'missing "{key}" key')
        return default
    raw = section[key] if flag is None else flag
    value = _typed(raw, kind)
    if value is None:
        kinds = {float: "a finite number", int: "an integer", str: "a string", dict: "an object"}
        need = f"a list of {len(kind)} finite numbers" if isinstance(kind, list) else kinds[kind]
    elif ok is None or ok(value):
        return value
    raise ConfigError(f"{label or json.dumps(key)} = {json.dumps(raw, default=str)}: must be {need}")


def _threshold(args, dest: str = "tol", flag: str = "--tol") -> float:
    """The exit-threshold flag `dest`, a number >= 0."""
    return _read(vars(args), dest, float, ok=lambda v: v >= 0.0, need="at least 0", label=flag)


def _build(geom: dict, make, *args, **kwargs):
    """make(*args, **kwargs), with a geometry the library refuses raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, GeometryError) as exc:
        raise ConfigError(f'"geometry" = {json.dumps(geom, default=str)}: {exc}') from exc


def quartic_from_config(geom: dict) -> QuarticParams:
    if "roots" not in geom:
        return _build(geom, QuarticParams, *[_read(geom, k, float) for k in ("a3", "a2", "a0", "a1")])
    if any(k in geom for k in ("a2", "a0", "a1")):
        raise ConfigError('give either "roots" or coefficients, not both')
    return _build(geom, from_roots, _read(geom, "roots", [float] * 4), _read(geom, "a3", float, -1.0))


def spec_from_config(cfg: dict) -> SystemSpec:
    names = [f.value for f in Family]
    fam = Family(_read(cfg, "family", str, ok=names.__contains__, need="one of " + ", ".join(names)))
    mu, b = _read(cfg, "mu", float, 0.0), _read(cfg, "B", float, 0.0)
    geom = _read(cfg, "geometry", dict)
    if fam == Family.CASE_I:
        spec = _build(geom, case1_spec, _read(geom, "alpha", [float] * 3), mu=mu, B=b)
        _read(cfg, "nu", float, b, ok=b.__eq__, need=f"B = {b}: case1 runs live on the leaf (M,x) = B")
    elif fam == Family.CASE_II:
        spec = case2_spec(quartic_from_config(geom), mu=mu, B=b)
        _build(geom, getattr, spec, "model")  # shared per quartic, so built once per process
    elif fam == Family.CASE_II_LIMIT:
        betas = [_read(geom, k, float) for k in ("beta1", "beta3", "beta4")]
        spec = case2_limit_spec(_build(geom, LimitModel, *betas), mu=mu, B=b)
    else:
        spec = _build(geom, vy_spec, _read(geom, "vyA", float), _read(geom, "vyB", float), mu=mu, B=b)
    if fam == Family.VY and "k" in cfg:
        raise ConfigError('"k" has no meaning for the VY family')
    if fam != Family.VY:
        k = spec.k
        _read(cfg, "k", float, k, ok=lambda v: math.isclose(v, k, rel_tol=1e-12), need=f"-4B/a3 = {k}")
    return spec


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            value = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _read({path: value}, path, dict)  # the config itself is an object too


def _out_dir(args) -> Path:
    """The --out directory, made if it is absent; one that cannot be made is a ConfigError."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file, or a path under one
        raise ConfigError(f"--out = {json.dumps(args.out)}: cannot be a directory: {exc.strerror}") from exc
    return out


def _write_csv(path: Path, header: str, table: np.ndarray) -> None:
    """The header, then each row of the 2-d float table, each value as FMT, a
    block of rows at a time.  An existing file is rewritten in place: on ext4, a
    file truncated to 0 bytes (open's "w") or renamed over starts its writeback
    at close() (auto_da_alloc).  It is cut to 1 byte first, so no old row is left
    even by a failed write.  A path that cannot be opened is a ConfigError."""
    row = ",".join([FMT] * (header.count(",") + 1)) + "\n"
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:  # a directory, or no write permission
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    with open(fd, "w") as fh:
        if os.fstat(fd).st_size > 1:  # 0 for a new file; a pipe or /dev/null cannot be cut
            os.ftruncate(fd, 1)
        fh.write(header + "\n")
        for start in range(0, len(table), 256):
            fh.write("".join(row % tuple(r) for r in table[start : start + 256].tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    cfg = _load_config(args.config)
    params = quartic_from_config(_read(cfg, "geometry", dict, cfg))
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
    samples = _read(vars(args), "samples", int, ok=lambda n: n >= 1, need="at least 1", label="--samples")
    if spec.family != Family.CASE_II:
        raise ConfigError("elliptic-table needs a case2 config")
    out = _out_dir(args) / "elliptic_table.csv"
    model = spec.model
    branch = model.branch1 if args.branch == "q1" else model.branch2
    period = 2.0 * branch.K
    u = np.linspace(0.0, period, samples)
    _write_csv(out, "u,Q,dQ", np.column_stack([u, *branch.value_and_deriv(u)]))
    print(f"wrote {samples} samples of {args.branch} over one period to {out}")
    print(f"K1 = {model.K1:.15g}  K2 = {model.K2:.15g}")
    return 0


def cmd_metric_check(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    tol = _threshold(args)
    grid = _read(cfg, "grid", dict, {})
    n = _read(grid, "n", int, 32, ok=lambda n: n >= 1, need="at least 1", label="metric-check grid n")
    if spec.family == Family.CASE_II:
        model = spec.model
        lam_jet = lambda a, b: geo.torus_lambda_jet(model, a, b)
        k_closed = lambda a, b: geo.curvature_closed(spec, (a, b))
        K1, K2 = model.K1, model.K2
    elif spec.family == Family.CASE_I:
        conf = geo.conformal_case1(spec.alpha)
        lam_jet = conf.lam_jet
        k_closed = lambda a, b: geo.curvature_closed(spec)
        K1, K2 = conf.K1, conf.K2
    else:
        raise ConfigError("metric-check supports case1 and case2")
    out = _out_dir(args) / "metric_check.csv"
    u1 = np.linspace(0.15, 0.85, n) * K1
    u2 = np.linspace(0.15, 0.85, n) * K2
    # the whole grid at once: rows run over u2 inside u1, as the flattened (u1, u2) mesh
    a, b = u1[:, None], u2[None, :]
    lam = lam_jet(a, b)
    table = np.empty((n, n, 5))
    for j, column in enumerate((a, b, lam.v, k_closed(a, b), geo.curvature_from_jet(lam))):
        table[:, :, j] = column
    worst = float(np.max(np.abs(table[:, :, 3] - table[:, :, 4])))
    _write_csv(out, "u1,u2,lambda,K_closed,K_numeric", table.reshape(n * n, 5))
    print(f"wrote {n * n} samples to {out}")
    print(f"max |K_closed - K_numeric| = {worst:.3e}")
    return 0 if worst <= tol else 1


def _simulate_one(spec: SystemSpec, t_end: float, tol: float, stride: int, seed: int, path: Path) -> dict:
    rng = np.random.default_rng(seed)
    s0 = dyn.random_state(spec, rng)
    traj = dyn.integrate(spec, s0, t_end=t_end, tol=tol, stride=stride)
    # the state's fields in order, a vector field numbered from 1 (M1, M2, M3)
    columns = ["t"]
    for name, value in vars(s0).items():
        columns += [name] if np.ndim(value) == 0 else [f"{name}{i}" for i in range(1, len(value) + 1)]
    rows = np.column_stack([traj.times, traj.states, *traj.monitors.values()])
    _write_csv(path, ",".join(columns + list(traj.monitors)), rows)
    drifts = {}
    for key, series in traj.monitors.items():
        scale = max(1.0, abs(float(series[0])))
        drifts[key] = traj.max_drift(key) / scale
    return drifts


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    integ = _read(cfg, "integrator", dict, {})
    t_end = _read(integ, "t_end", float, 50.0, ok=lambda t: t >= 0.0, need="at least 0", flag=args.t_end)
    tol = _read(integ, "tol", float, 1e-10, ok=lambda t: t > 0.0, need="positive", flag=args.tol)
    stride = _read(integ, "stride", int, 10, ok=lambda s: s >= 1, need="at least 1", flag=args.stride)
    seed = _read(integ, "seed", int, 0, ok=lambda s: s >= 0, need="at least 0", flag=args.seed)
    n_traj = _read(cfg, "n_trajectories", int, 1, ok=lambda n: n >= 1, need="at least 1")
    max_drift = _threshold(args, "max_drift", "--max-drift")
    names = [f"simulate_{i:03d}.csv" for i in range(n_traj)] if n_traj > 1 else ["simulate.csv"]
    out = _out_dir(args)
    worst = 0.0
    for sd, name in enumerate(names, start=seed):
        path = out / name
        drifts = _simulate_one(spec, t_end, tol, stride, sd, path)
        line = "  ".join(f"{k} drift {v:.3e}" for k, v in drifts.items())
        print(f"{path.name} (seed {sd}): {line}")
        worst = max(worst, max(drifts.values()))
    print(f"max relative drift: {worst:.3e}")
    return 0 if worst <= max_drift else 1


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    tol = _threshold(args)
    grid = _read(cfg, "grid", dict, {})
    _read(grid, "stencil", int, 4, ok=(2, 4).__contains__, need="2 or 4", label="verify stencil", flag=args.stencil)
    n = _read(grid, "n", int, 64, ok=lambda n: n >= 1, need="at least 1", label="verify grid n", flag=args.grid)
    if spec.family == Family.CASE_I:
        grid = ver.build_case1_grid(spec, n)
    elif spec.family == Family.CASE_II:
        grid = ver.build_case2_grid(spec, n)
    else:
        raise ConfigError("verify supports case1 and case2")
    rows = ver.check_classical(grid).residuals | {"C6*": ver.check_quantum_c6star(grid)}
    worst = max(rows.values())
    rows["duality"] = ver.check_duality(grid)
    print(f"family {spec.family.value}, grid {n}x{n}, derivatives from exact jets")
    print(f"{'condition':<12}{'max normalized residual':>26}")
    for name, val in rows.items():
        print(f"{name:<12}{val:>26.3e}")
    print(f"max residual: {worst:.3e} (tol {tol:g}; duality not gated)")
    return 0 if worst <= tol else 1


def cmd_flux(args) -> int:
    cfg = _load_config(args.config)
    spec = spec_from_config(cfg)
    tol = _threshold(args)
    n = _read(_read(cfg, "grid", dict, {}), "n", int, 256, label="flux grid n", flag=args.grid)
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
    return 1 if args.require_integer and res["gap"] > tol else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every main()."""
    parser = argparse.ArgumentParser(
        prog="monopole-lab",
        description="integrable magnetic-monopole generalisations: roots, elliptic tables, "
        "metrics, flows, condition checks, flux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", required=True, help="JSON config path")
    io.add_argument("--out", default=".", help="output directory")
    gated = argparse.ArgumentParser(add_help=False, parents=[io])
    gated.add_argument("--tol", type=float, default=1e-6, help="threshold for exit code, >= 0")

    p = sub.add_parser("roots", parents=[io], help="root/admissibility report")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("elliptic-table", parents=[io], help="dump (u, Q, dQ) over one period")
    p.add_argument("--samples", type=int, default=256, help="number of samples, >= 1")
    p.add_argument("--branch", choices=("q1", "q2"), default="q1")
    p.set_defaults(fn=cmd_elliptic_table)

    p = sub.add_parser("metric-check", parents=[gated], help="conformal factor and curvature cross-check")
    p.set_defaults(fn=cmd_metric_check)

    p = sub.add_parser("simulate", parents=[io], help="integrate a trajectory and monitor H, F")
    p.add_argument("--tol", type=float, default=None, help="integrator tolerance (overrides the config)")
    p.add_argument("--seed", type=int, default=None, help="seed (overrides the config)")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--max-drift", type=float, default=1e-6, help="breach threshold, >= 0")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", parents=[gated], help="integrability-condition residual table")
    p.add_argument("--grid", type=int, default=None, help="grid size (overrides the config)")
    p.add_argument("--stencil", type=int, default=None, help="2 or 4; checked, but every derivative is exact")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("flux", parents=[gated], help="area and flux quantization report")
    p.add_argument("--grid", type=int, default=None, help="quadrature size (overrides the config)")
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
