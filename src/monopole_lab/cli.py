"""Command-line interface: roots | elliptic-table | metric-check | simulate | verify | flux.

Every run is driven by a JSON config (see demos/configs/) plus a few flags; outputs
are deterministic given the config and seed.  Exit codes: 0 all thresholds met,
1 numerical breach, 2 configuration error or refused geometry.  SCHEMA is the
config schema, which `monopole-lab <subcommand> --help` lists.  Each call reads and
parses its config; the spec is built once per config text in the process
(_shared_spec), so the calls on one config share it and the flow built for it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import geometry as geo
from . import verify as ver
from .elliptic import LimitModel
from .errors import ConfigError, GeometryError, MonopoleLabError
from .fields import Family, SystemSpec, case1_spec, case2_limit_spec, case2_spec, vy_spec
from .polyroots import QuarticParams, admissibility, from_roots

FMT = "%.17g"

Key = namedtuple("Key", "kind default ok need label flag", defaults=(None, None, "", "", ""))


def _at_least(kind, default, lo: int, label: str = "", flag: str = "") -> Key:
    return Key(kind, default, lambda v: v >= lo, f"at least {lo}", label, flag)


FAMILIES = {  # subcommand -> the families it takes
    "roots": ("case2",), "elliptic-table": ("case2",), "metric-check": ("case1", "case2"),
    "simulate": tuple(f.value for f in Family), "verify": ("case1", "case2"), "flux": ("case1", "case2"),
}
_NUM, _SECTION, _TOL = Key(float), Key(dict, {}), _at_least(float, 1e-6, 0)
_K = Key(float, "-4B/a3", lambda v, k: math.isclose(v, k, rel_tol=1e-12), "-4B/a3")  # derived, never chosen
_KINDS = {float: "a finite number", int: "an integer", str: "a string", dict: "an object"}
_KINDS.update({(float,) * n: f"a list of {n} finite numbers" for n in (3, 4)})

# scope -> path -> Key(kind (see _typed), default (None: required), range check, what it
# asks for (with no check, the library checks it as it builds the geometry), the name of
# an error line if not the quoted key, the flag that stands for it).  A scope is "" (read
# by each subcommand that builds a spec), a family (read by those, for that family;
# "case2 roots" is case2's other form) or a subcommand (read by it, for the families it
# takes).  A "--" path is a flag that stands for no key.  Geometry keys are in the order
# of the arguments of what makes the geometry (QuarticParams, from_roots, LimitModel, ...).
SCHEMA = {
    "": {
        "family": Key(str, None, FAMILIES["simulate"].__contains__, "one of " + ", ".join(FAMILIES["simulate"])),
        "mu": Key(float, 0.0), "B": Key(float, 0.0), "geometry": Key(dict),
    },
    "case1": {  # case1 runs live on the leaf (M, x) = B
        "nu": Key(float, "B", float.__eq__, "B"), "k": _K, "geometry.alpha": Key((float,) * 3, need="descending"),
    },
    "case2": {  # P = a3 x^4 + a2 x^2 + a0 x + a1: "a0" is the LINEAR coefficient, "a1" the constant
        "k": _K, "geometry.a3": Key(float, need="< 0"), "geometry.a2": _NUM, "geometry.a0": _NUM, "geometry.a1": _NUM,
    },
    "case2 roots": {"geometry.roots": Key((float,) * 4, need="zero-sum"), "geometry.a3": Key(float, -1.0, need="< 0")},
    "case2_limit": {"k": _K, "geometry.beta1": Key(float, need="> 0 > beta3 > beta4"),
                    "geometry.beta3": _NUM, "geometry.beta4": _NUM},
    "vy": {"geometry.vyA": Key(float, need="> vyB > 0"), "geometry.vyB": _NUM},
    "elliptic-table": {"--samples": _at_least(int, 256, 1)},
    "metric-check": {"--tol": _TOL, "grid": _SECTION, "grid.n": _at_least(int, 32, 1, "metric-check grid n")},
    "simulate": {
        "integrator": _SECTION,
        "integrator.t_end": _at_least(float, 50.0, 0, flag="--t-end"),
        "integrator.tol": Key(float, 1e-10, lambda t: t > 0.0, "positive", flag="--tol"),
        "integrator.stride": _at_least(int, 10, 1, flag="--stride"),
        "integrator.seed": _at_least(int, 0, 0, flag="--seed"),
        "n_trajectories": _at_least(int, 1, 1),  # seeds seed, ..., seed + N - 1
        "--max-drift": _TOL,
    },
    "verify": {  # the stencil selects nothing: every derivative is exact
        "--tol": _TOL, "grid": _SECTION,
        "grid.stencil": Key(int, 4, (2, 4).__contains__, "2 or 4", "verify stencil", "--stencil"),
        "grid.n": _at_least(int, 64, 1, "verify grid n", "--grid"),
    },
    "flux": {"--tol": _TOL, "grid": _SECTION, "grid.n": _at_least(int, 256, 64, "flux grid n", "--grid")},
}
_KNOWN = {  # family -> the config keys that some subcommand reads in a config of that family
    fam: {path for scope, keys in SCHEMA.items() for path in keys if path[0] != "-"
          and scope.partition(" ")[0] in {"", fam, *(c for c, fams in FAMILIES.items() if fam in fams)}}
    for fam in FAMILIES["simulate"]
}


def _typed(value, kind):
    """`value` as `kind`, or None when it is not one: float takes a finite number and int an
    integral one (64.0 too), never a bool; (float,) * n a list of n numbers, as a tuple."""
    if isinstance(kind, tuple):
        items = [_typed(v, float) for v in value] if isinstance(value, list) else []
        return tuple(items) if len(items) == len(kind) and None not in items else None
    if kind is not float and kind is not int:
        return value if isinstance(value, kind) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None
    return kind(value) if kind is float or value % 1 == 0 else None


def _get(values: dict, path: str, scope: str = "", flag=None, ref=None):
    """SCHEMA[scope][path], read from `values`, the dict that holds it, or a `flag` other than None
    in its place.  `ref` is the value that a derived key (nu, k) must match, and its default."""
    key, name = SCHEMA[scope][path], path.rpartition(".")[2]
    if flag is None and name not in values:
        if key.default is None:
            raise ConfigError(f'missing "{name}" key')
        return key.default if ref is None else ref
    raw = values[name] if flag is None else flag
    value = _typed(raw, key.kind)
    if value is None:
        need = _KINDS[key.kind]
    elif key.ok is None or (key.ok(value) if ref is None else key.ok(value, ref)):
        return value
    else:
        need = key.need if ref is None else f"{key.need} = {ref}"
    label = key.label or (name if name[0] == "-" else json.dumps(name))
    raise ConfigError(f"{label} = {json.dumps(raw, default=str)}: must be {need}")


def _geometry(geom: dict, scope: str) -> list:
    return [_get(geom, path, scope) for path in SCHEMA[scope] if path.startswith("geometry.")]


def _refuse_unknown(cfg: dict, fam: str) -> None:
    """A key that no subcommand reads in a config of family `fam` is a ConfigError naming its path."""
    for path in [*cfg, *(f"{name}.{k}" for name, value in cfg.items() if isinstance(value, dict) for k in value)]:
        if path not in _KNOWN[fam]:
            raise ConfigError(f'"{path}" is not a key of a {fam} config')


def _build(geom: dict, make, *args, **kwargs):
    """make(*args, **kwargs), with a geometry the library refuses raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, GeometryError) as exc:
        raise ConfigError(f'"geometry" = {json.dumps(geom, default=str)}: {exc}') from exc


def quartic_from_config(geom: dict) -> QuarticParams:
    if "roots" not in geom:
        return _build(geom, QuarticParams, *_geometry(geom, "case2"))
    if any(k in geom for k in ("a2", "a0", "a1")):
        raise ConfigError('give either "roots" or coefficients, not both')
    return _build(geom, from_roots, *_geometry(geom, "case2 roots"))


def spec_from_config(cfg: dict) -> SystemSpec:
    fam = Family(_get(cfg, "family"))
    mu, b = _get(cfg, "mu"), _get(cfg, "B")
    geom = _get(cfg, "geometry")
    if fam == Family.CASE_I:
        spec = _build(geom, case1_spec, *_geometry(geom, fam.value), mu=mu, B=b)
        _get(cfg, "nu", fam.value, ref=b)
    elif fam == Family.CASE_II:
        spec = case2_spec(quartic_from_config(geom), mu=mu, B=b)
        _build(geom, getattr, spec, "model")  # shared per quartic, so built once per process
    elif fam == Family.CASE_II_LIMIT:
        spec = case2_limit_spec(_build(geom, LimitModel, *_geometry(geom, fam.value)), mu=mu, B=b)
    else:
        spec = _build(geom, vy_spec, *_geometry(geom, fam.value), mu=mu, B=b)
    if fam != Family.VY:
        _get(cfg, "k", fam.value, ref=spec.k)
    _refuse_unknown(cfg, fam.value)  # after the values, whose errors come first
    return spec


@functools.lru_cache(maxsize=8)
def _shared_spec(text: str) -> SystemSpec:
    """The spec of the config whose JSON text is `text`, built once per text in the process, as
    the model is per quartic: each call on one config then finds its flow in _flow_parts' slot.
    A config that is refused is not kept, and raises again on every call."""
    return spec_from_config(json.loads(text))


def _read_config(args) -> tuple[SystemSpec, dict]:
    """The spec of --config, of a family the subcommand takes, and each value of the subcommand's
    scope by its path, with a flag (whose dest is that path) in place of the key it stands for."""
    text, cfg = _load_config(args.config)
    spec = _shared_spec(text)
    _take_family(args.command, spec.family.value)
    got, flags = {}, vars(args)
    for path in SCHEMA.get(args.command, ()):
        got[path] = _get(got.get(path.rpartition(".")[0], cfg), path, args.command, flags.get(path))
    return spec, got


def _take_family(command: str, fam: str) -> None:
    """A family that the subcommand does not take is a ConfigError."""
    fams = FAMILIES[command]
    if fam not in fams:
        raise ConfigError(f"{command} takes {' and '.join(fams)} configs, not {fam}")


def _load_config(path: str) -> tuple[str, dict]:
    """The text of the config file at `path` and the JSON object it holds."""
    try:
        with open(path) as fh:
            text = fh.read()
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(value, dict):  # the config itself is an object too
        raise ConfigError(f"{json.dumps(path)} = {json.dumps(value)}: must be an object")
    return text, value


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
    block of rows at a time, formatted by one % over the block's values and
    written to the file's descriptor as bytes.  An
    existing file is rewritten in place: on ext4, a file truncated to 0 bytes
    (open's "w") or renamed over starts its writeback at close()
    (auto_da_alloc).  It is cut to 1 byte first, so no old row is left even by
    a failed write.  A path that cannot be opened is a ConfigError."""
    row = ",".join([FMT] * (header.count(",") + 1)) + "\n"
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:  # a directory, or no write permission
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        if os.fstat(fd).st_size > 1:  # 0 for a new file; a pipe or /dev/null cannot be cut
            os.ftruncate(fd, 1)
        _write_all(fd, (header + "\n").encode())
        for start in range(0, len(table), 256):
            block = table[start : start + 256]
            _write_all(fd, (row * len(block) % tuple(block.ravel().tolist())).encode())
    finally:
        os.close(fd)


def _write_all(fd: int, data: bytes) -> None:
    """Every byte of data to fd, at as many os.write calls as the file takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    cfg = _load_config(args.config)[1]
    cfg = cfg if "geometry" in cfg else {"geometry": cfg}  # a bare case2 geometry is a config too
    if "family" in cfg:
        _take_family(args.command, _get(cfg, "family"))
    params = quartic_from_config(_get(cfg, "geometry"))
    _refuse_unknown(cfg, "case2")
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
    spec, got = _read_config(args)
    out = _out_dir(args) / "elliptic_table.csv"
    model = spec.model
    branch = model.branch1 if args.branch == "q1" else model.branch2
    period = 2.0 * branch.K
    u = np.linspace(0.0, period, got["--samples"])
    _write_csv(out, "u,Q,dQ", np.column_stack([u, *branch.value_and_deriv(u)]))
    print(f"wrote {got['--samples']} samples of {args.branch} over one period to {out}")
    print(f"K1 = {model.K1:.15g}  K2 = {model.K2:.15g}")
    return 0


def cmd_metric_check(args) -> int:
    spec, got = _read_config(args)
    n = got["grid.n"]
    if spec.family == Family.CASE_II:
        model = spec.model
        lam_jet = lambda a, b: geo.torus_lambda_jet(model, a, b)
        k_closed = lambda a, b: geo.curvature_closed(spec, (a, b))
        K1, K2 = model.K1, model.K2
    else:
        conf = geo.conformal_case1(spec.alpha)
        lam_jet = conf.lam_jet
        k_closed = lambda a, b: geo.curvature_closed(spec)
        K1, K2 = conf.K1, conf.K2
    out = _out_dir(args) / "metric_check.csv"
    u1 = np.linspace(0.15, 0.85, n) * K1
    u2 = np.linspace(0.15, 0.85, n) * K2
    # the whole grid at once: rows run over u2 inside u1, as the flattened (u1, u2) mesh
    a, b = u1[:, None], u2[None, :]
    lam, lam11, lam22 = lam_jet(a, b)
    table = np.empty((n, n, 5))
    for j, column in enumerate((a, b, lam.v, k_closed(a, b), geo.curvature_from_jet(lam, lam11, lam22))):
        table[:, :, j] = column
    worst = float(np.max(np.abs(table[:, :, 3] - table[:, :, 4])))
    _write_csv(out, "u1,u2,lambda,K_closed,K_numeric", table.reshape(n * n, 5))
    print(f"wrote {n * n} samples to {out}")
    print(f"max |K_closed - K_numeric| = {worst:.3e}")
    return 0 if worst <= got["--tol"] else 1


_HEADERS = {}  # (state type, monitor names) -> the header of simulate's CSV


def _simulate_header(s0, monitors: tuple) -> str:
    """t, the state's fields in order, a vector field numbered from 1 (M1, M2, M3), then the
    monitors: built on the first trajectory of each state type and monitor names."""
    key = (type(s0), monitors)
    if key not in _HEADERS:
        columns = ["t"]
        for name, value in vars(s0).items():
            columns += [name] if np.ndim(value) == 0 else [f"{name}{i}" for i in range(1, len(value) + 1)]
        _HEADERS[key] = ",".join(columns + list(monitors))
    return _HEADERS[key]


def _simulate_one(spec: SystemSpec, t_end: float, tol: float, stride: int, seed: int, path: Path) -> dict:
    rng = np.random.default_rng(seed)
    s0 = dyn.random_state(spec, rng)
    traj = dyn.integrate(spec, s0, t_end=t_end, tol=tol, stride=stride)
    rows = np.column_stack([traj.times, traj.states, *traj.monitors.values()])
    _write_csv(path, _simulate_header(s0, tuple(traj.monitors)), rows)
    drifts = {}
    for key, series in traj.monitors.items():
        scale = max(1.0, abs(float(series[0])))
        drifts[key] = traj.max_drift(key) / scale
    return drifts


def cmd_simulate(args) -> int:
    spec, got = _read_config(args)
    n_traj = got["n_trajectories"]
    names = [f"simulate_{i:03d}.csv" for i in range(n_traj)] if n_traj > 1 else ["simulate.csv"]
    out = _out_dir(args)
    worst = 0.0
    for sd, name in enumerate(names, start=got["integrator.seed"]):
        path = out / name
        drifts = _simulate_one(spec, got["integrator.t_end"], got["integrator.tol"], got["integrator.stride"], sd, path)
        line = "  ".join(f"{k} drift {v:.3e}" for k, v in drifts.items())
        print(f"{path.name} (seed {sd}): {line}")
        worst = max(worst, max(drifts.values()))
    print(f"max relative drift: {worst:.3e}")
    return 0 if worst <= got["--max-drift"] else 1


def cmd_verify(args) -> int:
    spec, got = _read_config(args)
    n, tol = got["grid.n"], got["--tol"]
    grid = (ver.build_case1_grid if spec.family == Family.CASE_I else ver.build_case2_grid)(spec, n)
    rows = ver.check_classical(grid) | {"C6*": ver.check_quantum_c6star(grid)}
    worst = max(rows.values())
    rows["duality"] = ver.check_duality(grid)
    print(f"family {spec.family.value}, grid {n}x{n}, derivatives from exact jets")
    print(f"{'condition':<12}{'max normalized residual':>26}")
    for name, val in rows.items():
        print(f"{name:<12}{val:>26.3e}")
    print(f"max residual: {worst:.3e} (tol {tol:g}; duality not gated)")
    return 0 if worst <= tol else 1


def cmd_flux(args) -> int:
    spec, got = _read_config(args)
    obj = spec.model if spec.family == Family.CASE_II else geo.NeumannConstants(alpha=spec.alpha)
    res = geo.area_and_flux(obj, spec.B, got["grid.n"])
    print(f"area          : {res['area']:.12g}")
    print(f"flux / (2 pi) : {res['flux_over_2pi']:.12g}")
    print(f"nearest int   : {res['nearest_integer']}")
    print(f"gap           : {res['gap']:.3e}")
    return 1 if args.require_integer and res["gap"] > got["--tol"] else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every main().  The flags that
    stand for a value, and the config keys that each --help lists, come from SCHEMA."""
    keys = ["config keys (scope: the family or subcommand that reads a key; blank, every one):"]
    for scope, table in SCHEMA.items():
        for path, key in table.items():
            if key.kind is not dict and path[0] != "-":
                need = f", must be {key.need}" if key.need else ""
                default = "required" if key.default is None else f"= {key.default}"
                keys.append(f"  {path:<17} {scope:<12} {_KINDS[key.kind]}{need}; {default}")
    keys = "\n".join(keys + ["Any other key, or one no subcommand reads in a config of its family, exits 2."])
    parser = argparse.ArgumentParser(prog="monopole-lab", description="integrable magnetic-monopole generalisations")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn, text in (
        ("roots", cmd_roots, "root/admissibility report"),
        ("elliptic-table", cmd_elliptic_table, "dump (u, Q, dQ) over one period"),
        ("metric-check", cmd_metric_check, "conformal factor and curvature cross-check, gated by --tol"),
        ("simulate", cmd_simulate, "integrate a trajectory and monitor H, F, gated by --max-drift"),
        ("verify", cmd_verify, "integrability-condition residual table, gated by --tol"),
        ("flux", cmd_flux, "area and flux quantization report"),
    ):
        p = sub.add_parser(command, help=text, epilog=keys, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        for path, key in SCHEMA.get(command, {}).items():
            if key.flag or path[0] == "-":
                default, doc = (None, f"overrides {path}") if key.flag else (key.default, f"{key.need}; = %(default)s")
                p.add_argument(key.flag or path, dest=path, type=key.kind, default=default, help=doc,
                               metavar=key.kind.__name__.upper())
    sub.choices["elliptic-table"].add_argument("--branch", choices=("q1", "q2"), default="q1")
    sub.choices["flux"].add_argument("--require-integer", action="store_true", help="gate the gap by --tol")
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
