"""Workloads: inputs drawn from the seed, the CLI calls they make, and the
checks every output must pass.

A round is one fixed list of CLI calls; the run repeats rounds with fresh
inputs until its time is up.  Every call is checked; a call with an
unexpected exit code or a failed check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

CANONICAL_ROOTS = [3.0, 2.0, -1.0, -4.0]
# Nearly coalescing admissible quartic: 510 series terms against 127.
NEAR_ROOTS = [3.0, 2.99, -1.0, -4.99]
MAX_DRIFT = 1e-6
# Fixed trajectory seeds for the accuracy figure, so that it compares commits
# rather than the trajectories one seed happens to draw.
PANEL_SEEDS = (101, 202, 303, 404)

# Trajectory lengths.  A simulate call costs about 7 ms outside `integrate`
# (config, spec, CSV, thread pool); at these lengths that is 2-3% of a
# torus-flow call and 2-10% of a sphere-ensemble call (README, "Trajectory
# length").  Longer ones leave too few calls in a run for a steady median,
# because a trajectory's cost depends on its initial state.
SIZES = {
    "full": {
        "torus_t_end": 2.0,
        "sphere_t_end": 1.0,
        "sphere_batch": 4,
        "verify_grid": 64,
        "verify_tol": 1e-6,
        "metric_grid": 8,
        "flux_grid": 256,
        "panel": 4,
        "setup_reps": 6,
    },
    "tiny": {
        "torus_t_end": 0.05,
        "sphere_t_end": 0.05,
        "sphere_batch": 2,
        "verify_grid": 32,
        "verify_tol": 1e-4,
        "metric_grid": 3,
        "flux_grid": 64,
        "panel": 1,
        "setup_reps": 1,
    },
}


def _config(family: str, geometry: dict, t_end: float, **extra) -> dict:
    cfg = {
        "family": family,
        "mu": 1.0,
        "B": 0.5,
        "geometry": geometry,
        "integrator": {"t_end": t_end, "tol": 1e-10, "stride": 10, "seed": 7},
    }
    cfg.update(extra)
    return cfg


def _quartic_ks(roots, a3=-1.0):
    """K1, K2 = integrals of 2/sqrt(+-P) between the roots, by scipy quad."""
    b1, b2, b3, b4 = roots
    c = -a3
    k1, _ = quad(
        lambda x: 2.0 / math.sqrt(c * (x - b3) * (x - b4)),
        b2, b1, weight="alg", wvar=(-0.5, -0.5), epsabs=0.0, epsrel=1e-13,
    )
    k2, _ = quad(
        lambda x: 2.0 / math.sqrt(c * (b1 - x) * (x - b4)),
        b3, b2, weight="alg", wvar=(-0.5, -0.5), epsabs=0.0, epsrel=1e-13,
    )
    return k1, k2


@dataclass
class Call:
    """One CLI invocation and how to check its output."""

    kind: str  # subcommand; selects the check in CHECKS
    label: str  # subcommand/config
    argv: list
    out: Path
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    call: Call
    rc: object
    stdout: str
    seconds: float
    ref_s: float = 0.0  # reference kernel, mean of the runs before and after the call
    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    digest: str = ""
    call_id: int = 0


def _floats(pattern: str, text: str) -> list[float]:
    return [float(v) for v in re.findall(pattern, text)]


def _read_csv(path: Path, header: str, problems: list, rows: int | None = None):
    if not path.is_file():
        problems.append(f"{path.name} missing")
        return None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        problems.append(f"{path.name}: header {first!r} != {header!r}")
        return None
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows is not None and data.shape[0] != rows:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {rows}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    return data


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: subclasses define configs, rounds and the untimed post calls."""

    name = ""

    def __init__(self, out: Path, size: str, rng: np.random.Generator):
        self.out = out
        self.size = SIZES[size]
        self.rng = rng
        self.cfg_dir = out / "configs"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, cfg in self.configs().items():
            path = self.cfg_dir / f"{key}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.paths[key] = path
        self.quartics = {}

    def configs(self) -> dict:
        raise NotImplementedError

    def setup_configs(self) -> list[Path]:
        """Configs whose specs the set-up time builds."""
        return list(self.paths.values())

    def next_round(self) -> list[Call]:
        raise NotImplementedError

    def post_calls(self, history: list[Result]) -> list[Call]:
        """Untimed calls after the loop: determinism and accuracy panel."""
        return []

    # -- shared call builders --------------------------------------------------

    def _call_dir(self, tag: str) -> Path:
        d = self.out / "calls" / tag
        d.mkdir(parents=True, exist_ok=True)
        return d

    def simulate(self, key: str, seed: int, tag: str, n_traj: int, t_end: float, **meta) -> Call:
        out = self._call_dir(tag)
        family = json.loads(self.paths[key].read_text())["family"]
        argv = [
            "simulate", "--config", str(self.paths[key]), "--out", str(out),
            "--seed", str(seed), "--max-drift", repr(MAX_DRIFT),
        ]
        meta.update(seed=seed, n_traj=n_traj, t_end=t_end, family=family)
        return Call("simulate", f"simulate/{key}", argv, out, meta)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

E3_HEADER = "t,M1,M2,M3,x1,x2,x3,H,F,C1,C2"
TORUS_HEADER = "t,u1,u2,p1,p2,H,F"


def check_simulate(res: Result) -> None:
    meta = res.call.meta
    n = meta["n_traj"]
    e3 = meta["family"] in ("case1", "vy")
    header = E3_HEADER if e3 else TORUS_HEADER
    keys = ["H", "F", "C1", "C2"] if e3 else ["H", "F"]
    names = ["simulate.csv"] if n == 1 else [f"simulate_{i:03d}.csv" for i in range(n)]
    reported = {}
    for line in res.stdout.splitlines():
        m = re.match(r"(simulate(?:_\d+)?\.csv) \(seed (-?\d+)\): (.*)$", line)
        if m:
            reported[m.group(1)] = (int(m.group(2)), dict(re.findall(r"(\w+) drift (\S+)", m.group(3))))
    worst = _floats(r"max relative drift: (\S+)", res.stdout)
    if not worst:
        res.problems.append("no drift summary")
        return
    drift_max = 0.0
    digests = []
    for i, fname in enumerate(names):
        if fname not in reported:
            res.problems.append(f"no drift line for {fname}")
            continue
        seed, drifts = reported[fname]
        if seed != meta["seed"] + i:
            res.problems.append(f"{fname}: seed {seed}, expected {meta['seed'] + i}")
        data = _read_csv(res.call.out / fname, header, res.problems)
        if data is None:
            continue
        digests.append(sha256(res.call.out / fname))
        if data.shape[0] < 2 or data[0, 0] != 0.0 or abs(data[-1, 0] - meta["t_end"]) > 1e-9:
            res.problems.append(f"{fname}: time column does not run 0..{meta['t_end']}")
        ncol = len(header.split(","))
        for j, key in enumerate(keys):
            col = data[:, ncol - len(keys) + j]
            scale = max(1.0, abs(col[0]))
            csv_drift = float(np.max(np.abs(col - col[0]))) / scale
            rep = float(drifts.get(key, "nan"))
            # the CSV is decimated, so its drift cannot exceed the reported one
            if not csv_drift <= rep * (1.0 + 1e-2) + 1e-300:
                res.problems.append(f"{fname}: CSV {key} drift {csv_drift:.3e} > reported {rep:.3e}")
            drift_max = max(drift_max, rep)
    if not drift_max <= MAX_DRIFT or not worst[0] <= MAX_DRIFT:
        res.problems.append(f"drift {worst[0]:.3e} above {MAX_DRIFT:g}")
    res.figures["drift_max"] = drift_max
    res.digest = ",".join(digests)


def check_verify(res: Result) -> None:
    table = dict(re.findall(r"^(C\d\*?|duality)\s+(\S+)$", res.stdout, flags=re.M))
    expected = {"C1", "C2", "C3", "C4", "C5", "C6", "C6*", "duality"}
    if set(table) != expected:
        res.problems.append(f"residual table rows {sorted(table)}")
        return
    residual = max(float(v) for k, v in table.items() if k != "duality")
    reported = _floats(r"max residual: (\S+)", res.stdout)
    if not reported or not math.isclose(reported[0], residual, rel_tol=1e-3):
        res.problems.append("max residual does not match the table")
    tol = res.call.meta["tol"]
    if not residual <= tol:
        res.problems.append(f"residual {residual:.3e} above tol {tol:g}")
    res.figures["residual_max"] = residual
    res.digest = text_sha256(res.stdout)  # the report is the whole output


def check_flux(res: Result) -> None:
    meta = res.call.meta
    area = _floats(r"area\s+: (\S+)", res.stdout)
    ratio = _floats(r"flux / \(2 pi\) : (\S+)", res.stdout)
    nearest = _floats(r"nearest int\s+: (\S+)", res.stdout)
    if not (area and ratio and nearest):
        res.problems.append("flux report incomplete")
        return
    expected = meta["sum_rule_area"]
    if not math.isclose(area[0], expected, rel_tol=1e-10):
        res.problems.append(f"area {area[0]!r} != sum rule {expected!r}")
    want = round(meta["B"] * expected / (2.0 * math.pi))
    gap = abs(ratio[0] - want)
    if nearest[0] != want or not gap <= meta["tol"]:
        res.problems.append(f"flux/2pi {ratio[0]!r} not within {meta['tol']:g} of {want}")
    res.figures["flux_gap"] = gap
    res.digest = text_sha256(res.stdout)  # the report is the whole output


def check_table(res: Result) -> None:
    meta = res.call.meta
    data = _read_csv(res.call.out / "elliptic_table.csv", "u,Q,dQ", res.problems, rows=meta["samples"])
    m = re.search(r"K1 = (\S+)\s+K2 = (\S+)", res.stdout)
    ks = [float(v) for v in m.groups()] if m else []
    if len(ks) != 2:
        res.problems.append("no K1/K2 line")
        return
    for got, want, label in zip(ks, meta["K"], ("K1", "K2")):
        if not math.isclose(got, want, rel_tol=1e-12):
            res.problems.append(f"{label} = {got!r}, quad gives {want!r}")
    if data is None:
        return
    b1, b2, b3, b4 = meta["roots"]
    lo, hi = (b2, b1) if meta["branch"] == "q1" else (b3, b2)
    period = 2.0 * (ks[0] if meta["branch"] == "q1" else ks[1])
    # the program finds the roots from the coefficients: allow their round-off
    eps = 1e-12 * max(abs(b1), abs(b4))
    if not (np.all(data[:, 1] >= lo - eps) and np.all(data[:, 1] <= hi + eps)):
        res.problems.append("Q leaves its branch range")
    if abs(data[0, 1] - b2) > eps or abs(data[-1, 0] - period) > 1e-12 * period:
        res.problems.append("table does not span one period from Q = beta2")
    res.digest = sha256(res.call.out / "elliptic_table.csv")


def check_metric(res: Result) -> None:
    n = res.call.meta["n"]
    data = _read_csv(
        res.call.out / "metric_check.csv", "u1,u2,lambda,K_closed,K_numeric", res.problems, rows=n * n
    )
    reported = _floats(r"max \|K_closed - K_numeric\| = (\S+)", res.stdout)
    if data is None or not reported:
        res.problems.append("metric-check report incomplete")
        return
    gap = float(np.max(np.abs(data[:, 3] - data[:, 4])))
    if not math.isclose(gap, reported[0], rel_tol=1e-2):
        res.problems.append(f"CSV gap {gap:.3e} != reported {reported[0]:.3e}")
    if not gap <= res.call.meta["tol"]:
        res.problems.append(f"curvature gap {gap:.3e} above tol")
    res.figures["curvature_gap"] = gap
    res.digest = sha256(res.call.out / "metric_check.csv")


CHECKS = {
    "simulate": check_simulate,
    "verify": check_verify,
    "flux": check_flux,
    "elliptic-table": check_table,
    "metric-check": check_metric,
}


def run_check(res: Result) -> None:
    """Exit code first, then the subcommand's output checks."""
    if res.rc != 0:
        res.problems.append(f"exit code {res.rc}")
        return
    try:
        CHECKS[res.call.kind](res)
    except (OSError, ValueError) as exc:
        res.problems.append(f"unreadable output: {exc}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TorusFlow(Workload):
    """`simulate` on the canonical case2 quartic, one trajectory per call."""

    name = "torus-flow"

    def configs(self):
        t = self.size["torus_t_end"]
        return {"case2": _config("case2", {"roots": CANONICAL_ROOTS, "a3": -1.0}, t)}

    def next_round(self):
        seed = int(self.rng.integers(0, 2**31 - 1))
        return [self.simulate("case2", seed, "sim", 1, self.size["torus_t_end"])]

    def post_calls(self, history):
        t = self.size["torus_t_end"]
        first = history[0].call.meta["seed"]
        calls = [self.simulate("case2", first, "rerun", 1, t, same_as=history[0].digest)]
        for seed in PANEL_SEEDS[: self.size["panel"]]:
            calls.append(self.simulate("case2", seed, "panel", 1, t, panel=True))
        calls.append(table_call(self, "case2", CANONICAL_ROOTS, "q1", 256, "table"))
        return calls


class SphereEnsemble(Workload):
    """Batched `simulate` on the Clebsch family and the cylinder limit.

    vy is left out of the rounds: its random states are not kept away from
    the Coulomb centres, so about 1% of seeds breach the drift threshold or
    stop with a step-size underflow (known defect, see README).  The layer
    probe still integrates vy from its fixed config seed.
    """

    name = "sphere-ensemble"
    families = ("case1", "case2_limit")

    def configs(self):
        t = self.size["sphere_t_end"]
        n = self.size["sphere_batch"]
        case1 = ("case1", {"alpha": [3.0, 2.0, 1.0]}, {})
        limit = ("case2_limit", {"beta1": 2.0, "beta3": -1.0, "beta4": -3.0}, {"B": 0.6})
        out = {}
        for key, (fam, g, extra) in zip(self.families, (case1, limit)):
            out[key] = _config(fam, g, t, n_trajectories=n, **extra)
            out[f"{key}_single"] = _config(fam, g, t, **extra)
        return out

    def setup_configs(self):
        return [self.paths[f] for f in self.families]

    def next_round(self):
        t = self.size["sphere_t_end"]
        n = self.size["sphere_batch"]
        return [
            self.simulate(fam, int(self.rng.integers(0, 2**31 - 1 - n)), f"sim-{fam}", n, t)
            for fam in self.families
        ]

    def post_calls(self, history):
        t = self.size["sphere_t_end"]
        n = self.size["sphere_batch"]
        calls = []
        for res in history[: len(self.families)]:
            meta = res.call.meta
            key = res.call.label.split("/")[1]
            calls.append(self.simulate(key, meta["seed"], f"rerun-{key}", n, t, same_as=res.digest))
            # the last batch member, run alone, must give the same bytes
            member = res.digest.split(",")[-1] if res.digest else ""
            calls.append(
                self.simulate(f"{key}_single", meta["seed"] + n - 1, f"alone-{key}", 1, t, same_as=member)
            )
        for key in self.families:
            calls.append(self.simulate(key, PANEL_SEEDS[0], f"panel-{key}", n, t, panel=True))
        return calls


class GridChecks(Workload):
    """verify, flux, elliptic-table and metric-check on three geometries."""

    name = "grid-checks"

    def configs(self):
        grid = {"n": self.size["metric_grid"], "stencil": 4}
        return {
            "case1": _config("case1", {"alpha": [3.0, 2.0, 1.0]}, 1.0, grid=grid),
            "case2": _config("case2", {"roots": CANONICAL_ROOTS, "a3": -1.0}, 1.0, grid=grid),
            "near": _config("case2", {"roots": NEAR_ROOTS, "a3": -1.0}, 1.0, grid=grid),
        }

    def next_round(self):
        s = self.size
        calls = []
        order = list(self.rng.permutation(["case1", "case2", "near"]))
        for key in order:
            out = self._call_dir(key)
            calls.append(
                Call(
                    "verify", f"verify/{key}",
                    ["verify", "--config", str(self.paths[key]), "--out", str(out),
                     "--grid", str(s["verify_grid"]), "--stencil", "4", "--tol", repr(s["verify_tol"])],
                    out, {"tol": s["verify_tol"], "stable": True},
                )
            )
            # explicit --grid: flux takes its rule size from grid.n otherwise
            area = 4.0 * math.pi if key == "case1" else 32.0 * math.pi
            calls.append(
                Call(
                    "flux", f"flux/{key}",
                    ["flux", "--config", str(self.paths[key]), "--out", str(out),
                     "--grid", str(s["flux_grid"]), "--require-integer"],
                    out, {"sum_rule_area": area, "B": 0.5, "tol": 1e-6, "stable": True},
                )
            )
            if key != "case1":
                roots = CANONICAL_ROOTS if key == "case2" else NEAR_ROOTS
                branch = str(self.rng.choice(["q1", "q2"]))
                samples = int(self.rng.integers(200, 1025))
                calls.append(table_call(self, key, roots, branch, samples, key))
            if key != "near":
                calls.append(
                    Call(
                        "metric-check", f"metric-check/{key}",
                        ["metric-check", "--config", str(self.paths[key]), "--out", str(out)],
                        out, {"n": s["metric_grid"], "tol": 1e-6, "stable": True},
                    )
                )
        return calls

    def post_calls(self, history):
        first = next(r for r in history if r.call.kind == "elliptic-table")
        meta = dict(first.call.meta)
        call = table_call(self, first.call.label.split("/")[1], meta["roots"], meta["branch"],
                          meta["samples"], "rerun")
        call.meta["same_as"] = first.digest
        return [call]


def table_call(wl: Workload, key: str, roots, branch: str, samples: int, tag: str) -> Call:
    if key not in wl.quartics:
        wl.quartics[key] = _quartic_ks(roots)
    out = wl._call_dir(tag)
    return Call(
        "elliptic-table", f"elliptic-table/{key}",
        ["elliptic-table", "--config", str(wl.paths[key]), "--out", str(out),
         "--branch", branch, "--samples", str(samples)],
        out,
        {"roots": roots, "branch": branch, "samples": samples, "K": wl.quartics[key]},
    )


WORKLOADS = {w.name: w for w in (TorusFlow, SphereEnsemble, GridChecks)}
