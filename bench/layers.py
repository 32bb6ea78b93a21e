"""Per-layer metrics from the traced spans, and the layer probe.

A workload that never enters a layer (grid-checks never integrates; the
sphere families never evaluate the elliptic series) still reports that
layer's metrics: they come from the layer probe, a fixed set of library calls
on the canonical inputs that every traced run also makes.  The probe doubles
as the record of the ROADMAP baseline quantities.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import CALL, CPU, CTX, NAME, OUTER, PARENT, PNAME, Q_EVALS, SELF, SIZE, T0, T1, _union_ns

FAMILIES = ("case2", "case1", "vy", "case2_limit")
STEPPERS = {"flow_step", "e3_flow_step", "limit_system_step"}
MONITORS = {"h_eval", "f_eval", "clebsch_eval", "vy_eval", "limit_h_eval"}

# ROADMAP baseline table: 2 CPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.
ROADMAP_BASELINE = {
    "build_model_ms": (3.4, 3.4),
    "q_vector_us_per_pt": (23.0, 31.0),
    "q_scalar_us": (170.0, 210.0),
    "integrate_s.case2": (1.17, 1.17),
    "integrate_s.case1": (0.57, 0.57),
    "integrate_s.vy": (0.70, 0.70),
    "integrate_s.case2_limit": (0.10, 0.10),
    "grid64_check_classical_s": (1.50, 1.50),
    "area_and_flux_ms": (10.0, 10.0),
}


class Agg:
    """Sums over the spans of a set of calls."""

    def __init__(self, tracer, call_ids):
        calls = set(call_ids)
        names = [f"{layer}.{fn}" for layer, fn in tracer.names]
        layer_of = [layer for layer, _ in tracer.names]
        fn_of = [fn for _, fn in tracer.names]
        integrate = {i for i, n in enumerate(names) if n == "dynamics.integrate"}
        q_evals = {i for i, n in enumerate(fn_of) if n in Q_EVALS}
        self.count = defaultdict(int)  # outermost spans per name
        self.dur = defaultdict(int)
        self.scalar = [0, 0]  # count, ns
        self.vector = [0, 0]  # ns, points
        self.fam = defaultdict(lambda: defaultdict(float))
        self.layer_self = defaultdict(int)
        self.cli_self = defaultdict(int)  # per call: self time of the cli layer
        self.call_root = {}
        self.call_integrate = defaultdict(list)  # per call: (start, end, cpu) of each integrate
        for s in tracer.spans:
            if s[CALL] not in calls:
                continue
            i = s[NAME]
            dur = s[T1] - s[T0]
            layer = layer_of[i]
            self.layer_self[layer] += s[SELF]
            if layer == "cli":
                self.cli_self[s[CALL]] += s[SELF]
            if s[PARENT] == 0:
                self.call_root[s[CALL]] = (names[i], dur)
            if s[OUTER]:
                self.count[names[i]] += 1
                self.dur[names[i]] += dur
            fam = s[CTX]
            if i in q_evals and s[OUTER]:
                if s[SIZE] == 0:
                    self.scalar[0] += 1
                    self.scalar[1] += dur
                    if fam:
                        self.fam[fam]["q_calls"] += 1
                else:
                    self.vector[0] += dur
                    self.vector[1] += s[SIZE]
            if fam is None:
                continue
            f = self.fam[fam]
            f[f"self.{layer}"] += s[SELF]
            if i in integrate:
                f["integrate_n"] += 1
                f["integrate_ns"] += dur
                f["sim_time"] += s[SIZE]
                self.call_integrate[s[CALL]].append((s[T0], s[T1], s[CPU]))
            elif s[PNAME] in integrate:
                if fn_of[i] in STEPPERS:
                    f["steps"] += 1
                    f["step_ns"] += dur
                elif fn_of[i] in MONITORS:
                    f["monitor_ns"] += dur
            if names[i] == "fields.gauge_a":
                f["gauge_calls"] += 1

    def mean(self, name: str, unit: float):
        n = self.count.get(name, 0)
        return self.dur[name] / n / unit if n else None

    def metrics(self) -> dict:
        m = {
            "polyroots.real_roots_us": self.mean("polyroots.real_roots", 1e3),
            "elliptic.build_model_ms": self.mean("elliptic.build_model", 1e6),
            "elliptic.q_scalar_us": _ratio(self.scalar[1], self.scalar[0], 1e3),
            "elliptic.q_vector_us_per_pt": _ratio(self.vector[0], self.vector[1], 1e3),
            "fields.gauge_a_us": self.mean("fields.gauge_a", 1e3),
            "geometry.curvature_numeric_us": self.mean("geometry.curvature_numeric", 1e3),
            "geometry.area_and_flux_ms": self.mean("geometry.area_and_flux", 1e6),
            "verify.build_grid_ms.case1": self.mean("verify.build_case1_grid", 1e6),
            "verify.build_grid_ms.case2": self.mean("verify.build_case2_grid", 1e6),
            "verify.check_classical_ms": self.mean("verify.check_classical", 1e6),
            "verify.check_c6star_ms": self.mean("verify.check_quantum_c6star", 1e6),
        }
        t = self.fam.get("case2", {})
        m["elliptic.calls_per_step"] = _ratio(t.get("q_calls", 0), t.get("steps", 0))
        m["elliptic.self_share"] = _ratio(t.get("self.elliptic", 0), t.get("integrate_ns", 0))
        m["fields.gauge_calls_per_step"] = _ratio(t.get("gauge_calls", 0), t.get("steps", 0))
        for fam in FAMILIES:
            f = self.fam.get(fam, {})
            steps = f.get("steps", 0)
            m[f"dynamics.step_ms.{fam}"] = _ratio(f.get("step_ns", 0), steps, 1e6)
            m[f"dynamics.monitor_us.{fam}"] = _ratio(f.get("monitor_ns", 0), steps, 1e3)
            m[f"dynamics.integrate_s.{fam}"] = _ratio(f.get("integrate_ns", 0), f.get("integrate_n", 0), 1e9)
            m[f"dynamics.steps_per_time.{fam}"] = _ratio(steps, f.get("sim_time", 0))
        overhead, sim_wall, batch_int, batch_wall = [], 0, 0, 0
        for call, spans in self.call_integrate.items():
            root, wall = self.call_root.get(call, ("", 0))
            if root != "cli.main":
                continue
            overhead.append(wall - _union_ns([(a, b) for a, b, _ in spans]))
            sim_wall += wall
            if len(spans) > 1:
                batch_int += sum(cpu for _, _, cpu in spans)
                batch_wall += wall
        m["cli.overhead_ms"] = statistics.mean(overhead) / 1e6 if overhead else None
        m["cli.overhead_share"] = _ratio(sum(overhead), sim_wall)
        m["cli.batch_speedup"] = _ratio(batch_int, batch_wall)
        # the part of a CLI call no library wrapper covers: argparse, config,
        # spec assembly, CSV writing, the thread pool
        cli_wall = sum(w for root, w in self.call_root.values() if root == "cli.main")
        m["cli.self_share"] = _ratio(
            sum(v for c, v in self.cli_self.items() if self.call_root.get(c, ("",))[0] == "cli.main"), cli_wall
        )
        return m

    def step_budget(self, fam: str = "case2") -> dict:
        """Per accepted step of one family: integrate time, each layer's self
        time inside integrate (a breakdown: they add up to the integrate time
        by construction), the step and monitor spans, the call counts, and
        the cost model: scalar Q calls per step times the mean scalar Q time."""
        f = self.fam.get(fam, {})
        steps = f.get("steps", 0)
        if not steps:
            return {}
        return {
            "steps": int(steps),
            "integrate_us": f["integrate_ns"] / steps / 1e3,
            "self_us": {k[5:]: v / steps / 1e3 for k, v in sorted(f.items()) if k.startswith("self.")},
            "step_us": f["step_ns"] / steps / 1e3,
            "monitor_us": f.get("monitor_ns", 0) / steps / 1e3,
            "scalar_q_calls": f.get("q_calls", 0) / steps,
            "gauge_a_calls": f.get("gauge_calls", 0) / steps,
            "q_model_us": f.get("q_calls", 0) / steps * (_ratio(self.scalar[1], self.scalar[0], 1e3) or 0.0),
        }


def _ratio(num, den, unit: float = 1.0):
    return num / den / unit if den else None


def run_probe(tracer, rng, size: str, next_call) -> dict:
    """Traced library calls on the canonical inputs (ROADMAP baseline settings).

    Calls go through module attributes, so the installed wrappers see them.
    ``next_call`` allocates a call id for each item.  Returns the item ids and
    the baseline quantities measured here.
    """
    from monopole_lab import cli, elliptic, fields
    from monopole_lab import dynamics as dyn
    from monopole_lab import geometry as geo
    from monopole_lab import polyroots as poly
    from monopole_lab import verify as ver

    tiny = size == "tiny"
    base = {"mu": 1.0, "B": 0.5}
    specs = {
        "case2": cli.spec_from_config({**base, "family": "case2", "geometry": {"roots": [3, 2, -1, -4], "a3": -1.0}}),
        "case1": cli.spec_from_config({**base, "family": "case1", "geometry": {"alpha": [3.0, 2.0, 1.0]}}),
        "vy": cli.spec_from_config({"family": "vy", "mu": 1.0, "geometry": {"vyA": 2.0, "vyB": 1.0}}),
        "case2_limit": cli.spec_from_config(
            {"family": "case2_limit", "mu": 1.0, "B": 0.6, "geometry": {"beta1": 2.0, "beta3": -1.0, "beta4": -3.0}}
        ),
    }
    spec2 = specs["case2"]
    out = {}
    ids = []
    grid_case2, flux_case2 = [], []

    def item():
        ids.append(next_call())
        return ids[-1]

    params = poly.from_roots([3, 2, -1, -4], -1.0)
    for _ in range(3):
        item()
        model = elliptic.build_model(params)
    for branch in (model.branch1, model.branch2):
        for u in rng.uniform(0.0, 4.0 * branch.K, 10 if tiny else 200):
            item()
            branch.value_and_deriv(float(u))
        item()
        branch.value(rng.uniform(0.0, 4.0 * branch.K, 2048))
    for u1, u2 in rng.uniform(0.0, 4.0, (10 if tiny else 50, 2)):
        item()
        fields.gauge_a(spec2, (u1 * spec2.model.K1, u2 * spec2.model.K2))
    t_end = 0.1 if tiny else 10.0
    for fam, spec in specs.items():
        # the demos configs' seeds: fixed states, comparable with the ROADMAP table
        s0 = dyn.random_state(spec, np.random.default_rng(2 if fam == "vy" else 7))
        item()
        traj = dyn.integrate(spec, s0, t_end=t_end, tol=1e-10, stride=10)
        if not all(np.all(np.isfinite(v)) for v in traj.monitors.values()):
            raise RuntimeError(f"probe integrate {fam}: non-finite monitors")
    n = 32 if tiny else 64
    for fam in ("case2", "case1"):
        build = item()
        grid = (ver.build_case2_grid if fam == "case2" else ver.build_case1_grid)(specs[fam], n)
        check = item()
        ver.check_classical(grid, 4)
        if fam == "case2":
            grid_case2 = [build, check]
        item()
        ver.check_quantum_c6star(grid, 4)
    for obj in (spec2.model, geo.NeumannConstants(alpha=(3.0, 2.0, 1.0))):
        for _ in range(3):
            if obj is spec2.model:
                flux_case2.append(item())
            else:
                item()
            geo.area_and_flux(obj, 0.5, 256)
    lam = lambda a, b: geo.torus_lambda(spec2.model, a, b)
    for a, b in rng.uniform(0.2, 0.8, (5 if tiny else 20, 2)):
        item()
        geo.curvature_numeric(lam, (a * spec2.model.K1, b * spec2.model.K2), h=1e-3)
    agg = Agg(tracer, ids)
    m = agg.metrics()
    out["build_model_ms"] = m["elliptic.build_model_ms"]
    out["q_vector_us_per_pt"] = m["elliptic.q_vector_us_per_pt"]
    out["q_scalar_us"] = agg.mean("elliptic.QuarterBranch.value_and_deriv", 1e3)
    for fam in FAMILIES:
        out[f"integrate_s.{fam}"] = m[f"dynamics.integrate_s.{fam}"]
    grid = Agg(tracer, grid_case2)
    out["grid64_check_classical_s"] = (grid.dur["verify.build_case2_grid"] + grid.dur["verify.check_classical"]) / 1e9
    out["area_and_flux_ms"] = Agg(tracer, flux_case2).mean("geometry.area_and_flux", 1e6)
    return {"ids": ids, "baseline": out, "settings": {"t_end": t_end, "grid": n, "flux_n": 256}}
