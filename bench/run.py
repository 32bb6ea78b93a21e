#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the monopole-lab CLI.

    python3 bench/run.py --workload torus-flow --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark drives ``monopole_lab.cli.main``
in-process from ``src/`` of the same tree, one call at a time (closed loop,
one client), with MONOPOLE_LAB_THREADS pinned to min(2, nproc).  It repeats
the workload's round of CLI calls with inputs drawn from ``--seed`` until
``--seconds`` have passed, checks every output, and prints one JSON line:

* ``--trace 0``: the end-to-end metrics (set-up time measured in fresh
  interpreters, round time normalised by a reference kernel, peak memory,
  worst accuracy figure);
* ``--trace 1``: the per-layer metrics.  Each round runs untraced and then
  traced (alternating the order), then the layer probe runs; the tracing
  overhead comes from the paired calls.

Details (every figure by name, the environment, the baseline quantities) go
to ``bench/results/<workload>-seed<n>-trace<t>.json``; traced runs also write
their spans next to it.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# One BLAS thread: the library's matrix-vector products are small, and on a
# shared 2-CPU machine a second BLAS thread only ties their time to whatever
# else runs on the other CPU.  Set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MAX_DRIFT, WORKLOADS, Result, SphereEnsemble, run_check  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "round_norm_s": "s",
    "peak_rss_mb": "MB",
    "error_max": "1",
}
PER_LAYER_UNITS = {
    "polyroots.real_roots_us": "us",
    "elliptic.build_model_ms": "ms",
    "elliptic.q_scalar_us": "us",
    "elliptic.q_vector_us_per_pt": "us",
    "elliptic.calls_per_step": "count",
    "elliptic.self_share": "1",
    "fields.gauge_a_us": "us",
    "fields.gauge_calls_per_step": "count",
    "geometry.curvature_numeric_us": "us",
    "geometry.area_and_flux_ms": "ms",
    "verify.build_grid_ms.case1": "ms",
    "verify.build_grid_ms.case2": "ms",
    "verify.check_classical_ms": "ms",
    "verify.check_c6star_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.overhead_share": "1",
    "cli.self_share": "1",
    "cli.batch_speedup": "1",
    "trace.overhead": "1",
}
for _fam in layers.FAMILIES:
    PER_LAYER_UNITS[f"dynamics.step_ms.{_fam}"] = "ms"
    PER_LAYER_UNITS[f"dynamics.monitor_us.{_fam}"] = "us"
    PER_LAYER_UNITS[f"dynamics.integrate_s.{_fam}"] = "s"
    PER_LAYER_UNITS[f"dynamics.steps_per_time.{_fam}"] = "count"

KIND_METRIC = {
    "simulate": "simulate_s",
    "verify": "verify_s",
    "metric-check": "metric_check_s",
    "flux": "flux_s",
    "elliptic-table": "table_s",
}


# Reference kernel: a Python float loop and small numpy series sums, the two
# kinds of work the library does.  The machine's speed swings by +-25% over
# seconds (shared host); dividing each call by the kernel timed just before it
# cancels most of that.  REF_S is the kernel's median on the 2-CPU reference
# machine, which turns the ratio back into seconds at that speed.
REF_S = 0.003
_REF_U = np.linspace(0.0, 1.0, 64)
_REF_N = np.arange(1.0, 128.0)
_REF_C = np.ones(127)


def reference_s() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(10000):
        x += (i * 0.5) ** 0.5
    for _ in range(10):
        y = np.sin(2.0 * np.outer(_REF_U, _REF_N)) @ _REF_C
        np.interp(_REF_U, _REF_U, y)
    return time.perf_counter() - t0


def detail_unit(name: str) -> str:
    if name == "sim_rate":
        return "t/s"
    if name.endswith("_s"):
        return "s"
    if name in ("rounds", "span_count", "paired_calls"):
        return "count"
    return "1"


def load_cli():
    """Import monopole_lab.cli from src/ of this tree, or exit 2."""
    pkg = ROOT / "src" / "monopole_lab"
    if not (pkg / "cli.py").is_file():
        print(f"bench: no monopole_lab sources at {pkg}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from monopole_lab import cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        print(f"bench: imported monopole_lab from {cli.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)
    return cli


class Runner:
    """Invokes CLI calls, checks them and keeps the results."""

    def __init__(self, cli, tracer: Tracer | None = None):
        self.cli = cli
        self.tracer = tracer
        self.ids = itertools.count(1)
        self.results: list[Result] = []
        self.first_digest: dict[str, str] = {}

    def next_id(self) -> int:
        cid = next(self.ids)
        if self.tracer is not None:
            self.tracer.call_id = cid
        return cid

    def invoke(self, call) -> Result:
        cid = self.next_id()
        before = reference_s()
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(err):
                rc = self.cli.main(call.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        ref = 0.5 * (before + reference_s())
        res = Result(call, rc, buf.getvalue(), seconds, ref_s=ref, call_id=cid)
        run_check(res)
        if rc != 0 and err.getvalue().strip():
            res.problems.append(err.getvalue().strip().splitlines()[-1])
        same = call.meta.get("same_as")
        if same is not None and res.digest != same:
            res.problems.append("output differs from an earlier run of the same inputs")
        if call.meta.get("stable"):
            first = self.first_digest.setdefault(call.label, res.digest)
            if res.digest != first:
                res.problems.append("output differs from the first round")
        self.results.append(res)
        return res


def loop(runner: Runner, wl, seconds: float, between=None) -> list[list[Result]]:
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        if between is not None:
            between(time.perf_counter() - t0)
        rounds.append([runner.invoke(c) for c in wl.next_round()])
    return rounds


def timing(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
            break
    return out


class SetupTimer:
    """Wall time of a fresh interpreter doing the workload's set-up.

    The runs are spread over the whole measurement (one every
    seconds/reps), so their median reflects the machine over the run rather
    than over one moment of it.
    """

    def __init__(self, wl, reps: int, seconds: float):
        self.cmd = [sys.executable, str(BENCH / "setup_child.py"), str(ROOT)]
        self.cmd += [str(p) for p in wl.setup_configs()]
        self.reps = reps
        self.every = seconds / reps
        self.times: list[float] = []
        self.once()  # fills the bytecode cache; not counted

    def once(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        return dt

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < self.reps and elapsed >= len(self.times) * self.every:
            self.times.append(self.once())

    def median(self) -> float:
        while len(self.times) < self.reps:
            self.times.append(self.once())
        return statistics.median(self.times)


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "MONOPOLE_LAB_THREADS": os.environ["MONOPOLE_LAB_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def end_to_end_details(rounds, results) -> dict:
    """Every per-call, rate and accuracy figure that applies to the workload."""
    timed = [r for rnd in rounds for r in rnd]
    d = {}
    for kind, name in KIND_METRIC.items():
        secs = [r.seconds for r in timed if r.call.kind == kind]
        if secs:
            d[name] = timing(secs)
    by_label = {}
    for r in timed:
        by_label.setdefault(r.call.label, []).append(r.seconds)
    d["per_label_s"] = {k: timing(v) for k, v in sorted(by_label.items())}
    d["call_s"] = by_label
    d["ref_s"] = timing([r.ref_s for r in timed])
    d["round_s"] = sum(statistics.median(v) for v in by_label.values())
    sims = [r for r in timed if r.call.kind == "simulate"]
    if sims:
        simulated = sum(r.call.meta["t_end"] * r.call.meta["n_traj"] for r in sims)
        d["sim_rate"] = simulated / sum(r.seconds for r in sims)
        d["drift_max"] = max(r.figures.get("drift_max", 0.0) for r in sims)
        for fam in sorted({r.call.meta["family"] for r in sims}):
            d[f"drift_max.{fam}"] = max(
                r.figures.get("drift_max", 0.0) for r in sims if r.call.meta["family"] == fam
            )
    panel = [r for r in results if r.call.meta.get("panel")]
    if panel:
        d["drift_max_panel"] = max(r.figures.get("drift_max", 0.0) for r in panel)
    for fig, name in (("residual_max", "residual_max"), ("curvature_gap", "curvature_gap_max"),
                      ("flux_gap", "flux_gap_max")):
        vals = [r.figures[fig] for r in results if fig in r.figures]
        if vals:
            d[name] = max(vals)
    return d


def round_norm_s(rounds) -> float:
    """One round at the reference speed: each call's median of call time over
    reference time, summed over the round's calls, times REF_S."""
    ratios = {}
    for r in (r for rnd in rounds for r in rnd):
        ratios.setdefault(r.call.label, []).append(r.seconds / r.ref_s)
    return REF_S * sum(statistics.median(v) for v in ratios.values())


def error_max(details: dict) -> float:
    """Worst accuracy figure; each is held to a 1e-6 tolerance by its check."""
    if "drift_max_panel" in details:
        return details["drift_max_panel"]
    return max(details[k] for k in ("residual_max", "curvature_gap_max", "flux_gap_max"))


def run_untraced(args, cli, wl) -> tuple[dict, dict]:
    setup = SetupTimer(wl, wl.size["setup_reps"], args.seconds)
    runner = Runner(cli)
    rounds = loop(runner, wl, args.seconds, between=setup)
    timed = [r for rnd in rounds for r in rnd]
    for call in wl.post_calls(timed):
        runner.invoke(call)
    details = end_to_end_details(rounds, runner.results)
    metrics = {
        "setup_s": setup.median(),
        "round_norm_s": round_norm_s(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_max": error_max(details),
    }
    details["rounds"] = len(rounds)
    details["setup_s_all"] = setup.times
    return metrics, {"details": details, "results": runner.results}


# The exact counts come from the first rounds only, so that they repeat
# exactly for a seed however many rounds the time allows.
COUNT_ROUNDS = 8
COUNT_METRICS = ["elliptic.calls_per_step", "fields.gauge_calls_per_step"] + [
    f"dynamics.steps_per_time.{fam}" for fam in layers.FAMILIES
]


def run_traced(args, cli, wl, rng, out) -> tuple[dict, dict]:
    tracer = Tracer()
    runner = Runner(cli, tracer)
    untraced, traced, traced_rounds = [], [], []
    t0 = time.perf_counter()
    # each round runs untraced and traced back to back, alternating which
    # goes first, so slow drifts of the machine cancel in the overhead
    for n in itertools.count():
        if traced and time.perf_counter() - t0 >= args.seconds:
            break
        calls = wl.next_round()
        for tracing in ((False, True) if n % 2 == 0 else (True, False)):
            if tracing:
                tracer.install()
            try:
                done = [runner.invoke(c) for c in calls]
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).extend(done)
            if tracing:
                traced_rounds.append(done)
    tracer.install()
    try:
        probe = layers.run_probe(tracer, rng, args.size, runner.next_id)
        batch = SphereEnsemble(out / "probe", args.size, rng)
        size = batch.size
        probe_cli = runner.invoke(batch.simulate("case1", 7, "probe", size["sphere_batch"], size["sphere_t_end"]))
        probe["ids"].append(probe_cli.call_id)
    finally:
        tracer.uninstall()
    for a, b in zip(untraced, traced):
        if a.digest != b.digest:
            b.problems.append("traced output differs from the untraced run of the same inputs")
    wl_agg = layers.Agg(tracer, [r.call_id for r in traced])
    probe_agg = layers.Agg(tracer, probe["ids"])
    wl_m = wl_agg.metrics()
    first = layers.Agg(tracer, [r.call_id for rnd in traced_rounds[:COUNT_ROUNDS] for r in rnd]).metrics()
    for name in COUNT_METRICS:
        if wl_m[name] is not None:
            wl_m[name] = first[name]
    probe_m = probe_agg.metrics()
    metrics, source = {}, {}
    for name, value in wl_m.items():
        if value is None:
            value, source[name] = probe_m[name], "probe"
        else:
            source[name] = "workload"
        if value is None:
            raise RuntimeError(f"no measurement for {name}")
        metrics[name] = value
    ratio = [b.seconds / a.seconds for a, b in zip(untraced, traced)]
    metrics["trace.overhead"] = statistics.median(ratio) - 1.0
    source["trace.overhead"] = "workload"
    spans = BENCH / "results" / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    tracer.write_spans(spans)
    layer_self = {k: v / 1e9 for k, v in sorted(wl_agg.layer_self.items())}
    details = {
        "source": source,
        "layer_self_s": layer_self,
        "step_budget_case2": wl_agg.step_budget("case2") or probe_agg.step_budget("case2"),
        "baseline": {
            "measured": probe["baseline"],
            "settings": probe["settings"],
            "roadmap": layers.ROADMAP_BASELINE,
        },
        "spans": str(spans.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "paired_calls": len(traced),
        "untraced_call_s_p50": statistics.median(a.seconds for a in untraced),
        "traced_call_s_p50": statistics.median(b.seconds for b in traced),
    }
    return metrics, {"details": details, "results": runner.results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the self-test")
    args = parser.parse_args(argv)

    cli = load_cli()
    os.environ["MONOPOLE_LAB_THREADS"] = str(min(2, os.cpu_count() or 1))
    out = BENCH / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (BENCH / "results").mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    wl = WORKLOADS[args.workload](out, args.size, rng)
    try:
        if args.trace:
            metrics, extra = run_traced(args, cli, wl, rng, out)
            units = PER_LAYER_UNITS
        else:
            metrics, extra = run_untraced(args, cli, wl)
            units = END_TO_END
    finally:
        shutil.rmtree(out, ignore_errors=True)
    results = extra["results"]
    failed = [r for r in results if r.problems]
    details = extra["details"]
    details["failed_ratio"] = len(failed) / len(results)
    record = {
        "environment": environment(args),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "details": details,
        "attempted": len(results),
        "failed": len(failed),
        "problems": [f"{r.call.label} {r.call.argv}: {'; '.join(r.problems)}" for r in failed],
        "max_drift": MAX_DRIFT,
    }
    path = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"environment: {json.dumps(record['environment'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")
    for name, value in sorted(details.items()):
        if isinstance(value, dict) and "p50" in value and name in KIND_METRIC.values():
            for key in value:
                if key != "n":
                    print(f"  {name + '.' + key:34s} {value[key]!r} s (n={value['n']})")
        elif isinstance(value, (int, float)):
            print(f"  {name:34s} {value!r} {detail_unit(name)}")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
