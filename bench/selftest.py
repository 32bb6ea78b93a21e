#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

1. Every workload, untraced and traced, passes its output checks and emits
   exactly the metrics that BENCHMARK.json names, each with its unit.
2. A deliberately broken output check (the flux sum rule off by one part in
   a million) makes calls fail, so the failed ratio rises above zero.
3. In a tree that holds only BENCHMARK.json and bench/, the benchmark exits
   non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_cli(args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            proc = run_cli(["--workload", wl["name"], "--seed", "3", "--seconds", "0.5",
                            "--trace", str(trace), "--size", "tiny"])
            assert proc.returncode == 0, proc.stderr
            out = last_json(proc.stdout)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0, proc.stdout
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {wl['name']} trace {trace}: {len(got)} metrics with units")


def check_broken_check() -> None:
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    original = workloads.check_flux

    def broken(res):
        res.call.meta["sum_rule_area"] *= 1.0 + 1e-6
        original(res)

    workloads.CHECKS["flux"] = broken
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", "grid-checks", "--seed", "3", "--seconds", "0.5",
                      "--trace", "0", "--size", "tiny"])
    finally:
        workloads.CHECKS["flux"] = original
    out = last_json(buf.getvalue())
    assert not out["correct"] and out["failed"] >= 3, out
    print(f"ok  broken flux check: failed {out['failed']} of {out['attempted']}")


def check_no_program() -> None:
    tree = BENCH / "out" / "selftest-tree"
    shutil.rmtree(tree, ignore_errors=True)
    (tree / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tree / "bench")
    try:
        proc = run_cli(["--workload", "torus-flow", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tree)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  without src/: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_broken_check()
    check_no_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
