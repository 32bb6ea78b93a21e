"""Golden digests of the CLI's outputs: the cases, how each is run, and the manifest.

    PYTHONPATH=src python tests/golden.py    # rewrite tests/golden.json for this Python and numpy

Each case is one ``monopole-lab`` call, made in-process through ``cli.main``:
every subcommand on each demo config, ``simulate --t-end 5 --stride 1`` on the
four families, batches of 4 trajectories on case1 and the cylinder, and the
refused configs the packaging smoke test runs.  Its record is the exit code,
the sha256 of each file it writes under ``--out``, and the sha256 of its
stdout and stderr with the ``--out`` path masked.

The manifest holds one entry per (Python minor, numpy minor).  The
cylinder's ``simulate`` takes numpy's cosh, sinh, tanh and arctanh, whose
last bit depends on the SIMD groups numpy dispatches to on the CPU, so those
cases hold one record per set of dispatched groups; run the script once more
with ``NPY_DISABLE_CPU_FEATURES`` set to record the set with them off.
A change that moves an output on purpose rewrites the manifest in the same
commit and says so in CHANGES.md: the manifest's diff shows which outputs
moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from monopole_lab.cli import main as cli_main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden.json"
DEMOS = HERE.parent / "demos" / "configs"
COMMANDS = ("roots", "elliptic-table", "metric-check", "simulate", "verify", "flux")
FAMILIES = ("case1", "case2", "case2_limit", "vy")
OUT = "<out>"  # what the --out path reads as in a digested stdout or stderr
ABOUT = [  # the manifest's header
    "Golden digests of the monopole-lab CLI's outputs, written by tests/golden.py, which lists the cases.",
    "A record: the exit code, the sha256 of each file under --out, and of stdout and stderr with --out masked.",
    "Entries are keyed by (Python minor, numpy minor), the cylinder's simulate by numpy's SIMD groups too.",
    "A change that moves an output on purpose rewrites this file in the same commit and says so in CHANGES.md.",
]

# configs made at run time: a demo config with keys added, or a whole config
BATCHES = {f"{fam}_batch4": (fam, {"n_trajectories": 4}) for fam in ("case1", "case2_limit")}
REFUSED = {
    "bad": {"family": "case1", "geometry": {"alpha": [3, 2]}},
    "unresolved": {"family": "case1", "mu": 1.0, "B": 0.5, "geometry": {"alpha": [1e10, 2, 1]}},
    "unknown": {"family": "case1", "geometry": {"alpha": [3, 2, 1]}, "integrator": {"t_edn": 1}},
}


def cases() -> dict:
    """{case name: (config name, argv without --config and --out)}."""
    out = {}
    for cfg in sorted(p.stem for p in DEMOS.glob("*.json")):
        for command in COMMANDS:
            out[f"{command} {cfg}"] = (cfg, [command])
    for fam in FAMILIES:
        out[f"simulate {fam} --t-end 5 --stride 1"] = (fam, ["simulate", "--t-end", "5", "--stride", "1"])
    for name in BATCHES:
        out[f"simulate {name}"] = (name, ["simulate"])
    out["simulate bad"] = ("bad", ["simulate"])
    out["metric-check unresolved"] = ("unresolved", ["metric-check"])
    out["simulate unknown"] = ("unknown", ["simulate"])
    return out


def simd_dependent(case: str) -> bool:
    """True for a case whose bytes depend on numpy's SIMD dispatch: the cylinder's simulate."""
    cfg, argv = cases()[case]
    return argv[0] == "simulate" and cfg.startswith("case2_limit")


def version_key() -> str:
    """The manifest entry of this interpreter: its Python and numpy minors."""
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    return f"python{sys.version_info[0]}.{sys.version_info[1]} numpy{numpy_minor}"


def simd_key() -> str:
    """The SIMD groups above numpy's baseline that it dispatches to here, or "none"."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return ",".join(g for g in __cpu_dispatch__ if __cpu_features__.get(g)) or "none"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_configs(root: Path) -> dict:
    """{config name: path}: the demo configs, and the batch and refused ones written under root."""
    paths = {p.stem: p for p in DEMOS.glob("*.json")}
    made = {name: dict(json.loads((DEMOS / f"{fam}.json").read_text()), **extra) for name, (fam, extra) in BATCHES.items()}
    root.mkdir(parents=True, exist_ok=True)
    for name, cfg in {**made, **REFUSED}.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1) + "\n")
    return paths


def run_case(config: Path, argv: list, out: Path) -> dict:
    """The record of one in-process call of the CLI."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([*argv, "--config", str(config), "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return {
        "exit": code,
        "files": {p.relative_to(out).as_posix(): _sha(p.read_bytes()) for p in files},
        "stdout": _sha(stdout.getvalue().replace(str(out), OUT).encode()),
        "stderr": _sha(stderr.getvalue().replace(str(out), OUT).encode()),
    }


def run_all(root: Path, rounds: int = 1) -> dict:
    """{case name: [its record in each round]}, each case run `rounds` times in a row in this
    process, each run under an --out of its own."""
    paths = write_configs(root / "configs")
    got = {}
    for i, (case, (cfg, argv)) in enumerate(cases().items()):
        got[case] = [run_case(paths[cfg], argv, root / f"out{i:02d}_{r}") for r in range(rounds)]
    return got


def expected(manifest: dict) -> dict | None:
    """{case name: record} for this interpreter and CPU from the manifest, a case that depends
    on the SIMD dispatch mapped to None where it holds no record for this CPU's groups; None
    when the manifest has no entry for this Python and numpy."""
    entry = manifest["entries"].get(version_key())
    if entry is None:
        return None
    want = dict(entry["cases"])
    for case, by_simd in entry["simd"].items():
        want[case] = by_simd.get(simd_key())
    return want


def main() -> int:
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else {"entries": {}}
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(Path(tmp), rounds=2)
    moved = [case for case, (first, second) in got.items() if first != second]
    if moved:
        print(f"a second run in one process changed the outputs of: {', '.join(moved)}", file=sys.stderr)
        return 1
    old = manifest["entries"].get(version_key(), {"simd": {}})
    entry = {
        "cases": {case: runs[0] for case, runs in got.items() if not simd_dependent(case)},
        "simd": {case: dict(old["simd"].get(case, {}), **{simd_key(): runs[0]})
                 for case, runs in got.items() if simd_dependent(case)},
    }
    entries = dict(sorted({**manifest["entries"], version_key(): entry}.items()))
    MANIFEST.write_text(json.dumps({"about": ABOUT, "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(got)} cases for {version_key()} (SIMD groups {simd_key()}) to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
