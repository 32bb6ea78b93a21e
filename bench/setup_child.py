"""Set-up work of one workload, timed from outside in a fresh interpreter.

    python3 bench/setup_child.py ROOT CONFIG.json [CONFIG.json ...]

Imports monopole_lab.cli from ROOT/src, then builds the spec of every config
and forces the lazy case2 members (roots, both QuarterBranch tables and the
gauge antiderivative).
"""

import json
import sys

sys.path.insert(0, sys.argv[1] + "/src")

from monopole_lab import cli  # noqa: E402
from monopole_lab.fields import Family  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as fh:
        spec = cli.spec_from_config(json.load(fh))
    if spec.family == Family.CASE_II:
        spec.model
        spec.gauge_i1
