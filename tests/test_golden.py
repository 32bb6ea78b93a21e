"""The CLI's outputs against the golden digests of tests/golden.json (see tests/golden.py).

An entry is recorded on one machine.  Where no entry matches the Python and
numpy minors the test skips and says why; where one matches on another
machine, its first run there shows whether that CPU and libm give the same
bytes.
"""

import json

import pytest

import golden


def test_outputs_match_the_golden_digests(tmp_path):
    # each case twice in a row in one process: the second run takes the
    # config's shared spec and the flow kept for it, and must still write,
    # print and exit as the manifest says
    want = golden.expected(json.loads(golden.MANIFEST.read_text()))
    if want is None:
        pytest.skip(f"tests/golden.json has no entry for {golden.version_key()}")
    assert sorted(want) == sorted(golden.cases())
    got = golden.run_all(tmp_path, rounds=2)
    for case, runs in got.items():
        for i, record in enumerate(runs):
            assert want[case] is None or record == want[case], (case, f"run {i + 1}")
    uncovered = [case for case, record in want.items() if record is None]
    if uncovered:
        pytest.skip(f"every other case matched; no digests for numpy's SIMD groups {golden.simd_key()} of: "
                    + ", ".join(uncovered))
