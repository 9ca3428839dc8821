"""The whole ``small`` report, pinned byte for byte under two hash seeds.

``python -m repro reproduce --scenario small`` runs all 16 experiments,
fig7 included, so this is the one check that sees every report.  Two
interpreters with different ``PYTHONHASHSEED`` values must print the
same bytes: no report may depend on set or string-hash order.  The pin
is the sha256 of those bytes; a change to any report fails it until the
change is shown to be intended and the pin is refreshed.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

SMALL_REPORT_BYTES = 21654
SMALL_REPORT_SHA256 = "533798d3d8140cfba643c3b65682a0cb8d8917682c921c29d8414abc73b68c98"


def _reproduce_small(hash_seed: str) -> bytes:
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "--scenario", "small"],
        capture_output=True, check=True,
        env={
            "PYTHONPATH": str(src),
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    return result.stdout


def test_small_report_is_pinned_under_two_hash_seeds():
    first, second = _reproduce_small("0"), _reproduce_small("1")
    assert first == second, "the report depends on the hash seed"
    assert len(first) == SMALL_REPORT_BYTES
    assert hashlib.sha256(first).hexdigest() == SMALL_REPORT_SHA256
