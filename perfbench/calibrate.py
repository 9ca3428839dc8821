"""Record the reference outputs and counts the benchmark checks against.

Usage, from the repository root:

    python3 perfbench/calibrate.py --seeds 0-19

For each seed this runs every workload once, untraced, and records the
sha256 of each report in ``perfbench/reference.json``; for seed 0 it also
makes one traced run per workload and records the counts that must
repeat exactly (``.calls`` of the wrapped functions, dataset sizes, units
and checkpoint saves; zeros left out).  Run it only on a commit whose
outputs are known to be right: later runs are held to what it records.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seed_list(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def one(workload: str, seed: int, trace: bool) -> dict:
    rep = run.spawn(workload, seed, trace, time.monotonic() + run.BUDGET_S)
    if rep is None:
        raise SystemExit(f"{workload} seed {seed} failed")
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {spec["name"] for spec in bench["per_layer"]}

    for seed in seed_list(args.seeds):
        digests = {workload: one(workload, seed, False)["digests"]
                   for workload in run.SHARDS}
        reference.setdefault("digests", {})[str(seed)] = digests
        print(f"seed {seed}: recorded", flush=True)

    if 0 in seed_list(args.seeds):
        counts = {}
        for workload in run.SHARDS:
            layers = run.rep_counts(one(workload, 0, True))
            counts[workload] = {name: value for name, value in sorted(layers.items())
                                if name in per_layer and value}
        reference["seed0_counts"] = counts

    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
