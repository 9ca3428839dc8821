"""Compare two benchmark result sets, metric by metric and workload by workload.

Usage, from the repository root:

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the lines ``run.py --out FILE`` appended.  Make the two
sets with the same ``--seconds`` and seeds, alternating which side runs
first; the i-th untraced run of a workload in one file is paired with
the i-th in the other.  For every workload and end-to-end metric the
report gives both medians and quartiles, the share of pairs each side
won (ties count for neither) and a verdict for the second set.  Pairs
must alternate in time (both runs of pair i start before either run of
pair i+1); otherwise host drift between the sets could pass for a
change, and every verdict of that workload is ``unresolved``.  The
verdicts:

- ``better``: it wins at least nine tenths of at least ten pairs and the
  medians differ by more than the first set's quartile spread;
- ``worse``: its median is worse by more than the metric's bound;
- ``unchanged``: neither, with both spreads inside the bound;
- ``unresolved``: a spread is wider than the bound (unless every run of
  one side beats every run of the other), or too few pairs to claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced result records of a file, grouped by workload, in file order."""
    grouped: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                grouped.setdefault(record["workload"], []).append(record)
    return grouped


def spread(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(old: List[float], new: List[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pair wins and the verdict for ``new`` against ``old``."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = spread(old), spread(new)
    pairs = list(zip(old, new))
    new_wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    old_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (a["median"] - b["median"])
    wide = max((a["q3"] - a["q1"]) / abs(a["median"]),
               (b["q3"] - b["q1"]) / abs(b["median"])) > bound
    if wide:
        if all(sign * (x - y) > 0 for x in old for y in new):
            call = "better"
        elif all(sign * (y - x) > 0 for x in old for y in new):
            call = "worse"
        else:
            call = "unresolved"
    elif (len(pairs) >= MIN_PAIRS and new_wins >= WIN_SHARE * len(pairs)
          and gain > a["q3"] - a["q1"]):
        call = "better"
    elif -gain > bound * abs(a["median"]):
        call = "worse"
    elif gain > 0 and new_wins >= WIN_SHARE * len(pairs):
        call = "unresolved"  # looks better, but too few pairs to claim it
    else:
        call = "unchanged"
    return {"old": a, "new": b, "pairs": len(pairs),
            "old_won": old_wins / len(pairs) if pairs else 0.0,
            "new_won": new_wins / len(pairs) if pairs else 0.0,
            "verdict": call}


def alternated(old: List[dict], new: List[dict]) -> bool:
    """Whether each pair's two runs started before either run of the next pair."""
    try:
        starts = [(a["started"], b["started"]) for a, b in zip(old, new)]
    except KeyError:
        return False
    return all(max(here) < min(after) for here, after in zip(starts, starts[1:]))


def compare_workload(old: List[dict], new: List[dict], spec: dict) -> dict:
    """The verdict row of one end-to-end metric over two workloads' records."""
    name = spec["name"]
    row = verdict([r["result"]["metrics"][name]["value"] for r in old],
                  [r["result"]["metrics"][name]["value"] for r in new],
                  spec["better"], spec["bound"])
    if not alternated(old, new):
        row["verdict"] = "unresolved"
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="result set of the parent (baseline)")
    parser.add_argument("new", help="result set of the change")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    old, new = load(args.old), load(args.new)

    for side, grouped in (("old", old), ("new", new)):
        hosts = {json.dumps(r["host"], sort_keys=True) for rs in grouped.values() for r in rs}
        for host in sorted(hosts):
            print(f"host {side} {host}")
    print("workload  metric  old: median [q1, q3]  new: median [q1, q3]  pairs  "
          "old won  new won  verdict")
    for workload in sorted(set(old) & set(new)):
        if not alternated(old[workload], new[workload]):
            print(f"{workload}: the two sets did not alternate run by run; "
                  "every verdict is unresolved")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            row = compare_workload(old[workload], new[workload], spec)
            a, b = row["old"], row["new"]
            print(f"{workload}  {name}  {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}]  "
                  f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {spec['unit']}  "
                  f"{row['pairs']}  {row['old_won']:.0%}  {row['new_won']:.0%}  "
                  f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
