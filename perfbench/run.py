"""The repository benchmark: one workload, repeated, checked and summarized.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch-default --seed 0 --seconds 40 --trace 0

Each repetition runs ``perfbench/worker.py`` in a fresh interpreter, one
after another, while another repetition is expected to end within half
a repetition of ``--seconds`` (at least one repetition).  Before each, ``SETUP_PER_REP``
interpreters stop at the first layer call, to add set-up samples.  With
``--trace 0`` the last stdout line carries the median of every end-to-end
metric named in ``BENCHMARK.json``; the lines above it give each metric's
quartiles and sample count, the host record and the output checks.  With
``--trace 1`` the run makes one untraced and two traced repetitions and
reports the per-layer metrics of the first traced one; a count that
differs between the repetitions fails the run.  ``--out FILE`` appends
the whole result set as one JSON line, the input of
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (benchmark-local modules, after the path fix)
import worker  # noqa: E402

BUDGET_S = 170.0
"""A run, with every repetition and check, ends within this many seconds."""

SETUP_PER_REP = 6
"""Set-up-only interpreters started before each untraced repetition, so
the set-up median rests on more samples, spread over the whole run, than
the few long repetitions give."""

SHARDS = {"batch-default": 1, "service-mesh": worker.MESH_SHARDS}


def spawn(workload: str, seed: int, trace: bool, deadline: float,
          setup_only: bool = False) -> Optional[dict]:
    """Run one repetition in a fresh interpreter; ``None`` if it failed."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--state-dir",
               str(ROOT / ".perfbench" / f"state-{os.getpid()}")]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PERFBENCH_SPAWNED=repr(time.monotonic()))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {workload} repetition timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: {workload} repetition exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def host_record(workload: str) -> dict:
    """Where the numbers came from; ``oversubscribed`` marks shards > nproc."""
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "shards": SHARDS[workload],
        "oversubscribed": SHARDS[workload] > nproc,
    }


def git_commit() -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(rep: dict) -> Dict[str, float]:
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "cpu_s": rep["cpu_s"],
    }


def rep_failures(workload: str, rep: dict, wrong: List[str]) -> int:
    """Failed operations of one repetition, given its reports that differ."""
    if workload == "service-mesh":
        return rep["attempted"] if wrong else rep["failed"]
    return max(rep["failed"], len(wrong))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHARDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result set as one JSON line")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no repro source tree or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    host = host_record(args.workload)
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    reps: List[Optional[dict]] = []
    setups: List[Optional[dict]] = []
    started_at = time.time()
    started = time.monotonic()
    if args.trace:
        reps = [spawn(args.workload, args.seed, trace, deadline)
                for trace in (False, True, True)]
    else:
        # Start another repetition while it would end within half a
        # repetition of ``--seconds``, judged by the mean so far.
        while not reps or (time.monotonic() - started) * (len(reps) + 0.5) / len(reps) \
                <= args.seconds:
            setups += [spawn(args.workload, args.seed, False, deadline, setup_only=True)
                       for _ in range(SETUP_PER_REP)]
            reps.append(spawn(args.workload, args.seed, False, deadline))
            if reps[-1] is None:
                break
    if None in reps or None in setups:
        # A repetition that crashes yields no numbers to report.
        print("error: a repetition failed; no result", file=sys.stderr)
        return 1

    expected = checks.expected_digests(args.workload, args.seed, reference, reps[0]["digests"])
    attempted = failed = 0
    for index, rep in enumerate(reps):
        wrong = checks.failed_ids(rep["digests"], expected)
        if wrong:
            print(f"check: repetition {index} reports differ from reference: {wrong}")
        attempted += rep["attempted"]
        failed += rep_failures(args.workload, rep, wrong)
    source = ("the recorded reference" if str(args.seed) in reference.get("digests", {})
              else "the first repetition")
    print(f"check: {attempted} operations, {failed} failed; digests against {source}")
    if args.trace:
        moved = checks.count_mismatches([rep_counts(rep) for rep in reps])
        print("check: counts " + ("repeat exactly across repetitions" if not moved else
                                  "differ across repetitions: " + json.dumps(moved)))
        attempted += 1
        failed += 1 if moved else 0
        metrics = trace_metrics(bench, reps[0], reps[1], args.seed, reference)
    else:
        metrics = {}
        for spec in bench["end_to_end"]:
            values = [end_to_end(rep)[spec["name"]] for rep in reps]
            if spec["name"] == "setup_s":
                values += [setup["setup_s"] for setup in setups]
            stats = quartiles(values)
            print(f"metric {spec['name']}: median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']} {spec['unit']}")
            metrics[spec["name"]] = {"value": stats["median"], "unit": spec["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host,
                  "started": started_at, "ended": time.time(),
                  "reps": [end_to_end(rep) for rep in reps], "result": result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def rep_counts(rep: dict) -> Dict[str, float]:
    """The counts a repetition reports that must repeat exactly."""
    layers = {**rep.get("layers", {}), **rep.get("sizes", {})}
    counts = {name: value for name, value in layers.items()
              if name.endswith(".calls") or name in checks.COUNT_NAMES}
    if "samples" in rep:
        counts["service.samples"] = rep["samples"]
    return counts


def trace_metrics(bench: dict, untraced: dict, traced: dict, seed: int,
                  reference: dict) -> Dict[str, dict]:
    """Per-layer metrics of the traced repetition, named as in BENCHMARK.json."""
    layers = dict(traced["layers"])
    layers.update(traced.get("sizes", {}))
    layers["stream.shard_peak_rss_mb"] = traced.get("shard_peak_rss_mb", 0.0)
    layers["service.coverage"] = traced.get("coverage", 0.0)
    layers["service.samples_per_s"] = untraced.get("samples", 0) / untraced["wall_s"]
    layers["obs.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    metrics = {spec["name"]: {"value": layers.get(spec["name"], 0), "unit": spec["unit"]}
               for spec in bench["per_layer"]}
    recorded = reference.get("seed0_counts", {}).get(traced["workload"], {})
    if seed == 0 and recorded:
        moved = {name: (want, metrics[name]["value"]) for name, want in recorded.items()
                 if name in metrics and metrics[name]["value"] != want}
        print("counts: " + ("all match the seed-0 reference" if not moved else
                            "differ from the seed-0 reference (want, got): " + json.dumps(moved)))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
