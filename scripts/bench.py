#!/usr/bin/env python3
"""Record parent-versus-change runs of the benchmark in a BENCH_<n>.json.

Usage:
    python3 scripts/bench.py --parent REV [--change REV] --out BENCH_<n>.json [--seed 7]

Run from the root of the repository.  Each side is the committed tree of
a git revision, exported with `git archive` into a temporary directory,
and measured by its own perfbench/run.py; this script has no timer.  The
workloads and the run length (`run_seconds`) come from BENCHMARK.json.
Per workload it runs 10 alternating pairs at --trace 0 (the parent goes
first in even-numbered pairs, the change in odd-numbered ones), the
fewest that can show a change winning 9 in 10, then 3 alternating
--trace 1 pairs.  The output holds, per side, the Python version, nproc
and src/ line count from the run records; per end-to-end metric, each
side's values, median and quartiles and the pairs the change won; and per
per-layer metric, each side's 3 traced values and their median, so one
slow traced run does not read as a stage regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TRACED_PAIRS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seed", type=int, default=7)
    return ap.parse_args(argv)


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into `dest`; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its run record and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    return {"record": json.loads(lines[-2])["record"], **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the pair wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        ties = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
        par, chg = summary(vals["parent"]), summary(vals["change"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": par, "change": chg, "pairs": len(pairs),
            "change_wins": wins, "ties": ties,
            "median_change_ratio": chg["median"] / par["median"] - 1,
            "parent_iqr": par["q3"] - par["q1"],
        }
    return out


def per_layer(runs: list[dict]) -> dict:
    """Per traced metric: each run's value and their median."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"values": values, "median": statistics.median(values)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not hasattr(tarfile, "data_filter"):
        sys.exit("bench.py needs tarfile extraction filters: Python 3.10.12+, 3.11.4+ or 3.12+")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS,
           "traced_pairs": TRACED_PAIRS, "sides": {}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="nilrig-bench-") as tmp:
        trees = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = Path(tmp) / side
            doc["sides"][side] = {"rev": rev, "commit": export(rev, trees[side])}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k in range(PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {s: run(trees[s], workload, args.seed, seconds, 0) for s in order}
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{PAIRS}: " + ", ".join(
                    f"{s} wall_s {pair[s]['metrics']['wall_s']['value']:.3f}" for s in SIDES),
                    file=sys.stderr, flush=True)
            traced = []
            for k in range(TRACED_PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                traced.append({s: run(trees[s], workload, args.seed, seconds, 1) for s in order})
                print(f"{workload} traced pair {k + 1}/{TRACED_PAIRS}", file=sys.stderr, flush=True)
            for s in SIDES:
                rec = pairs[0][s]["record"]
                doc["sides"][s].update(python=rec["python"], nproc=rec["nproc"],
                                       src_lines=rec["src_lines"])
            doc["workloads"][workload] = {
                "failed": {s: [p[s]["failed"] for p in pairs + traced] for s in SIDES},
                "end_to_end": compare(pairs, metrics),
                "per_layer": {s: per_layer([p[s] for p in traced]) for s in SIDES},
            }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
