#!/usr/bin/env python3
"""Run one nilrig benchmark workload and print its result as JSON.

Usage:
    python3 perfbench/run.py --workload {model,dense,report} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no wrapper installed.  With --trace 1 they are the
per-layer metrics: one untraced pass, then one pass with the tracer's
wrappers installed.  The line before the result is the run record; the
spans of a traced run are written to .bench_out/.  perfbench/WORKLOADS.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9

# Wall-clock periods of the speed probe during cases and during a set-up,
# and the samples a case needs to be scaled by its own speed.
PROBE_INTERVAL_S = 0.1
MIN_PROBE_SAMPLES = 5
SETUP_PROBE_INTERVAL_S = 0.01

# Times one set-up in a fresh interpreter, import plus input construction,
# and prints it in reference-speed seconds.
SETUP_CHILD = f"""\
import sys, time
from speed import SpeedProbe
probe = SpeedProbe({SETUP_PROBE_INTERVAL_S})
t0 = time.perf_counter()
with probe:
    import workloads
    workloads.build(sys.argv[1], int(sys.argv[2]))
print((time.perf_counter() - t0 - probe.spent) * probe.speed())
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("model", "dense", "report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupSampler:
    """Times `SETUP_SAMPLES` set-ups in child interpreters, spread over the
    first pass so that one burst of contention cannot cover all of them."""

    def __init__(self, workload: str, seed: int, ncases: int):
        self.args = [sys.executable, "-c", SETUP_CHILD, workload, str(seed)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.due = sorted({k * ncases // SETUP_SAMPLES for k in range(SETUP_SAMPLES)})
        self.done = 0
        self.times: list[float] = []

    def after_case(self) -> None:
        self.done += 1
        while self.due and self.due[0] < self.done:
            self.due.pop(0)
            self.sample()

    def sample(self) -> None:
        proc = subprocess.run(self.args, env=self.env, capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return self.times


def run_pass(cases, call=None, after_case=None):
    """Run every case once, timing each call.

    Returns (seconds by case, output by case, [(case, reason)] for cases
    that raised, speed by case).  Times are in reference-speed seconds:
    raw time, less the probe's own time, multiplied by the mean speed the
    probe sampled during the case.  A case shorter than
    `MIN_PROBE_SAMPLES` periods takes the mean speed of the whole pass.
    Outputs are checked afterwards by `check_pass`, so that no check runs
    while the tracer is installed.
    """
    raw, outputs, raised, samples = {}, {}, [], {}
    probe = SpeedProbe(PROBE_INTERVAL_S)
    for case in cases:
        spent, first = probe.spent, len(probe.ratios)
        t0 = perf_counter()
        with probe:
            try:
                outputs[case.id] = call(case.id, case.run) if call else case.run()
            except Exception:  # a case that raises counts as failed
                raised.append((case.id, "raised\n" + traceback.format_exc()))
        raw[case.id] = perf_counter() - t0 - (probe.spent - spent)
        samples[case.id] = probe.ratios[first:]
        if after_case:
            after_case()
    whole = probe.speed()
    speeds = {cid: statistics.fmean(r) if len(r) >= MIN_PROBE_SAMPLES else whole
              for cid, r in samples.items()}
    return {cid: t * speeds[cid] for cid, t in raw.items()}, outputs, raised, speeds


def check_pass(cases, outputs, raised):
    """Digest each output and compare it with the case's reference."""
    digests, problems = {}, list(raised)
    for case in cases:
        if case.id in outputs:
            out = outputs[case.id]
            digests[case.id] = case.digest(out)
            bad = case.problem(out)
            if bad:
                problems.append((case.id, bad))
    return digests, problems


def untraced(fresh, seconds: float, after_case=None):
    """Whole passes over `fresh()` cases until the next pass would end
    past `seconds`; at least one.

    Returns each case's median time over the passes, the problems of each
    pass, and the times and speeds by case of each pass; times are in
    reference-speed seconds.
    """
    passes, problems, speeds = [], [], []
    start = perf_counter()
    while True:
        cases = fresh()
        t0 = perf_counter()
        times, outputs, raised, speed = run_pass(cases, after_case=after_case)
        last = perf_counter() - t0
        passes.append(times)
        speeds.append(speed)
        problems.append(check_pass(cases, outputs, raised)[1])
        if perf_counter() - start + last > seconds:
            break
    medians = {cid: statistics.median(p[cid] for p in passes) for cid in passes[0]}
    return medians, problems, passes, speeds


def traced(workload: str, seed: int, fresh):
    """One untraced pass, then the set-up and one pass under the tracer.

    Returns the tracer, the (untraced, traced) pass times in
    reference-speed seconds and the problems of each pass, including
    traced/untraced disagreements and counters that disagree with the
    reported ranks.
    """
    import workloads
    from tracer import Tracer

    cases = fresh()
    base_times, outputs, raised, _ = run_pass(cases)
    base_digests, base_bad = check_pass(cases, outputs, raised)
    cases = fresh()
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build(workload, seed)  # set-up, for liealg.basis_change_s
        times, outputs, raised, _ = run_pass(cases, tracer.run_case)
    finally:
        tracer.uninstall()
    digests, bad = check_pass(cases, outputs, raised)
    for cid, d in base_digests.items():
        if digests.get(cid) != d:
            bad.append((cid, f"traced {digests.get(cid)} != untraced {d}"))
    bad += tracer.rank_mismatches()
    walls = (sum(base_times.values()), sum(times.values()))
    return tracer, walls, [base_bad, bad]


def error_counts(ncases: int, problems) -> tuple[int, int]:
    """(attempted, failed); a case fails at most once per pass."""
    return ncases * len(problems), sum(len({cid for cid, _ in bad}) for bad in problems)


def end_to_end(medians: dict[str, float], setup_times: list[float]) -> dict:
    """Both inputs are in reference-speed seconds."""
    return {
        "wall_s": (sum(medians.values()), "s"),
        "max_case_s": (max(medians.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, walls: tuple[float, float]) -> dict:
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (walls[1] / walls[0], "ratio")
    return metrics


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nilrig" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/nilrig; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = os.environ.pop("NILRIG_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    refs = workloads.references(args.workload)

    def fresh():
        inputs = workloads.build(args.workload, args.seed)
        return workloads.make_cases(args.workload, inputs, args.seed, refs)

    ncases = len(fresh())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "nilrig_threads": "unset" if threads is None else f"unset (was {threads!r})",
        "cases": ncases,
    }
    if args.trace == 0:
        sampler = SetupSampler(args.workload, args.seed, ncases)
        medians, problems, passes, speeds = untraced(fresh, args.seconds, sampler.after_case)
        metrics = end_to_end(medians, sampler.finish())
        record.update(passes=len(passes), setup_s_samples=sampler.times, case_speed=speeds,
                      slowest_case=max(medians, key=medians.get), case_s=passes)
    else:
        tracer, walls, problems = traced(args.workload, args.seed, fresh)
        metrics = per_layer(tracer, walls)
        record.update(untraced_wall_s=walls[0], traced_wall_s=walls[1],
                      missing_wrappers=tracer.missing, per_case=tracer.per_case())
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, record)
        record["spans_file"] = str(path.relative_to(ROOT))

    attempted, failed = error_counts(ncases, problems)
    for bad in problems:
        for cid, reason in bad:
            print(f"FAILED {cid}: {reason}", file=sys.stderr)
    record["error_rate"] = failed / attempted
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
