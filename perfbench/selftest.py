#!/usr/bin/env python3
"""Self-tests of the nilrig benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the correctness gate catches a wrong reference, that the
tracer's counters agree with the ranks `space_dims` reports, that traced
and untraced runs return identical dims, that the traced run reproduces
the known layer split, and that the metric names match BENCHMARK.json.
Takes about a minute; exits 1 when a check fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from nilrig import families, liealg, sampling  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def subset(workload: str, ids: set[str]):
    """A case factory for some cases of a workload, fresh on each call."""
    refs = workloads.references(workload)

    def fresh():
        cases = workloads.make_cases(workload, workloads.build(workload, SEED), SEED, refs)
        return [c for c in cases if c.id in ids]

    return fresh


def corrupted(fresh):
    """The same cases, each with a wrong reference."""
    def wrong():
        return [dataclasses.replace(c, expected=c.expected[:-1] + ("wrong",)) for c in fresh()]

    return wrong


def test_gate_catches_wrong_reference() -> None:
    for workload, ids in (("model", {"rigid7/cr"}),
                          ("dense", {"g_k3k2k1(1,0,2)#1/cr"}),
                          ("report", {"C10.dual-dims", "C03.rigid-2step.h8"})):
        fresh = subset(workload, ids)
        _, problems, _, _ = run.untraced(fresh, 0)
        attempted, failed = run.error_counts(len(ids), problems)
        check(failed == 0 and attempted == len(ids), f"{workload}: reference holds")
        _, problems, _, _ = run.untraced(corrupted(fresh), 0)
        attempted, failed = run.error_counts(len(ids), problems)
        check(failed / attempted == 1.0, f"{workload}: a wrong reference gives error_rate 1")


def test_counters_and_split() -> None:
    fresh = subset("model", {"g_p1(9)/ch", "g_p1(5)/ch", "rigid7/cr", "h10/chevalley"})
    tracer, _, problems = run.traced("model", SEED, fresh)
    check(not any(problems), "model: traced and untraced dims agree, ranks match counters")
    m = tracer.metrics()
    size_minus_z2 = sum(d.size - d.z2 for d in tracer.dims)
    check(m["exactlin.pivots"][0] == size_minus_z2,
          f"model: Z pivots {m['exactlin.pivots'][0]} == sum n^2(n-1)/2 - z2 {size_minus_z2}")
    b2_pivots = sum(r.reducer.rank for r in tracer.reducers if r.role == "b2")
    check(b2_pivots == sum(d.b2 for d in tracer.dims), "model: B2 pivots == sum b2")
    case = next(c for c in tracer.per_case() if c["case"] == "g_p1(9)/ch")
    share = case["self_s"]["cohom.d1_images"] / case["wall_s"]
    check(share > 0.5, f"model: d1 images are {share:.0%} of g_p1(9)/ch")

    # one dense case of the larger algebra the dense workload stands in for
    g = families.g_k3k2k1(1, 0, 3)
    gb = liealg.basis_change(g, sampling.random_invertible(g.dim, sampling.rng_for(SEED), -2, 2))
    base = workloads.cohom.space_dims(g, "cr")
    ref = (base.z2_dim, base.b2_dim, base.h2_dim)

    def dense103():
        return [workloads.dims_case("g_k3k2k1(1,0,3)#0", gb, "cr", False, ref)]

    tracer, _, problems = run.traced("dense", SEED, dense103)
    check(not any(problems), "dense g_k3k2k1(1,0,3): dims and counters agree")
    case = tracer.per_case()[0]
    share = case["self_s"]["exactlin.z_elim"] / case["wall_s"]
    check(share > 0.5, f"dense g_k3k2k1(1,0,3): Z elimination is {share:.0%} of the case")


def test_metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fresh = subset("model", {"rigid7/cr"})
    medians, _, _, _ = run.untraced(fresh, 0)
    e2e = run.end_to_end(medians, [0.1, 0.2, 0.3])
    check(sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"]),
          "end-to-end metric names match BENCHMARK.json")
    tracer, walls, _ = run.traced("model", SEED, fresh)
    layer = run.per_layer(tracer, walls)
    check(sorted(layer) == sorted(m["name"] for m in bench["per_layer"]),
          "per-layer metric names match BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    check(all(units[k] == u for k, (_, u) in {**e2e, **layer}.items()),
          "metric units match BENCHMARK.json")


def main() -> int:
    test_gate_catches_wrong_reference()
    test_counters_and_split()
    test_metric_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
