"""Workloads of the nilrig benchmark: inputs from a seed, references, checks.

`build` is the set-up that `setup_s` times: it constructs the inputs
(families, sampling, basis_change).  `make_cases` turns the inputs into
cases; a case calls one public entry point (`nilrig.cohom.space_dims` or
`nilrig.report.run_claims`), looked up at call time so that the traced
run sees its wrappers.  Every reference is independent of the seed.
WORKLOADS.md records why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import nilrig.cohom as cohom
import nilrig.report as report
from nilrig import families, liealg, sampling

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# The model-basis corpus: (name, constructor, complex, with representatives).
MODEL_CORPUS = [
    ("g_p1(5)", lambda: families.g_p1(5), "ch", True),
    ("g_p1(9)", lambda: families.g_p1(9), "ch", False),
    ("heisenberg(8)", lambda: families.heisenberg(8), "ch", False),
    ("h10", lambda: families.rigid_2step("h10"), "chevalley", False),
    ("g_p01(3)", lambda: families.g_p01(3), "cr", False),
    ("g_p01(5)", lambda: families.g_p01(5), "cr", False),
    ("rigid7", lambda: families.rigid_3step_7(), "cr", False),
]

# Dense workload: random_invertible(-2, 2) basis changes of one 3-step
# model in the cr complex, drawn from a fixed pool seed; the run's seed
# shuffles their order.  One case costs 0.2-2.1 s depending on the draw,
# so drawing the pool from the run's seed made wall_s vary by 26% between
# seeds.  Case #0 also asks for representatives.
DENSE_BASE = ("g_k3k2k1(1,0,2)", lambda: families.g_k3k2k1(1, 0, 2), "cr")
DENSE_CASES = 16
DENSE_POOL_SEED = liealg.DEFAULT_SEED

# Report claims left out of the timed registry, with the reason.
REPORT_EXCLUDED = {
    "C11.basis-change-invariance":
        "about 26 s of seeded dense basis changes in one claim; the dense "
        "workload measures the same mechanism in cases that fit one run",
}


@dataclass
class Case:
    id: str
    run: Callable[[], object]
    expected: tuple
    digest: Callable[[object], tuple]
    verify: Callable[[object], str | None] | None = None

    def problem(self, out) -> str | None:
        """None when `out` is correct, else the reason."""
        got = self.digest(out)
        if got != self.expected:
            return f"{self.id}: got {got}, reference {self.expected}"
        return self.verify(out) if self.verify else None


def build(workload: str, seed: int) -> list:
    """Construct the workload's inputs from the seed (the timed set-up)."""
    if workload == "model":
        corpus = [(name, make(), kind, reps) for name, make, kind, reps in MODEL_CORPUS]
        random.Random(seed).shuffle(corpus)
        return corpus
    if workload == "dense":
        name, make, kind = DENSE_BASE
        g = make()
        rng = sampling.rng_for(DENSE_POOL_SEED)
        out = []
        for i in range(DENSE_CASES):
            f = sampling.random_invertible(g.dim, rng, -2, 2)
            out.append((f"{name}#{i}", liealg.basis_change(g, f), kind, i == 0))
        random.Random(seed).shuffle(out)
        return out
    if workload == "report":
        return [cid for cid in REFERENCE["report"] if cid not in REPORT_EXCLUDED]
    raise ValueError(f"unknown workload {workload!r}")


def _dims(out) -> tuple:
    reps = None if out.representatives is None else len(out.representatives)
    return (out.z2_dim, out.b2_dim, out.h2_dim, reps)


def _cocycle_check(g, kind: str):
    """Oracle route: each representative is killed by the concrete
    degree-2 operators of its complex."""
    def verify(out) -> str | None:
        if out.representatives is None:
            return None
        for k, phi in enumerate(out.representatives):
            if kind in ("chevalley", "cr") and not cohom.chevalley_delta2(g, phi).is_zero():
                return f"representative {k} is not a Chevalley cocycle"
            if kind == "ch" and not cohom.ch_delta2(g, phi).is_zero():
                return f"representative {k} is not a T-cocycle"
            if kind == "cr" and not cohom.r_delta2(g, phi).is_zero():
                return f"representative {k} is not a delta_R cocycle"
        return None

    return verify


def dims_case(cid: str, g, kind: str, reps: bool, ref: tuple[int, int, int]) -> Case:
    def run():
        return cohom.space_dims(g, kind, with_representatives=reps)

    expected = tuple(ref) + ((ref[0] if reps else None),)
    return Case(f"{cid}/{kind}", run, expected, _dims,
                _cocycle_check(g, kind) if reps else None)


def model_reference(name: str, kind: str) -> tuple[int, int, int]:
    """Recorded (z2, b2, h2); the Heisenberg rows use the paper's closed
    form z2 = p(2p+1), h2 = 0."""
    if name.startswith("heisenberg(") and kind == "ch":
        p = int(name[len("heisenberg("):-1])
        z2 = p * (2 * p + 1)
        return (z2, z2, 0)
    return tuple(REFERENCE["model"][f"{name}/{kind}"])


def references(workload: str) -> tuple | None:
    """Seed-independent references computed before timing: for `dense`,
    the model-basis dims of the algebra whose basis is changed."""
    if workload == "dense":
        _, make, kind = DENSE_BASE
        base = cohom.space_dims(make(), kind)
        return (base.z2_dim, base.b2_dim, base.h2_dim)
    return None


def make_cases(workload: str, inputs: list, seed: int, refs: tuple | None) -> list[Case]:
    """Cases over freshly built inputs, with their references."""
    if workload == "model":
        return [dims_case(name, g, kind, reps, model_reference(name, kind))
                for name, g, kind, reps in inputs]
    if workload == "dense":
        return [dims_case(cid, g, kind, reps, refs) for cid, g, kind, reps in inputs]
    if workload == "report":
        return [_claim_case(cid, seed) for cid in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def _claim_case(cid: str, seed: int) -> Case:
    def run():
        return report.run_claims(seed, only=cid)

    def digest(doc) -> tuple:
        # the recorded `computed` string; `expected` is never consulted
        return tuple((r["id"], r["computed"]) for r in doc["claims"])

    return Case(cid, run, ((cid, REFERENCE["report"][cid]),), digest)
