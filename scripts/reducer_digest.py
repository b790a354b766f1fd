#!/usr/bin/env python3
"""Print one JSON line of digests of what every `RowReducer` computes.

Usage:
    python3 scripts/reducer_digest.py

Run from the root of a checkout; the program is imported from ./src.
Three input sets are run:
  * model: the seven model-basis `space_dims` cases of the `model`
    benchmark workload;
  * dense: the sixteen `random_invertible(-2, 2)` basis changes of
    g_k3k2k1(1,0,2) in `cr` of the `dense` workload, in pool order,
    the first with representatives;
  * f731: `chevalley_and_cr_dims` on the sixteen members of
    `families.classification_F731`.
Every reducer made while they run (in `exactlin`, `cohom`, `liealg` and
`families`) is recorded.  Per set the line holds the number of reducers
and sha256 digests of the returned dims and representatives, of the
streams fed to `add_rows` row for row, and of each reducer's rank,
`rows_seen` and pivot table in insertion order.  Two trees compute the
same thing when their lines are equal, so a parity check of a change
against its parent is a diff of two lines.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nilrig import cohom, exactlin, families, liealg, sampling  # noqa: E402

MODEL = [
    ("g_p1(5)", lambda: families.g_p1(5), "ch", True),
    ("g_p1(9)", lambda: families.g_p1(9), "ch", False),
    ("heisenberg(8)", lambda: families.heisenberg(8), "ch", False),
    ("h10", lambda: families.rigid_2step("h10"), "chevalley", False),
    ("g_p01(3)", lambda: families.g_p01(3), "cr", False),
    ("g_p01(5)", lambda: families.g_p01(5), "cr", False),
    ("rigid7", lambda: families.rigid_3step_7(), "cr", False),
]
DENSE_CASES = 16
MODULES = (exactlin, cohom, liealg, families)


class Recorder:
    """Swaps a recording subclass of `RowReducer` into `MODULES`."""

    def __init__(self):
        self.reducers = []
        self.streams = []
        recorder, base = self, exactlin.RowReducer

        class Recording(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorder.reducers.append(self)

            def add_rows(self, rows):
                rows = list(rows)
                recorder.streams.append(repr(rows))
                return super().add_rows(rows)

        self.base, self.cls = base, Recording

    def __enter__(self):
        for mod in MODULES:
            mod.RowReducer = self.cls
        return self

    def __exit__(self, *exc):
        for mod in MODULES:
            mod.RowReducer = self.base


def sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def report_line(out) -> str:
    reps = out.representatives
    return repr((out.z2_dim, out.b2_dim, out.h2_dim,
                 None if reps is None else [phi.coeffs for phi in reps]))


def digest(run) -> dict:
    with Recorder() as rec:
        dims = run()
    tables = [repr((red.rank, red.rows_seen, list(red.pivots.items()))) for red in rec.reducers]
    return {"reducers": len(rec.reducers), "dims": sha(dims),
            "streams": sha(rec.streams), "tables": sha(tables)}


def model() -> list[str]:
    return [report_line(cohom.space_dims(make(), kind, with_representatives=reps))
            for _, make, kind, reps in MODEL]


def dense() -> list[str]:
    g = families.g_k3k2k1(1, 0, 2)
    rng = sampling.rng_for(liealg.DEFAULT_SEED)
    out = []
    for i in range(DENSE_CASES):
        h = liealg.basis_change(g, sampling.random_invertible(g.dim, rng, -2, 2))
        out.append(report_line(cohom.space_dims(h, "cr", with_representatives=i == 0)))
    return out


def f731() -> list[str]:
    return [report_line(r) for g in families.classification_F731()
            for r in cohom.chevalley_and_cr_dims(g)]


def main() -> None:
    print(json.dumps({name: digest(run) for name, run in
                      (("model", model), ("dense", dense), ("f731", f731))}))


if __name__ == "__main__":
    main()
