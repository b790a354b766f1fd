#!/usr/bin/env python3
"""Time `space_dims` on model bases and on random basis changes of them.

Usage: python3 scripts/basis_change_table.py

Prints one JSON line per input of ROADMAP's table "`space_dims` on
arbitrary bases": the case, its complex and dimension, the seconds of
`space_dims` in the model basis and in the changed basis (each the best
of 3 runs, `perf_counter`, one process), and z2/b2/h2, which the two
bases must share.  Each changed basis is one `random_invertible(dim,
rng, -2, 2)` matrix; the seven matrices come from one `rng_for(5)`,
drawn in the table's order (`sampling.arbitrary_basis_inputs`), so a
run reproduces the table's inputs.
The basis change itself is not timed.
"""

import json
from time import perf_counter

from nilrig import liealg, sampling
from nilrig.cohom import space_dims

RUNS = 3


def best_time(g, kind):
    """(best seconds of RUNS calls of space_dims, the last report)."""
    best = None
    for _ in range(RUNS):
        t0 = perf_counter()
        r = space_dims(g, kind)
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, r


def main() -> None:
    for name, kind, g, f in sampling.arbitrary_basis_inputs():
        changed = liealg.basis_change(g, f)
        model_s, r = best_time(g, kind)
        changed_s, rc = best_time(changed, kind)
        dims = (r.z2_dim, r.b2_dim, r.h2_dim)
        if (rc.z2_dim, rc.b2_dim, rc.h2_dim) != dims:
            raise SystemExit(f"{name}: dims differ between bases: {dims} and "
                             f"{(rc.z2_dim, rc.b2_dim, rc.h2_dim)}")
        print(json.dumps({"case": name, "complex": kind, "dim": g.dim,
                          "model_s": round(model_s, 4), "changed_s": round(changed_s, 4),
                          "z2": dims[0], "b2": dims[1], "h2": dims[2]}), flush=True)


if __name__ == "__main__":
    main()
