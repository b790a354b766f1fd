#!/usr/bin/env python3
"""Time `space_dims` on model bases and on random basis changes of them.

Usage: python3 scripts/basis_change_table.py

Prints one JSON line per input of ROADMAP's table "`space_dims` on
arbitrary bases": the case, its complex and dimension, the seconds of
`space_dims` in the model basis and in the changed basis (each the
median of 7 runs, with the min and max, `perf_counter`, one process),
and z2/b2/h2, which the two bases must share.  `work_constants` is
(nonzeros, largest numerator bits, largest denominator bits) of the
structure constants in the basis `space_dims` works in on the changed
input, after its basis step (`liealg.adapted_basis`).
Each changed basis is one `random_invertible(dim, rng, -2, 2)` matrix;
the seven matrices come from one `rng_for(5)`, drawn in the table's
order (`sampling.arbitrary_basis_inputs`), so a run reproduces the
table's inputs.  The basis change itself is not timed.
"""

import json
import statistics
from time import perf_counter

from nilrig import liealg, sampling
from nilrig.cohom import space_dims

RUNS = 7


def timings(g, kind):
    """({median, min, max} seconds of RUNS calls of space_dims, the last report)."""
    times = []
    for _ in range(RUNS):
        t0 = perf_counter()
        r = space_dims(g, kind)
        times.append(perf_counter() - t0)
    return {"median": round(statistics.median(times), 4), "min": round(min(times), 4),
            "max": round(max(times), 4)}, r


def work_constants(g):
    """(nonzeros, numerator bits, denominator bits) of the structure
    constants of g after the basis step of `space_dims`."""
    f = liealg.adapted_basis(g)
    h = g if f is None else liealg.basis_change(g, f)
    values = [x for vec in h.constants.values() for x in vec.values()]
    return (len(values), max((abs(x.numerator).bit_length() for x in values), default=0),
            max((x.denominator.bit_length() for x in values), default=0))


def main() -> None:
    for name, kind, g, f in sampling.arbitrary_basis_inputs():
        changed = liealg.basis_change(g, f)
        model_s, r = timings(g, kind)
        changed_s, rc = timings(changed, kind)
        dims = (r.z2_dim, r.b2_dim, r.h2_dim)
        if (rc.z2_dim, rc.b2_dim, rc.h2_dim) != dims:
            raise SystemExit(f"{name}: dims differ between bases: {dims} and "
                             f"{(rc.z2_dim, rc.b2_dim, rc.h2_dim)}")
        print(json.dumps({"case": name, "complex": kind, "dim": g.dim,
                          "model_s": model_s, "changed_s": changed_s,
                          "work_constants": work_constants(changed),
                          "z2": dims[0], "b2": dims[1], "h2": dims[2]}), flush=True)


if __name__ == "__main__":
    main()
