#!/usr/bin/env python3
"""Tabulate Z^2 / B^2 / H^2 across the built-in model algebras.

Usage: python3 scripts/cohomology_table.py [--max-p N]

A quick way to explore how the three complexes behave as the families
grow; exact rational arithmetic throughout, so rows may take a moment
for the larger models.  A characteristic sequence followed by "?" is
the best one found, not one the rank bounds prove.
"""

import argparse

from nilrig import families
from nilrig.cohom import space_dims
from nilrig.liealg import characteristic_sequence, nilindex


def row(label, g, kind):
    r = space_dims(g, kind)
    charseq = characteristic_sequence(g)
    cs = ",".join(map(str, charseq.parts)) + ("" if charseq.certified else "?")
    print(f"{label:<14} dim={g.dim:<3} step={nilindex(g)} ({cs:<12}) "
          f"{kind:<9} z2={r.z2_dim:<4} b2={r.b2_dim:<4} h2={r.h2_dim:<4}"
          f"{'  rigid-candidate' if r.rigid_candidate else ''}")
    return r.rigid_candidate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-p", type=int, default=4)
    args = ap.parse_args()

    rigid = []
    for p in range(1, args.max_p + 1):
        rigid.append(row(f"heisenberg({p})", families.heisenberg(p), "ch"))
    print()
    for p in range(1, args.max_p + 1):
        rigid.append(row(f"g_p1({p})", families.g_p1(p), "ch"))
    print()
    for p in range(2, args.max_p + 1):
        rigid.append(row(f"g_p12({p})", families.g_p12(p), "ch"))
    print()
    for name in ("g6", "g7", "g8", "g9", "h6", "h8", "h10"):
        rigid.append(row(name, families.rigid_2step(name), "ch"))
    print()
    for p in range(1, min(args.max_p, 3) + 1):
        rigid.append(row(f"g_k3k2k1(1,0,{p})", families.g_k3k2k1(1, 0, p), "cr"))
    for p in (2, 3):
        rigid.append(row(f"g_p01({p})", families.g_p01(p), "cr"))
    rigid.append(row("rigid7", families.rigid_3step_7(), "cr"))
    print(f"\n{len(rigid)} rows, {sum(rigid)} rigid candidates")


if __name__ == "__main__":
    main()
