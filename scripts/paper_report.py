#!/usr/bin/env python3
"""Run the full verification registry and print a compact table.

Usage: python3 scripts/paper_report.py [--seed N] [--json out.json] [--only PREFIX]
"""

import argparse
import json
import sys
from contextlib import nullcontext

from nilrig.liealg import DEFAULT_SEED
from nilrig.report import run_claims, select_claims


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--json", default=None)
    ap.add_argument("--only", default=None)
    args = ap.parse_args()

    # reject an unknown --only prefix and open --json before any claim runs
    try:
        select_claims(args.only)
        fh = open(args.json, "w", encoding="utf-8") if args.json else nullcontext()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with fh:
        doc = run_claims(seed=args.seed, only=args.only)
        if args.json:
            json.dump(doc, fh, indent=1, default=str)
            fh.write("\n")
    width = max(len(r["id"]) for r in doc["claims"])
    for r in doc["claims"]:
        mark = "PASS" if r["pass"] else "FAIL"
        line = f"{r['id']:<{width}}  {mark}  {r['computed']}"
        recorded = (r.get("detail") or {}).get("recorded")
        if recorded is not None:
            line += f"   [certified: {r['expected']}; recorded target: {recorded}]"
        elif not r["pass"]:
            line += f"   [recorded target: {r['expected']}]"
        print(line)
    s = doc["summary"]
    print(f"\n{s['passed']}/{s['total']} claims match their expected values "
          f"(seed {doc['seed']})")
    if args.json:
        print(f"wrote {args.json}")
    return 0 if s["failed"] == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
