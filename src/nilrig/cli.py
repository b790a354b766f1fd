"""Command-line surface: algebra files, analyses, cohomology reports.

Machine-readable output (one JSON document per invocation) goes to
stdout; progress and notes go to stderr.  Algebra files are JSON:

    {"dim": 3, "basis": ["X1", "X2", "X3"],
     "brackets": [{"i": 1, "j": 2, "v": {"3": "1"}}]}

Indices are 1-based JSON integers with i < j, each pair at most once;
image keys are canonical decimal strings and no object repeats a key;
rationals are strings "p/q" (or "p") or JSON integers, never floats or
booleans.  The same layout serializes skew 2-cochains.

Exit codes: 0 success, 1 bad input or I/O error, 2 failing paper-report
rows (or a usage error), 3 internal error (a certified check failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction as Q

from . import families, operads, report
from .cohom import (
    Cochain,
    ComplexKind,
    check_linear_deformation,
    derivation_algebra_dim,
    space_dims,
)
from .exactlin import as_rational
from .liealg import (
    DEFAULT_SEED,
    LieAlgebra,
    center_dim,
    characteristic_sequence,
    jacobi_defect,
    lower_central_series,
    nilindex,
    _characteristic_sequence,
    _nilindex,
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# file format

def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = val
    return doc


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _parse_entries(path: str, doc: dict) -> tuple[int, dict[tuple[int, int], dict[int, Q]]]:
    if not isinstance(doc, dict) or "dim" not in doc:
        raise CliError(f"{path}: document must be an object with a 'dim' field")
    dim = doc["dim"]
    # JSON true/false load as bool, which Python counts as an int
    if type(dim) is not int or dim < 0:
        raise CliError(f"{path}: 'dim' must be a nonnegative integer")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise CliError(f"{path}: 'brackets' must be a list")
    entries: dict[tuple[int, int], dict[int, Q]] = {}
    for pos, row in enumerate(brackets):
        where = f"{path}: brackets[{pos}]"
        if not (isinstance(row, dict) and type(row.get("i")) is type(row.get("j")) is int):
            raise CliError(f"{where}: need integer fields 'i' and 'j'")
        i, j = row["i"], row["j"]
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise CliError(f"{where}: index out of range 1..{dim}")
        if i >= j:
            raise CliError(f"{where}: need i < j (got i={i}, j={j})")
        if (i - 1, j - 1) in entries:
            raise CliError(f"{where}: repeated bracket ({i}, {j})")
        images = row.get("v", {})
        if not isinstance(images, dict):
            raise CliError(f"{where}: 'v' must be an object")
        vec = {}
        for key, val in images.items():
            # canonical keys only: "03", "+3" or " 3" would alias "3"
            if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                raise CliError(f"{where}: image key {key!r} is not an index")
            k = int(key)
            if not 1 <= k <= dim:
                raise CliError(f"{where}: image index {k} out of range")
            try:
                vec[k - 1] = as_rational(val)
            except (TypeError, ValueError):
                raise CliError(f"{where}: bad rational {val!r}; write a string "
                               f"\"p/q\" or an integer") from None
        entries[(i - 1, j - 1)] = vec
    return dim, entries


def parse_algebra(path: str) -> LieAlgebra:
    dim, entries = _parse_entries(path, _load_doc(path))
    return LieAlgebra(dim, entries)


def parse_cochain(path: str) -> Cochain:
    dim, entries = _parse_entries(path, _load_doc(path))
    return Cochain(2, dim, entries)


def _entries_doc(dim: int, constants) -> dict:
    brackets = []
    for (i, j) in sorted(constants):
        v = {str(k + 1): str(x) for k, x in sorted(constants[(i, j)].items())}
        brackets.append({"i": i + 1, "j": j + 1, "v": v})
    return {"dim": dim, "basis": [f"X{k + 1}" for k in range(dim)],
            "brackets": brackets}


def algebra_doc(g: LieAlgebra) -> dict:
    return _entries_doc(g.dim, g.constants)


def cochain_doc(c: Cochain) -> dict:
    return _entries_doc(c.dim, c.coeffs)


def write_algebra(g: LieAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_doc(g), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=1, default=str)
    sys.stdout.write("\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_validate(args) -> int:
    g = parse_algebra(args.file)
    bad = jacobi_defect(g)
    doc = {
        "file": args.file,
        "dim": g.dim,
        "valid": not bad,
        "jacobi_violations": [[i + 1, j + 1, k + 1] for (i, j, k) in bad],
    }
    _emit(doc)
    return 0 if not bad else 1


def cmd_analyze(args) -> int:
    g = parse_algebra(args.file)
    bad = jacobi_defect(g)
    doc: dict = {"file": args.file, "dim": g.dim, "jacobi_ok": not bad}
    if bad:
        # no Lie invariant is meaningful for a non-Lie bracket
        doc["jacobi_violations"] = [[i + 1, j + 1, k + 1] for (i, j, k) in bad]
        _emit(doc)
        return 1
    chain = lower_central_series(g)
    doc["lower_central_series_dims"] = list(chain.dims)
    try:
        doc["nilindex"] = _nilindex(chain)
    except ValueError as exc:
        doc["nilindex_error"] = str(exc)
        _emit(doc)
        return 1
    cs = _characteristic_sequence(g, chain)
    doc["characteristic_sequence"] = list(cs.parts)
    doc["characteristic_sequence_certified"] = cs.certified
    doc["center_dim"] = center_dim(g)
    doc["derived_dim"] = chain.dims[1] if len(chain.dims) > 1 else 0  # the zero algebra's is (0,)
    doc["derivation_algebra_dim"] = derivation_algebra_dim(g)
    _emit(doc)
    return 0


def cmd_cohomology(args) -> int:
    g = parse_algebra(args.file)
    kind = ComplexKind.coerce(args.complex)
    r = space_dims(g, kind, with_representatives=args.representatives,
                   progress=lambda n, rank, rate: _note(
                       f"  rows processed: {n}, rank {rank}, {rate:.0f} rows/s"))
    doc = {
        "file": args.file,
        "complex": kind.value,
        "z2_dim": r.z2_dim,
        "b2_dim": r.b2_dim,
        "h2_dim": r.h2_dim,
        "rigid_candidate": r.rigid_candidate,
    }
    if args.representatives:
        doc["representatives"] = [cochain_doc(c) for c in r.representatives]
    _emit(doc)
    return 0


def cmd_deform(args) -> int:
    g = parse_algebra(args.base)
    phi = parse_cochain(args.phi)
    if phi.dim != g.dim:
        raise CliError(f"dimension mismatch: base dim {g.dim}, cochain dim {phi.dim}")
    check = check_linear_deformation(g, phi, args.steps)
    doc = {
        "base": args.base,
        "phi": args.phi,
        "steps": args.steps,
        "conditions": [
            {
                "name": name,
                "pass": ok,
                "witness": None if witness is None else [x + 1 for x in witness],
            }
            for name, ok, witness in check.conditions
        ],
        "passes_all": check.passes_all,
    }
    _emit(doc)
    return 0


#: family name -> (number of parameters, builder of its (label, algebra) members)
_FAMILIES = {
    "heisenberg": (1, lambda p: [(f"h{2 * int(p[0]) + 1}", families.heisenberg(int(p[0])))]),
    "g-p1": (1, lambda p: [(f"g_{int(p[0])}_1", families.g_p1(int(p[0])))]),
    "g-p12": (1, lambda p: [(f"g_{int(p[0]) - 1}_2", families.g_p12(int(p[0])))]),
    "g-p01": (1, lambda p: [(f"g_{int(p[0])}_0_1", families.g_p01(int(p[0])))]),
    "g-k3k2k1": (3, lambda p: [("g_" + "_".join(str(int(x)) for x in p),
                                families.g_k3k2k1(*map(int, p)))]),
    "rigid-2step": (1, lambda p: [(p[0], families.rigid_2step(p[0]))]),
    "rigid-3step-7": (0, lambda p: [("rigid7", families.rigid_3step_7())]),
    "classification-F731": (0, lambda p: [(f"F731_{k:02d}", a) for k, a
                                          in enumerate(families.classification_F731())]),
}


def _build_family(name: str, params: list[str]) -> list[tuple[str, LieAlgebra]]:
    if name not in _FAMILIES:
        raise CliError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    arity, build = _FAMILIES[name]
    if len(params) != arity:
        raise CliError(f"family {name} takes {arity} parameter(s)")
    return build(params)


def cmd_family(args) -> int:
    built = _build_family(args.name, args.params)
    written = []
    if len(built) == 1:
        label, g = built[0]
        path = args.output or f"{label}.json"
        write_algebra(g, path)
        written.append(path)
    else:
        outdir = args.output or "."
        os.makedirs(outdir, exist_ok=True)
        for label, g in built:
            path = os.path.join(outdir, f"{label}.json")
            write_algebra(g, path)
            written.append(path)
    invariants = []
    for (label, g), path in zip(built, written):
        invariants.append({
            "label": label,
            "path": path,
            "dim": g.dim,
            "jacobi_ok": not jacobi_defect(g),
            "nilindex": nilindex(g),
            "characteristic_sequence": list(characteristic_sequence(g).parts),
        })
    _emit({"family": args.name, "params": args.params, "written": written,
           "algebras": invariants})
    return 0


def cmd_paper_report(args) -> int:
    # reject an unknown --only prefix before --json creates a file, and
    # open --json before any claim runs, so a bad path costs nothing
    report.select_claims(args.only)
    with open(args.json, "w", encoding="utf-8") if args.json else nullcontext() as fh:
        doc = report.run_claims(seed=args.seed, only=args.only)
        for row in doc["claims"]:
            status = "PASS" if row["pass"] else "FAIL"
            _note(f"[{status}] {report.row_line(row)} ({row['runtime_ms']} ms)")
        if fh is not None:
            json.dump(doc, fh, indent=1, default=str)
            fh.write("\n")
    _emit(doc)
    return 0 if doc["summary"]["failed"] == 0 else 2


def cmd_operad_check(args) -> int:
    order = args.order
    if order < 2:
        raise CliError("order must be at least 2")
    primal = operads.gen_function(operads.two_nilp_dims(order), order)
    dual_dims = operads.dual_dims_2nilp(order)
    dual = operads.gen_function(dual_dims, order)
    residual = operads.koszul_check(primal, dual)
    doc = {
        "order": order,
        "dual_dims": list(dual_dims),
        "residual_coeffs": [str(c) for c in residual],
        "residual_zero": not any(residual),
        "table": [
            {"operad": row.operad, "arity": row.arity, "dim": row.dim,
             "note": row.note}
            for row in operads.static_dims_table()
        ],
    }
    _emit(doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilrig",
        description="exact deformation-cohomology workbench for nilpotent "
                    "structure-constant Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a bracket file for the Jacobi identity")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="nilpotency invariants of an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cohomology", help="Z^2/B^2/H^2 of a chosen complex")
    p.add_argument("file")
    p.add_argument("--complex", required=True, choices=[k.value for k in ComplexKind])
    p.add_argument("--representatives", action="store_true",
                   help="emit a kernel basis of 2-cocycles")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("deform", help="linear-deformation condition checks")
    p.add_argument("base")
    p.add_argument("phi")
    p.add_argument("--steps", type=int, required=True, choices=[2, 3])
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("family", help="write a model algebra to a bracket file")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", default=None,
                   help="output file (or directory for multi-member families)")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("paper-report",
                       help="recompute every recorded claim; nonzero exit on failure")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", default=None, help="also write the document here")
    p.add_argument("--only", default=None, help="restrict to claim ids with this prefix")
    p.set_defaults(fn=cmd_paper_report)

    p = sub.add_parser("operad-check", help="duality residual and dimension table")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(fn=cmd_operad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 1
    except RuntimeError as exc:
        # a certified check failed (e.g. B^2 outside Z^2): a defect, not bad input
        _note(f"internal error: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
