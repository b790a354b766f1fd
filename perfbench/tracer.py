"""Outside-in stage tracing for the nilrig benchmark.

The traced run replaces public nilrig functions *where the program looks
them up* (module attributes such as ``nilrig.cohom.coboundary_image_vectors``
or ``nilrig.report.chevalley_delta1``) with wrappers that record spans.
No file of the program changes, and `uninstall` restores every attribute.

A span is (name, start, end, parent, case).  Spans are kept in memory and
written out when the benchmark ends.  A span's self time is its duration
minus the time its child spans cover; whatever no program span covers
inside a case is reported as ``unattributed_s``.

Two stage pairs cannot be wrapped as single calls, because the program
interleaves them in one loop:

* Z-row generation and Z elimination (``for row in _z_rows(...):
  red.add(row)``).  The row-generator wrappers build the rows eagerly
  inside a ``cohom.z_rows`` span and hand back a replay iterator whose
  lifetime is the ``exactlin.z_elim`` span.
* B^2 elimination and the B^2-in-Z^2 check.  `RowReducer` is replaced by
  a subclass that spans `add` on the B^2 reducer and every `in_kernel`,
  `residual` and `kernel_basis_sparse` call.

Counters are read from the public state of the reducers after the pass
(`rows_seen`, `pivots`, `rank`), so they repeat exactly for a fixed seed.
A wrapped name that the program no longer has is listed in `missing`
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

# (module, attribute, span name): plain call wrappers
CALL_TARGETS = [
    ("nilrig.cohom", "space_dims", "cohom.space_dims"),
    ("nilrig.report", "space_dims", "cohom.space_dims"),
    ("nilrig.cohom", "coboundary_rank", "cohom.coboundary_rank"),
    ("nilrig.cohom", "coboundary_image_vectors", "cohom.d1_images"),
    ("nilrig.cohom", "jacobi_defect", "liealg.validate"),
    ("nilrig.cohom", "two_step_defect", "liealg.validate"),
    ("nilrig.cohom", "three_step_defect", "liealg.validate"),
    ("nilrig.report", "jacobi_defect", "liealg.validate"),
    ("nilrig.report", "two_step_defect", "liealg.validate"),
    ("nilrig.report", "three_step_defect", "liealg.validate"),
    ("nilrig.report", "chevalley_delta1", "cohom.concrete"),
    ("nilrig.report", "chevalley_delta2", "cohom.concrete"),
    ("nilrig.report", "ch_delta2", "cohom.concrete"),
    ("nilrig.report", "r_delta2", "cohom.concrete"),
    ("nilrig.cohom", "comp1", "cohom.concrete"),
    ("nilrig.report", "characteristic_sequence", "liealg.charseq"),
    ("nilrig.report", "derivation_algebra_dim", "liealg.derivation_dim"),
    ("nilrig.liealg", "basis_change", "liealg.basis_change"),
]

# row generators called by `_z_rows` and `ch_kernel_contained_in_chevalley`
ROW_TARGETS = [
    ("nilrig.cohom", "chevalley2_rows"),
    ("nilrig.cohom", "t_operator_rows"),
    ("nilrig.cohom", "r2_rows"),
]

# modules whose `RowReducer` attribute is replaced by the traced subclass
REDUCER_MODULES = ["nilrig.cohom", "nilrig.liealg"]

CASE = "bench.case"
CLAIM = "report.claim"


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    case: str | None
    label: str | None = None   # claim id of a report.claim span
    reducers_made: int = 0


@dataclass
class ReducerRecord:
    role: str          # "z" (Z system of space_dims) or "b2"
    owner: int         # index of the enclosing space_dims / coboundary_rank span
    reducer: object


@dataclass
class DimsRecord:
    span: int
    size: int          # unknowns of the Z system, n^2 (n - 1) / 2
    z2: int
    b2: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    case: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    reducers: list[ReducerRecord] = field(default_factory=list)
    dims: list[DimsRecord] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _restore: list[Callable[[], None]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), None, parent, self.case))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        # spans left open by an exception close with their ancestor
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = end
            if top == idx:
                break

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def run_case(self, case: str, fn: Callable[[], object]) -> object:
        self.case = case
        idx = self.open(CASE)
        try:
            return fn()
        finally:
            self.close(idx)
            self.case = None

    def _owner(self) -> int | None:
        """Innermost open program span."""
        for idx in reversed(self.stack):
            if self.spans[idx].name != CASE:
                return idx
        return None

    # -- installing wrappers -----------------------------------------------

    def install(self) -> None:
        for modname, attr, name in CALL_TARGETS:
            self._patch(modname, attr, functools.partial(self._call_wrapper, name))
        for modname, attr in ROW_TARGETS:
            self._patch(modname, attr, self._rows_wrapper)
        for modname in REDUCER_MODULES:
            self._patch(modname, "RowReducer", self._reducer_class)
        self._patch_claims()

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, modname: str, attr: str, make) -> None:
        mod = importlib.import_module(modname)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.append(f"{modname}.{attr}")
            return
        setattr(mod, attr, make(orig))
        self._restore.append(lambda: setattr(mod, attr, orig))

    def _call_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.count(name + "_calls")
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "cohom.d1_images":
                tracer.count("cohom.d1_vectors", len(out))
            elif name == "cohom.space_dims":
                n = args[0].dim
                tracer.dims.append(DimsRecord(idx, n * n * (n - 1) // 2,
                                              out.z2_dim, out.b2_dim))
            return out

        return wrapped

    def _rows_wrapper(self, fn):
        tracer = self

        def replay(rows):
            # runs from the consumer's first next() to exhaustion, so the
            # consumer's RowReducer.add calls fall inside this span
            idx = tracer.open("exactlin.z_elim")
            try:
                yield from rows
            finally:
                tracer.close(idx)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = tracer.open("cohom.z_rows")
            try:
                rows = list(fn(*args, **kwargs))
            finally:
                tracer.close(idx)
            tracer.count("cohom.z_rows", len(rows))
            tracer.count("cohom.z_row_nnz", sum(len(r) for r in rows))
            return replay(rows)

        return wrapped

    def _reducer_class(self, base):
        tracer = self

        class TracedRowReducer(base):
            __slots__ = ("_bench_role",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                role = "other"
                owner = tracer._owner()
                if owner is not None:
                    span = tracer.spans[owner]
                    if span.name == "cohom.space_dims":
                        role = "z" if span.reducers_made == 0 else "b2"
                        span.reducers_made += 1
                    elif span.name == "cohom.coboundary_rank":
                        role = "b2"
                self._bench_role = role
                if role != "other":
                    tracer.reducers.append(ReducerRecord(role, owner, self))

            def add(self, row):
                if self._bench_role != "b2":
                    return super().add(row)
                idx = tracer.open("exactlin.b2_elim")
                try:
                    return super().add(row)
                finally:
                    tracer.close(idx)

            def in_kernel(self, vec):
                idx = tracer.open("cohom.containment")
                try:
                    return super().in_kernel(vec)
                finally:
                    tracer.close(idx)

            def residual(self, row):
                idx = tracer.open("exactlin.residual")
                try:
                    return super().residual(row)
                finally:
                    tracer.close(idx)

            def kernel_basis_sparse(self):
                idx = tracer.open("cohom.representatives")
                try:
                    return super().kernel_basis_sparse()
                finally:
                    tracer.close(idx)

        TracedRowReducer.__name__ = base.__name__
        TracedRowReducer.__qualname__ = base.__qualname__
        return TracedRowReducer

    def _patch_claims(self) -> None:
        """Wrap each claim where `run_claims` reads it: the `CLAIMS` list."""
        report = importlib.import_module("nilrig.report")
        claims = getattr(report, "CLAIMS", None)
        if claims is None:
            self.missing.append("nilrig.report.CLAIMS")
            return
        saved = list(claims)
        tracer = self

        def wrap(spec):
            fn = spec.fn

            @functools.wraps(fn)
            def wrapped(seed):
                idx = tracer.open(CLAIM)
                tracer.spans[idx].label = spec.id
                try:
                    return fn(seed)
                finally:
                    tracer.close(idx)

            return replace(spec, fn=wrapped)

        claims[:] = [wrap(s) for s in saved]
        self._restore.append(lambda: claims.__setitem__(slice(None), saved))

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its children's."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def reducer_counters(self, role: str) -> dict[str, int]:
        """Counters summed over the reducers of one role, from their state."""
        rows = pivots = nnz = num_bits = den_bits = 0
        for rec in self.reducers:
            if rec.role != role:
                continue
            red = rec.reducer
            rows += red.rows_seen
            pivots += red.rank
            for prow in red.pivots.values():
                nnz += len(prow)
                for v in prow.values():
                    num_bits = max(num_bits, abs(v.numerator).bit_length())
                    den_bits = max(den_bits, v.denominator.bit_length())
        return {"rows_fed": rows, "pivots": pivots, "pivot_nnz": nnz,
                "max_num_bits": num_bits, "max_den_bits": den_bits}

    def rank_mismatches(self) -> list[tuple[str, str]]:
        """(case, reason) where reducer ranks disagree with the dims that
        space_dims returned: Z pivots must be size - z2, B^2 pivots b2."""
        by_owner: dict[tuple[int, str], list[int]] = {}
        for rec in self.reducers:
            by_owner.setdefault((rec.owner, rec.role), []).append(rec.reducer.rank)
        bad = []
        for d in self.dims:
            case = self.spans[d.span].case
            z = by_owner.get((d.span, "z"), [])
            b = by_owner.get((d.span, "b2"), [])
            if z != [d.size - d.z2]:
                bad.append((case, f"Z pivots {z} != {d.size} - z2 {d.z2}"))
            if b != [d.b2]:
                bad.append((case, f"B2 pivots {b} != b2 {d.b2}"))
        return bad

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as name -> (value, unit)."""
        selft = self.self_times()
        by_name: dict[str, float] = {}
        unattributed = 0.0
        claims: list[tuple[str, float]] = []
        for span, t in zip(self.spans, selft):
            if span.name == CASE:
                unattributed += t
            else:
                by_name[span.name] = by_name.get(span.name, 0.0) + t
            if span.name == CLAIM:
                claims.append((span.label, span.end - span.start))

        def secs(name):
            return (by_name.get(name, 0.0), "s")

        def calls(name):
            return (self.counts.get(name, 0), "count")

        z = self.reducer_counters("z")
        m = {
            "cohom.d1_images_s": secs("cohom.d1_images"),
            "cohom.d1_calls": calls("cohom.d1_images_calls"),
            "cohom.d1_vectors": calls("cohom.d1_vectors"),
            "cohom.z_rows_s": secs("cohom.z_rows"),
            "cohom.z_rows": calls("cohom.z_rows"),
            "cohom.z_row_nnz": calls("cohom.z_row_nnz"),
            "cohom.containment_s": secs("cohom.containment"),
            "cohom.representatives_s": secs("cohom.representatives"),
            "cohom.concrete_s": secs("cohom.concrete"),
            "cohom.concrete_calls": calls("cohom.concrete_calls"),
            "cohom.space_dims_calls": calls("cohom.space_dims_calls"),
            "exactlin.z_elim_s": secs("exactlin.z_elim"),
            "exactlin.b2_elim_s": secs("exactlin.b2_elim"),
            "exactlin.rows_fed": (z["rows_fed"], "count"),
            "exactlin.pivots": (z["pivots"], "count"),
            "exactlin.zero_rows": (z["rows_fed"] - z["pivots"], "count"),
            "exactlin.useful_ratio": (z["pivots"] / z["rows_fed"] if z["rows_fed"] else 0.0,
                                      "ratio"),
            "exactlin.pivot_nnz": (z["pivot_nnz"], "count"),
            "exactlin.max_num_bits": (z["max_num_bits"], "bits"),
            "exactlin.max_den_bits": (z["max_den_bits"], "bits"),
            "exactlin.residual_s": secs("exactlin.residual"),
            "liealg.validate_s": secs("liealg.validate"),
            "liealg.charseq_s": secs("liealg.charseq"),
            "liealg.derivation_dim_s": secs("liealg.derivation_dim"),
            "liealg.basis_change_s": secs("liealg.basis_change"),
        }
        for k in range(1, 13):
            prefix = f"C{k:02d}."
            m[f"report.c{k:02d}_s"] = (sum((d for cid, d in claims if cid.startswith(prefix)), 0.0), "s")
        m["report.claim_max_s"] = (max((d for _, d in claims), default=0.0), "s")
        m["unattributed_s"] = (unattributed, "s")
        return m

    def per_case(self) -> list[dict]:
        """Wall time and self time by span name for each case."""
        selft = self.self_times()
        cases: dict[str, dict] = {}
        for span, t in zip(self.spans, selft):
            if span.case is None:
                continue
            entry = cases.setdefault(span.case, {"case": span.case, "self_s": {}})
            if span.name == CASE:
                entry["wall_s"] = span.end - span.start
                entry["unattributed_s"] = t
            else:
                entry["self_s"][span.name] = entry["self_s"].get(span.name, 0.0) + t
        return list(cases.values())

    def dump(self, path, record: dict) -> None:
        """Write the run record and every span, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": record}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.case, s.label]) + "\n")
