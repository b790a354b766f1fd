"""Acceptance gate: every recorded claim is recomputed exactly and
compared as a string, tolerance zero.  One line is printed per criterion.

Where a certificate in tests/test_cohom.py proves a recorded target wrong
and the dense oracle agrees (one row of criterion 5, all rows of
criterion 6), the row asserts the certified value and prints the recorded
target after it.  Three criteria still FAIL on their recorded targets:
3 (rows h8 and h10), 7 and 8.  The repository does not hold the paper's
bracket tables and statements that would settle them; their computed
values are certified in tests/test_cohom.py.  See README.md.
"""

import pytest

from nilrig import report

from helpers import criterion_rows

CRITERIA = {
    1: "Heisenberg CH dimensions",
    2: "normalized 221-pattern counts",
    3: "rigid 2-step algebras have H2_CH = 0",
    4: "non-rigidity of the 11-dim model",
    5: "H2_CH of the (2,..,2,1,1) models",
    6: "CR dimensions of the 3-step models",
    7: "CR coboundary bound on the dim-7 family",
    8: "the rigid 7-dim 3-step algebra",
    9: "the 16-member dim-7 classification",
    10: "operad dimension sequences and duality",
    11: "structural property suites",
    12: "Jordan linearized identities",
}


@pytest.fixture(scope="module")
def full_report():
    return report.run_claims()


def _check(full_report, criterion: int):
    rows = criterion_rows(full_report, criterion)
    assert rows, f"no claims registered for criterion {criterion}"
    ok = all(r["pass"] for r in rows)
    print(f"ACCEPTANCE criterion {criterion} ({CRITERIA[criterion]}): "
          f"{'PASS' if ok else 'FAIL'}")
    for r in rows:
        marker = "ok " if r["pass"] else "FAIL"
        print(f"  [{marker}] {report.row_line(r)}")
    failing = [(r["id"], r["expected"], r["computed"]) for r in rows if not r["pass"]]
    assert not failing, f"criterion {criterion} rows diverged: {failing}"


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(full_report, criterion):
    _check(full_report, criterion)
