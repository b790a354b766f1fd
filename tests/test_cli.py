import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from nilrig import families, liealg, sampling
from nilrig.cli import algebra_doc, main, parse_algebra, write_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


H3_DOC = {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "1"}}]}


# --- file format ------------------------------------------------------------

def test_parse_h3(tmp_path):
    path = tmp_path / "h3.json"
    write_doc(path, H3_DOC)
    assert parse_algebra(str(path)) == families.heisenberg(1)


def test_round_trip_rigid7(tmp_path):
    g = families.rigid_3step_7()
    path = tmp_path / "r7.json"
    write_algebra(g, str(path))
    assert parse_algebra(str(path)) == g


def test_write_is_canonical(tmp_path):
    g = families.rigid_2step("g9")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_algebra(g, str(p1))
    write_algebra(parse_algebra(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_unreduced_rationals_normalized(tmp_path):
    path = tmp_path / "x.json"
    write_doc(path, {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "2/4"}}]})
    g = parse_algebra(str(path))
    assert algebra_doc(g)["brackets"][0]["v"]["3"] == "1/2"


@pytest.mark.parametrize("doc,msg", [
    ({"dim": 3, "brackets": [{"i": 2, "j": 2, "v": {"3": "1"}}]}, "i < j"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 5, "v": {"3": "1"}}]}, "out of range"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"9": "1"}}]}, "out of range"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "1/0"}}]}, "bad rational"),
    ({"brackets": []}, "dim"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": 0.1}}]}, "bad rational 0.1"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": True}}]}, "bad rational True"),
    ({"dim": 3, "brackets": [{"i": 1.7, "j": 2, "v": {"3": "1"}}]}, "need integer fields"),
    ({"dim": True, "brackets": []}, "'dim' must be a nonnegative integer"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "1"}},
                             {"i": 1, "j": 2, "v": {"3": "2"}}]}, "brackets[1]: repeated bracket (1, 2)"),
    ({"dim": 3, "brackets": {"i": 1}}, "'brackets' must be a list"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["3"]}]}, "brackets[0]: 'v' must be an object"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"03": "1"}}]}, "image key '03' is not an index"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"+3": "1"}}]}, "image key '+3' is not an index"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {" 3": "1"}}]}, "image key ' 3' is not an index"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "1", "03": "1"}}]},
     "image key '03' is not an index"),
    # raw text: json.dump cannot write a repeated key
    pytest.param('{"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "5", "3": "1"}}]}',
                 "repeated key '3'", id="repeated-image-key"),
    pytest.param('{"dim": 3, "dim": 4, "brackets": []}', "repeated key 'dim'",
                 id="repeated-dim"),
    pytest.param({"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "\u0661"}}]},
                 "bad rational", id="non-ascii-digit"),
])
def test_parse_errors(tmp_path, doc, msg, capsys):
    path = tmp_path / "bad.json"
    if isinstance(doc, str):
        path.write_text(doc)
    else:
        write_doc(path, doc)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert msg in err


def _assert_os_error(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == \
        [err.splitlines()[-1]]


def test_validate_directory_is_an_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path))
    _assert_os_error(code, err)
    assert err.count("\n") == 1


def test_family_output_in_missing_directory(tmp_path, capsys):
    code, _, err = run(capsys, "family", "heisenberg", "1",
                       "-o", str(tmp_path / "missing" / "h.json"))
    _assert_os_error(code, err)
    assert err.count("\n") == 1


def test_paper_report_json_in_missing_directory(tmp_path, capsys):
    code, _, err = run(capsys, "paper-report", "--only", "C10.",
                       "--json", str(tmp_path / "missing" / "r.json"))
    _assert_os_error(code, err)
    # the file is opened before any claim runs
    assert err.count("\n") == 1
    assert "[PASS]" not in err and "[FAIL]" not in err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert f"{path}:2" in err


# --- commands ----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "h3.json"
    write_doc(path, H3_DOC)
    code, doc, _ = run(capsys, "validate", str(path))
    assert code == 0 and doc["valid"] is True


def test_validate_catches_non_lie(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_doc(path, {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "v": {"3": "1"}},
        {"i": 1, "j": 3, "v": {"1": "1"}},
    ]})
    code, doc, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert doc["jacobi_violations"] == [[1, 2, 3]]


def test_analyze_h5(tmp_path, capsys):
    path = tmp_path / "h5.json"
    write_algebra(families.heisenberg(2), str(path))
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert doc["nilindex"] == 2
    assert doc["characteristic_sequence"] == [2, 1, 1, 1]
    assert doc["derivation_algebra_dim"] == 15


def test_analyze_abelian(tmp_path, capsys):
    path = tmp_path / "a.json"
    write_doc(path, {"dim": 3, "brackets": []})
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 0 and doc["nilindex"] == 1


def test_analyze_zero_algebra(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_doc(path, {"dim": 0})
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert doc["lower_central_series_dims"] == [0]
    assert doc["nilindex"] == 0
    assert doc["characteristic_sequence"] == []


def test_analyze_rigid7(tmp_path, capsys):
    path = tmp_path / "r7.json"
    write_algebra(families.rigid_3step_7(), str(path))
    code, doc, _ = run(capsys, "analyze", str(path))
    assert doc["characteristic_sequence"] == [3, 3, 1]
    assert doc["characteristic_sequence_certified"] is True
    assert doc["lower_central_series_dims"] == [7, 4, 2, 0]


def test_analyze_non_lie_nilpotent_bracket_exits_1(tmp_path, capsys):
    # the lower central series reaches 0, but Jacobi fails on (X1, X2, X3)
    path = tmp_path / "bad.json"
    write_doc(path, {"dim": 5, "brackets": [
        {"i": 1, "j": 2, "v": {"3": "1"}}, {"i": 1, "j": 3, "v": {"4": "1"}},
        {"i": 2, "j": 3, "v": {"5": "1"}}, {"i": 2, "j": 4, "v": {"5": "1"}}]})
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert doc["jacobi_ok"] is False and doc["jacobi_violations"]
    assert not {"characteristic_sequence", "center_dim",
                "derivation_algebra_dim", "nilindex"} & set(doc)


def test_analyze_non_nilpotent_lie_algebra_exits_1(tmp_path, capsys):
    # sl2: a Lie algebra whose lower central series stops at g itself
    path = tmp_path / "sl2.json"
    write_doc(path, {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "v": {"3": "1"}}, {"i": 1, "j": 3, "v": {"2": "-1"}},
        {"i": 2, "j": 3, "v": {"1": "1"}}]})
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert doc["jacobi_ok"] is True
    assert doc["lower_central_series_dims"] == [3, 3]
    assert doc["nilindex_error"] == "series stabilized at nonzero ideal"
    assert "derivation_algebra_dim" not in doc


@pytest.mark.parametrize("g,f", [pytest.param(g, f, id=name)
                                 for name, _, g, f in sampling.arbitrary_basis_inputs()])
def test_analyze_changed_basis_matches_model(tmp_path, capsys, g, f):
    # every field of analyze is basis-free; dim Der is read off the B^2
    # step of space_dims, after its basis step, in both files
    docs = []
    for tag, a in (("model", g), ("changed", liealg.basis_change(g, f))):
        path = tmp_path / f"{tag}.json"
        write_algebra(a, str(path))
        code, doc, _ = run(capsys, "analyze", str(path))
        assert code == 0 and doc.pop("file") == str(path)
        docs.append(doc)
    assert docs[1] == docs[0]


def test_analyze_has_no_sampling_options(tmp_path, capsys):
    path = tmp_path / "h3.json"
    write_doc(path, H3_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--samples", "5"])
    assert exc.value.code == 2


def test_cohomology_h7(tmp_path, capsys):
    path = tmp_path / "h7.json"
    write_algebra(families.heisenberg(3), str(path))
    code, doc, _ = run(capsys, "cohomology", str(path), "--complex", "ch")
    assert code == 0
    assert doc["z2_dim"] == 21 and doc["h2_dim"] == 0
    assert doc["rigid_candidate"] is True


def test_cohomology_cr(tmp_path, capsys):
    path = tmp_path / "g.json"
    write_algebra(families.g_p01(2), str(path))
    code, doc, _ = run(capsys, "cohomology", str(path), "--complex", "cr")
    assert code == 0 and doc["h2_dim"] == 8


def test_cohomology_progress_lines(tmp_path, capsys, monkeypatch):
    # every _PROGRESS_ROWS Z rows, rows fed, rank and rate go to stderr;
    # g_k3k2k1(2,1,1) streams 558 Z rows in cr
    path = tmp_path / "g.json"
    write_algebra(families.g_k3k2k1(2, 1, 1), str(path))
    monkeypatch.setattr("nilrig.exactlin._PROGRESS_ROWS", 250)
    code, doc, err = run(capsys, "cohomology", str(path), "--complex", "cr")
    assert code == 0 and doc["z2_dim"] == 84
    lines = err.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "  rows processed: 250", "  rows processed: 500"]
    for line in lines:
        assert re.fullmatch(r"  rows processed: \d+, rank \d+, \d+ rows/s", line)


def test_cohomology_progress_lines_ch(tmp_path, capsys, monkeypatch):
    # the 2-step complex reports progress too: g_p1(5) streams 500 Z rows
    path = tmp_path / "g.json"
    write_algebra(families.g_p1(5), str(path))
    monkeypatch.setattr("nilrig.exactlin._PROGRESS_ROWS", 200)
    code, _, err = run(capsys, "cohomology", str(path), "--complex", "ch")
    assert code == 0
    assert [line.split(",")[0] for line in err.splitlines()] == [
        "  rows processed: 200", "  rows processed: 400"]


def test_cohomology_wrong_kind(tmp_path, capsys):
    path = tmp_path / "g.json"
    write_algebra(families.g_p01(2), str(path))
    code, _, err = run(capsys, "cohomology", str(path), "--complex", "ch")
    assert code == 1
    assert "not 2-step" in err and "X" in err


def test_cohomology_internal_error(tmp_path, capsys, monkeypatch):
    # a coboundary outside Z^2 is a defect of the program, not of the input
    path = tmp_path / "h3.json"
    write_doc(path, H3_DOC)
    not_a_cocycle = {0: Q(1)}  # phi(X1, X2) = X1: T(phi)(X1, X2, X2) = X3
    monkeypatch.setattr("nilrig.cohom.coboundary_image_vectors",
                        lambda g: [not_a_cocycle])
    code, doc, err = run(capsys, "cohomology", str(path), "--complex", "ch")
    assert code == 3 and doc is None
    assert err.splitlines() == ["internal error: coboundary fell outside the cocycle space"]


def test_cohomology_representatives(tmp_path, capsys):
    path = tmp_path / "h3.json"
    write_doc(path, H3_DOC)
    code, doc, _ = run(capsys, "cohomology", str(path), "--complex", "ch",
                       "--representatives")
    assert code == 0
    assert len(doc["representatives"]) == doc["z2_dim"] == 3
    rep = doc["representatives"][0]
    assert set(rep) == {"dim", "basis", "brackets"}


def test_deform_command(tmp_path, capsys):
    base = tmp_path / "base.json"
    write_algebra(families.g_k3k2k1(1, 0, 2), str(base))
    phi = tmp_path / "phi.json"
    # phi(X2,X3) = X5, phi(X2,X5) = X4: the product of the two obstructs
    write_doc(phi, {"dim": 5, "brackets": [
        {"i": 2, "j": 3, "v": {"5": "1"}},
        {"i": 2, "j": 5, "v": {"4": "1"}},
    ]})
    code, doc, _ = run(capsys, "deform", str(base), str(phi), "--steps", "3")
    assert code == 0
    by_name = {c["name"]: c for c in doc["conditions"]}
    assert doc["passes_all"] is False
    assert by_name["mixed_quadratic"]["pass"] is False
    assert len(by_name["mixed_quadratic"]["witness"]) == 4
    assert by_name["chevalley_cocycle"]["pass"] is True


def test_deform_zero_passes(tmp_path, capsys):
    base = tmp_path / "base.json"
    write_algebra(families.g_p1(2), str(base))
    phi = tmp_path / "phi.json"
    write_doc(phi, {"dim": 5, "brackets": []})
    code, doc, _ = run(capsys, "deform", str(base), str(phi), "--steps", "2")
    assert code == 0 and doc["passes_all"] is True


def test_deform_non_lie_base_exits_1(tmp_path, capsys):
    # Jacobi fails at (X1, X2, X3) while every triple bracket vanishes, so
    # only the Jacobi check rejects this base
    base = tmp_path / "base.json"
    write_doc(base, {"dim": 5, "brackets": [{"i": 1, "j": 2, "v": {"4": "1"}},
                                            {"i": 3, "j": 4, "v": {"5": "-1"}}]})
    phi = tmp_path / "phi.json"
    write_doc(phi, {"dim": 5, "brackets": []})
    code, doc, err = run(capsys, "deform", str(base), str(phi), "--steps", "3")
    assert code == 1 and doc is None
    assert err.splitlines() == ["error: not a Lie algebra: Jacobi fails at (X1,X2,X3)"]


def _conditions(*rows):
    return [{"name": name, "pass": witness is None, "witness": witness}
            for name, witness in rows]


@pytest.mark.parametrize("steps,base,brackets,expected", [
    (2, families.g_p1(2), [{"i": 1, "j": 2, "v": {"3": "5"}}],
     _conditions(("ch_cocycle", None), ("quadratic", None))),
    (2, families.g_p1(2), [{"i": 1, "j": 2, "v": {"1": "1"}},
                           {"i": 1, "j": 3, "v": {"2": "-1/2"}},
                           {"i": 3, "j": 4, "v": {"5": "1"}}],
     _conditions(("ch_cocycle", [1, 2, 1]), ("quadratic", [1, 2, 2]))),
    (3, families.g_k3k2k1(1, 0, 2), [{"i": 2, "j": 3, "v": {"5": "1"}}],
     _conditions(("chevalley_cocycle", None), ("jacobiator_square", None),
                 ("r_cocycle", None), ("mixed_quadratic", None), ("cubic", None))),
    (3, families.g_k3k2k1(1, 0, 2), [{"i": 1, "j": 2, "v": {"1": "1"}},
                                     {"i": 1, "j": 3, "v": {"2": "1"}},
                                     {"i": 2, "j": 5, "v": {"4": "1", "5": "1"}}],
     _conditions(("chevalley_cocycle", [1, 2, 3]), ("jacobiator_square", [1, 2, 3]),
                 ("r_cocycle", [1, 2, 1, 1]), ("mixed_quadratic", [1, 2, 1, 1]),
                 ("cubic", [1, 2, 2, 2]))),
], ids=["2-pass", "2-fail", "3-pass", "3-fail"])
def test_deform_condition_names_order_and_witnesses(tmp_path, capsys, steps, base, brackets,
                                                    expected):
    # the whole printed contract: each condition's name, its place in the
    # list, its verdict and its first failing argument tuple (1-based)
    base_path, phi_path = tmp_path / "base.json", tmp_path / "phi.json"
    write_algebra(base, str(base_path))
    write_doc(phi_path, {"dim": base.dim, "brackets": brackets})
    code, doc, _ = run(capsys, "deform", str(base_path), str(phi_path), "--steps", str(steps))
    assert code == 0
    assert doc == {"base": str(base_path), "phi": str(phi_path), "steps": steps,
                   "conditions": expected,
                   "passes_all": all(c["pass"] for c in expected)}


def test_deform_dim_mismatch(tmp_path, capsys):
    base = tmp_path / "base.json"
    write_algebra(families.g_p1(2), str(base))
    phi = tmp_path / "phi.json"
    write_doc(phi, {"dim": 4, "brackets": []})
    code, _, err = run(capsys, "deform", str(base), str(phi), "--steps", "2")
    assert code == 1 and "mismatch" in err


def test_family_single(tmp_path, capsys):
    out = tmp_path / "h7.json"
    code, doc, _ = run(capsys, "family", "heisenberg", "3", "-o", str(out))
    assert code == 0
    assert doc["written"] == [str(out)]
    assert parse_algebra(str(out)) == families.heisenberg(3)
    assert doc["algebras"][0]["characteristic_sequence"] == [2, 1, 1, 1, 1, 1]


def test_family_g_k3k2k1(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, doc, _ = run(capsys, "family", "g-k3k2k1", "2", "1", "1", "-o", str(out))
    assert code == 0
    assert doc["algebras"][0]["dim"] == 9


@pytest.mark.parametrize("name,spellings,label", [
    ("g-p1", ("3", "03"), "g_3_1"),
    ("g-p01", ("2", "002"), "g_2_0_1"),
], ids=["g-p1", "g-p01"])
def test_family_label_normalises_parameter(tmp_path, monkeypatch, capsys, name, spellings,
                                           label):
    """Every spelling of one integer names the same member and file."""
    for k, param in enumerate(spellings):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, doc, _ = run(capsys, "family", name, param)
        assert code == 0
        assert doc["algebras"][0]["label"] == label
        assert doc["written"] == [f"{label}.json"]
        assert os.listdir(".") == [f"{label}.json"]


def test_family_classification(tmp_path, capsys):
    outdir = tmp_path / "members"
    code, doc, _ = run(capsys, "family", "classification-F731", "-o", str(outdir))
    assert code == 0
    assert len(doc["written"]) == 16
    algs = families.classification_F731()
    for k, path in enumerate(doc["written"]):
        assert parse_algebra(path) == algs[k]


def test_family_errors(capsys):
    code, _, err = run(capsys, "family", "unknown-family")
    assert code == 1 and "unknown family" in err
    code, _, err = run(capsys, "family", "heisenberg")
    assert code == 1 and "parameter" in err


def test_operad_check(capsys):
    code, doc, _ = run(capsys, "operad-check", "--order", "8")
    assert code == 0
    assert doc["residual_zero"] is True
    assert doc["dual_dims"][:4] == [1, 1, 3, 15]
    assert all(c == "0" for c in doc["residual_coeffs"])
    assert {"operad": "AssCubic", "arity": 4, "dim": 24,
            "note": "left-combed words survive"} in doc["table"]


def test_operad_check_low_order(capsys):
    code, doc, _ = run(capsys, "operad-check", "--order", "2")
    assert code == 0 and doc["residual_zero"] is True
    code, _, err = run(capsys, "operad-check", "--order", "1")
    assert code == 1


def test_paper_report_subset(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, doc, err = run(capsys, "paper-report", "--only", "C10",
                         "--json", str(out))
    assert doc["summary"]["total"] == 3
    assert code == (0 if doc["summary"]["failed"] == 0 else 2)
    assert doc["summary"]["failed"] == 0 and code == 0
    saved = json.loads(out.read_text())
    assert saved["claims"] == doc["claims"]
    assert all("PASS" in line or "FAIL" in line
               for line in err.strip().splitlines() if line.startswith("["))
    ids = [row["id"] for row in doc["claims"]]
    assert ids == sorted(ids)
    for row in doc["claims"]:
        assert row["pass"] == (row["expected"] == row["computed"])


def test_paper_report_shows_recorded_target(capsys):
    # a row whose recorded target is refuted asserts the certified value and
    # still shows the recorded one
    code, doc, err = run(capsys, "paper-report", "--only", "C05.h2-ch-2p-family.p2")
    [row] = doc["claims"]
    assert code == 0 and row["pass"]
    assert (row["expected"], row["computed"]) == ("h2=2", "h2=2")
    assert row["detail"]["recorded"] == "h2=1"
    assert "expected 'h2=2', computed 'h2=2', recorded 'h2=1'" in err


def test_paper_report_unknown_prefix(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, doc, err = run(capsys, "paper-report", "--only", "NOPE", "--json", str(out))
    assert code == 1 and doc is None
    assert err == "error: no claim id starts with 'NOPE'\n"
    assert not out.exists()


def _run_script(name, *argv):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(root / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("name, argv, summary", [
    # an explicit id keeps each case's id stable when scripts come and go
    pytest.param("cohomology_table.py", ["--max-p", "1"], r"13 rows, 8 rigid candidates",
                 id="cohomology_table.py-argv1-13 rows, 8 rigid candidates"),
])
def test_script_smoke(name, argv, summary):
    proc = _run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(summary, proc.stdout.strip().splitlines()[-1])


def test_paper_report_exit_code_semantics(capsys):
    # the C07 bound row is a known-failing recorded target
    code, doc, _ = run(capsys, "paper-report", "--only", "C07")
    assert doc["summary"]["failed"] == 1
    assert code == 2
