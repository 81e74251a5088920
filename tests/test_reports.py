"""The report model: the record rule, merging, exit codes and rendering."""

import pytest

from bfvkit.reports import FAIL, PASS, UNDECIDED, CheckLine, ValidationReport


def report(*statuses):
    rep = ValidationReport("t")
    rep.checks = [CheckLine(f"c{i}", s) for i, s in enumerate(statuses)]
    return rep


@pytest.mark.parametrize("statuses, code", [
    ((), 0),
    ((PASS, PASS), 0),
    ((PASS, FAIL), 1),
    ((UNDECIDED, PASS), 3),
    ((UNDECIDED, FAIL), 1),
    ((FAIL, UNDECIDED), 1),
])
def test_exit_code_fail_beats_undecided(statuses, code):
    assert report(*statuses).exit_code == code


def test_merge_prefixes_the_sub_report_title():
    top = ValidationReport("check")
    top.record("master-equation", True)
    sub = ValidationReport("lie")
    sub.record("jacobi", False, "(1,2,3;1) -> 2")
    sub.record_undecided("weak-master", "at bound 4")
    top.merge(sub)
    assert top.checks == [
        CheckLine("master-equation", PASS),
        CheckLine("lie.jacobi", FAIL, "(1,2,3;1) -> 2"),
        CheckLine("lie.weak-master", UNDECIDED, "at bound 4")]
    assert [c.name for c in sub.checks] == ["jacobi", "weak-master"]


def test_record_each_records_each_failure_or_one_pass():
    rep = ValidationReport("t")
    rep.record_each("jacobi", [])
    rep.record_each("jacobi", iter(["(1)", "(2)"]))
    rep.record_each("jacobi", [], ok=False)  # nothing: another check decided
    rep.record_each("jacobi", ["(3)"], ok=False)
    assert rep.checks == [CheckLine("jacobi", PASS), CheckLine("jacobi", FAIL, "(1)"),
                          CheckLine("jacobi", FAIL, "(2)"),
                          CheckLine("jacobi", FAIL, "(3)")]


def test_record_each_keeps_named_failures_in_order():
    rep = ValidationReport("t")
    rep.record_each("antisymmetry", [("index-range", "(4,1,1)"),
                                     ("antisymmetry", "(1,2,3)"),
                                     ("index-range", "(1,4,1)")])
    assert [(c.name, c.detail) for c in rep.checks] == [
        ("index-range", "(4,1,1)"), ("antisymmetry", "(1,2,3)"),
        ("index-range", "(1,4,1)")]
    assert not any(c.status == PASS for c in rep.checks)


def test_machine_lines_carry_a_detail_on_fail_only_and_text_lines_always():
    rep = ValidationReport("check")
    rep.record("a", True, "recorded=True (not verified)")
    rep.record("b", False, "(1,2)")
    rep.record_undecided("c", "beyond degree bound")
    rep.record("d", True)
    assert list(rep.lines("machine")) == [
        "check.a=pass", "check.b=fail (1,2)", "check.c=undecided", "check.d=pass"]
    assert list(rep.lines("text")) == [
        "check a: pass  [recorded=True (not verified)]", "check b: fail  [(1,2)]",
        "check c: undecided  [beyond degree bound]", "check d: pass"]
