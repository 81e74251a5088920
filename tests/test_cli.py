"""CLI dispatch, formats, determinism and exit codes."""

import json
from pathlib import Path

import pytest

from bfvkit import cli
from bfvkit.cli import main
from bfvkit.engine import ChargeSeries
from bfvkit.grammar import parse
from bfvkit.presets import PRESET_NAMES, load_preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_master_so3_passes(capsys):
    code, out = run_cli(capsys, "master", "--scenario", "so3-classical",
                        "--format", "machine")
    assert code == 0
    assert "residual=0" in out
    assert "check.master-equation=pass" in out


def test_master_corrupted_fails(tmp_path, capsys):
    doc = load_preset("so3-classical")
    doc["lie"]["c"] = [[1, 2, 3, 2], [2, 3, 1, 1], [3, 1, 2, 1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "master", "--scenario", str(path),
                        "--format", "machine")
    assert code == 1
    assert "check.master-equation=fail" in out


def test_parse_error_exit_code(tmp_path, capsys):
    doc = load_preset("abelian-translation")
    doc["pi"] = "1 * q1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 2


def test_unknown_key_exit_code(tmp_path, capsys):
    doc = load_preset("abelian-translation")
    doc["zzz"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 2


def test_machine_output_deterministic(capsys):
    _code, first = run_cli(capsys, "extend", "--scenario", "aff1-bialgebra",
                           "--kmax", "2", "--format", "machine")
    _code, second = run_cli(capsys, "extend", "--scenario", "aff1-bialgebra",
                            "--kmax", "2", "--format", "machine")
    assert first == second
    assert "exact=false" in first
    assert "residual.bound=-2" in first


def test_extend_bialgebra_series_shape(capsys):
    code, out = run_cli(capsys, "extend", "--scenario", "aff1-bialgebra",
                        "--kmax", "2", "--ansatz-degree", "4",
                        "--format", "machine")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["series.-1"] != "0"
    assert int(lines["residual.bound"]) <= -2


def test_validate_fails_on_non_antisymmetric_chi(tmp_path, capsys):
    # chi_{213} is given as +1 next to chi_{123} = 1, so completion keeps it
    doc = load_preset("quasi-chi")
    doc["lie"]["chi"] = [[1, 2, 3, 1], [2, 1, 3, 1]]
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "--scenario", str(path),
                        "--format", "machine")
    assert code == 1
    fails = [l for l in out.splitlines() if "chi-antisymmetry" in l]
    assert fails == [f"check.quasi.chi-antisymmetry=fail {idx}"
                     for idx in ("(1,2,3)", "(2,1,3)", "(2,3,1)")]
    assert "check.quasi.double-jacobi=pass" not in out


def test_validate_reports_out_of_range_entries(tmp_path, capsys):
    # dim_g = 3: completion gives chi six and a two entries, each out of range
    doc = load_preset("quasi-chi")
    doc["lie"]["chi"] = [[1, 2, 4, 1]]
    doc["lie"]["a"] = [[1, 2, 5, 1]]
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "--scenario", str(path),
                        "--format", "machine")
    assert code == 1
    lines = out.splitlines()
    # each failure keeps its index, so no two lines are alike
    ranges = [l for l in lines if "index-range" in l]
    assert len(set(ranges)) == len(ranges) == 10
    assert [l for l in ranges if "bialgebra" in l] == [
        "check.bialgebra.index-range=fail (1,2,5)",
        "check.bialgebra.index-range=fail (1,5,2)"]
    assert {l for l in ranges if "quasi" in l} == {
        f"check.quasi.index-range=fail {idx}" for idx in (
            "(1,2,5)", "(1,5,2)", "(1,2,4)", "(1,4,2)", "(2,1,4)", "(2,4,1)",
            "(4,1,2)", "(4,2,1)")}
    assert "check.quasi.double-jacobi=pass" not in lines
    assert "check.bialgebra.cobracket-antisymmetry=pass" not in lines
    code, out = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1
    for entry in ("(1,2,5)", "(1,5,2)", "(1,2,4)", "(4,2,1)"):
        assert f"check quasi.index-range: fail  [{entry}]" in out
    assert "check bialgebra.index-range: fail  [(1,2,5)]" in out


def test_validate_reports_out_of_range_module_entry(tmp_path, capsys):
    # the adjoint action of so(3) written out, plus one entry with p = 4
    doc = load_preset("so3-classical")
    cyc = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    doc["lie"]["d"] = ([[i, j, k, 1] for i, j, k in cyc]
                       + [[j, i, k, -1] for i, j, k in cyc] + [[1, 1, 4, 1]])
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert "check module.index-range: fail  [(1,1,4)]" in out
    assert "check module.morphism: pass" in out


def test_exponent_past_the_cap_is_a_schema_error(tmp_path, capsys):
    doc = load_preset("abelian-translation")
    doc["pi"] = "1 * x1^128 e1 e2"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["charge", "--scenario", str(path)]) == 2
    assert "key 'pi'" in capsys.readouterr().err
    doc["pi"] = "1 * x1^127 e1 e2"
    path.write_text(json.dumps(doc))
    assert main(["charge", "--scenario", str(path)]) == 0


def test_zero_denominator_is_a_schema_error(tmp_path, capsys):
    doc = load_preset("so3-classical")
    doc["pi"] = "1/0 * x1 e2"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "key 'pi'" in err and "zero denominator" in err


@pytest.mark.parametrize("kind", ["truncated file", "inline", "directory"])
def test_unreadable_document_is_a_usage_error(tmp_path, capsys, kind):
    if kind == "truncated file":
        path = tmp_path / "cut.json"
        path.write_text('{"kind": ')
        scenario = str(path)
    elif kind == "inline":
        scenario = "{"
    else:
        scenario = str(tmp_path)
    assert main(["validate", "--scenario", scenario]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _so3_out_of_range(where):
    """so3-classical with one structure constant indexing past dim_g = 3:
    in ``c``, or in the adjoint ``d`` written out."""
    doc = load_preset("so3-classical")
    if where == "c":
        doc["lie"]["c"] = doc["lie"]["c"] + [[1, 2, 4, 1]]
    else:
        cyc = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        doc["lie"]["d"] = ([[i, j, k, 1] for i, j, k in cyc]
                           + [[j, i, k, -1] for i, j, k in cyc] + [[1, 1, 4, 1]])
    return doc


@pytest.mark.parametrize("where, key, entry", [("c", "lie.c", "(1,2,4)"),
                                               ("d", "lie.d", "(1,1,4)")])
def test_out_of_range_constants_are_schema_errors(tmp_path, capsys, where,
                                                  key, entry):
    # validate reports the entry and exits 1; every command that builds
    # the charge refuses the document as a usage error naming the entry
    path = tmp_path / "range.json"
    path.write_text(json.dumps(_so3_out_of_range(where)))
    code, out = run_cli(capsys, "validate", "--scenario", str(path),
                        "--format", "machine")
    assert code == 1
    assert f"index-range=fail {entry}" in out
    commands = [("charge",), ("master",), ("lift",), ("extend",)]
    if where == "c":
        commands += [("charge", "--bfv0"), ("master", "--bfv0")]
    for cmd in commands:
        code = main([cmd[0], "--scenario", str(path), *cmd[1:]])
        err = capsys.readouterr().err
        assert code == 2, cmd
        assert f"key '{key}'" in err and entry in err, cmd


def test_out_of_range_cobracket_is_a_schema_error(tmp_path, capsys):
    # the closed-form lift indexed psi with the entry: lift, extend and
    # probe-h0 died of an IndexError (exit 1, with a traceback)
    doc = load_preset("quasi-chi")
    doc["lie"]["a"] = [[1, 2, 5, 1]]
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    for cmd in ("lift", "extend", "probe-h0"):
        assert main([cmd, "--scenario", str(path)]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "key 'lie.a': index-range: entry (1,2,5) is out of range" in captured.err


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["psi"].pop(), "psi length must equal dim g"),
    (lambda doc: doc.update(pi="1 * x1 e1"),
     "pi must be homogeneous of function degree 2")], ids=["two-psi", "pi-degree-1"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_shape_mismatch_is_a_usage_error(tmp_path, capsys, change, message, command):
    # both exited 1 on every command, as if a check had failed
    doc = load_preset("so3-classical")
    change(doc)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: ShapeMismatch: {message}" in captured.err


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_validate_all_presets(capsys, name):
    code, _out = run_cli(capsys, "validate", "--scenario", name,
                         "--format", "machine")
    assert code == 0


def test_probe_abelian_zero_table(capsys):
    code, out = run_cli(capsys, "probe-h0", "--scenario", "abelian-translation",
                        "--degree", "3", "--format", "machine")
    assert code == 0
    table_lines = [l for l in out.splitlines() if l.startswith("probe.ell2.")]
    assert table_lines
    assert all(l.endswith("=0") for l in table_lines)


@pytest.mark.parametrize("degree, dims", [
    (4, ("4200", "491", "482", "9")),
    (5, ("9240", "1355", "1346", "9")),
])
def test_probe_so3_bounded_outcome(capsys, degree, dims):
    # the probe op of the benchmark (degree 4) and the next bound: each
    # exits 3 with 20 l_2 entries undecided at the bound
    code, out = run_cli(capsys, "probe-h0", "--scenario", "so3-classical",
                        "--degree", str(degree), "--format", "machine")
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 3
    assert tuple(lines[f"probe.dim.{k}"]
                 for k in ("space", "kernel", "image", "h0")) == dims
    undecided = [k for k, v in lines.items()
                 if k.startswith("check.probe.closure.") and v == "undecided"]
    assert len(undecided) == 20 and lines["check.probe.closure"] == "undecided"


def test_probe_rejects_charge_whose_l1_does_not_square_to_zero(monkeypatch, capsys):
    # c1 e1 added to the charge keeps l_1 inside K, but l_1^2 x1 != 0: an
    # internal error, exit 1, with nothing printed as a probe result
    real = cli._series

    def perturbed(scenario, kmax, ansatz_degree):
        series = real(scenario, kmax, ansatz_degree)
        return ChargeSeries(Q=series.Q + parse(scenario.table, "1 * c1 e1"),
                            terms=series.terms)

    monkeypatch.setattr(cli, "_series", perturbed)
    code = main(["probe-h0", "--scenario", "so3-classical", "--degree", "2",
                 "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 1 and "probe.dim" not in captured.out
    assert captured.err == "error: InternalSignError: l_1^2 != 0 on x1\n"


def test_bch_so3(capsys):
    code, out = run_cli(capsys, "bch", "--scenario", "group-valued-so3",
                        "--order", "3", "--format", "machine")
    assert code == 0
    assert "check.bch.log-transport=pass" in out
    assert "check.bch.constraint-transport=pass" in out


def test_bch_failure_exit_code(tmp_path, capsys):
    doc = load_preset("group-valued-so3")
    doc["psi"][0] = doc["psi"][1]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "bch", "--scenario", str(path), "--order", "3",
                        "--format", "machine")
    assert code == 1
    assert ("check.bch.constraint-transport=fail first failing order 1"
            in out.splitlines())


def test_bch_not_group_valued_is_usage_error(capsys):
    code = main(["bch", "--scenario", "so3-classical", "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "ShapeMismatch" in captured.err
    assert "requires a group_valued scenario" in captured.err


def test_bch_order_past_the_truncation_is_usage_error(capsys):
    # group-valued-so3 cuts its constraints at order 4: order 5 would pass
    # terms it never tests
    code = main(["bch", "--scenario", "group-valued-so3", "--order", "5",
                 "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("ShapeMismatch: bch order 5 exceeds the truncation order 4"
            in captured.err)
    code, out = run_cli(capsys, "bch", "--scenario", "group-valued-so3",
                        "--order", "4", "--format", "machine")
    assert code == 0
    assert "check.bch.constraint-transport=pass" in out.splitlines()


def test_charge_bfv0(capsys):
    code, out = run_cli(capsys, "charge", "--scenario", "so3-classical",
                        "--bfv0", "--format", "machine")
    assert code == 0
    assert "charge=" in out
    assert "C1" not in out  # no h-ghosts in the degree-zero model


def test_jacobi_quasi(capsys):
    code, out = run_cli(capsys, "jacobi", "--scenario", "quasi-chi",
                        "--format", "machine")
    assert code == 0
    assert "check.homotopy-jacobi=pass" in out


def test_lift_classical(capsys):
    code, out = run_cli(capsys, "lift", "--scenario", "so3-classical",
                        "--format", "machine")
    assert code == 0
    assert "check.lift-closed=pass" in out


def test_usage_error(capsys):
    assert main(["master"]) == 2  # missing --scenario


def test_one_parser_serves_every_call(capsys):
    # a usage error, --help and a valid command give, one after another in
    # one process, what each gives as the first call of a fresh process
    calls = (["extend", "--scenario", "quasi-chi", "--kmax", "-1"], ["--help"],
             ["charge", "--scenario", "so3-classical", "--format", "machine"])
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == first
    assert [code for code, _out in first] == [2, 0, 0]
    assert first[1][1].startswith("usage: bfvkit") and "charge=" in first[2][1]


@pytest.mark.parametrize("command, option", [
    ("extend", "--kmax"), ("lift", "--ansatz-degree"),
    ("probe-h0", "--degree"), ("bch", "--order")])
def test_negative_bound_is_usage_error(capsys, command, option):
    # a negative bound used to run no comparison and print every check as pass
    code = main([command, "--scenario", "group-valued-so3", option, "-1",
                 "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be non-negative" in captured.err


@pytest.mark.parametrize("name, key, value", [
    ("so3-classical", "degree_bound", "abc"),
    ("so3-classical", "degree_bound", 2.7),
    ("so3-classical", "degree_bound", -1),
    ("group-valued-so3", "truncation_order", -1)])
def test_document_bound_must_be_non_negative_int(tmp_path, capsys, name, key,
                                                 value):
    # a bound that is not a non-negative int would otherwise reach the
    # solvers: int("abc") raises, 2.7 truncates and -1 poses no column
    doc = load_preset(name)
    doc[key] = value
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--scenario", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"key '{key}': must be a non-negative integer" in captured.err


@pytest.mark.parametrize("name, where, value, key, argv", [
    ("so3-classical", ("n",), "abc", "n", ["validate"]),
    ("so3-classical", ("lie", "dim_g"), "x", "lie.dim_g", ["validate"]),
    ("so3-classical", ("lie", "c", 0), [1, "a", 1, 1], "lie.c", ["validate"]),
    ("abelian-translation", ("n",), 2.5, "n", ["validate"]),
    ("quasi-chi", ("lie", "dim_h"), -2, "lie.dim_h", ["validate"]),
    ("so3-classical", ("bfv0_pairs", 0), [1, "4"], "bfv0_pairs",
     ["charge", "--bfv0"])],
    ids=["n-abc", "dim_g-x", "c-index-a", "n-2.5", "dim_h--2", "bfv0_pairs-4"])
def test_document_integers_must_be_ints(tmp_path, capsys, name, where, value,
                                        key, argv):
    # int() raised a ValueError traceback on "abc", "x" and "a", read 2.5
    # as 2 (validate passed) and let -2 reach the shape checks (exit 1)
    doc = load_preset(name)
    *parents, last = where
    field = doc
    for step in parents:
        field = field[step]
    field[last] = value
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    code = main(argv + ["--scenario", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"key '{key}': must be " in captured.err


@pytest.mark.parametrize("name, where, value, key, argv", [
    ("so3-classical", ("bfv0_pairs",), [[1, 7], [2, 5], [3, 6]], "bfv0_pairs",
     ["charge", "--bfv0"]),
    ("so3-classical", ("bfv0_pairs",), [[1, 4], [1, 5], [3, 6]], "bfv0_pairs",
     ["charge", "--bfv0"]),
    ("so3-classical", ("lie", "c"), [5], "lie.c", ["validate"]),
    ("so3-classical", ("lie", "c"), 5, "lie.c", ["validate"])],
    ids=["bfv0-index-past-n", "bfv0-index-twice", "c-row-not-a-list",
         "c-not-a-list"])
def test_malformed_document_entries_are_schema_errors(tmp_path, capsys, name,
                                                      where, value, key, argv):
    # the index past n raised a KeyError, the repeated index a ValueError
    # and the non-list rows a TypeError: exit 1 with a traceback
    doc = load_preset(name)
    *parents, last = where
    field = doc
    for step in parents:
        field = field[step]
    field[last] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main(argv + ["--scenario", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"key '{key}': expected " in captured.err


def widen_phi(doc):
    # 1 * x1 appended to every row of phi: 3 x 4, whose fourth column was
    # ignored, so validate and bch exited 0
    doc["phi"] = [row + ["1 * x1"] for row in doc["phi"]]


def append_to_phi(doc, text):
    doc["phi"][0][1] += text


def shrink_basis_matrix(doc):
    doc["basis_matrices"][1] = [row[:2] for row in doc["basis_matrices"][1][:2]]


@pytest.mark.parametrize("change, key, message", [
    (widen_phi, "phi", "expected a square matrix, rows of [4, 4, 4]"),
    (lambda doc: doc["phi"].pop(), "phi", "expected a square matrix"),
    (shrink_basis_matrix, "basis_matrices",
     "expected 3 x 3 matrices, the size of phi"),
    # bch died of a TypeError (exit 1), validate of a ShapeMismatch (exit 1)
    (lambda doc: doc.pop("phi"), "phi", "required for group_valued scenarios"),
    (lambda doc: doc.pop("basis_matrices"), "basis_matrices",
     "required for group_valued scenarios"),
    # validate said NotNearIdentity (exit 1); every command died with
    # "ValueError: polynomial is not constant" and a traceback
    (lambda doc: append_to_phi(doc, " + 1 * e1"), "phi[0][1]",
     "must use base generators only"),
    (lambda doc: append_to_phi(doc, " + 1 * x1 e2 e3"), "phi[0][1]",
     "must use base generators only")],
    ids=["phi-3x4", "phi-2x3", "basis-matrix-2x2", "no-phi", "no-basis-matrices",
         "phi-fiber", "phi-mixed"])
@pytest.mark.parametrize("argv", [["validate"], ["bch", "--order", "3"]])
def test_group_valued_matrix_shapes_are_schema_errors(tmp_path, capsys, change,
                                                      key, message, argv):
    doc = load_preset("group-valued-so3")
    change(doc)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    code = main(argv + ["--scenario", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"key '{key}': {message}" in captured.err


def test_bch_without_psi_is_usage_error(tmp_path, capsys):
    # psi[i - 1] raised an IndexError: exit 1 with a traceback
    doc = load_preset("group-valued-so3")
    doc["psi"] = []
    path = tmp_path / "nopsi.json"
    path.write_text(json.dumps(doc))
    code = main(["bch", "--scenario", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "ShapeMismatch: bch_transport_check needs one psi" in captured.err


@pytest.mark.parametrize("name", ["aff1-bialgebra", "quasi-chi",
                                  "abelian-translation", "group-valued-so3"])
@pytest.mark.parametrize("command", ["charge", "master"])
def test_bfv0_without_one_moment_per_generator_is_usage_error(capsys, name,
                                                              command):
    code = main([command, "--scenario", name, "--bfv0", "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "one moment component per Lie algebra generator" in captured.err


def test_charge_deg1_abelian(capsys):
    code, out = run_cli(capsys, "charge", "--scenario", "abelian-translation",
                        "--format", "machine")
    assert code == 0
    assert "charge=1 * e2 c1" in out
    assert "charge.grades=(1,2)" in out


def test_brackets_command(capsys):
    code, out = run_cli(capsys, "brackets", "--scenario", "abelian-translation",
                        "--format", "machine")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["ell1.x2"] == "-1 * c1"
    assert lines["ell2.x1.x2"] == "1"
    assert lines["ell2.x2.x1"] == "-1"


def test_membership_undecided_exit_code(tmp_path, capsys):
    # cofactor needs base degree 2 but the bound is 0: undecided, exit 3
    doc = load_preset("abelian-translation")
    doc["pi"] = "1 * x1^2 x2 e1 e2"
    doc["degree_bound"] = 0
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", "--scenario", str(path),
                        "--format", "machine")
    assert code == 3
    assert "check.compatibility.normalizer.psi1=undecided" in out


def test_machine_output_identical_across_processes(tmp_path):
    # determinism must not depend on hash randomization
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "424242"):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
               "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "bfvkit.cli", "extend",
             "--scenario", "aff1-bialgebra", "--kmax", "2",
             "--format", "machine"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_brackets_and_jacobi_print_the_per_pair_loops(capsys, name):
    # the old loops: l_1 per generator, l_2 per ordered pair (zeros
    # skipped), the residual per base triple i < j < k
    from itertools import combinations

    from bfvkit.generators import Kind
    from bfvkit.grammar import serialize
    from bfvkit.homotopy import BracketTower, jacobi_residuals

    code, out = run_cli(capsys, "brackets", "--scenario", name,
                        "--format", "machine")
    assert code == 0
    scenario = cli._load_scenario(name)[1]
    tower = BracketTower(cli._series(scenario, 2, 4))
    gens = cli._lagrangian_generators(scenario)
    lines = [f"ell1.{n}={serialize(tower.ell(1, [g]))}" for n, g in gens]
    lines += [f"ell2.{n1}.{n2}={serialize(v)}" for n1, g1 in gens
              for n2, g2 in gens if (v := tower.ell(2, [g1, g2]))]
    assert out.splitlines()[3:] == lines

    code, out = run_cli(capsys, "jacobi", "--scenario", name,
                        "--format", "machine")
    assert code == 0
    base = gens[:len(scenario.table.ids_of_kind(Kind.BASE))]  # listed first
    lines = [f"jacobi.{a}.{b}.{c}="
             + serialize(jacobi_residuals(tower, [f, g, h])[0, 1, 2])
             for (a, f), (b, g), (c, h) in combinations(base, 3)]
    assert out.splitlines()[3:] == lines + ["check.homotopy-jacobi=pass"]


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": src}

    def run(scenario):
        return subprocess.run(
            [sys.executable, "-m", "bfvkit", "validate", "--scenario", scenario],
            capture_output=True, text=True, env=env).returncode

    assert run("so3-classical") == 0
    assert run(str(Path(__file__).parent / "no-such-document.json")) == 2
