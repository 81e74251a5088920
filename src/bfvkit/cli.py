"""Command line interface: scenario checks and charge computations.

Commands operate on one scenario document (a bundled preset name or a JSON
file path) and print a deterministic report: the command's ``key=value``
lines in the canonical expression grammar, then its checks.  A command
only collects values and one :class:`~bfvkit.reports.ValidationReport`;
``reports.py`` owns the check statuses, their rendering and the exit code.
``--format machine`` is byte-identical across runs; text format adds no
wall-clock data to stdout either (timing goes to stderr).

Exit codes: 0 all checks passed, 1 a check failed, 3 a check or a bounded
solve was inconclusive (undecided, or NotFound), with a failure taking
precedence over an undecided check; 2 usage or parse error (a document
file that cannot be read, malformed JSON, a malformed expression, a shape
mismatch).  The code of an error is set by its exception class alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from .config import bfv0_pairs, load_document, parse_scenario, scenario_digest
from .engine import (ChargeSeries, build_charge_deg0, build_charge_deg1,
                     cocycle_lift, extend_charge, master_residual)
from .errors import BfvError, NotFound, ParseError, SchemaError, \
    ShapeMismatch
from .generators import Kind, bfv0_table
from .gpoly import GPoly, bracket
from .grammar import parse as parse_expr
from .grammar import serialize
from .homotopy import BracketTower, h0_probe, jacobi_residuals
from .liedata import validate_bialgebra, validate_dgla, validate_lie, \
    validate_module, validate_quasi
from .presets import PRESET_NAMES, load_preset
from .reports import ValidationReport
from .scenario import bch_transport_check, check_compatibility, \
    check_equivariance

COMMANDS = ("validate", "charge", "master", "lift", "extend", "brackets",
            "jacobi", "probe-h0", "bch")


def _load_scenario(arg: str):
    if arg in PRESET_NAMES:
        doc = load_preset(arg)
    else:
        doc = load_document(arg)
    return doc, parse_scenario(doc)


def _charge(doc, scenario, bfv0: bool):
    """The degree-one charge, or with ``bfv0`` the degree-zero one on the
    document's BFV0 table, its J0 carried over by the canonical grammar."""
    if not bfv0:
        return build_charge_deg1(scenario)
    table = bfv0_table(scenario.n, scenario.dim_g, bfv0_pairs(doc))
    J = [parse_expr(table, serialize(j)) for j in scenario.J0]
    return build_charge_deg0(scenario.lie, J, table)


def _series(scenario, kmax, ansatz_degree) -> ChargeSeries:
    Q = build_charge_deg1(scenario)
    Pi = cocycle_lift(scenario, Q, ansatz_degree)
    return extend_charge(scenario, Q, Pi, kmax, ansatz_degree)


def _lagrangian_generators(scenario, kinds=(Kind.BASE, Kind.GHOST_G, Kind.ANTIGHOST_H)):
    """(name, GPoly) of each generator of K of the ``kinds``, by kind and id."""
    table = scenario.table
    return [(table.gen(g).name, GPoly.gen(table, g))
            for kind in kinds for g in table.ids_of_kind(kind)]


def run(command: str, args) -> int:
    doc, scenario = _load_scenario(args.scenario)
    values = {"command": command, "scenario": scenario.name,
              "digest": scenario_digest(doc)}
    report = ValidationReport("check")
    labels = doc.get("generators") or {}
    if labels and args.format == "text":
        values["labels"] = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))

    if command == "validate":
        report.merge(validate_lie(scenario.lie))
        if scenario.module is not None:
            report.merge(validate_module(scenario.lie, scenario.module))
        if scenario.dgla is not None:
            report.merge(validate_dgla(scenario.lie, scenario.module, scenario.dgla))
        if scenario.bialgebra is not None:
            report.merge(validate_bialgebra(scenario.lie, scenario.bialgebra))
        if scenario.quasi is not None:
            report.merge(validate_quasi(scenario.lie, scenario.quasi))
        report.merge(check_equivariance(scenario))
        report.merge(check_compatibility(scenario))

    elif command == "charge":
        Q = _charge(doc, scenario, args.bfv0)
        values["charge"] = serialize(Q)
        grades = sorted(Q.grade_components())
        values["charge.grades"] = ";".join(f"({g},{d})" for g, d in grades)

    elif command == "master":
        res = master_residual(_charge(doc, scenario, args.bfv0))
        values["residual"] = serialize(res)
        report.record("master-equation", not res)

    elif command == "lift":
        Q = build_charge_deg1(scenario)
        Pi = cocycle_lift(scenario, Q, args.ansatz_degree)
        values["pi"] = serialize(scenario.pi)
        values["lift"] = serialize(Pi)
        report.record("lift-closed", not bracket(Q, Pi))

    elif command == "extend":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        for k, term in enumerate(series.terms):
            values[f"series.{-k}"] = serialize(term)
        values["exact"] = "true" if series.exact else "false"
        values["residual.bound"] = ("none" if series.residual_bound is None
                                    else str(series.residual_bound))
        values["residual"] = serialize(series.residual)

    elif command == "brackets":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        names, gens = zip(*_lagrangian_generators(scenario))
        for name, g in zip(names, gens):
            values[f"ell1.{name}"] = serialize(tower.l1_image(g))
        for name1, row in zip(names, tower.ell2_table(gens, gens)):
            for name2, val in zip(names, row):
                if val:
                    values[f"ell2.{name1}.{name2}"] = serialize(val)

    elif command == "jacobi":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        base = _lagrangian_generators(scenario, [Kind.BASE])
        residuals = jacobi_residuals(tower, [g for _name, g in base])
        for (i, j, k), r in residuals.items():
            values[f"jacobi.{base[i][0]}.{base[j][0]}.{base[k][0]}"] = serialize(r)
        report.record("homotopy-jacobi", not any(residuals.values()))

    elif command == "probe-h0":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        rep = h0_probe(scenario, tower, args.degree)
        values["probe.degree"] = str(args.degree)
        values["probe.dim.space"] = str(rep.dim_space)
        values["probe.dim.kernel"] = str(rep.dim_kernel)
        values["probe.dim.image"] = str(rep.dim_image)
        values["probe.dim.h0"] = str(rep.dim_h0)
        for i, (r, p) in enumerate(zip(rep.representatives, rep.projections)):
            values[f"probe.rep.{i}"] = serialize(r)
            values[f"probe.proj00.{i}"] = serialize(p)
        for (i, j), coeffs in sorted(rep.table.items()):
            body = " + ".join(f"{c} [{k}]" for k, c in sorted(coeffs.items())) or "0"
            values[f"probe.ell2.{i}.{j}"] = body
        for (i, j) in rep.inconclusive:
            report.record_undecided(f"probe.closure.{i}.{j}", "beyond degree bound")
        if rep.closure_ok:
            report.record("probe.closure", True)
        else:
            report.record_undecided("probe.closure", "entries beyond the degree bound")

    elif command == "bch":
        report.merge(bch_transport_check(scenario, args.order))

    else:  # pragma: no cover
        raise ValueError(command)

    lines = [f"{k}={v}" for k, v in values.items()] + list(report.lines(args.format))
    sys.stdout.write("".join(line + "\n" for line in lines))
    return report.exit_code


def non_negative_int(text: str) -> int:
    """A bound or a count: argparse turns a negative one into a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    call of :func:`main` in the process: it holds no state between calls."""
    ap = argparse.ArgumentParser(
        prog="bfvkit",
        description="graded Poisson brackets, BRST charges and homotopy "
                    "structures for reduction scenarios")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--scenario", required=True,
                    help=f"preset name {PRESET_NAMES} or JSON file path")
    ap.add_argument("--kmax", type=non_negative_int, default=2,
                    help="number of extension steps (default 2)")
    ap.add_argument("--ansatz-degree", type=non_negative_int, default=4,
                    help="base-degree bound for linear solves (default 4)")
    ap.add_argument("--degree", type=non_negative_int, default=3,
                    help="degree bound of the H0 probe (default 3)")
    ap.add_argument("--order", type=non_negative_int, default=3,
                    help="series order for bch checks (default 3)")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    ap.add_argument("--bfv0", action="store_true",
                    help="use the degree-zero preset for charge/master")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    start = time.monotonic()
    try:
        code = run(args.command, args)
    except (ParseError, SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotFound as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except BfvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ShapeMismatch) else 1
    if args.format == "text":
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
