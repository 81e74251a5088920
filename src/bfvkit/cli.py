"""Command line interface: scenario checks and charge computations.

Commands operate on one scenario document (a bundled preset name or a JSON
file path) and print a deterministic report.  ``--format machine`` emits
one ``key=value`` line per item using the canonical expression grammar and
is byte-identical across runs; text format adds no wall-clock data to
stdout either (timing goes to stderr).

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse error
(a document file that cannot be read, malformed JSON, a malformed
expression), 3 a bounded solve was inconclusive (NotFound).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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
from .reports import FAIL, PASS, UNDECIDED, ValidationReport
from .scenario import bch_transport_check, check_compatibility, \
    check_equivariance

COMMANDS = ("validate", "charge", "master", "lift", "extend", "brackets",
            "jacobi", "probe-h0", "bch")


class Emitter:
    def __init__(self, fmt):
        self.fmt = fmt
        self.lines = []
        self.failed = False
        self.undecided = False

    def value(self, key, val):
        self.lines.append(f"{key}={val}")

    def check(self, name, status, detail=""):
        if status == FAIL:
            self.failed = True
        elif status == UNDECIDED:
            self.undecided = True
        if self.fmt == "machine":
            # a failure keeps its detail (the failing index), as in
            # ValidationReport.lines(), so repeated failures stay distinct
            suffix = f" {detail}" if status == FAIL and detail else ""
            self.lines.append(f"check.{name}={status}{suffix}")
        else:
            suffix = f"  [{detail}]" if detail else ""
            self.lines.append(f"check {name}: {status}{suffix}")

    def report(self, rep: ValidationReport):
        for c in rep.checks:
            self.check(f"{rep.title}.{c.name}", c.status, c.detail)

    def flush(self):
        sys.stdout.write("\n".join(self.lines) + ("\n" if self.lines else ""))

    @property
    def exit_code(self):
        if self.failed:
            return 1
        if self.undecided:
            return 3
        return 0


def _load_scenario(arg: str):
    if arg in PRESET_NAMES:
        doc = load_preset(arg)
    else:
        doc = load_document(arg)
    return doc, parse_scenario(doc)


def _bfv0_setup(doc, scenario):
    pairs = bfv0_pairs(doc)
    table = bfv0_table(scenario.n, scenario.dim_g, pairs)
    J = [parse_expr(table, serialize(j)) for j in scenario.J0]
    return table, J


def _series(scenario, kmax, ansatz_degree) -> ChargeSeries:
    Q = build_charge_deg1(scenario)
    Pi = cocycle_lift(scenario, Q, ansatz_degree)
    return extend_charge(scenario, Q, Pi, kmax, ansatz_degree)


def _lagrangian_generators(scenario):
    table = scenario.table
    gens = []
    for kind in (Kind.BASE, Kind.GHOST_G, Kind.ANTIGHOST_H):
        for gid in table.ids_of_kind(kind):
            gens.append((table.gen(gid).name, GPoly.gen(table, gid)))
    return gens


def run(command: str, args) -> int:
    doc, scenario = _load_scenario(args.scenario)
    em = Emitter(args.format)
    em.value("command", command)
    em.value("scenario", scenario.name)
    em.value("digest", scenario_digest(doc))
    labels = doc.get("generators") or {}
    if labels and args.format == "text":
        em.value("labels", " ".join(f"{k}={v}" for k, v in sorted(labels.items())))

    if command == "validate":
        em.report(validate_lie(scenario.lie))
        if scenario.module is not None:
            em.report(validate_module(scenario.lie, scenario.module))
        if scenario.dgla is not None:
            em.report(validate_dgla(scenario.lie, scenario.module, scenario.dgla))
        if scenario.bialgebra is not None:
            em.report(validate_bialgebra(scenario.lie, scenario.bialgebra))
        if scenario.quasi is not None:
            em.report(validate_quasi(scenario.lie, scenario.quasi))
        em.report(check_equivariance(scenario))
        em.report(check_compatibility(scenario))

    elif command == "charge":
        if args.bfv0:
            table, J = _bfv0_setup(doc, scenario)
            Q = build_charge_deg0(scenario.lie, J, table)
        else:
            Q = build_charge_deg1(scenario)
        em.value("charge", serialize(Q))
        grades = sorted(Q.grade_components())
        em.value("charge.grades", ";".join(f"({g},{d})" for g, d in grades))

    elif command == "master":
        if args.bfv0:
            table, J = _bfv0_setup(doc, scenario)
            Q = build_charge_deg0(scenario.lie, J, table)
        else:
            Q = build_charge_deg1(scenario)
        res = master_residual(Q)
        em.value("residual", serialize(res))
        em.check("master-equation", PASS if not res else FAIL)

    elif command == "lift":
        Q = build_charge_deg1(scenario)
        Pi = cocycle_lift(scenario, Q, args.ansatz_degree)
        em.value("pi", serialize(scenario.pi))
        em.value("lift", serialize(Pi))
        em.check("lift-closed", PASS if not bracket(Q, Pi) else FAIL)

    elif command == "extend":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        for k, term in enumerate(series.terms):
            em.value(f"series.{-k}", serialize(term))
        em.value("exact", "true" if series.exact else "false")
        em.value("residual.bound",
                 "none" if series.residual_bound is None
                 else str(series.residual_bound))
        em.value("residual", serialize(series.residual))

    elif command == "brackets":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        names, gens = zip(*_lagrangian_generators(scenario))
        for name, g in zip(names, gens):
            em.value(f"ell1.{name}", serialize(tower.ell1(g)))
        for name1, row in zip(names, tower.ell2_table(gens, gens)):
            for name2, val in zip(names, row):
                if val:
                    em.value(f"ell2.{name1}.{name2}", serialize(val))

    elif command == "jacobi":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        base = scenario.table.ids_of_kind(Kind.BASE)
        names = [scenario.table.gen(g).name for g in base]
        residuals = jacobi_residuals(
            tower, [GPoly.gen(scenario.table, g) for g in base])
        for (i, j, k), r in residuals.items():
            em.value(f"jacobi.{names[i]}.{names[j]}.{names[k]}", serialize(r))
        em.check("homotopy-jacobi", FAIL if any(residuals.values()) else PASS)

    elif command == "probe-h0":
        series = _series(scenario, args.kmax, args.ansatz_degree)
        tower = BracketTower(series)
        rep = h0_probe(scenario, tower, args.degree)
        em.value("probe.degree", str(args.degree))
        em.value("probe.dim.space", str(rep.dim_space))
        em.value("probe.dim.kernel", str(rep.dim_kernel))
        em.value("probe.dim.image", str(rep.dim_image))
        em.value("probe.dim.h0", str(rep.dim_h0))
        for i, (r, p) in enumerate(zip(rep.representatives, rep.projections)):
            em.value(f"probe.rep.{i}", serialize(r))
            em.value(f"probe.proj00.{i}", serialize(p))
        for (i, j), coeffs in sorted(rep.table.items()):
            body = " + ".join(f"{c} [{k}]" for k, c in sorted(coeffs.items())) or "0"
            em.value(f"probe.ell2.{i}.{j}", body)
        for (i, j) in rep.inconclusive:
            em.check(f"probe.closure.{i}.{j}", UNDECIDED, "beyond degree bound")
        em.check("probe.closure", PASS if rep.closure_ok else UNDECIDED,
                 "" if rep.closure_ok else "entries beyond the degree bound")

    elif command == "bch":
        em.report(bch_transport_check(scenario, args.order))

    else:  # pragma: no cover
        raise ValueError(command)

    em.flush()
    return em.exit_code


def non_negative_int(text: str) -> int:
    """A bound or a count: argparse turns a negative one into a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def main(argv=None) -> int:
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
    try:
        args = ap.parse_args(argv)
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
        # bch takes group-valued scenarios only, and charge/master --bfv0
        # one J0 entry per g generator: any other is a usage error
        bfv0 = args.bfv0 and args.command in ("charge", "master")
        if isinstance(exc, ShapeMismatch) and (args.command == "bch" or bfv0):
            return 2
        return 1
    if args.format == "text":
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
