"""Scenario documents: JSON ingestion, validation and digests.

A scenario document is a JSON object with the keys below; unknown keys are
rejected.  Rational values are integers or strings like ``"-3/2"``.

===================  ======================================================
key                  meaning
===================  ======================================================
``kind``             one of the scenario kinds
``name``             display name (optional)
``n``                base dimension
``pi``               bivector expression (canonical grammar; "0" allowed)
``psi``              list of action vector field expressions (may be [])
``J0``               list of degree-zero constraint expressions (may be [])
``lie``              structure data: ``dim_g``, ``dim_h``, sparse arrays
                     ``c`` [[i,j,k,v],...], ``d`` [[m,i,p,v],...] or
                     ``"adjoint"``, ``a`` [[k,i,j,v],...],
                     ``chi`` [[i,j,k,v],...], ``A`` [[i,j,v],...],
                     ``metric`` [[i,j,v],...] or ``"identity"``
``truncation_order`` series order for group-valued constraints
``degree_bound``     base-degree bound for ideal-membership solves
``assumptions``      flags echoed in reports, never verified
``phi``              matrix of expressions in the base coordinates
                     (group-valued only)
``basis_matrices``   rational matrices pairing the Lie basis (group-valued)
``sample_points``    rational points for the constraint rank check
``quasi_master_mode``  "chi" (exact weak-master) or "ideal" (membership)
``bfv0_pairs``       Darboux base pairs for the companion BFV0 table
``generators``       optional display labels, token -> label
===================  ======================================================

Antisymmetric arrays are completed automatically: supplying c^{ij}_k also
installs c^{ji}_k = -c^{ij}_k unless given explicitly, and likewise for
the cobracket and for chi (over all six permutations).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

from .errors import ExponentOverflow, ParseError, SchemaError
from .generators import Kind, bfv1_table
from .grammar import parse
from .liedata import (BialgebraData, DglaData, LieAlgebraData,
                      ModuleActionData, QuasiBialgebraData, adjoint_module)
from .scenario import KINDS, Scenario

_TOP_KEYS = {"kind", "name", "n", "pi", "psi", "J0", "lie", "truncation_order",
             "degree_bound", "assumptions", "phi", "basis_matrices",
             "sample_points", "quasi_master_mode", "bfv0_pairs", "generators"}
_LIE_KEYS = {"dim_g", "dim_h", "c", "d", "a", "chi", "A", "metric"}


def _rat(v, key):
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(key, f"not a rational value: {v!r}") from None


def _sparse(entries, arity, key):
    out = {}
    if not isinstance(entries or [], list):
        raise SchemaError(key, f"expected a list of rows: {entries!r}")
    for row in entries or ():
        if not isinstance(row, list) or len(row) != arity + 1:
            raise SchemaError(key, f"expected {arity} indices and a value: {row!r}")
        idx = tuple(_int(i, key) for i in row[:arity])
        out[idx] = _rat(row[arity], key)
    return out


def _antisym_complete(table, swap):
    out = dict(table)
    for idx, v in table.items():
        mirror = swap(idx)
        if mirror not in out:
            out[mirror] = -v
    return out


def _chi_complete(table):
    out = dict(table)
    for (i, j, k), v in table.items():
        base = (i, j, k)
        for perm in itertools.permutations(range(3)):
            idx = tuple(base[p] for p in perm)
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            if idx not in out:
                out[idx] = sign * v
    return out


def _int(v, key, least=None):
    """An integer of the document: an int, not a bool, and at least
    ``least`` (0 or 1) when that is given."""
    if type(v) is not int or least is not None and v < least:
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise SchemaError(key, f"must be {kind} integer, got {v!r}")
    return v


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; shape-checked."""
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown key")
    for req in ("kind", "n", "lie"):
        if req not in doc:
            raise SchemaError(req, "missing required key")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaError("kind", f"must be one of {KINDS}")
    n = _int(doc["n"], "n", 0)
    lie_doc = doc["lie"]
    unknown = set(lie_doc) - _LIE_KEYS
    if unknown:
        raise SchemaError(f"lie.{sorted(unknown)[0]}", "unknown key")
    dim_g = _int(lie_doc.get("dim_g", 0), "lie.dim_g", 1)
    dim_h = _int(lie_doc.get("dim_h", 0), "lie.dim_h", 0)

    L = LieAlgebraData(dim_g, _antisym_complete(
        _sparse(lie_doc.get("c"), 3, "lie.c"),
        lambda idx: (idx[1], idx[0], idx[2])))

    module = None
    if dim_h:
        d = lie_doc.get("d")
        if d == "adjoint":
            if dim_h != dim_g:
                raise SchemaError("lie.d", "adjoint module needs dim_h == dim_g")
            module = adjoint_module(L)
        else:
            module = ModuleActionData(dim_h, _sparse(d, 3, "lie.d"))

    dgla = None
    if "A" in lie_doc:
        dgla = DglaData(_sparse(lie_doc["A"], 2, "lie.A"))

    bialgebra = None
    if "a" in lie_doc:
        bialgebra = BialgebraData(_antisym_complete(
            _sparse(lie_doc["a"], 3, "lie.a"),
            lambda idx: (idx[0], idx[2], idx[1])))

    quasi = None
    if "chi" in lie_doc or "metric" in lie_doc:
        metric_doc = lie_doc.get("metric")
        metric = None if metric_doc in (None, "identity") \
            else _sparse(metric_doc, 2, "lie.metric")
        quasi = QuasiBialgebraData(
            bialgebra or BialgebraData({}),
            _chi_complete(_sparse(lie_doc.get("chi"), 3, "lie.chi")),
            metric)

    table = bfv1_table(n, dim_g, dim_h)

    def expr(text, key):
        if not isinstance(text, str):
            raise SchemaError(key, "expected an expression string")
        try:
            return parse(table, text)
        except (ParseError, ExponentOverflow) as exc:
            raise SchemaError(key, str(exc)) from exc

    pi = expr(doc.get("pi", "0"), "pi")
    psi = [expr(s, f"psi[{i}]") for i, s in enumerate(doc.get("psi") or [])]
    J0 = [expr(s, f"J0[{j}]") for j, s in enumerate(doc.get("J0") or [])]

    phi = None
    if doc.get("phi") is not None:
        phi = [[expr(s, f"phi[{i}][{j}]") for j, s in enumerate(row)]
               for i, row in enumerate(doc["phi"])]
        for i, row in enumerate(phi):
            for j, P in enumerate(row):
                if not P.kinds_used() <= {Kind.BASE}:
                    raise SchemaError(f"phi[{i}][{j}]", "must use base generators only")
        if any(len(row) != len(phi) for row in phi):
            raise SchemaError("phi", f"expected a square matrix, rows of {[*map(len, phi)]}")

    basis_matrices = None
    if doc.get("basis_matrices") is not None:
        basis_matrices = [
            [[_rat(v, "basis_matrices") for v in row] for row in mat]
            for mat in doc["basis_matrices"]]
        if phi and any({len(mat), *map(len, mat)} != {len(phi)} for mat in basis_matrices):
            raise SchemaError("basis_matrices", f"expected {len(phi)} x {len(phi)} "
                              "matrices, the size of phi")

    if kind == "group_valued":
        for key, val in (("phi", phi), ("basis_matrices", basis_matrices)):
            if val is None:
                raise SchemaError(key, "required for group_valued scenarios")

    sample_points = [tuple(_rat(v, "sample_points") for v in pt)
                     for pt in doc.get("sample_points") or []]
    for pt in sample_points:
        if len(pt) != n:
            raise SchemaError("sample_points", f"points must have length {n}")

    mode = doc.get("quasi_master_mode", "chi")
    if mode not in ("chi", "ideal"):
        raise SchemaError("quasi_master_mode", "must be 'chi' or 'ideal'")

    return Scenario(
        kind=kind, n=n, table=table, pi=pi, psi=psi, J0=J0, lie=L,
        module=module, dgla=dgla, bialgebra=bialgebra, quasi=quasi,
        truncation_order=_int(doc.get("truncation_order", 4), "truncation_order", 0),
        degree_bound=_int(doc.get("degree_bound", 4), "degree_bound", 0),
        assumptions=dict(doc.get("assumptions") or {}),
        phi=phi, basis_matrices=basis_matrices, sample_points=sample_points,
        quasi_master_mode=mode, name=doc.get("name", "scenario"))


def scenario_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_document(path_or_text: str) -> dict:
    if path_or_text.lstrip().startswith("{"):
        return json.loads(path_or_text)
    with open(path_or_text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bfv0_pairs(doc: dict):
    pairs = [tuple(_int(v, "bfv0_pairs", 1) for v in pair)
             for pair in doc.get("bfv0_pairs") or []]
    flat = [i for pair in pairs for i in pair]
    if any(len(pair) != 2 for pair in pairs) or len(set(flat)) < len(flat) \
            or max(flat, default=0) > doc["n"]:
        raise SchemaError("bfv0_pairs", "expected pairs of distinct base "
                          f"indices in 1..{doc['n']}: {doc['bfv0_pairs']!r}")
    return pairs
