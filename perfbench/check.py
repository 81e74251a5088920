"""Per-op correctness checks for benchmark passes.

An op passes when its exit code is the one in ``workloads.EXPECTED_CODES``
(0 otherwise) and its output is right.  An output is right when

* it holds the seed-independent invariants below; and
* it equals the reference output recorded at ``reference.json``'s
  seed, after transporting every polynomial from this seed's coordinates
  to the reference seed's (``x_i -> r_i x_i``, ``e_i -> e_i / r_i`` with
  ``r = s_ref / s``).  For the reference seed itself the output must be
  byte-identical.

The transport is exact because the rescaling is a Poisson automorphism
and every bounded solve picks its pivots by monomial order alone.  Probe
representatives are normalized by the solver, so each is compared up to
one nonzero factor ``mu_i``, and the ``l_2`` table coefficient of
``[k]`` in entry ``(i, j)`` is compared as ``c * mu_i * mu_j / mu_k``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction

from workloads import op_id, parse_terms, rescale_terms

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Seed-independent probe dimensions: (space, kernel, image, h0).
PROBE_DIMS = {
    "probe-h0 so3-classical --degree 4": ("4200", "491", "482", "9"),
    "probe-h0 dgla-identity --degree 3": ("1680", "136", "132", "4"),
}
# Number of l_2 entries beyond the degree bound, the documented outcome.
PROBE_UNDECIDED = {"probe-h0 so3-classical --degree 4": 20}
# Extensions that stop at k_max with a residual, and its ghost bound; every
# other extension is exact.
INEXACT = {"extend aff1-bialgebra": "-2"}

_POLY_KEYS = ("charge", "residual", "pi", "lift")
_BRACKET_PREFIXES = ("ell1.", "ell2.", "jacobi.")
_POLY_PREFIXES = ("series.",) + _BRACKET_PREFIXES
_COMBO = re.compile(r"(-?\d+(?:/\d+)?) \[(\d+)\]")


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def scenario_digest(doc: dict) -> str:
    """The digest bfvkit prints for a scenario document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _lines(text: str):
    return [line.partition("=")[::2] for line in text.splitlines()]


def invariant_errors(oid: str, stdout: str) -> list:
    errors = []
    undecided = 0
    for key, val in _lines(stdout):
        if key.startswith("check."):
            if key.startswith("check.probe.closure") and val == "undecided":
                undecided += 1
            elif val != "pass":
                errors.append(f"{key}={val}")
        elif key.startswith("jacobi.") and val != "0":
            errors.append(f"{key} is not 0")
        elif oid in INEXACT:
            if key == "exact" and val != "false" or \
                    key == "residual.bound" and val != INEXACT[oid]:
                errors.append(f"{key}={val}, expected a bounded residual")
        elif key == "residual" and val != "0":
            errors.append("residual is not 0")
        elif key == "exact" and val != "true":
            errors.append("exact is not true")
    # the bounded entries plus the summary line, or none at all
    want = PROBE_UNDECIDED.get(oid, 0)
    want = want + 1 if want else 0
    if undecided != want:
        errors.append(f"{undecided} undecided closure lines, expected {want}")
    if oid in PROBE_DIMS:
        values = dict(_lines(stdout))
        got = tuple(values.get(f"probe.dim.{k}")
                    for k in ("space", "kernel", "image", "h0"))
        if got != PROBE_DIMS[oid]:
            errors.append(f"probe dimensions {got} != {PROBE_DIMS[oid]}")
    return errors


def _combo(text: str) -> dict:
    if text == "0":
        return {}
    return {int(k): Fraction(c) for c, k in _COMBO.findall(text)}


def _factor(got: dict, want: dict):
    """mu with mu * got == want, or None."""
    if got.keys() != want.keys() or not got:
        return None
    key = next(iter(got))
    mu = want[key] / got[key]
    if all(mu * c == want[k] for k, c in got.items()):
        return mu
    return None


def transport_errors(stdout: str, ref: str, ratio: dict, digest: str) -> list:
    """Compare an output against the reference output via the scale ratio."""
    got, want = _lines(stdout), _lines(ref)
    if [k for k, _ in got] != [k for k, _ in want]:
        return ["output keys differ from the reference"]
    errors = []
    mu = {}
    for (key, val), (_, rval) in zip(got, want):
        if key == "digest":
            ok = val == digest
        elif key.startswith(("probe.rep.", "probe.proj00.")):
            idx = int(key.rsplit(".", 1)[1])
            if rval == "0" or val == "0":
                ok = val == rval
            else:
                m = _factor(rescale_terms(parse_terms(val), ratio),
                            parse_terms(rval))
                ok = m is not None and mu.setdefault(idx, m) == m
        elif key.startswith("probe.ell2."):
            i, j = (int(x) for x in key.split(".")[2:4])
            combo = _combo(val)
            ok = all(x in mu for x in (i, j, *combo)) and _combo(rval) == {
                k: c * mu[i] * mu[j] / mu[k] for k, c in combo.items()}
        elif key in _POLY_KEYS or key.startswith(_POLY_PREFIXES):
            # bracket values of base coordinates scale with their arguments
            arg = Fraction(1)
            if key.startswith(_BRACKET_PREFIXES):
                for name in key.split(".")[1:]:
                    if name.startswith("x"):
                        arg *= ratio[int(name[1:])]
            ok = {k: c / arg for k, c in rescale_terms(
                parse_terms(val), ratio).items()} == parse_terms(rval)
        else:
            ok = val == rval
        if not ok:
            errors.append(f"{key} differs from the reference")
    return errors


def output_errors(op, stdout: str, doc: dict, scales: dict, reference: dict,
                  ref_scales: dict, same_seed: bool) -> list:
    """Reasons the op's output is wrong; empty when it is right."""
    oid = op_id(op)
    errors = invariant_errors(oid, stdout)
    ref = reference.get(oid)
    if ref is None:
        errors.append("no reference output")
    elif same_seed:
        if stdout != ref:
            errors.append("output is not byte-identical to the reference")
    else:
        ratio = {i: ref_scales[i] / s for i, s in scales.items()}
        errors += transport_errors(stdout, ref, ratio, scenario_digest(doc))
    return errors
