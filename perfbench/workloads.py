"""Workload op lists and the seeded scenario-document generator.

Every workload is a fixed list of CLI operations over scenario documents.
The documents are the bundled presets after a seeded rescaling of the base
coordinates (the cotangent lift of ``x_i -> s_i x_i``):

    x_i -> s_i x_i,   e_i -> e_i / s_i

applied term by term to ``pi``, ``psi``, ``J0`` and ``phi``; the rational
``sample_points`` are mapped inversely (``p_i -> p_i / s_i``).  The map
preserves ``{e_i, x_i} = 1``, so every intrinsic check, every exit code and
every probe dimension is the same as for the preset, while the rationals
the exact elimination handles grow.  Scenarios with ``bfv0_pairs`` draw
one scale per pair and give the partner coordinate the inverse scale, so
the degree-zero Darboux bracket ``{x_i, x_j} = 1`` is preserved as well.

bfvkit receives only the generated documents, as files, never a bundled
preset.
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
from fractions import Fraction

SCALES = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2, 3),
          Fraction(5, 4), Fraction(-3))

PRESETS = ("so3-classical", "dgla-identity", "aff1-bialgebra", "quasi-chi",
           "group-valued-so3", "abelian-translation")

# Each op: (command, preset, extra options).  No op repeats within a list.
_CHECK_OPS = (
    [(cmd, p, ()) for p in PRESETS
     for cmd in ("validate", "charge", "master", "lift")]
    + [(cmd, p, ("--bfv0",)) for p in ("so3-classical", "dgla-identity")
       for cmd in ("charge", "master")]
    + [("bch", "group-valued-so3", ("--order", "3")),
       ("bch", "group-valued-so3", ("--order", "4")),
       ("bch", "so3-classical", ())]
)

_EXTEND_OPS = (
    [(cmd, p, ()) for p in ("quasi-chi", "group-valued-so3")
     for cmd in ("extend", "brackets", "jacobi")]
    + [("lift", "group-valued-so3", ()),
       ("extend", "aff1-bialgebra", ()),
       ("brackets", "aff1-bialgebra", ())]
)

_PROBE_OPS = [
    ("probe-h0", "so3-classical", ("--degree", "4")),
    ("probe-h0", "dgla-identity", ("--degree", "3")),
]

WORKLOADS = {"probe": _PROBE_OPS, "extend": _EXTEND_OPS, "check": _CHECK_OPS}

# Expected exit code per op; every op not listed must exit 0.  Exit 3 is
# the documented bounded outcome of the degree-4 so3 probe.  bch on a
# scenario that is not group-valued is a usage error, exit 2.
EXPECTED_CODES = {
    ("probe-h0", "so3-classical", ("--degree", "4")): 3,
    ("bch", "so3-classical", ()): 2,
}


def op_id(op) -> str:
    cmd, preset, extra = op
    return " ".join((cmd, preset) + tuple(extra))


def expected_code(op) -> int:
    return EXPECTED_CODES.get(tuple((op[0], op[1], tuple(op[2]))), 0)


def load_presets(root: str) -> dict:
    """Preset documents read as plain JSON from the source tree."""
    out = {}
    base = os.path.join(root, "src", "bfvkit", "presets")
    for name in PRESETS:
        with open(os.path.join(base, f"{name}.json"), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def choose_scales(doc: dict, rng: random.Random) -> dict:
    """Base coordinate index (1-based) -> rational scale."""
    n = int(doc["n"])
    scales = {}
    for i, j in doc.get("bfv0_pairs") or ():
        s = rng.choice(SCALES)
        scales[int(i)] = s
        scales[int(j)] = 1 / s
    for i in range(1, n + 1):
        if i not in scales:
            scales[i] = rng.choice(SCALES)
    return scales


_TOKEN = re.compile(r"\s*(?:(-?\d+(?:/\d+)?)|([A-Za-z])(\d+)(?:\^(\d+))?|([*+-]))")


def parse_terms(text: str) -> dict:
    """Canonical expression text -> {factor tuple: Fraction}.

    Factors are kept as written (``"x1^2"``, ``"e3"``, ``"c1"``), so two
    canonical texts of one polynomial give equal dicts.
    """
    terms = {}
    if text.strip() == "0":
        return terms
    sign, coeff, factors = 1, None, []

    def close():
        if coeff is not None:
            key = tuple(factors)
            terms[key] = terms.get(key, 0) + sign * coeff

    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse expression {text!r}")
            break
        pos = m.end()
        rat, letter, _idx, _exp, op = m.groups()
        if op is not None and op in "+-":
            close()
            sign, coeff, factors = (-1 if op == "-" else 1), None, []
        elif rat is not None:
            coeff = Fraction(rat)
        elif letter is not None:
            if coeff is None:
                coeff = Fraction(1)
            factors.append(m.group(0).strip())
    close()
    return {k: v for k, v in terms.items() if v}


def rescale_terms(terms: dict, scales: dict) -> dict:
    """Apply x_i -> s_i x_i, e_i -> e_i / s_i; other generators are fixed."""
    out = {}
    for factors, c in terms.items():
        for f in factors:
            m = _TOKEN.match(f)
            letter, i, e = m.group(2), int(m.group(3)), int(m.group(4) or 1)
            if letter == "x":
                c = c * scales[i] ** e
            elif letter == "e":
                c = c / scales[i] ** e
        out[factors] = c
    return out


def format_terms(terms: dict) -> str:
    pieces = []
    for factors, c in terms.items():
        body = str(abs(c)) + (" * " + " ".join(factors) if factors else "")
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces) if pieces else "0"


def scale_expr(text: str, scales: dict) -> str:
    """Apply x_i -> s_i x_i, e_i -> e_i / s_i to one canonical expression."""
    return format_terms(rescale_terms(parse_terms(text), scales))


def scale_document(doc: dict, scales: dict) -> dict:
    out = copy.deepcopy(doc)
    out["pi"] = scale_expr(doc.get("pi", "0"), scales)
    out["psi"] = [scale_expr(s, scales) for s in doc.get("psi") or []]
    out["J0"] = [scale_expr(s, scales) for s in doc.get("J0") or []]
    if doc.get("phi") is not None:
        out["phi"] = [[scale_expr(s, scales) for s in row] for row in doc["phi"]]
    if doc.get("sample_points"):
        out["sample_points"] = [
            [str(Fraction(v) / scales[i + 1]) for i, v in enumerate(pt)]
            for pt in doc["sample_points"]]
    return out


def generate(root: str, workload: str, seed: int) -> dict:
    """Preset name -> (scales, generated document) for one workload and seed.

    Every preset gets its own stream from the seed, so a workload's
    documents do not depend on which other presets it uses.
    """
    presets = load_presets(root)
    wanted = sorted({op[1] for op in WORKLOADS[workload]})
    out = {}
    for name in wanted:
        rng = random.Random(f"{seed}:{name}")
        scales = choose_scales(presets[name], rng)
        out[name] = (scales, scale_document(presets[name], scales))
    return out
