"""Canonical expression grammar: bit-exact serialization and parsing.

Grammar::

    expr     := "0" | term ( (" + " | " - ") term )*
    term     := rational [" * " factor (" " factor)*]
    rational := ["-"] digits ["/" digits]
    factor   := token ["^" exponent]            # exponents only on evens

Tokens are the generator names of the table: ``x{i}`` base, ``e{i}`` fiber,
``c{i}`` g-ghost, ``C{j}`` h-ghost, ``b{k}`` g-antighost, ``B{p}``
h-antighost.  Serialization lists even factors (ascending id) before odd
factors (ascending id), terms in canonical monomial order, and prints the
coefficient of every term; parsing accepts factors in any order and
repeated odd factors (which normalize to zero).
"""

from __future__ import annotations

import re
from math import gcd

from .errors import ParseError, UnknownGenerator
from .gpoly import GPoly, _normalize

_TOKEN_RE = re.compile(r"\s*(?:(?P<rat>-?\d+(?:/\d+)?)|(?P<name>[A-Za-z]\d+)"
                       r"|(?P<op>[*^+-]))")


def serialize(poly: GPoly) -> str:
    """Each coefficient v / den printed reduced by one gcd, as
    ``str(Fraction(v, den))`` prints it."""
    if not poly.num:
        return "0"

    def expanded(item):
        (evens, odds), _c = item
        return tuple(g for g, e in evens for _ in range(e)) + odds

    pieces = []
    unpack, den = poly.table.codec.unpack, poly.den
    for (evens, odds), v in sorted(((unpack(m), v) for m, v in poly.num.items()),
                                   key=expanded):
        factors = [poly.table.gen(g).name if e == 1
                   else f"{poly.table.gen(g).name}^{e}" for g, e in evens]
        factors.extend(poly.table.gen(g).name for g in odds)
        mag = abs(v)
        if den != 1:
            g = gcd(mag, den)
            mag = mag // g if g == den else f"{mag // g}/{den // g}"
        body = str(mag) if not factors else f"{mag} * " + " ".join(factors)
        pieces.append(("-" if v < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _tokens(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected input {text[pos:pos+10]!r}", pos)
            break
        if m.group("rat") is not None:
            out.append(("rat", m.group("rat"), pos))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    return out


def parse(table, text: str) -> GPoly:
    """Parse canonical expression text into a canonical GPoly."""
    toks = _tokens(text)
    if not toks:
        raise ParseError("empty expression")
    raw = []
    i = 0
    n = len(toks)
    first = True
    while i < n:
        sign = 1
        if toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", toks[i][2])
        first = False
        if i >= n:
            raise ParseError("dangling sign at end of expression")
        kind, val, pos = toks[i]
        if kind == "rat":
            p, _, q = val.partition("/")
            p, q = int(p) * sign, int(q or 1)
            if not q:
                raise ParseError("zero denominator", pos)
            i += 1
            if i < n and toks[i][0] == "op" and toks[i][1] == "*":
                i += 1
                if i >= n or toks[i][0] != "name":
                    raise ParseError("expected factor after '*'",
                                     toks[i][2] if i < n else None)
        elif kind == "name":
            # tolerated shorthand: bare factors mean coefficient 1
            p, q = sign, 1
        else:
            raise ParseError(f"unexpected token {val!r}", pos)
        factors = []
        while i < n and toks[i][0] == "name":
            name = toks[i][1]
            try:
                gen = table.by_name(name)
            except UnknownGenerator:
                raise ParseError(f"unknown generator {name!r}", toks[i][2])
            i += 1
            exp = 1
            if i < n and toks[i][0] == "op" and toks[i][1] == "^":
                i += 1
                if i >= n or toks[i][0] != "rat" or "/" in toks[i][1] \
                        or toks[i][1].startswith("-"):
                    raise ParseError("expected positive integer exponent",
                                     toks[i][2] if i < n else None)
                exp = int(toks[i][1])
                if exp < 1:
                    raise ParseError("exponent must be >= 1", toks[i][2])
                i += 1
            # normalize multiplies the factors out: an odd square vanishes
            # and an exponent past the codec's cap overflows, so no more
            # than CAP + 1 copies are needed
            factors.extend([gen.gid] * min(exp, table.codec.CAP + 1))
        raw.append((p, q, factors))
    return _normalize(table, raw)
