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

Parsing reads one term per match of one regular expression: an optional
sign, an optional rational (with ``*``) and the factors, which one
``findall`` splits.  A term's packed key is built from its factors'
units by :meth:`~bfvkit.generators.MonomialCodec.product`, from the
right: an even factor adds ``min(e, CAP + 1)`` units, with the guard bits
checked after every factor; an odd one sets its bit, takes the sign of the
odd bits already set below it, and kills the term if already set.  The
terms are summed over the lcm of their denominators.  A malformed term
raises ParseError at the position the tokens give it.  Text that no token
matches is reported first, wherever it is, and an ExponentOverflow only
once the whole text has parsed.
"""

from __future__ import annotations

import re
from math import gcd
from typing import NoReturn

from .errors import ExponentOverflow, ParseError
from .gpoly import GPoly, _sum_terms

# The tokens: a rational, a generator name, an operator.  A '-' followed
# by a digit starts a rational.  Every token in a pattern below carries the
# whitespace before it, so a group ends where its last token ends, and a
# token's position is where the token before it ends.
_RAT = r"-?\d+(?:/\d+)?"
_NAME = r"[A-Za-z]\d+"
_LEX = re.compile(r"(?:\s*(?:" + _RAT + "|" + _NAME + r"|[*^+-]))*")
# name, '^', exponent
_FACTOR = re.compile(r"\s*(" + _NAME + r")(?:\s*(\^)(?:\s*(" + _RAT + r"))?)?")
# sign, numerator, denominator, '*', factors
_TERM = re.compile(r"(?:\s*(\+|-(?!\d)))?(?:\s*(-?\d+)(?:/(\d+))?(?:\s*(\*))?)?"
                   r"((?:\s*" + _NAME + r"(?:\s*\^(?:\s*" + _RAT + r")?)?)*)")


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


def _fail(text: str, message: str, location=None) -> NoReturn:
    """Raise ParseError, for text past the last token if there is any."""
    end = _LEX.match(text).end()
    if text[end:].strip():
        raise ParseError(f"unexpected input {text[end:end + 10]!r}", end)
    raise ParseError(message, location)


def _next_token(text: str, pos: int):
    """The position of the token after ``pos``, None at the end."""
    return pos if text[pos:].strip() else None


def _factor_error(units, text: str, start: int, end: int):
    """Raise the error of the first malformed factor in text[start:end]."""
    for f in _FACTOR.finditer(text, start, end):
        name, caret, exp = f.groups()
        if name not in units:
            _fail(text, f"unknown generator {name!r}", f.start())
        if caret and (exp is None or not exp.isdigit()):
            _fail(text, "expected positive integer exponent",
                  _next_token(text, f.end(2)))
        if caret and int(exp) < 1:
            _fail(text, "exponent must be >= 1", f.end(2))


def parse(table, text: str) -> GPoly:
    """Parse canonical expression text into a canonical GPoly."""
    codec = table.codec
    units = codec.unit_of_name
    terms, overflow = [], None
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, num, den, star, body = m.groups()
        if pos and sign is None:  # after the first term
            if text[pos:].strip():
                _fail(text, "expected '+' or '-' between terms", pos)
            break
        if num is not None:
            p, q = int(num), int(den or 1)
            if not q:
                _fail(text, "zero denominator", m.end(1) if sign else pos)
            if star and not body:
                _fail(text, "expected factor after '*'", _next_token(text, m.end()))
        elif body:
            # tolerated shorthand: bare factors mean coefficient 1
            p, q = 1, 1
        elif sign:
            at = m.end()
            if not text[at:].strip():
                _fail(text, "dangling sign at end of expression")
            _fail(text, f"unexpected token {text[at:].lstrip()[0]!r}", at)
        elif text.strip():
            _fail(text, f"unexpected token {text.lstrip()[0]!r}", 0)
        else:
            _fail(text, "empty expression")
        if sign == "-":
            p = -p
        factors = []
        for name, caret, exp in _FACTOR.findall(body) if body else ():
            unit = units.get(name)
            if unit is None or caret and not (exp.isdigit() and int(exp)):
                _factor_error(units, text, *m.span(5))
            factors.append((unit, int(exp) if caret else 1))
        if p and overflow is None:
            try:
                term = codec.product(factors)
            except ExponentOverflow as exc:
                overflow = exc
            else:
                if term is not None:
                    terms.append((term[0], term[1] * p, q))
        pos = m.end()
    if overflow is not None:
        raise overflow
    return _sum_terms(table, terms)
