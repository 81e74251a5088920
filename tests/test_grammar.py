"""Canonical grammar: round trips, golden forms, rejection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.errors import ExponentOverflow, ParseError
from bfvkit.generators import bfv1_table
from bfvkit.gpoly import GPoly, normalize
from bfvkit.grammar import parse, serialize
from conftest import random_homogeneous


@pytest.fixture
def table():
    return bfv1_table(2, 1, 1)


def test_golden_forms(table):
    t = table
    x1 = GPoly.var(t, "x1")
    e2 = GPoly.var(t, "e2")
    b1 = GPoly.var(t, "b1")
    C1 = GPoly.var(t, "C1")
    assert serialize(GPoly.zero(t)) == "0"
    assert serialize(GPoly.const(t, -3)) == "-3"
    assert serialize(x1 * x1 * e2 * 3) == "3 * x1^2 e2"
    assert serialize(x1 - e2) == "1 * x1 - 1 * e2"
    assert serialize(b1 * C1) == "1 * C1 b1"


def test_parse_simple(table):
    assert parse(table, "1 * e1 e2") == \
        GPoly.var(table, "e1") * GPoly.var(table, "e2")


def test_parse_odd_square_normalizes_to_zero(table):
    assert not parse(table, "1 * e1 e1")


def test_parse_unknown_token(table):
    with pytest.raises(ParseError):
        parse(table, "1 * q1")


def test_parse_malformed(table):
    for bad in ("", "1 *", "* x1", "1 * x1 ^", "1 * x1^0", "+"):
        with pytest.raises(ParseError):
            parse(table, bad)


def test_parse_unsorted_factors_pick_up_sign(table):
    assert parse(table, "1 * e2 e1") == -parse(table, "1 * e1 e2")


def test_round_trip_randomized(table, rng):
    for _ in range(150):
        F = random_homogeneous(table, rng, rng.randint(-1, 3), n_terms=4)
        assert parse(table, serialize(F)) == F


def test_serialize_injective_on_sample(table, rng):
    seen = {}
    for _ in range(200):
        F = random_homogeneous(table, rng, rng.randint(-1, 3), n_terms=3)
        s = serialize(F)
        if s in seen:
            assert seen[s] == F
        seen[s] = F


def test_zero_prints_as_zero_and_parses(table):
    assert serialize(GPoly.zero(table)) == "0"
    assert not parse(table, "0")


def test_parsed_rationals_print_reduced(table):
    assert serialize(parse(table, "4/6 * x1 + 0/5 * x2 - 0 * e1 + 3/9")) \
        == "1/3 + 2/3 * x1"
    P = parse(table, "-4/6 * x1 + 10/4 * e2 - 0/7")
    assert (P.den, serialize(P)) == (6, "-2/3 * x1 + 5/2 * e2")
    assert serialize(parse(table, "2/4 * x1 + 1/2 * x1")) == "1 * x1"
    assert serialize(parse(table, "-0 * e1 + 1 * x1 - 0/3 * x2")) == "1 * x1"
    with pytest.raises(ParseError, match="zero denominator"):
        parse(table, "1/0 * x1")


def test_round_trip_bfv0_and_large_rationals(rng):
    from bfvkit.generators import bfv0_table

    t0 = bfv0_table(3, 2, base_pairs=[(1, 2)])
    for _ in range(60):
        F = random_homogeneous(t0, rng, rng.randint(-1, 2), n_terms=3)
        big = F * Fraction(10 ** 12 + 7, 10 ** 9 + 9)
        assert parse(t0, serialize(big)) == big


def test_text_labels_echo(capsys):
    from bfvkit.cli import main

    main(["charge", "--scenario", "so3-classical", "--format", "text"])
    out = capsys.readouterr().out
    assert "labels=x1=q1" in out


# -- the parser against normalize ------------------------------------------

ORACLE_TABLE = bfv1_table(2, 1, 1)
CAP = ORACLE_TABLE.codec.CAP


@st.composite
def term_lists(draw):
    """(text, raw): terms of non-reduced and zero rationals and of factors
    in any order, odd ones repeated or raised to a power and even exponents
    up to the cap, rendered with and without the bare-factor shorthand,
    the sign inside the rational or as an operator, and varied spacing;
    ``raw`` is the same list as normalize takes it."""
    gens = ORACLE_TABLE.entries
    raw, pieces = [], []
    for i in range(draw(st.integers(1, 4))):
        p, q = draw(st.integers(-12, 12)), draw(st.integers(1, 9))
        factors, names = [], []
        for _ in range(draw(st.integers(0, 4))):
            g = draw(st.sampled_from(gens))
            top = 2 if g.parity else draw(st.sampled_from([3, CAP, CAP + 1]))
            e = draw(st.integers(1, top))
            factors += [g.gid] * e
            names.append(g.name if e == 1 and draw(st.booleans())
                         else f"{g.name}^{e}")
        sp = draw(st.sampled_from(["", " ", "  "]))
        body = sp.join(names)
        if factors and q == 1 and abs(p) == 1 and draw(st.booleans()):
            sign, mag = "-" if p < 0 else "+", ""  # bare factors
        elif draw(st.booleans()):
            sign, mag = "+", f"{p}" if q == 1 else f"{p}/{q}"
        else:
            sign, mag = "-" if p < 0 else "+", f"{abs(p)}" if q == 1 \
                else f"{abs(p)}/{q}"
        if mag and body:
            body = mag + draw(st.sampled_from([" * ", "*", " ", ""])) + body
        elif mag:
            body = mag
        if i == 0:
            pieces.append(("-" + draw(st.sampled_from(["", " "])))
                          if sign == "-" else "")
        else:
            pieces.append(draw(st.sampled_from([" ", ""])) + sign + " ")
        pieces.append(body)
        raw.append((Fraction(p, q), factors))
    return "".join(pieces), raw


def outcome(f, *args):
    try:
        return f(*args)
    except (ParseError, ExponentOverflow) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(term_lists())
def test_parse_matches_normalize(case):
    text, raw = case
    assert outcome(parse, ORACLE_TABLE, text) == outcome(normalize, ORACLE_TABLE, raw)


@pytest.mark.parametrize("text, error, message, location", [
    ("", ParseError, "empty expression", None),
    ("   ", ParseError, "empty expression", None),
    ("1 *", ParseError, "expected factor after '*'", None),
    ("* x1", ParseError, "unexpected token '*' (at 0)", 0),
    ("- * x1", ParseError, "unexpected token '*' (at 1)", 1),
    ("1 * x1 ^", ParseError, "expected positive integer exponent", None),
    ("1 * x1^0", ParseError, "exponent must be >= 1 (at 7)", 7),
    ("1 * x1^2/3", ParseError, "expected positive integer exponent (at 7)", 7),
    ("1 * x1^-2", ParseError, "expected positive integer exponent (at 7)", 7),
    ("1 * x1^ + x2", ParseError, "expected positive integer exponent (at 7)", 7),
    ("+", ParseError, "dangling sign at end of expression", None),
    ("1/0 * x1", ParseError, "zero denominator (at 0)", 0),
    (" 1 + 1/0", ParseError, "zero denominator (at 4)", 4),
    ("1 * q1", ParseError, "unknown generator 'q1' (at 3)", 3),
    ("1 x1 -1", ParseError, "expected '+' or '-' between terms (at 4)", 4),
    ("1 * x1 ^2^3", ParseError, "expected '+' or '-' between terms (at 9)", 9),
    ("x1 e1 - - 2", ParseError, "unexpected token '-' (at 7)", 7),
    ("1/2/3", ParseError, "unexpected input '/3' (at 3)", 3),
    # an unreadable character anywhere is reported first
    ("* x1 @", ParseError, "unexpected input ' @' (at 4)", 4),
    # a malformed term is reported before an overflow in an earlier one
    ("1 * x1^128 + * x2", ParseError, "unexpected token '*' (at 12)", 12),
    ("1 * x1^128 - 1 * q1", ParseError, "unknown generator 'q1' (at 16)", 16),
    ("1 * x1 x1^127", ExponentOverflow, "exponent of x1 exceeds the cap 127", None),
    ("1 * x1^128", ExponentOverflow, "exponent of x1 exceeds the cap 127", None),
    # factors multiply from the right: the first field past the cap is
    # named, and an odd square to the right of an overflow clears the term
    ("1 * x2 x1^128 x2^128", ExponentOverflow,
     "exponent of x2 exceeds the cap 127", None),
    ("1 * e1 e1 x1^128", ExponentOverflow, "exponent of x1 exceeds the cap 127", None),
    ("1 * e1^2 x1^128", ExponentOverflow, "exponent of x1 exceeds the cap 127", None),
    ("1 * x1^128 e1 e1", None, None, None),
    ("0 * x1^128", None, None, None),
])
def test_malformed_input_errors(text, error, message, location):
    if error is None:
        assert not parse(ORACLE_TABLE, text)
        return
    with pytest.raises(error) as info:
        parse(ORACLE_TABLE, text)
    assert str(info.value) == message
    if error is ParseError:
        assert info.value.location == location
