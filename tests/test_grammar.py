"""Canonical grammar: round trips, golden forms, rejection."""

import pytest

from bfvkit.errors import ParseError
from bfvkit.generators import bfv1_table
from bfvkit.gpoly import GPoly
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
    from fractions import Fraction

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
