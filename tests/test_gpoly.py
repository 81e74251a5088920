"""Core graded algebra: normal forms, product, bracket, gradings."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.errors import (BfvError, ExponentOverflow, TableMismatch,
                           UnknownGenerator)
from bfvkit.generators import Kind, bfv0_table, bfv1_table
from bfvkit.gpoly import (Derivation, GPoly, bracket, derivation_sources,
                          inner_derivation, normalize)
from bfvkit.grammar import parse, serialize
from conftest import random_homogeneous


def gid(table, name):
    return table.by_name(name).gid


def V(table, name):
    return GPoly.var(table, name)


# -- normalize ---------------------------------------------------------


def brute_sign(odds):
    """Permutation sign of sorting an odd factor list, or 0 on repeats."""
    if len(set(odds)) != len(odds):
        return 0
    sign = 1
    lst = list(odds)
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign


def test_normalize_transposition_sign(small_table):
    t = small_table
    t2 = bfv1_table(2, 0, 0)
    e1, e2 = gid(t2, "e1"), gid(t2, "e2")
    assert normalize(t2, [(1, [e2, e1])]) == -(V(t2, "e1") * V(t2, "e2"))


def test_normalize_odd_square_vanishes():
    t = bfv1_table(2, 0, 0)
    assert not normalize(t, [(1, [gid(t, "e1"), gid(t, "e1")])])


def test_normalize_cancellation():
    t = bfv1_table(2, 0, 0)
    x1 = gid(t, "x1")
    assert not normalize(t, [(2, [x1, x1]), (-2, [x1, x1])])


def test_normalize_unknown_generator():
    t = bfv1_table(2, 0, 0)
    with pytest.raises(UnknownGenerator):
        normalize(t, [(1, [999])])


def test_normalize_matches_brute_force_sign(rng):
    t = bfv1_table(2, 2, 1)
    odd_ids = [g.gid for g in t.entries if g.parity]
    for _ in range(100):
        k = rng.randint(1, len(odd_ids))
        factors = [rng.choice(odd_ids) for _ in range(k)]
        got = normalize(t, [(1, list(factors))])
        sign = brute_sign(factors)
        if sign == 0:
            assert not got
        else:
            expected = GPoly(t, {t.codec.pack(((), tuple(sorted(factors)))):
                                 Fraction(sign)})
            assert got == expected


# -- mul ---------------------------------------------------------------


def test_mul_disjoint_factors():
    t = bfv1_table(2, 0, 0)
    lhs = (V(t, "x1") * V(t, "e1")) * (V(t, "x2") * V(t, "e2"))
    assert lhs == normalize(
        t, [(1, [gid(t, "x1"), gid(t, "x2"), gid(t, "e1"), gid(t, "e2")])])


def test_mul_odd_square():
    t = bfv1_table(2, 0, 0)
    assert not V(t, "e1") * (V(t, "e1") * V(t, "e2"))


def test_mul_difference_of_squares():
    # expected value computed with the brute-force expander below
    t = bfv1_table(2, 0, 0)
    x1, e1 = V(t, "x1"), V(t, "e1")

    def expand(pairs):
        out = GPoly.zero(t)
        for coeff, factors in pairs:
            out = out + normalize(t, [(coeff, factors)])
        return out

    xg, eg = gid(t, "x1"), gid(t, "e1")
    expected = expand([(1, [xg, xg]), (-1, [xg, eg]), (1, [eg, xg]),
                       (-1, [eg, eg])])
    assert (x1 + e1) * (x1 - e1) == expected
    assert expected == x1 * x1


def test_mul_graded_commutative_and_associative(small_table, rng):
    t = small_table
    for _ in range(150):
        df, dg, dh = rng.randint(0, 3), rng.randint(0, 3), rng.randint(-1, 3)
        F = random_homogeneous(t, rng, df)
        G = random_homogeneous(t, rng, dg)
        H = random_homogeneous(t, rng, dh)
        if not (F and G and H):
            continue
        sign = (-1) ** ((F.degree() * G.degree()) % 2)
        assert F * G == sign * (G * F)
        assert (F * G) * H == F * (G * H)


def test_mul_table_mismatch():
    t1, t2 = bfv1_table(1, 0, 0), bfv1_table(2, 0, 0)
    with pytest.raises(TableMismatch):
        V(t1, "x1") * V(t2, "x1")


# -- bracket -----------------------------------------------------------


def test_bracket_fiber_base_pairing():
    t = bfv1_table(2, 0, 0)
    for a in (1, 2):
        for b in (1, 2):
            val = bracket(V(t, f"e{a}"), V(t, f"x{b}"))
            assert val == GPoly.const(t, 1 if a == b else 0)


def test_bracket_bivector_with_coordinate():
    # Oracle: expand {x1, e1 e2} by the graded Leibniz rule from generator
    # brackets, then flip with the degree -1 antisymmetry.  This pins
    # {e1 e2, x1} = -e2; the left-derivative coordinate formula that gives
    # +e2 is not Leibniz-consistent (see the gpoly module notes).
    t = bfv1_table(2, 0, 0)
    e1, e2, x1 = V(t, "e1"), V(t, "e2"), V(t, "x1")
    b_x1_e1 = bracket(x1, e1)
    assert b_x1_e1 == GPoly.const(t, -1)
    oracle = b_x1_e1 * e2 + (-1) ** ((0 - 1) * 1 % 2) * e1 * bracket(x1, e2)
    flip = -(-1) ** (((2 - 1) * (0 - 1)) % 2)
    expected = flip * oracle
    assert expected == -e2
    assert bracket(e1 * e2, x1) == expected


def test_bracket_constant_bivector_squares_to_zero():
    t = bfv1_table(2, 0, 0)
    p = V(t, "e1") * V(t, "e2")
    assert not bracket(p, p)


def test_bracket_rotation_annihilates_radius():
    t = bfv1_table(2, 0, 0)
    x1, x2, e1, e2 = (V(t, n) for n in ("x1", "x2", "e1", "e2"))
    rot = x1 * e2 - x2 * e1
    r2 = x1 * x1 + x2 * x2
    # vector-field action oracle: {V, f} = sum_i V^i df/dx_i
    oracle = GPoly.zero(t)
    for name, comp in (("x1", -x2), ("x2", x1)):
        oracle = oracle + comp * r2.deriv(gid(t, name))
    assert not oracle
    assert not bracket(rot, r2)


def test_bracket_degree_shift(small_table, rng):
    t = small_table
    for _ in range(80):
        F = random_homogeneous(t, rng, rng.randint(0, 3))
        G = random_homogeneous(t, rng, rng.randint(-1, 3))
        if not (F and G):
            continue
        br = bracket(F, G)
        if br:
            assert br.degree() == F.degree() + G.degree() - 1


def test_bracket_degree_shift_bfv0(rng):
    t = bfv0_table(2, 1, base_pairs=[(1, 2)])
    for _ in range(60):
        F = random_homogeneous(t, rng, rng.randint(-1, 2))
        G = random_homogeneous(t, rng, rng.randint(-1, 2))
        if not (F and G):
            continue
        br = bracket(F, G)
        if br:
            assert br.degree() == F.degree() + G.degree()


def test_bracket_bigrading_inclusion(small_table, rng):
    # {A^{i,j}, A^{k,l}} lies in A^{i+k, j+l} + A^{i+k-1, j+l-1}
    t = small_table
    for _ in range(80):
        F = random_homogeneous(t, rng, rng.randint(0, 3))
        G = random_homogeneous(t, rng, rng.randint(-1, 3))
        if not (F and G):
            continue
        for (gi, ai), Fc in F.bidegree_components().items():
            for (gk, ak), Gc in G.bidegree_components().items():
                br = bracket(Fc, Gc)
                allowed = {(gi + gk, ai + ak), (gi + gk - 1, ai + ak - 1)}
                assert set(br.bidegree_components()) <= allowed


def test_graded_axioms(small_table, rng):
    t = small_table
    s = t.shift
    checked = 0
    while checked < 120:
        F = random_homogeneous(t, rng, rng.randint(0, 3))
        G = random_homogeneous(t, rng, rng.randint(-1, 3))
        H = random_homogeneous(t, rng, rng.randint(-1, 3))
        if not (F and G and H):
            continue
        checked += 1
        f, g = F.degree(), G.degree()
        anti = bracket(F, G) + (-1) ** (((f - s) * (g - s)) % 2) * bracket(G, F)
        assert not anti
        leib = bracket(F, G * H) - bracket(F, G) * H \
            - (-1) ** (((f - s) * g) % 2) * (G * bracket(F, H))
        assert not leib
        jac = bracket(F, bracket(G, H)) - bracket(bracket(F, G), H) \
            - (-1) ** (((f - s) * (g - s)) % 2) * bracket(G, bracket(F, H))
        assert not jac


# -- gradings ----------------------------------------------------------


def test_grade_components_single_term(small_table):
    t = small_table
    p = V(t, "e1") * V(t, "c1") * V(t, "b1")
    comps = p.grade_components()
    # e1 c1 b1 has ghost (1,1) and function degree 1 + 1 + 0 = 2
    assert set(comps) == {(0, 2)}
    assert comps[(0, 2)] == p


def test_grade_components_function_degree_split():
    t = bfv1_table(2, 0, 0)
    p = V(t, "x1") + V(t, "e1") * V(t, "e2")
    comps = p.grade_components()
    assert set(comps) == {(0, 0), (0, 2)}
    assert comps[(0, 0)] == V(t, "x1")
    assert sum(comps.values(), GPoly.zero(t)) == p


def test_grade_components_partition(small_table, rng):
    t = small_table
    for _ in range(40):
        F = random_homogeneous(t, rng, rng.randint(0, 2)) \
            + random_homogeneous(t, rng, rng.randint(-1, 3))
        total = GPoly.zero(t)
        for part in F.grade_components().values():
            assert part.is_homogeneous()
            total = total + part
        assert total == F


def test_canonical_equality_is_identity(small_table, rng):
    t = small_table
    for _ in range(30):
        F = random_homogeneous(t, rng, rng.randint(0, 3))
        G = random_homogeneous(t, rng, rng.randint(0, 3))
        assert (F == G) == (F.terms == G.terms)


# -- the tuple kernel, kept as the oracle ------------------------------
#
# Monomials as tuples ``((gid, exponent), ...), (gid, ...)``: the kernel
# bfvkit ran before every monomial became one packed int.  It shares no
# code with the packed product, derivative, bracket or normalize; the
# tests reach tuples only through the codec's ``pack`` and ``unpack``.


def tup(P):
    """The tuple-keyed terms of a GPoly."""
    return {P.table.codec.unpack(m): c for m, c in P.terms.items()}


def packed(table, terms):
    """The GPoly of tuple-keyed terms."""
    return GPoly(table, {table.codec.pack(m): c for m, c in terms.items()})


def _ref_merge_odds(s, t):
    merged, sign, i, j = [], 1, 0, 0
    while i < len(s) and j < len(t):
        if s[i] == t[j]:
            return None, 0
        if s[i] < t[j]:
            merged.append(s[i])
            i += 1
        else:
            if (len(s) - i) % 2:
                sign = -sign
            merged.append(t[j])
            j += 1
    merged.extend(s[i:])
    merged.extend(t[j:])
    return tuple(merged), sign


def _ref_mul(s_terms, t_terms):
    out = {}
    for m1, c1 in s_terms.items():
        for m2, c2 in t_terms.items():
            odds, sign = _ref_merge_odds(m1[1], m2[1])
            if sign == 0:
                continue
            ev = dict(m1[0])
            for g, e in m2[0]:
                ev[g] = ev.get(g, 0) + e
            m = (tuple(sorted(ev.items())), odds)
            v = out.get(m, 0) + sign * c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def _ref_deriv(table, terms, gid, side):
    out = {}
    for m, c in terms.items():
        if table.gen(gid).parity:
            if gid not in m[1]:
                continue
            pos = m[1].index(gid)
            crossed = pos if side == "left" else len(m[1]) - 1 - pos
            mono = (m[0], m[1][:pos] + m[1][pos + 1:])
            c = -c if crossed % 2 else c
        else:
            ev = dict(m[0])
            e = ev.pop(gid, 0)
            if not e:
                continue
            if e > 1:
                ev[gid] = e - 1
            mono = (tuple(sorted(ev.items())), m[1])
            c = c * e
        v = out.get(mono, 0) + c
        if v:
            out[mono] = v
        else:
            del out[mono]
    return out


def ref_normalize(table, raw):
    """Canonical tuple terms of (coefficient, factor ids) pairs: the sign of
    the permutation sorting the odd factors, zero on a repeated one."""
    acc = {}
    for coeff, factors in raw:
        coeff = Fraction(coeff)
        evens, odds = {}, []
        for gid in factors:
            if table.gen(gid).parity:
                odds.append(gid)
            else:
                evens[gid] = evens.get(gid, 0) + 1
        if not coeff or len(set(odds)) != len(odds):
            continue
        sign = (-1) ** sum(b > a for i, a in enumerate(odds) for b in odds[:i])
        mono = (tuple(sorted(evens.items())), tuple(sorted(odds)))
        v = acc.get(mono, 0) + sign * coeff
        if v:
            acc[mono] = v
        else:
            del acc[mono]
    return acc


def ref_serialize(table, terms):
    """Canonical text of tuple terms: terms by the expanded id sequence, even
    factors (repeated by exponent) before odd ones."""
    def expanded(m):
        return tuple(g for g, e in m[0] for _ in range(e)) + m[1]

    text = ""
    for m in sorted(terms, key=expanded):
        names = [table.gen(g).name + (f"^{e}" if e > 1 else "") for g, e in m[0]]
        names += [table.gen(g).name for g in m[1]]
        body = " * ".join([str(abs(terms[m]))] + ([" ".join(names)] if names else []))
        sign = "-" if terms[m] < 0 else "+"
        text += (f" {sign} " if text else ("-" if sign == "-" else "")) + body
    return text or "0"


def reference_bracket(F, G):
    table = F.table
    out = {}
    for (a, b), p in table.pairing.items():
        dF = _ref_deriv(table, tup(F), a, "right")
        if not dF:
            continue
        dG = _ref_deriv(table, tup(G), b, "left")
        if not dG:
            continue
        for m, c in _ref_mul(dF, dG).items():
            v = out.get(m, 0) + c * p
            if v:
                out[m] = v
            else:
                del out[m]
    return packed(table, out)


def ref_apply_derivation(op: dict, terms: dict) -> dict:
    """Terms of sum_b coef_b * dF/dz_b|L, read off the monomial tuples."""
    out = {}
    for (evens, odds), c in terms.items():
        parts = []
        for i, (b, e) in enumerate(evens):
            if b in op:
                rest = evens[:i] + ((b, e - 1),) if e > 1 else evens[:i]
                parts.append((op[b], (rest + evens[i + 1:], odds), c * e))
        for pos, b in enumerate(odds):
            if b in op:
                parts.append((op[b], (evens, odds[:pos] + odds[pos + 1:]),
                              -c if pos % 2 else c))
        for coef, dm, k in parts:
            for m, w in _ref_mul(coef, {dm: k}).items():
                v = out.get(m, 0) + w
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def ref_sources(table, op: dict, key) -> set:
    """The monomials z_b * (key / t) over the terms t of each coef_b that
    divide key, z_b odd not already in key / t."""
    kev, kodd = key
    out = set()
    for b, coef in op.items():
        for tev, todd in coef:
            ev = dict(kev)
            for g, e in tev:
                ev[g] = ev.get(g, 0) - e
            odds = tuple(g for g in kodd if g not in todd)
            if (min(ev.values(), default=0) < 0 or b in odds
                    or len(odds) + len(todd) != len(kodd)):
                continue
            if b in table.odd_ids:
                odds = tuple(sorted(odds + (b,)))
            else:
                ev[b] = ev.get(b, 0) + 1
            out.add((tuple(sorted((g, e) for g, e in ev.items() if e)), odds))
    return out


ORACLE_TABLES = (bfv1_table(2, 2, 1), bfv1_table(1, 1, 2),
                 bfv0_table(4, 2, base_pairs=((1, 3), (2, 4))),
                 bfv0_table(3, 3, base_pairs=((2, 1),)))


def raw_terms(table):
    """(coefficient, factor ids) lists as normalize and the parser take them."""
    return st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                  st.lists(st.sampled_from([g.gid for g in table.entries]),
                           max_size=5)),
        min_size=1, max_size=6)


@st.composite
def homogeneous_polys(draw, table, count):
    """``count`` random homogeneous polynomials over ``table``."""
    out = []
    for _ in range(count):
        P = normalize(table, draw(raw_terms(table)))
        comps = {}
        for m, c in P.terms.items():
            comps.setdefault(P.mono_degree(m), {})[m] = c
        if not comps:
            out.append(P)
            continue
        deg = draw(st.sampled_from(sorted(comps)))
        out.append(GPoly(table, comps[deg]))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bracket_matches_reference_and_axioms(data):
    t = data.draw(st.sampled_from(ORACLE_TABLES))
    F, G, H = data.draw(homogeneous_polys(t, 3))
    assert bracket(F, G) == reference_bracket(F, G)
    assert bracket(F, G * H) == reference_bracket(F, G * H)
    if not (F and G and H):
        return
    s, f, g = t.shift, F.degree(), G.degree()
    assert bracket(F, G) == -(-1) ** (((f - s) * (g - s)) % 2) * bracket(G, F)
    assert bracket(F, G * H) == bracket(F, G) * H \
        + (-1) ** (((f - s) * g) % 2) * (G * bracket(F, H))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_mul_deriv_and_order_match_tuple_kernel(data):
    t = data.draw(st.sampled_from(ORACLE_TABLES))
    raw_f, raw_g = data.draw(raw_terms(t)), data.draw(raw_terms(t))
    F, G = normalize(t, raw_f), normalize(t, raw_g)
    assert tup(F) == ref_normalize(t, raw_f)
    assert tup(F * G) == _ref_mul(tup(F), tup(G))
    gid = data.draw(st.sampled_from([g.gid for g in t.entries]))
    for side in ("left", "right"):
        assert tup(F.deriv(gid, side)) == _ref_deriv(t, tup(F), gid, side)
    # the printed term order is the tuple kernel's, whatever the key order
    assert serialize(F) == ref_serialize(t, tup(F))
    assert parse(t, serialize(F)) == F


# -- the packed {F, .} kernel against the tuple forms -------------------


KERNEL_TABLES = (bfv1_table(2, 2, 1), bfv0_table(3, 2, base_pairs=((1, 3),)))


@st.composite
def monomials(draw, table, max_exp):
    evens = [g.gid for g in table.entries if not g.parity]
    odds = [g.gid for g in table.entries if g.parity]
    ev = draw(st.dictionaries(st.sampled_from(evens), st.integers(1, max_exp),
                              max_size=3))
    od = draw(st.sets(st.sampled_from(odds), max_size=4))
    return tuple(sorted(ev.items())), tuple(sorted(od))


def rational_terms(table, max_exp):
    return st.dictionaries(
        monomials(table, max_exp),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
        max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_codec_product_and_round_trip(data):
    t = data.draw(st.sampled_from(KERNEL_TABLES))
    codec = t.codec
    # odd parts: disjoint slices of a shuffle, sometimes sharing one id
    odds = data.draw(st.permutations(sorted(t.odd_ids)))
    i = data.draw(st.integers(0, len(odds)))
    j = data.draw(st.integers(i, len(odds)))
    shared = odds[:1] if i and data.draw(st.booleans()) else []
    m1 = (data.draw(monomials(t, 63))[0], tuple(sorted(odds[:i])))
    m2 = (data.draw(monomials(t, 64))[0], tuple(sorted(odds[i:j] + shared)))
    k1, k2 = codec.pack(m1), codec.pack(m2)
    assert codec.unpack(k1) == m1 and codec.unpack(k2) == m2
    assert tup(packed(t, {m1: 1}) * packed(t, {m2: 1})) == _ref_mul({m1: 1}, {m2: 1})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_derivation_matches_tuple_loop(data):
    t = data.draw(st.sampled_from(KERNEL_TABLES))
    if data.draw(st.booleans()):
        F, = data.draw(homogeneous_polys(t, 1))
        op = inner_derivation(F)
    else:
        # integer coefficients over a common denominator
        op = Derivation(t, {b: dict(packed(t, coef).num) for b, coef in data.draw(
            st.dictionaries(st.sampled_from([g.gid for g in t.entries]),
                            rational_terms(t, 3), max_size=4)).items()},
            data.draw(st.integers(1, 12)))
    terms = data.draw(rational_terms(t, 6))
    tuple_op = {b: tup(GPoly._make(t, dict(coef), op.denominator))
                for b, coef in op.nums.items()}
    got = op(packed(t, terms))
    assert tup(got) == ref_apply_derivation(tuple_op, terms)
    assert all(type(c) is Fraction and c for c in got.terms.values())
    # the transpose: every key of the image has each of its sources among
    # the tuple kernel's candidates, and nothing else is a candidate
    for key in list(got.terms)[:3]:
        sources = derivation_sources(op, key)
        assert {t.codec.unpack(m) for m in sources} == \
            ref_sources(t, tuple_op, t.codec.unpack(key))
        assert any(key in op.apply({m: 1}) for m in sources)


def test_codec_overflow_guard():
    t = bfv1_table(2, 1, 1)
    codec = t.codec
    x1, x2 = gid(t, "x1"), gid(t, "x2")
    cap = codec.CAP
    assert (codec.WIDTH, cap) == (8, 127)
    full = (((x1, cap), (x2, cap)), ())
    assert codec.unpack(codec.pack(full)) == full
    with pytest.raises(ExponentOverflow, match="x2"):
        codec.pack((((x1, 1), (x2, cap + 1)), ()))
    # parsing multiplies the factors out: x1^cap is a value, x1^(cap+1) is not
    assert tup(parse(t, f"1 * x1^{cap} x2^{cap}")) == {full: 1}
    with pytest.raises(ExponentOverflow, match="x1"):
        parse(t, f"1 * x1^{cap + 1}")
    assert issubclass(ExponentOverflow, BfvError)


def test_product_overflow_sets_the_guard_bit():
    # two exponents within the cap whose sum is past it: the add carries
    # into the field's guard bit, never into the next field
    t = bfv1_table(2, 1, 1)
    big = parse(t, "1 * x1^100 x2^127")
    assert big * parse(t, "1 * x1^27") == parse(t, "1 * x1^127 x2^127")
    with pytest.raises(ExponentOverflow, match="x1"):
        big * parse(t, "1 * x1^28")
    with pytest.raises(ExponentOverflow, match="x2"):
        big * parse(t, "2 * x2 e1")
    assert big.deriv(gid(t, "x2")) == 127 * parse(t, "1 * x1^100 x2^126")


def test_leibniz_column_overflow_sets_the_guard_bit():
    # {x1 b1, .} sends c1 to a multiple of x1, so the column of x1^e c1
    # holds Y_c1 x1^e = x1^(e+1): within the cap at e = 126, past it at 127
    t = bfv1_table(2, 1, 1)
    op = inner_derivation(parse(t, "1 * x1 b1"))
    c1 = t.codec.unit[gid(t, "c1")]
    (b,) = parse(t, "1 * x1^126").num
    assert list(op.columns([b], [c1])) == [op.apply({b + c1: 1})] != [{}]
    (b,) = parse(t, "1 * x1^127").num
    with pytest.raises(ExponentOverflow, match="x1"):
        list(op.columns([b], [c1]))


# -- integer numerators over one denominator ----------------------------


def canonical(P):
    """P as ``num / den`` in lowest terms: nonzero int numerators and a
    positive denominator sharing no factor with all of them."""
    assert type(P.den) is int and P.den > 0
    assert all(type(v) is int and v for v in P.num.values())
    assert gcd(P.den, *P.num.values()) == 1
    return P


def test_constructor_copies_its_terms(small_table):
    t = small_table
    x1 = t.codec.unit[gid(t, "x1")]
    terms = {0: 5, x1: Fraction(4, 6)}
    P = GPoly(t, terms)
    h = hash(P)
    terms[x1] = Fraction(7)
    terms[t.codec.unit[gid(t, "e1")]] = 1
    del terms[0]
    assert P == parse(t, "5 + 2/3 * x1") and hash(P) == h
    assert (P.num, P.den) == ({0: 15, x1: 2}, 3)
    assert hash(P) == hash(parse(t, "2/3 * x1 + 5"))
    with pytest.raises(TypeError):
        P.terms[x1] = 1


def _ref_combine(*pairs):
    """sum of c * terms over the (rational c, tuple-keyed terms) pairs."""
    out = {}
    for c, terms in pairs:
        for m, v in terms.items():
            w = out.get(m, 0) + c * v
            if w:
                out[m] = w
            else:
                out.pop(m, None)
    return out


@pytest.fixture(scope="module")
def rescaled_values():
    """Per preset: the table, the charge's inner derivation and the values
    after a cotangent rescaling, so that the charge, the lift and the
    document polynomials have non-unit denominators."""
    from test_homotopy import rescaled_preset, tower_for

    out = []
    for name in ("so3-classical", "dgla-identity"):
        S = rescaled_preset(name)
        tower = tower_for(S)
        values = [tower.series.Q, *tower.series.terms, S.pi, *S.psi, *S.J0]
        assert tower.ad_q.denominator > 1 and any(P.den > 1 for P in values)
        out.append((S.table, tower.ad_q, values))
    return out


@st.composite
def rescaled_operands(draw, presets):
    """(table, ad_Q, Q, two values): each value a rational multiple of a
    value of a rescaled preset plus rational multiples of monomials of
    their supports."""
    table, ad_q, values = draw(st.sampled_from(presets))
    keys = sorted({m for P in values for m in P.num})
    scalars = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    out = []
    for _ in range(2):
        P = draw(scalars) * draw(st.sampled_from(values))
        for m in draw(st.lists(st.sampled_from(keys), max_size=4)):
            P = P + GPoly(table, {m: draw(scalars)})
        out.append(P)
    return table, ad_q, values[0], out[0], out[1]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_form_matches_fraction_reference(rescaled_values, data):
    t, ad_q, Q, F, G = data.draw(rescaled_operands(rescaled_values))
    c = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=10))
    f, g = tup(canonical(F)), tup(canonical(G))
    cases = [
        (F + G, _ref_combine((1, f), (1, g))),
        (F - G, _ref_combine((1, f), (-1, g))),
        (-F, _ref_combine((-1, f))),
        (F * c, _ref_combine((c, f))),
        (c * G, _ref_combine((c, g))),
        (F * G, _ref_mul(f, g)),
        (bracket(F, G), tup(reference_bracket(F, G))),
        (inner_derivation(F)(G), tup(reference_bracket(F, G))),
        (ad_q(G), tup(reference_bracket(Q, G))),
    ]
    for got, want in cases:
        assert tup(canonical(got)) == want
        # the same value built from its Fractions: equal, and equal hashes
        again = packed(t, want)
        assert got == again and hash(got) == hash(again)
    for side in ("left", "right"):
        gids = [z.gid for z in t.entries]
        parts = F.partials(side)
        for z in gids:
            want = _ref_deriv(t, f, z, side)
            assert {t.codec.unpack(m): Fraction(v, F.den)
                    for m, v in parts.get(z, {}).items()} == want
            assert tup(canonical(F.deriv(z, side))) == want
    assert (F + G) - G == F and hash((F + G) - G) == hash(F)
    # substituting rationals for some base coordinates
    base = [z.gid for z in t.entries if z.kind == Kind.BASE]
    point = dict(zip(base[::2], data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        min_size=len(base[::2]), max_size=len(base[::2])))))
    want = {}
    for (evens, odds), v in f.items():
        for g, e in evens:
            v *= point.get(g, 1) ** e
        want = _ref_combine((1, want), (v, {(tuple((g, e) for g, e in evens
                                                   if g not in point), odds): 1}))
    assert tup(canonical(F.eval_base(point))) == want
