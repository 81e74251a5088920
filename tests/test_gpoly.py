"""Core graded algebra: normal forms, product, bracket, gradings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.errors import BfvError, TableMismatch, UnknownGenerator
from bfvkit.generators import bfv0_table, bfv1_table
from bfvkit.gpoly import (Derivation, GPoly, MonomialCodec, _mono_mul,
                          apply_derivation, bracket, inner_derivation, mul,
                          normalize)
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
            expected = GPoly(t, {((), tuple(sorted(factors))): Fraction(sign)})
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
        mul(V(t1, "x1"), V(t2, "x1"))


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


# -- bracket oracle ----------------------------------------------------
#
# The bracket below is the earlier implementation, kept as the reference:
# it visits every pairing, differentiates with a per-call parity lookup and
# rebuilds the output once per pairing.  It shares no code with bfvkit's
# bracket, product or derivative.


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


def reference_bracket(F, G):
    table = F.table
    out = {}
    for (a, b), p in table.pairing.items():
        dF = _ref_deriv(table, F.terms, a, "right")
        if not dF:
            continue
        dG = _ref_deriv(table, G.terms, b, "left")
        if not dG:
            continue
        for m, c in _ref_mul(dF, dG).items():
            v = out.get(m, 0) + c * p
            if v:
                out[m] = v
            else:
                del out[m]
    return GPoly(table, out)


ORACLE_TABLES = (bfv1_table(2, 2, 1), bfv1_table(1, 1, 2),
                 bfv0_table(4, 2, base_pairs=((1, 3), (2, 4))),
                 bfv0_table(3, 3, base_pairs=((2, 1),)))


@st.composite
def homogeneous_polys(draw, table, count):
    """``count`` random homogeneous polynomials over ``table``."""
    gids = [g.gid for g in table.entries]
    out = []
    for _ in range(count):
        raw = draw(st.lists(
            st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                      st.lists(st.sampled_from(gids), max_size=5)),
            min_size=1, max_size=6))
        P = normalize(table, raw)
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


# -- the packed {F, .} kernel against the tuple forms -------------------
#
# ``ref_apply_derivation`` is the tuple loop that the packed kernel
# replaced, kept here with the reference product above in place of
# ``_mono_mul``.


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
    bound = data.draw(st.integers(1, 9))
    codec = MonomialCodec(t, bound)
    # odd parts: disjoint slices of a shuffle, sometimes sharing one id
    odds = data.draw(st.permutations(sorted(t.odd_ids)))
    i = data.draw(st.integers(0, len(odds)))
    j = data.draw(st.integers(i, len(odds)))
    shared = odds[:1] if i and data.draw(st.booleans()) else []
    m1 = (data.draw(monomials(t, codec.bound))[0], tuple(sorted(odds[:i])))
    m2 = (data.draw(monomials(t, codec.bound))[0], tuple(sorted(odds[i:j] + shared)))
    k1, k2 = codec.pack(m1), codec.pack(m2)
    assert codec.unpack(k1) == m1 and codec.unpack(k2) == m2
    m, sign = _mono_mul(m1, m2)
    if k1 & k2 & codec.odd_mask:
        assert sign == 0
        return
    assert codec.unpack(k1 + k2) == m
    assert sign == (-1 if (k2 & codec.sign_mask(k1)).bit_count() % 2 else 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_derivation_matches_tuple_loop(data):
    t = data.draw(st.sampled_from(KERNEL_TABLES))
    if data.draw(st.booleans()):
        F, = data.draw(homogeneous_polys(t, 1))
        op = inner_derivation(F)
    else:
        op = Derivation(t, data.draw(st.dictionaries(
            st.sampled_from([g.gid for g in t.entries]), rational_terms(t, 3),
            max_size=4)))
    terms = data.draw(rational_terms(t, 6))
    got = apply_derivation(op, terms)
    assert got == ref_apply_derivation(op.terms, terms)
    assert all(type(c) is Fraction and c for c in got.values())


def test_codec_overflow_guard():
    t = bfv1_table(2, 1, 1)
    x1, x2 = gid(t, "x1"), gid(t, "x2")
    codec = MonomialCodec(t, 3)
    # a 3-bit field holds an exponent up to 3 and the sum of two of them
    assert (codec.width, codec.bound) == (3, 3)
    full = (((x1, 3), (x2, 3)), ())
    assert codec.unpack(codec.pack(full)) == full
    with pytest.raises(BfvError, match="x2"):
        codec.pack((((x1, 1), (x2, 4)), ()))
    # an operator's kernel is sized by its own exponents and the bound asked for
    op = inner_derivation(normalize(t, [(Fraction(1, 3), [x1] * 5 + [gid(t, "e1")])]))
    kernel = op.packed(2)
    assert kernel.codec.bound == 7 and op.denominator == 3
    with pytest.raises(BfvError):
        kernel.codec.pack((((x2, 8),), ()))
