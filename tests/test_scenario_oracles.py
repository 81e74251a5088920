"""Oracles for the scenario checks that size their work to the answer.

``ideal_membership`` is a Koszul solve over the cofactor columns that its
target reaches, and the group-valued matrix series run on integers, split
by base degree over one denominator per matrix, multiplying only the parts
that stay within the truncation order.  Both are compared here with the
straightforward versions they replace, kept below as copies: a one-shot
``BlockEchelon`` solve over every column ``mono * g`` at the full bound,
and ``Fraction`` matrices of ``GPoly`` multiplied in full and truncated
afterwards.  The reference pairing with the basis builds its own dual
basis, inverting the ``Fraction`` trace-form Gram matrix with sympy.  The
series take polynomials in even generators, as the entries of Phi are.
"""

import copy
import functools
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.config import parse_scenario
from bfvkit.errors import (BfvError, NotNearIdentity, RankDeficient,
                           ShapeMismatch)
from bfvkit.generators import Kind, bfv1_table
from bfvkit.gpoly import GPoly, bracket, normalize
from bfvkit.grammar import parse
from bfvkit.linalg import BlockEchelon, EchelonSolver
from bfvkit.presets import load_preset
from bfvkit.reports import ValidationReport
from bfvkit.scenario import (_dual_log, _gradient_columns, _integer_matrix,
                             _log, _mat_sum, _powers, bch_transport_check,
                             group_log_constraints, ideal_membership, mat_mul)
from conftest import brute_force_monomials

# -- reference implementations -------------------------------------------


def one_shot_membership(table, gens, target, bound):
    """Every column ``mono * g`` up to ``bound`` in one BlockEchelon solve."""
    if not target:
        return [GPoly.zero(table) for _ in gens]
    if not target.is_homogeneous():
        comps = {}
        for (_gh, fd), part in target.grade_components().items():
            comps.setdefault(fd, GPoly.zero(table))
            comps[fd] = comps[fd] + part
        totals = None
        for part in comps.values():
            cof = one_shot_membership(table, gens, part, bound)
            if cof is None:
                return None
            totals = cof if totals is None else [a + b for a, b in zip(totals, cof)]
        return totals
    tdeg = target.degree()
    columns = []
    for gi, g in enumerate(gens):
        if not g:
            continue
        want = tdeg - g.degree()
        if want < 0:
            continue
        for mono in brute_force_monomials(table, want, 0, 0, bound):
            col = (GPoly(table, {mono: Fraction(1)}) * g).terms
            if col:
                columns.append(((gi, mono), col))
    sol = BlockEchelon(columns).solve(target.terms)
    if sol is None:
        return None
    cof = [GPoly.zero(table) for _ in gens]
    for (gi, mono), coef in sol.items():
        cof[gi] = cof[gi] + GPoly(table, {mono: coef})
    return cof


def mat_identity(table, dim):
    return tuple(tuple(GPoly.const(table, 1 if i == j else 0)
                       for j in range(dim)) for i in range(dim))


def mat_add(A, B, s=1):
    return tuple(tuple(a + s * b for a, b in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_is_zero(A):
    return all(not a for ra in A for a in ra)


def full_mat_mul(A, B, order):
    """Full product of polynomial matrices, then base truncation."""
    dim = len(A)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = None
            for k in range(dim):
                term = A[i][k] * B[k][j]
                acc = term if acc is None else acc + term
            row.append(acc.base_truncate(order))
        out.append(tuple(row))
    return tuple(out)


def mat_truncate(A, order):
    return tuple(tuple(a.base_truncate(order) for a in ra) for ra in A)


def ref_mat_log(N, order):
    table = N[0][0].table
    dim = len(N)
    acc = tuple(tuple(GPoly.zero(table) for _ in range(dim)) for _ in range(dim))
    power = mat_identity(table, dim)
    for m in range(1, order + 1):
        power = full_mat_mul(power, N, order)
        acc = mat_add(acc, power, Fraction((-1) ** (m + 1), m))
        if mat_is_zero(power):
            break
    return acc


def ref_dual_log(P, order):
    A, B = P
    table = A[0][0].table
    dim = len(A)
    N = (mat_add(A, mat_identity(table, dim), -1), B)
    zero = tuple(tuple(GPoly.zero(table) for _ in range(dim)) for _ in range(dim))
    acc = zero
    power = (mat_identity(table, dim), zero)
    for m in range(1, order + 2):
        (A1, B1), (C, D) = power, N
        power = (full_mat_mul(A1, C, order),
                 mat_add(full_mat_mul(A1, D, order), full_mat_mul(B1, C, order)))
        acc = mat_add(acc, power[1], Fraction((-1) ** (m + 1), m))
        if mat_is_zero(power[0]) and mat_is_zero(power[1]):
            break
    return acc


def rational_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def ref_pair_with_basis(S, M):
    """<u^k, M> for a matrix M of GPolys: the trace-form Gram matrix
    tr(L_k L_l) on Fractions, inverted by sympy, paired with M."""
    mats = [rational_matrix(m) for m in S.basis_matrices]
    n, dim = len(mats), len(mats[0])
    gram = sympy.Matrix(n, n, lambda k, l: sympy.Rational(str(sum(
        mats[k][a][b] * mats[l][b][a] for a in range(dim) for b in range(dim)))))
    if gram.det() == 0:
        raise RankDeficient("trace form of the basis matrices is degenerate")
    ginv = [[Fraction(str(gram.inv()[k, l])) for l in range(n)] for k in range(n)]
    out = []
    for k in range(n):
        acc = GPoly.zero(S.table)
        for l in range(n):
            for a in range(dim):
                for b in range(dim):
                    acc = acc + ginv[k][l] * mats[l][a][b] * M[b][a]
        out.append(acc)
    return out


def ref_group_log_constraints(S):
    order = S.truncation_order
    dim = len(S.phi)
    table = S.table
    phi = tuple(tuple(S.phi[i][j] for j in range(dim)) for i in range(dim))
    N = mat_add(phi, mat_identity(table, dim), -1)
    for i in range(dim):
        for j in range(dim):
            if N[i][j].base_component(0):
                raise NotNearIdentity(
                    f"phi[{i}][{j}] differs from identity at the origin")
    logphi = ref_mat_log(mat_truncate(N, order), order)
    fks = [f.base_truncate(order) for f in ref_pair_with_basis(S, logphi)]
    base_ids = table.ids_of_kind(Kind.BASE)
    points = S.sample_points or [tuple(Fraction(0) for _ in base_ids)]
    for pt in points:
        point = {gid: Fraction(v) for gid, v in zip(base_ids, pt)}
        es = EchelonSolver()
        for k, f in enumerate(fks):
            grad = {}
            for col, gid in enumerate(base_ids):
                val = f.deriv(gid).eval_base(point)
                if val.terms:
                    grad[col] = val.const_value()
            es.add_column(k, grad)
        if es.rank() != len(fks):
            raise RankDeficient("constraint differentials are rank deficient")
    return fks


def ref_bch_transport_check(S, order):
    rep = ValidationReport("bch")
    if S.kind != "group_valued":
        raise ShapeMismatch("bch_transport_check requires a group_valued scenario")
    table = S.table
    dim = len(S.phi)
    mats = [rational_matrix(m) for m in S.basis_matrices]
    phi = mat_truncate(tuple(tuple(r) for r in S.phi), order)
    nmat = ref_mat_log(mat_add(phi, mat_identity(table, dim), -1), order)

    def const_mat(m):
        return tuple(tuple(GPoly.const(table, v) for v in row) for row in m)

    ok = True
    first_bad = None
    for u in mats:
        um = const_mat(u)
        left = ref_dual_log((phi, full_mat_mul(phi, um, order)), order)
        right = ref_dual_log((phi, full_mat_mul(um, phi, order)), order)
        lhs = mat_add(left, right, -1)
        rhs = mat_add(full_mat_mul(nmat, um, order),
                      full_mat_mul(um, nmat, order), -1)
        diff = mat_add(lhs, rhs, -1)
        for o in range(order + 1):
            if any(e.base_component(o) for row in diff for e in row):
                ok = False
                first_bad = o if first_bad is None else min(first_bad, o)
                break
    rep.record("log-transport", ok,
               "" if ok else f"first failing order {first_bad}")

    fks = ref_group_log_constraints(S)
    ok = True
    first_bad = None
    n = S.dim_g
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lhs = bracket(S.psi[i - 1], fks[j - 1])
            rhs = GPoly.zero(table)
            for k in range(1, n + 1):
                v = S.lie.C(i, j, k)
                if v:
                    rhs = rhs + v * fks[k - 1]
            diff = lhs - rhs
            for o in range(order + 1):
                if diff.base_component(o):
                    ok = False
                    first_bad = o if first_bad is None else min(first_bad, o)
                    break
    rep.record("constraint-transport", ok,
               "" if ok else f"first failing order {first_bad}")
    return rep


# -- ideal membership ------------------------------------------------------

MEMBERSHIP_PRESETS = ("so3-classical", "dgla-identity", "aff1-bialgebra",
                      "group-valued-so3", "quasi-chi", "abelian-translation")


@functools.lru_cache(maxsize=None)
def assembled(name):
    S = parse_scenario(load_preset(name))
    return S, S.constraints[0] + S.constraints[1]


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@st.composite
def membership_cases(draw, name):
    """(target in the span of mono * g, the target plus a term outside the
    ideal, solve bound); cofactors have fiber degree <= 1."""
    S, gens = assembled(name)
    base = S.table.ids_of_kind(Kind.BASE)
    fiber = S.table.ids_of_kind(Kind.FIBER)
    built = draw(st.integers(0, 4))
    target = GPoly.zero(S.table)
    for _ in range(draw(st.integers(1, 3))):
        g = gens[draw(st.integers(0, len(gens) - 1))]
        factors = [base[draw(st.integers(0, len(base) - 1))]
                   for _ in range(draw(st.integers(0, built)))]
        if g.degree() == 0 and draw(st.booleans()):
            factors.append(fiber[draw(st.integers(0, len(fiber) - 1))])
        target = target + draw(coefficients) * (normalize(S.table, [(1, factors)]) * g)
    outside = parse(S.table, draw(st.sampled_from(["1 * e1", "1"])))
    return target, target + draw(coefficients) * outside, draw(st.integers(0, 4))


def check_membership(S, gens, target, bound):
    got = ideal_membership(S, target, bound)
    ref = one_shot_membership(S.table, gens, target, bound)
    assert (got is None) == (ref is None)
    if got is None:
        return None
    rebuilt = GPoly.zero(S.table)
    for h, g in zip(got, gens):
        assert h.max_base_degree() <= bound
        rebuilt = rebuilt + h * g
    assert rebuilt == target
    return got


@pytest.mark.parametrize("name", MEMBERSHIP_PRESETS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_escalated_membership_matches_one_shot(name, data):
    S, gens = assembled(name)
    inside, mixed, bound = data.draw(membership_cases(name))
    for target in (inside, mixed):
        got = check_membership(S, gens, target, bound)
        comps = {}
        for m, c in target.terms.items():
            comps.setdefault(target.mono_degree(m), {})[m] = c
        if len(comps) > 1:
            alone = [ideal_membership(S, GPoly(S.table, t), bound)
                     for t in comps.values()]
            assert (got is None) == any(a is None for a in alone)


def test_membership_outside_term_undecided_at_full_bound():
    # e1 is not in the ideal of so3-classical: inconsistent at bound 4
    S, gens = assembled("so3-classical")
    e1 = parse(S.table, "1 * e1")
    assert one_shot_membership(S.table, gens, e1, 4) is None
    assert ideal_membership(S, e1, 4) is None


# -- truncated matrix series -----------------------------------------------

SERIES_TABLE = bfv1_table(2, 1, 1)


@st.composite
def series_entries(draw):
    """Polynomials in the even generators: the base coordinates, which the
    truncation counts, and the antighost b1, which it does not."""
    x = SERIES_TABLE.ids_of_kind(Kind.BASE)
    b = SERIES_TABLE.ids_of_kind(Kind.ANTIGHOST_G)
    raw = []
    for _ in range(draw(st.integers(0, 3))):
        factors = [x[0]] * draw(st.integers(0, 3)) + [x[1]] * draw(st.integers(0, 3))
        factors += b * draw(st.integers(0, 2))
        raw.append((draw(coefficients), factors))
    return normalize(SERIES_TABLE, raw)


@st.composite
def matrix_pairs(draw):
    dim = draw(st.sampled_from([2, 3]))

    def matrix():
        return tuple(tuple(draw(series_entries()) for _ in range(dim))
                     for _ in range(dim))

    return matrix(), matrix(), draw(st.integers(0, 5))


def to_series(A, order):
    return _integer_matrix(A[0][0].table, A, order)


def from_series(table, M):
    _codec, entries, d = M
    return tuple(tuple(GPoly(table, {m: Fraction(c, d) for part in e.values()
                                     for m, c in part.items()})
                       for e in row) for row in entries)


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_truncated_mat_mul_matches_full_product(case):
    A, B, order = case
    got = mat_mul(to_series(A, order), to_series(B, order), order)
    assert from_series(SERIES_TABLE, got) == full_mat_mul(A, B, order)


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_integer_log_series_match_fraction_references(case):
    A, B, order = case
    # N drops its base-degree-0 terms, so it vanishes at the origin
    N = tuple(tuple(a - a.base_component(0) for a in row) for row in A)
    powers = _powers(to_series(N, order), order)
    assert from_series(SERIES_TABLE, _log(powers)) == ref_mat_log(N, order)
    dual = _mat_sum(_dual_log(powers, to_series(B, order), order))
    phi = mat_add(N, mat_identity(SERIES_TABLE, len(N)))
    assert from_series(SERIES_TABLE, dual) == ref_dual_log((phi, B), order)


def outcome(f, *args):
    try:
        return f(*args)
    except BfvError as exc:
        return type(exc)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_group_valued_series_match_full_products(order):
    # at order 0 the log is 0, so the differentials have rank 0
    S = replace(parse_scenario(load_preset("group-valued-so3")),
                truncation_order=order)
    ref_S = copy.deepcopy(S)
    got = outcome(group_log_constraints, S)
    assert got == outcome(ref_group_log_constraints, ref_S)
    assert (got is RankDeficient) == (order == 0)
    S = replace(S, truncation_order=max(order, 1))
    ref_S = replace(ref_S, truncation_order=max(order, 1))
    S.constraints
    ref_S.constraints
    assert (bch_transport_check(S, order).checks
            == ref_bch_transport_check(ref_S, order).checks)


def test_rational_basis_matches_reference():
    # basis matrices k/2 L_k and an integer sample point: the pairing scales
    # the basis to integers by one denominator, and the rank check puts
    # the point over its own
    S0 = parse_scenario(load_preset("group-valued-so3"))
    scales = [Fraction(k + 1, 2) for k in range(3)]
    mats = [[[v * s for v in row] for row in m]
            for s, m in zip(scales, S0.basis_matrices)]
    S = replace(S0, basis_matrices=mats, sample_points=[(1, Fraction(-1, 3), 2)])
    ref_S = copy.deepcopy(S)
    fks = group_log_constraints(S)
    assert fks == ref_group_log_constraints(ref_S)
    # the dual basis of s_k L_k is u^k / s_k
    assert fks == [f * (1 / s) for f, s in zip(group_log_constraints(S0), scales)]
    assert (bch_transport_check(S, 3).checks
            == ref_bch_transport_check(ref_S, 3).checks)


@pytest.mark.parametrize("point", [(0, 0, 0), (Fraction(1, 8), Fraction(-1, 8),
                                               Fraction(1, 16)),
                                   (2, Fraction(-3, 5), Fraction(7, 4))])
def test_gradient_columns_are_scaled_gradients(point):
    # each column is the exact gradient at the point times a positive scale
    S = parse_scenario(load_preset("group-valued-so3"))
    fks = group_log_constraints(S)
    base = S.table.ids_of_kind(Kind.BASE)
    got = _gradient_columns(S, fks, point)
    for k, f in enumerate(fks):
        exact = [f.deriv(g).eval_base(dict(zip(base, map(Fraction, point))))
                 .const_value() for g in base]
        col = [Fraction(got[k].get(i, 0)) for i in range(len(base))]
        pivot = next(i for i, v in enumerate(exact) if v)
        scale = col[pivot] / exact[pivot]
        assert scale > 0
        assert col == [scale * v for v in exact]


def test_bch_reports_a_failing_transport():
    S = parse_scenario(load_preset("group-valued-so3"))
    S = replace(S, psi=(S.psi[1], *S.psi[1:]))
    ref_S = copy.deepcopy(S)
    rep = bch_transport_check(S, 3)
    assert rep.checks == ref_bch_transport_check(ref_S, 3).checks
    assert not rep.passed
    assert rep.checks[-1].detail == "first failing order 1"


def test_series_leave_their_inputs_unchanged():
    S = parse_scenario(load_preset("group-valued-so3"))
    phi = [[dict(p.terms) for p in row] for row in S.phi]
    mats = copy.deepcopy(S.basis_matrices)
    group_log_constraints(S)
    S.constraints
    bch_transport_check(S, 4)
    assert [[p.terms for p in row] for row in S.phi] == phi
    assert S.basis_matrices == mats
