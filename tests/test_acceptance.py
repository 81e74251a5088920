"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero (rational identity) except the stated runtime
budgets and the numeric matrix-log oracle of criterion 9, whose tolerance
is the truncation-order error bound |y|^(order+1) at each sample point.

Criterion 6's final clause (the mixed-slot 2-bracket formula) is recorded
as a strict expected failure: with the 2-bracket normalized so that the
classical limit reproduces the canonical bracket (criterion 8, and the
documented convention pinning l_2(x1, x2) = +1), the mixed-slot value is
exactly minus the dual-bracket formula, and the two sign requirements are
mutually exclusive.  The engine value is asserted, with its sign, in
tests/test_homotopy.py.
"""

import copy
import random
import time
from fractions import Fraction

import pytest

from bfvkit.engine import (build_charge_deg0, build_charge_deg1, cocycle_lift,
                           delta_h, delta_v, extend_charge, koszul_solve,
                           master_residual)
from bfvkit.errors import NotFound
from bfvkit.generators import Kind, bfv0_table, bfv1_table
from bfvkit.gpoly import GPoly, bracket
from bfvkit.grammar import parse
from bfvkit.homotopy import BracketTower, class_equals, h0_probe, jacobi_residuals
from bfvkit.liedata import validate_bialgebra
from conftest import brute_force_monomials, k_monomials, random_homogeneous
from oracles import const_value, eval_base, preset_lie, var


def report(num, title, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"acceptance {num:2d} [{title}]: {status}{suffix}")
    assert ok, f"criterion {num} ({title}) failed"


@pytest.fixture(scope="module")
def so3(so3_classical):
    return so3_classical


@pytest.fixture(scope="module")
def so3_setup(so3):
    Q = build_charge_deg1(so3)
    Pi = cocycle_lift(so3, Q)
    series = extend_charge(so3, Q, Pi, 2, 4)
    return Q, Pi, series, BracketTower(series)


def test_criterion_1_graded_axiom_suite():
    table = bfv1_table(1, 1, 1)  # six generators, every kind represented
    rng = random.Random(1)
    s = table.shift
    start = time.monotonic()
    checked = 0
    while checked < 500:
        F = random_homogeneous(table, rng, rng.randint(0, 3), max_base=3)
        G = random_homogeneous(table, rng, rng.randint(-1, 3), max_base=3)
        H = random_homogeneous(table, rng, rng.randint(-1, 3), max_base=3)
        if not (F and G and H):
            continue
        checked += 1
        f, g = F.degree(), G.degree()
        assert not bracket(F, G) \
            + (-1) ** (((f - s) * (g - s)) % 2) * bracket(G, F)
        assert not bracket(F, G * H) - bracket(F, G) * H \
            - (-1) ** (((f - s) * g) % 2) * (G * bracket(F, H))
        assert not bracket(F, bracket(G, H)) - bracket(bracket(F, G), H) \
            - (-1) ** (((f - s) * (g - s)) % 2) * bracket(G, bracket(F, H))
    elapsed = time.monotonic() - start
    report(1, "graded axiom suite", checked >= 500 and elapsed < 60,
           f"{checked} triples in {elapsed:.1f}s")


def test_criterion_2_master_equation_so3(so3):
    start = time.monotonic()
    Q = build_charge_deg1(so3)
    ok = not master_residual(Q)
    elapsed = time.monotonic() - start
    bad = copy.deepcopy(so3)
    bad.lie.c[(2, 3, 1)] = Fraction(-1)
    ok = ok and bool(master_residual(build_charge_deg1(bad)))
    report(2, "master equation, classical so(3)", ok and elapsed < 1.0,
           f"build+residual {elapsed:.2f}s")


def test_criterion_3_two_term_termination(so3, so3_setup, dgla_identity):
    _Q, Pi, series, _tower = so3_setup
    corr = GPoly.zero(so3.table)
    for i in (1, 2, 3):
        corr = corr + so3.gen(Kind.ANTIGHOST_G, i) * so3.gen(Kind.GHOST_H, i)
    ok = series.exact and series.terms == [Pi] and Pi == so3.pi + corr

    S = dgla_identity
    Qd = build_charge_deg1(S)
    Pid = cocycle_lift(S, Qd)
    seriesd = extend_charge(S, Qd, Pid, 2, 4)
    corrd = GPoly.zero(S.table)
    for (i, j), v in S.dgla.A.items():
        corrd = corrd - v * (S.gen(Kind.GHOST_H, i) * S.gen(Kind.ANTIGHOST_G, j))
    ok = ok and seriesd.exact and seriesd.terms == [Pid] \
        and Pid == S.pi + corrd
    report(3, "two-term termination", ok)


def test_criterion_4_delta_splitting(so3, so3_setup):
    Q = so3_setup[0]
    rng = random.Random(4)
    patterns = [(g, a) for g in range(0, 3) for a in range(0, 3)]
    spaces = {}
    checked = 0
    while checked < 200:
        g, a = rng.choice(patterns)
        fdeg = rng.randint(-1, 3)
        key = (fdeg, g, a)
        if key not in spaces:
            spaces[key] = brute_force_monomials(so3.table, fdeg, g, a, 1)
        monos = spaces[key]
        if not monos:
            continue
        pick = rng.sample(monos, min(3, len(monos)))
        F = GPoly(so3.table, {m: Fraction(rng.randint(-2, 2)) for m in pick})
        F = GPoly(so3.table, {m: c for m, c in F.terms.items() if c})
        if not F:
            continue
        checked += 1
        assert not delta_v(Q, delta_v(Q, F))
        assert not delta_h(Q, delta_h(Q, F))
        assert not delta_h(Q, delta_v(Q, F)) + delta_v(Q, delta_h(Q, F))
    report(4, "delta splitting anticommutes", checked >= 200,
           f"{checked} bihomogeneous elements")


def test_criterion_5_koszul_round_trip(so3, so3_setup):
    Q = so3_setup[0]
    rng = random.Random(5)
    shapes = [(1, 0, 1), (2, 0, 1), (0, 0, 1), (2, 1, 2), (1, 0, 2)]
    spaces = {sh: brute_force_monomials(so3.table, sh[0], sh[1], sh[2], 1)
              for sh in shapes}
    done = 0
    while done < 100:
        sh = rng.choice(shapes)
        monos = spaces[sh]
        if not monos:
            continue
        pick = rng.sample(monos, min(2, len(monos)))
        P0 = GPoly(so3.table, {m: Fraction(rng.randint(-2, 2)) for m in pick})
        P0 = GPoly(so3.table, {m: c for m, c in P0.terms.items() if c})
        R = delta_v(Q, P0)
        if not R:
            continue
        done += 1
        P = koszul_solve(so3, Q, R, 1)
        assert delta_v(Q, P) == R
    not_exact = 0
    for bound in (0, 1, 2):
        try:
            koszul_solve(so3, Q, GPoly.const(so3.table, 1), bound)
        except NotFound:
            not_exact += 1
    report(5, "Koszul solver round-trip", done >= 100 and not_exact == 3,
           f"{done} round trips; constant rejected at 3 bounds")


def test_criterion_6_bialgebra_chain(aff1_bialgebra):
    S = aff1_bialgebra
    ok = validate_bialgebra(S.lie, S.bialgebra).passed
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    corr = GPoly.zero(S.table)
    for (j, i, k), v in S.bialgebra.a.items():
        corr = corr + v * (S.psi[i - 1] * S.gen(Kind.GHOST_G, j)
                           * S.gen(Kind.ANTIGHOST_G, k))
    ok = ok and Pi == S.pi + corr and not bracket(Q, Pi)
    tower = BracketTower(extend_charge(S, Q, Pi, 2, 4))
    ok = ok and not tower.ell(2, [S.gen(Kind.GHOST_G, 1), S.gen(Kind.GHOST_G, 2)])
    report(6, "bialgebra chain (validator, lift, ghost-ghost bracket)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="criteria 6 and 8 pin opposite global signs for l_2: with the "
    "2-bracket normalized so its classical limit matches the canonical "
    "bracket (criterion 8 and the l_2(x1,x2) = +1 convention), l_2(f, u*) "
    "equals exactly minus the dual-bracket formula; both signs cannot hold "
    "at once.  The engine value is asserted, with its sign, in "
    "tests/test_homotopy.py.")
def test_criterion_6_mixed_slot_formula_literal(aff1_bialgebra, rng):
    S = aff1_bialgebra
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    tower = BracketTower(extend_charge(S, Q, Pi, 2, 4))
    flat = bfv1_table(2, 0, 0)
    sampled = 0
    while sampled < 20:
        f = random_homogeneous(flat, rng, 0, max_base=3)
        if not f:
            continue
        sampled += 1
        f = parse(S.table, str(f))
        for m in (1, 2):
            oracle = GPoly.zero(S.table)
            for i in (1, 2):
                for k in (1, 2):
                    v = S.bialgebra.ab(k, i, m)
                    if v:
                        oracle = oracle + v * (
                            bracket(S.psi[i - 1], f) * S.gen(Kind.GHOST_G, k))
            assert tower.ell(2, [f, S.gen(Kind.GHOST_G, m)]) == oracle


def test_criterion_7_homotopy_jacobi(so3, so3_setup, quasi_chi):
    _Q, _Pi, series, tower = so3_setup
    assert series.exact
    rng = random.Random(7)
    done = 0
    while done < 100:
        args = []
        for _ in range(3):
            tg = rng.choice((-1, 0, 1))
            monos = k_monomials(so3.table, tg, 1)
            pick = rng.sample(monos, min(2, len(monos)))
            p = GPoly(so3.table, {m: Fraction(rng.randint(-2, 2)) for m in pick})
            p = GPoly(so3.table, {m: c for m, c in p.terms.items() if c})
            by_deg = {}
            for m, c in p.terms.items():
                by_deg.setdefault(p.mono_degree(m), {})[m] = c
            if by_deg:
                d = rng.choice(sorted(by_deg))
                p = GPoly(so3.table, by_deg[d])
            args.append(p)
        if not all(args):
            continue
        done += 1
        assert not jacobi_residuals(tower, args)[0, 1, 2]

    SQ = quasi_chi
    Qq = build_charge_deg1(SQ)
    Piq = cocycle_lift(SQ, Qq)
    tq = BracketTower(extend_charge(SQ, Qq, Piq, 2, 4))
    t = SQ.table
    f, g, h = (parse(t, f"1 * x{i}") for i in (1, 2, 3))
    jacobiator = tq.ell(2, [f, tq.ell(2, [g, h])]) + tq.ell(2, [g, tq.ell(2, [h, f])]) \
        + tq.ell(2, [h, tq.ell(2, [f, g])])
    homotopy = tq.ell(1, [tq.ell(3, [f, g, h])]) + tq.ell(3, [tq.ell(1, [f]), g, h]) \
        + tq.ell(3, [f, tq.ell(1, [g]), h]) + tq.ell(3, [f, g, tq.ell(1, [h])])
    ok = bool(jacobiator) and jacobiator == homotopy
    # equality holds for arbitrary base functions, not just coordinates
    rngb = random.Random(71)
    flat = bfv1_table(6, 0, 0)
    for _ in range(20):
        fs = []
        while len(fs) < 3:
            cand = random_homogeneous(flat, rngb, 0, max_base=2)
            if cand:
                fs.append(parse(t, str(cand)))
        assert not jacobi_residuals(tq, fs)[0, 1, 2]
    report(7, "homotopy Jacobi", done >= 100 and ok,
           f"{done} exact triples; quasi Jacobiator nonzero with homotopy")


def test_criterion_8_reduced_bracket_reproduction(so3, so3_setup,
                                                  abelian_translation):
    start = time.monotonic()
    tower = so3_setup[3]
    t = so3.table
    f = parse(t, "1 * x1^2 + 1 * x2^2 + 1 * x3^2")
    g = parse(t, "1 * x1 x4 + 1 * x2 x5 + 1 * x3 x6")
    probe = h0_probe(so3, tower, 4)
    # the invariant generators are l_1-closed and survive to H^0
    assert not tower.ell(1, [f]) and not tower.ell(1, [g])
    assert not class_equals(so3, tower, 4, f, GPoly.zero(t))
    val = tower.ell(2, [f, g])
    oracle = 2 * f  # canonical-bracket oracle {sum q^2, sum qp} = 2 sum q^2
    ok = class_equals(so3, tower, 4, val, oracle)
    ok = ok and probe.dim_h0 > 0 and probe.representatives

    SA = abelian_translation
    QA = build_charge_deg1(SA)
    PiA = cocycle_lift(SA, QA)
    towerA = BracketTower(extend_charge(SA, QA, PiA, 2, 4))
    probeA = h0_probe(SA, towerA, 3)
    ok = ok and all(not v for v in probeA.table.values())
    ok = ok and [str(p) for p in probeA.representatives] == \
        ["1", "1 * x1", "1 * x1^2", "1 * x1^3"]
    elapsed = time.monotonic() - start
    report(8, "reduced bracket reproduction", ok and elapsed < 30,
           f"H0 dim {probe.dim_h0} at degree 4; {elapsed:.1f}s")


def test_criterion_9_group_valued(group_valued_so3):
    scipy = pytest.importorskip("scipy")
    import numpy as np
    from scipy.linalg import logm

    from bfvkit.scenario import bch_transport_check, group_log_constraints

    S = group_valued_so3
    fks = group_log_constraints(S)
    base = S.table.ids_of_kind(Kind.BASE)
    mats = [np.array([[float(v) for v in row] for row in m])
            for m in S.basis_matrices]
    rng = random.Random(9)
    points = []
    while len(points) < 10:
        pt = tuple(Fraction(rng.randint(-4, 4), 32) for _ in range(3))
        if any(pt):
            points.append(pt)
    for pt in points:
        point = dict(zip(base, pt))
        phi_num = np.array([[float(const_value(eval_base(S.phi[i][j], point)))
                             for j in range(3)] for i in range(3)])
        log_num = logm(phi_num)
        tol = max(float(sum(v * v for v in pt)) ** 2.5, 1e-12)
        for k, fk in enumerate(fks):
            oracle = -0.5 * np.trace(mats[k] @ log_num)
            got = float(const_value(eval_base(fk, point)))
            assert abs(got - oracle) < tol, (pt, k)
    ok = bch_transport_check(S, 3).passed

    # assembled charge matches the four-term template with J0 = Phi* f
    Q = build_charge_deg1(S)
    t = S.table
    expected = GPoly.zero(t)
    for i in range(3):
        expected = expected + S.psi[i] * var(t, f"c{i+1}")
        expected = expected + fks[i] * var(t, f"C{i+1}")
    for (i, j, k), v in S.lie.c.items():
        expected = expected - Fraction(1, 2) * v * (
            var(t, f"c{i}") * var(t, f"c{j}") * var(t, f"b{k}"))
    for (m, nn, p), v in S.module.d.items():
        expected = expected - v * (
            var(t, f"c{m}") * var(t, f"C{nn}") * var(t, f"B{p}"))
    ok = ok and Q == expected
    report(9, "group-valued scenario", ok,
           "10 sample points; bch order 3; four-term charge")


def test_criterion_10_degree_zero_regression(so3, so3_setup):
    table0 = bfv0_table(6, 3, base_pairs=[(1, 4), (2, 5), (3, 6)])
    J = [parse(table0, "1 * x2 x6 - 1 * x3 x5"),
         parse(table0, "-1 * x1 x6 + 1 * x3 x4"),
         parse(table0, "1 * x1 x5 - 1 * x2 x4")]
    L = preset_lie("so3")
    Q0 = build_charge_deg0(L, J, table0)
    expected = GPoly.zero(table0)
    for i, Ji in enumerate(J):
        expected = expected + Ji * var(table0, f"c{i+1}")
    for (i, j, k), v in L.c.items():
        expected = expected - Fraction(1, 2) * v * (
            var(table0, f"c{i}") * var(table0, f"c{j}")
            * var(table0, f"b{k}"))
    ok = Q0 == expected and not master_residual(Q0)

    # Concordance: the degree-one differential restricted to the Lagrangian
    # algebra equals the BFV0 differential under the ghost-orientation
    # identification  x_a -> x_a,  c_i -> -c_i,  B_p -> b_p.
    t1 = so3.table
    Q1 = so3_setup[0]

    def transport(p):
        out = {}
        for m, cval in p.terms.items():
            evens, odd_ids = t1.codec.unpack(m)
            ev = tuple(sorted((table0.by_name(t1.gen(g).name).gid, e)
                              for g, e in evens))
            odds = []
            sign = 1
            for g in odd_ids:
                gen = t1.gen(g)
                if gen.kind == Kind.GHOST_G:
                    odds.append(table0.by_name(gen.name).gid)
                    sign = -sign
                elif gen.kind == Kind.ANTIGHOST_H:
                    odds.append(table0.by_name("b" + gen.name[1:]).gid)
                else:
                    raise AssertionError(gen.kind)
            # target ids keep the source order's parity structure: both
            # alphabets list ghosts before antighosts in increasing index
            from bfvkit.gpoly import normalize

            part = normalize(table0, [(sign * cval, [g for g, e in ev
                                                     for _ in range(e)]
                                       + odds)])
            for mm, cc in part.terms.items():
                out[mm] = out.get(mm, 0) + cc
        return GPoly(table0, {m: c for m, c in out.items() if c})

    gens1 = [t1.gen(g).name for g in t1.ids_of_kind(Kind.BASE)]
    gens1 += [t1.gen(g).name for g in t1.ids_of_kind(Kind.GHOST_G)]
    gens1 += [t1.gen(g).name for g in t1.ids_of_kind(Kind.ANTIGHOST_H)]
    for name in gens1:
        src = var(t1, name)
        lhs = transport(bracket(Q1, src))
        rhs = bracket(Q0, transport(src))
        ok = ok and lhs == rhs
    # also on a few products
    for expr in ("1 * x1 c1", "1 * x2 x5 B3", "1 * c1 B2", "1 * x4 c2 B1"):
        src = parse(t1, expr)
        ok = ok and transport(bracket(Q1, src)) == bracket(Q0, transport(src))
    report(10, "degree-zero regression and concordance", ok,
           "ghost orientation c -> -c identification")
