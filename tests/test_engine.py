"""Charges, master equations, splitting, Koszul solves, extensions."""

import copy
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.engine import (build_charge_deg0, build_charge_deg1, cocycle_lift, delta_h, delta_v, extend_charge,
                           koszul_solve, master_residual)
from bfvkit.errors import NotBihomogeneous, NotFound, PresetMismatch
from bfvkit.generators import Kind, bfv0_table
from bfvkit.gpoly import GPoly, bracket
from bfvkit.grammar import parse
from bfvkit.linalg import BlockEchelon, connected_blocks
from conftest import brute_force_monomials
from oracles import preset_lie, var
from test_linalg import key_owners


@pytest.fixture(scope="module")
def so3_Q(so3_classical):
    return build_charge_deg1(so3_classical)


@pytest.fixture(scope="session")
def bfv0_so3():
    table = bfv0_table(6, 3, base_pairs=[(1, 4), (2, 5), (3, 6)])
    J = [parse(table, "1 * x2 x6 - 1 * x3 x5"),
         parse(table, "-1 * x1 x6 + 1 * x3 x4"),
         parse(table, "1 * x1 x5 - 1 * x2 x4")]
    return table, J


# -- degree zero -------------------------------------------------------


def test_deg0_abelian_linear_moment():
    # momenta of two commuting translations: {J_i, J_j} = 0
    table = bfv0_table(4, 2, base_pairs=[(1, 3), (2, 4)])
    J = [parse(table, "1 * x3"), parse(table, "1 * x4")]
    L = preset_lie("abelian(2)")
    Q = build_charge_deg0(L, J, table)
    assert Q == parse(table, "1 * x3 c1 + 1 * x4 c2")
    assert not master_residual(Q)


def test_deg0_so3_charge_and_master(bfv0_so3):
    table, J = bfv0_so3
    Q = build_charge_deg0(preset_lie("so3"), J, table)
    # structure term -1/2 eps_{ijk} c_i c_j b_k is present
    cubic = parse(table, "-1 * c1 c2 b3 + 1 * c1 c3 b2 - 1 * c2 c3 b1")
    linear = Q - cubic
    expected_linear = GPoly.zero(table)
    for i, Ji in enumerate(J):
        expected_linear = expected_linear + Ji * var(table, f"c{i+1}")
    assert linear == expected_linear
    assert not master_residual(Q)


def test_deg0_zero_moment_pure_cubic():
    table = bfv0_table(1, 3)
    L = preset_lie("so3")
    Q = build_charge_deg0(L, [GPoly.zero(table)] * 3, table)
    assert set(Q.kinds_used()) == {Kind.GHOST_G, Kind.ANTIGHOST_G}
    assert not master_residual(Q)  # Jacobi identity


def test_deg0_requires_bfv0_table(so3_classical):
    with pytest.raises(PresetMismatch):
        build_charge_deg0(preset_lie("so3"),
                          [GPoly.zero(so3_classical.table)] * 3,
                          so3_classical.table)


# -- degree one --------------------------------------------------------


def test_deg1_abelian_single_term(abelian_translation):
    Q = build_charge_deg1(abelian_translation)
    assert Q == parse(abelian_translation.table, "1 * e2 c1")


def test_deg1_classical_template(so3_classical, so3_Q):
    S, Q = so3_classical, so3_Q
    t = S.table
    expected = GPoly.zero(t)
    for i in range(3):
        expected = expected + S.psi[i] * var(t, f"c{i+1}")
        expected = expected + S.J0[i] * var(t, f"C{i+1}")
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    for (i, j, k), v in eps.items():
        expected = expected - Fraction(1, 2) * v * (
            var(t, f"c{i}") * var(t, f"c{j}") * var(t, f"b{k}"))
        expected = expected - v * (
            var(t, f"c{i}") * var(t, f"C{j}") * var(t, f"B{k}"))
    assert Q == expected


def test_deg1_grading(so3_Q):
    assert sorted(so3_Q.grade_components()) == [(1, 2)]


def test_master_so3_and_corrupted(so3_classical, so3_Q):
    assert not master_residual(so3_Q)
    bad = copy.deepcopy(so3_classical)
    bad.lie.c[(1, 2, 3)] = Fraction(2)
    assert master_residual(build_charge_deg1(bad))


def test_brst_apply_squares_to_half_master(so3_classical, so3_Q, rng):
    from conftest import random_homogeneous

    Q = so3_Q
    for _ in range(10):
        F = random_homogeneous(so3_classical.table, rng, rng.randint(-1, 2))
        lhs = bracket(Q, bracket(Q, F))
        rhs = Fraction(1, 2) * bracket(bracket(Q, Q), F)
        assert lhs == rhs


# -- splitting ---------------------------------------------------------


def test_split_antighost_generator(so3_classical, so3_Q):
    S = so3_classical
    b1 = var(S.table, "b1")
    dH, dV = delta_h(so3_Q, b1), delta_v(so3_Q, b1)
    assert dV == S.psi[0]
    # the horizontal part consists of structure-constant terms
    assert dH == parse(S.table, "1 * C2 B3 - 1 * C3 B2 - 1 * b2 c3 + 1 * b3 c2")


def test_split_antighost_h_generator(so3_classical, so3_Q):
    S = so3_classical
    assert delta_v(so3_Q, var(S.table, "B1")) == S.J0[0]


def test_split_invariant_function_no_vertical(so3_classical, so3_Q):
    # g-invariant multivector with nothing to lower: delta_V f = 0
    S = so3_classical
    f = parse(S.table, "1 * x1^2 + 1 * x2^2 + 1 * x3^2")
    assert not delta_v(so3_Q, f)


def test_split_acts_per_bidegree_component(so3_classical, so3_Q):
    # delta_H and delta_V act on each (ghost, antighost) component of a
    # mixed input, and together they are {Q, .}
    t = so3_classical.table
    mixed = var(t, "b1") + var(t, "c1") * var(t, "b1") * var(t, "b2")
    parts = mixed.bidegree_components().values()
    assert len(parts) == 2
    for op in (delta_h, delta_v):
        assert op(so3_Q, mixed) == sum((op(so3_Q, p) for p in parts), GPoly.zero(t))
    assert delta_h(so3_Q, mixed) + delta_v(so3_Q, mixed) == bracket(so3_Q, mixed)


def test_split_anticommutes(so3_classical, so3_Q, rng):
    from conftest import random_homogeneous

    t = so3_classical.table
    Q = so3_Q
    n = 0
    while n < 40:
        F = random_homogeneous(t, rng, rng.randint(-1, 2))
        comps = F.bidegree_components()
        if len(comps) != 1:
            continue
        n += 1
        assert not delta_v(Q, delta_v(Q, F))
        assert not delta_h(Q, delta_h(Q, F))
        assert not delta_h(Q, delta_v(Q, F)) + delta_v(Q, delta_h(Q, F))


# -- koszul solver -----------------------------------------------------


def test_koszul_abelian_antighost(abelian_translation):
    S = abelian_translation
    Q = build_charge_deg1(S)
    P = koszul_solve(S, Q, S.psi[0], 1)
    assert delta_v(Q, P) == S.psi[0]
    assert P == var(S.table, "b1")


def test_koszul_round_trip(so3_classical, so3_Q, rng):
    S, Q = so3_classical, so3_Q
    monos = brute_force_monomials(S.table, 1, 0, 1, 1)
    done = 0
    while done < 15:
        pick = rng.sample(monos, 3)
        P0 = GPoly(S.table, {m: Fraction(rng.randint(-2, 2)) for m in pick})
        P0 = GPoly(S.table, {m: c for m, c in P0.terms.items() if c})
        R = delta_v(Q, P0)
        if not R:
            continue
        done += 1
        P = koszul_solve(S, Q, R, 2)
        assert delta_v(Q, P) == R


def test_koszul_constant_not_exact(so3_classical, so3_Q):
    for bound in (0, 1, 2):
        with pytest.raises(NotFound):
            koszul_solve(so3_classical, so3_Q,
                         GPoly.const(so3_classical.table, 1), bound)


# -- cocycle lift and extension ---------------------------------------


def test_lift_classical_closed_form(so3_classical, so3_Q):
    S = so3_classical
    Pi = cocycle_lift(S, so3_Q)
    corr = GPoly.zero(S.table)
    for i in (1, 2, 3):
        corr = corr + S.gen(Kind.ANTIGHOST_G, i) * S.gen(Kind.GHOST_H, i)
    assert Pi == S.pi + corr
    assert not bracket(so3_Q, Pi)
    comps = Pi.grade_components()
    assert set(comps) == {(0, 2)}
    assert Pi.bidegree_components()[(0, 0)] == S.pi


def test_lift_dgla_zero_matrix(dgla_identity):
    from bfvkit.liedata import DglaData

    # with A = 0 the dgla correction vanishes, but pi must still be closed;
    # that requires J0 = 0 (otherwise {Q, pi} has a C-term)
    S = replace(dgla_identity, dgla=DglaData({}),
                J0=[GPoly.zero(dgla_identity.table)] * 3)
    Q = build_charge_deg1(S)
    assert cocycle_lift(S, Q) == S.pi


def test_lift_dgla_scaled_matrix(so3_classical):
    # delta = -2 id with J0 doubled is again a hamiltonian dgla datum
    from bfvkit.liedata import DglaData

    S = replace(so3_classical, kind="dgla",
                dgla=DglaData({(i, i): Fraction(-2) for i in (1, 2, 3)}),
                J0=[2 * j for j in so3_classical.J0])
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    corr = GPoly.zero(S.table)
    for i in (1, 2, 3):
        corr = corr + 2 * (S.gen(Kind.GHOST_H, i) * S.gen(Kind.ANTIGHOST_G, i))
    assert Pi == S.pi + corr
    assert not bracket(Q, Pi)


def test_lift_bialgebra_template(aff1_bialgebra):
    S = aff1_bialgebra
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    corr = GPoly.zero(S.table)
    for (j, i, k), v in S.bialgebra.a.items():
        corr = corr + v * (S.psi[i - 1] * S.gen(Kind.GHOST_G, j)
                           * S.gen(Kind.ANTIGHOST_G, k))
    assert Pi == S.pi + corr
    assert not bracket(Q, Pi)


def test_extend_so3_two_term(so3_classical, so3_Q):
    S = so3_classical
    Pi = cocycle_lift(S, so3_Q)
    series = extend_charge(S, so3_Q, Pi, 3, 4)
    assert series.exact
    assert series.terms == [Pi]
    assert not series.residual
    assert series.residual_bound is None


def test_extend_dgla_two_term(dgla_identity):
    S = dgla_identity
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    series = extend_charge(S, Q, Pi, 3, 4)
    assert series.exact
    assert series.terms == [Pi]


def test_extend_bialgebra_higher_terms(aff1_bialgebra):
    S = aff1_bialgebra
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    series = extend_charge(S, Q, Pi, 2, 4)
    assert len(series.terms) == 3  # Pi, Pi^(-1), Pi^(-2)
    assert series.terms[1]
    assert series.residual_bound is not None and series.residual_bound <= -2
    # each term is homogeneous at (total ghost -k, function degree 2)
    for k, term in enumerate(series.terms):
        if term:
            assert sorted(term.grade_components()) == [(-k, 2)]
    # residual recomputed from scratch matches, and has no component above
    # the negative of the number of correction steps
    recomputed = Fraction(1, 2) * bracket(series.total, series.total)
    assert recomputed == series.residual
    assert all(gh <= -2 for gh, _ in series.residual.grade_components())


def test_extend_quasi_exact_with_antighost_correction(quasi_chi):
    S = quasi_chi
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q)
    series = extend_charge(S, Q, Pi, 2, 4)
    assert series.exact
    pm1 = series.terms[1]
    comps = pm1.bidegree_components()
    assert (0, 1) in comps and comps[(0, 1)]


def _extend_charge_rebracketing(S, Q, Pi, k_max, ansatz_degree):
    """The loop before the residual was carried between steps: it brackets
    the current total at the top of every step."""
    import bfvkit.engine as engine

    series = engine.ChargeSeries(Q=Q, terms=[Pi])
    total = Q + Pi
    engine._residual_info(total)
    for k in range(1, k_max + 1):
        res, _bound = engine._residual_info(total)
        if not res:
            break
        target = GPoly.zero(S.table)
        for (gh, _fd), part in res.grade_components().items():
            if gh == -(k - 1):
                target = target + part
        if not target:
            series.terms.append(GPoly.zero(S.table))
            continue
        correction = engine.solve_brst_exact(S, Q, -target, ansatz_degree,
                                             total_ghost=-k)
        series.terms.append(correction)
        total = total + correction
    series.residual, series.residual_bound = engine._residual_info(series.total)
    series.exact = not series.residual
    return series


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_extend_charge_brackets_each_total_once(quasi_chi, aff1_bialgebra,
                                                group_valued_so3, k_max,
                                                monkeypatch):
    import bfvkit.engine as engine

    real = engine._residual_info
    calls = []

    def counting(total):
        calls.append(total)
        return real(total)

    monkeypatch.setattr(engine, "_residual_info", counting)
    for S in (quasi_chi, aff1_bialgebra, group_valued_so3):
        Q = build_charge_deg1(S)
        Pi = cocycle_lift(S, Q)
        calls.clear()
        old = _extend_charge_rebracketing(S, Q, Pi, k_max, 4)
        old_calls = len(calls)
        calls.clear()
        new = extend_charge(S, Q, Pi, k_max, 4)
        assert (new.terms, new.residual, new.residual_bound, new.exact) == \
            (old.terms, old.residual, old.residual_bound, old.exact)
        if S is quasi_chi and k_max == 2:
            assert (old_calls, len(calls)) == (4, 2)
        if S is group_valued_so3:  # Pi = 0 and {Q, Q} = 0: closed at once
            assert len(calls) == 1
        assert len(calls) <= old_calls


@pytest.mark.parametrize("k_max", [0, 1, 2, 3])
def test_extend_charge_residual_is_that_of_the_total(k_max):
    # on every preset the stored residual is 1/2 {S, S} of the returned
    # total, and its bound the highest ghost - antighost of its monomials
    from bfvkit.config import parse_scenario
    from bfvkit.presets import PRESET_NAMES, load_preset

    for name in PRESET_NAMES:
        S = parse_scenario(load_preset(name))
        Q = build_charge_deg1(S)
        series = extend_charge(S, Q, cocycle_lift(S, Q), k_max, 4)
        total = series.total
        assert series.residual == Fraction(1, 2) * bracket(total, total)
        t = S.table
        ghosts = []
        for m in series.residual.num:
            evens, odds = t.codec.unpack(m)
            gens = [(t.gen(g), e) for g, e in evens] + [(t.gen(g), 1) for g in odds]
            ghosts.append(sum((z.ghost - z.antighost) * e for z, e in gens))
        assert series.residual_bound == max(ghosts, default=None)
        assert series.exact == (not ghosts)


def test_extend_requires_closed_input(so3_classical, so3_Q):
    # a failed identity, not a shape error: the CLI exits 1, not 2
    from bfvkit.errors import NotClosed, ShapeMismatch

    bad = so3_classical.pi + var(so3_classical.table, "c1") \
        * var(so3_classical.table, "e1")
    assert not issubclass(NotClosed, ShapeMismatch)
    with pytest.raises(NotClosed, match=r"requires \{Q, Q\} = 0 and \{Q, Pi\} = 0"):
        extend_charge(so3_classical, so3_Q, bad, 1, 2)


def test_lift_generic_ansatz_path(so3_classical):
    # same reduction data under the generic kind: no closed form is tried,
    # the bounded ansatz must find a correction with {Q, Pi} = 0
    S = replace(so3_classical, kind="generalized_pair")
    Q = build_charge_deg1(S)
    Pi = cocycle_lift(S, Q, ansatz_degree=2)
    assert not bracket(Q, Pi)
    assert Pi.bidegree_components()[(0, 0)] == S.pi


def test_lift_bounded_failure_then_success(abelian_translation):
    # pi = x2^2 e1 e2 needs a base-degree-1 correction; at ansatz bound 0
    # the system is inconsistent (LiftNotFound), at bound 1 it solves
    from bfvkit.errors import LiftNotFound

    S = replace(abelian_translation, kind="generalized_pair",
                pi=parse(abelian_translation.table, "1 * x2^2 e1 e2"))
    Q = build_charge_deg1(S)
    with pytest.raises(LiftNotFound):
        cocycle_lift(S, Q, ansatz_degree=0)
    Pi = cocycle_lift(S, Q, ansatz_degree=1)
    assert not bracket(Q, Pi)
    assert Pi.bidegree_components()[(0, 0)] == S.pi


def random_solvable_scenario(rng):
    """Random 2d solvable action scenarios on the line: [e1, e2] = mu e2
    realized by psi1 = -mu x1 e1 + nu e1, psi2 = e1 (mu, nu random)."""
    from bfvkit.generators import bfv1_table
    from bfvkit.liedata import LieAlgebraData
    from bfvkit.scenario import Scenario

    t = bfv1_table(1, 2, 0)
    mu = Fraction(rng.randint(-3, 3))
    nu = Fraction(rng.randint(-2, 2))
    x1, e1 = var(t, "x1"), var(t, "e1")
    psi1 = -mu * (x1 * e1) + nu * e1
    psi2 = e1
    L = LieAlgebraData(2, {(1, 2, 2): mu, (2, 1, 2): -mu} if mu else {})
    S = Scenario(kind="generalized_pair", n=1, table=t, pi=GPoly.zero(t),
                 psi=[psi1, psi2], J0=[], lie=L)
    return S


def test_master_iff_valid_data_randomized(rng):
    # valid structure constants + equivariant actions give {Q, Q} = 0;
    # corrupting one constant breaks it whenever the corruption changes
    # an equivariance identity
    from bfvkit.liedata import LieAlgebraData, validate_lie
    from bfvkit.scenario import check_equivariance

    for _ in range(15):
        S = random_solvable_scenario(rng)
        assert validate_lie(S.lie).passed
        assert check_equivariance(S).passed
        Q = build_charge_deg1(S)
        assert not master_residual(Q)
        bad = copy.deepcopy(S)
        delta = Fraction(rng.choice((1, 2, -1)))
        bad.lie.c[(1, 2, 2)] = bad.lie.c.get((1, 2, 2), Fraction(0)) + delta
        bad.lie.c[(2, 1, 2)] = -bad.lie.c[(1, 2, 2)]
        if not check_equivariance(bad).passed:
            assert master_residual(build_charge_deg1(bad))


# -- delta_V operator --------------------------------------------------


def test_delta_v_is_koszul_component_of_bracket(engine_requests):
    # every monomial of every shape that lift and extend enumerate: delta_V
    # is the (g, a - 1) component of the full bracket with the charge
    checked = 0
    for name in ("quasi-chi", "group-valued-so3", "aff1-bialgebra"):
        req = engine_requests[name]
        table = req.S.table
        for fdeg, g, a, bound in req.enumerations:
            for mono in brute_force_monomials(table, fdeg, g, a, bound):
                m = GPoly(table, {mono: Fraction(1)})
                full = bracket(req.Q, m).bidegree_components()
                expected = full.get((g, a - 1), GPoly.zero(table))
                assert delta_v(req.Q, m) == expected, (name, mono)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("extra", [
    "1 * b1",      # d/db1 = 1 pairs with c1: shift (-1, 0)
    "1 * c1 c2",   # d/dc1 = c2 pairs with b1: shift (1, -1)
])
def test_delta_v_malformed_charge(so3_classical, so3_Q, extra):
    # delta_H is cut from the same operator and refuses the same charges
    t = so3_classical.table
    bad = so3_Q + parse(t, extra)
    for op in (delta_v, delta_h):
        with pytest.raises(NotBihomogeneous):
            op(bad, var(t, "b2"))
    assert delta_v(so3_Q, var(t, "b2")) == so3_classical.psi[1]


def test_lift_escalation_computes_each_column_once(abelian_translation,
                                                   monkeypatch):
    # pi = x2^2 e1 e2 fails at base-degree bound 0 and solves at bound 1;
    # the bound-1 ansatz contains every bound-0 monomial, whose column must
    # be reused rather than computed again
    import collections

    import bfvkit.engine as engine

    S = replace(abelian_translation, kind="generalized_pair",
                pi=parse(abelian_translation.table, "1 * x2^2 e1 e2"))
    Q = build_charge_deg1(S)
    seen = collections.Counter()
    real = engine.Derivation.apply

    def counting(op, terms):
        seen.update(terms)
        return real(op, terms)

    monkeypatch.setattr(engine.Derivation, "apply", counting)
    Pi = cocycle_lift(S, Q, ansatz_degree=4)
    assert Pi == parse(S.table, "1 * x2^2 e1 e2 - 2 * x2 b1 e1 c1")
    assert not bracket(Q, Pi)
    assert seen and max(seen.values()) == 1
    # the bound-1 ansatz reached: it has monomials of base degree 1
    assert any(GPoly(S.table, {m: 1}).max_base_degree() == 1 for m in seen)


def test_lift_of_closed_pi_poses_no_ansatz(group_valued_so3, monkeypatch):
    # the closed form pi + b_i C_i fails its check on group-valued-so3, but
    # {Q, pi} = 0 there: pi is the lift, found without an ansatz system
    import bfvkit.engine as engine

    S = group_valued_so3
    Q = build_charge_deg1(S)
    calls = []

    def recorder(name, real):
        def recording(*args):
            calls.append(name)
            return real(*args)
        return recording

    for name in ("_reached_solve", "EchelonSolver"):
        monkeypatch.setattr(engine, name, recorder(name, getattr(engine, name)))
    assert not bracket(Q, S.pi)
    assert cocycle_lift(S, Q) == S.pi
    assert calls == []


# -- demand-driven systems against the full build ------------------------


def full_koszul_columns(S, Q, shape, ansatz_degree):
    """Every monomial of the shape with its delta_V image: the columns of
    the Koszul system as it was built before systems were posed over the
    reach of their target."""
    import bfvkit.engine as engine

    fdeg, g, a = shape
    op = engine._shift_part(Q, (0, -1))
    return [(mono, op(GPoly(S.table, {mono: 1})).terms)
            for mono in brute_force_monomials(S.table, fdeg, g, a, ansatz_degree)]


def full_koszul_system(S, Q, shape, ansatz_degree):
    return BlockEchelon(full_koszul_columns(S, Q, shape, ansatz_degree))


def touched_columns(columns, target):
    """Tags of the columns in the blocks (columns linked through shared
    keys) that hold a key of target, in column order."""
    cols = [(tag, vec) for tag, vec in columns if vec]
    return [cols[i][0] for i in sorted(
        i for block in connected_blocks(key_owners(vec for _, vec in cols))
        if any(k in target for i in block for k in cols[i][1])
        for i in block)]


def koszul_shape(R):
    (g, a), = R.ghost_support()
    return (R.degree() - 1, g, a + 1)


def full_koszul_solve(S, Q, R, ansatz_degree, system=None):
    """delta_V P = R solved on the full system, or None."""
    if not R:
        return GPoly.zero(S.table)
    system = system or full_koszul_system(S, Q, koszul_shape(R), ansatz_degree)
    sol = system.solve(R.terms)
    if sol is None:
        return None
    return GPoly(S.table, {m: c for m, c in sol.items() if c})


def full_generic_lift(S, Q, ansatz_degree):
    """The generic lift over the full ansatz at each escalating bound, as
    it was before systems were posed over the reach of their target; None
    where cocycle_lift raises LiftNotFound."""
    from bfvkit.gpoly import inner_derivation

    target = -bracket(Q, S.pi)
    if not target:
        return S.pi
    ad = inner_derivation(Q)
    for bound in range(ansatz_degree + 1):
        monos = []
        for g in range(1, S.dim_h + 3):
            monos.extend(brute_force_monomials(S.table, 2, g, g, bound))
        system = BlockEchelon((m, ad(GPoly(S.table, {m: 1})).terms) for m in monos)
        sol = system.solve(target.terms)
        if sol is not None:
            Pi = S.pi + GPoly(S.table, {m: c for m, c in sol.items() if c})
            return None if bracket(Q, Pi) else Pi
    return None


@pytest.fixture(scope="module")
def preset_koszul_solves():
    """Every koszul_solve that lift and extend (CLI defaults: bound 4, two
    steps) make on the six presets: (S, Q, R, bound, posed columns, P)."""
    import bfvkit.engine as engine
    from bfvkit.config import parse_scenario
    from bfvkit.presets import PRESET_NAMES, load_preset

    from test_scenario import recorded_columns

    out = []
    real = engine.koszul_solve
    with pytest.MonkeyPatch.context() as mp:
        posed = recorded_columns(mp)

        def recording(S, Q, R, bound):
            start = len(posed)
            P = real(S, Q, R, bound)
            out.append((S, Q, R, bound, posed[start:], P))
            return P

        mp.setattr(engine, "koszul_solve", recording)
        for name in PRESET_NAMES:
            S = parse_scenario(load_preset(name))
            Q = build_charge_deg1(S)
            extend_charge(S, Q, cocycle_lift(S, Q, 4), 2, 4)
    return out


def test_koszul_reach_is_touched_blocks_of_full_system(preset_koszul_solves):
    # the posed columns are exactly the full system's blocks that hold a
    # key of R, in enumeration order, and P is the full system's solution
    assert len(preset_koszul_solves) >= 3
    for S, Q, R, bound, posed, P in preset_koszul_solves:
        columns = full_koszul_columns(S, Q, koszul_shape(R), bound)
        assert posed == touched_columns(columns, R.terms)
        assert P == full_koszul_solve(S, Q, R, bound, BlockEchelon(columns))


@pytest.fixture(scope="module")
def koszul_spaces(quasi_chi, aff1_bialgebra, so3_classical):
    """The Koszul shapes the presets pose, and one whose delta_V runs
    through odd antighosts: (scenario, charge, bound, the shape's
    monomials, the full system, keys of the target shape that no column of
    the full system holds)."""
    out = []
    for S, shape, bound in ((quasi_chi, (2, 0, 1), 4),
                            (aff1_bialgebra, (2, 1, 2), 4),
                            (aff1_bialgebra, (2, 1, 3), 4),
                            (so3_classical, (1, 0, 1), 2)):
        Q = build_charge_deg1(S)
        full = full_koszul_system(S, Q, shape, bound)
        fdeg, g, a = shape
        stray = [m for m in brute_force_monomials(S.table, fdeg + 1, g, a - 1,
                                                  bound + 2)
                 if m not in full.key_block]
        out.append((S, Q, bound, brute_force_monomials(S.table, fdeg, g, a, bound),
                    full, stray))
    return out


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_koszul_round_trip_matches_full_build(koszul_spaces, data):
    S, Q, bound, monos, full, stray = data.draw(st.sampled_from(koszul_spaces))
    picks = data.draw(st.dictionaries(st.sampled_from(monos), coefficients,
                                      min_size=1, max_size=4))
    R = delta_v(Q, GPoly(S.table, {m: c for m, c in picks.items() if c}))
    P = koszul_solve(S, Q, R, bound)
    assert delta_v(Q, P) == R
    assert P == full_koszul_solve(S, Q, R, bound, full)
    # one key that no column holds makes both paths inconsistent
    key = data.draw(st.sampled_from(stray))
    c = data.draw(coefficients.filter(bool))
    R = R + GPoly(S.table, {key: c})
    assert full_koszul_solve(S, Q, R, bound, full) is None
    with pytest.raises(NotFound):
        koszul_solve(S, Q, R, bound)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generic_lift_matches_full_ansatz(abelian_translation, data):
    from bfvkit.errors import LiftNotFound

    t = abelian_translation.table
    fixed = [parse(t, "1 * x2^2 e1 e2"), parse(t, "1 * x1 x2 e1 e2")]
    bases = [parse(t, f"1 * {x} e1 e2")
             for x in ("x1", "x2", "x1^2", "x1 x2", "x2^2", "x1^2 x2")]
    pi = data.draw(st.sampled_from(fixed)) if data.draw(st.booleans()) else \
        sum((c * b for b, c in zip(bases, data.draw(
            st.lists(coefficients, min_size=6, max_size=6)))),
            GPoly.zero(t))
    S = replace(abelian_translation, kind="generalized_pair", pi=pi)
    Q = build_charge_deg1(S)
    bound = data.draw(st.integers(0, 3))
    expected = full_generic_lift(S, Q, bound)
    if expected is None:
        with pytest.raises(LiftNotFound):
            cocycle_lift(S, Q, bound)
    else:
        assert cocycle_lift(S, Q, bound) == expected


def test_generic_lift_column_order_matches_full_ansatz(aff1_bialgebra):
    # pi plus one ansatz monomial, for every monomial up to base degree 2:
    # at that bound some blocks hold a dependency across ghost levels, so
    # the solution depends on posing the columns ghost level by level
    S = replace(aff1_bialgebra, kind="generalized_pair")
    Q = build_charge_deg1(S)
    for g in (1, 2):
        for mono in brute_force_monomials(S.table, 2, g, g, 2):
            # a pi with ghost terms fails the shape check of a Scenario,
            # but the generic lift takes it as it takes any other target
            T = copy.copy(S)
            object.__setattr__(T, "pi", S.pi + GPoly(S.table, {mono: Fraction(1)}))
            assert cocycle_lift(T, Q, 2) == full_generic_lift(T, Q, 2), mono


def test_extend_poses_only_reached_columns(quasi_chi, aff1_bialgebra):
    # the full systems have 6,300 (quasi-chi) and 360 (aff1-bialgebra)
    # columns; a fallback to a full build would pose them all
    from test_scenario import recorded_columns

    for S, most in ((quasi_chi, 3), (aff1_bialgebra, 10)):
        Q = build_charge_deg1(S)
        Pi = cocycle_lift(S, Q)
        with pytest.MonkeyPatch.context() as mp:
            posed = recorded_columns(mp)
            extend_charge(S, Q, Pi, 2, 4)
        assert 0 < len(posed) <= most


def test_bounded_failures_name_the_system(so3_classical, so3_Q,
                                          abelian_translation):
    from bfvkit.errors import LiftNotFound

    with pytest.raises(NotFound, match=r"shape \(-1, 0, 1\), 0 columns, "
                                       r"rank 0 \(bound 1\)"):
        koszul_solve(so3_classical, so3_Q, GPoly.const(so3_classical.table, 1), 1)
    S = replace(abelian_translation, kind="generalized_pair",
                pi=parse(abelian_translation.table, "1 * x2^2 e1 e2"))
    with pytest.raises(LiftNotFound, match=r"shapes \(2, g, g\) for g in "
                                           r"1\.\.2, \d+ columns, rank \d+ "
                                           r"\(bound 0\)"):
        cocycle_lift(S, build_charge_deg1(S), 0)
