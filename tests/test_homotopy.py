"""Derived brackets on the Lagrangian algebra and cohomology probes."""

import copy
import types
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit import homotopy, linalg
from bfvkit.config import parse_scenario
from bfvkit.engine import (ChargeSeries, build_charge_deg1, cocycle_lift,
                           extend_charge)
from bfvkit.errors import InternalSignError, NotInLagrangian, TruncationWarning
from bfvkit.generators import Kind, bfv1_table
from bfvkit.gpoly import GPoly, bracket, inner_derivation
from bfvkit.grammar import parse, serialize
from bfvkit.homotopy import (BracketTower, ProbeReport, class_equals, h0_probe,
                             homotopy_jacobi_residual, jacobi_residuals,
                             restrict_check)
from bfvkit.linalg import EchelonSolver
from bfvkit.liedata import preset_lie
from bfvkit.presets import PRESET_NAMES, load_preset
from bfvkit.scenario import Scenario
from conftest import brute_force_monomials, k_monomials
from test_linalg import FractionEchelonSolver


def tower_for(scenario, kmax=2, ansatz=4):
    Q = build_charge_deg1(scenario)
    Pi = cocycle_lift(scenario, Q, ansatz)
    return BracketTower(extend_charge(scenario, Q, Pi, kmax, ansatz))


@pytest.fixture(scope="module")
def so3_tower(so3_classical):
    return tower_for(so3_classical)


@pytest.fixture(scope="module")
def quasi_tower(quasi_chi):
    return tower_for(quasi_chi)


@pytest.fixture(scope="module")
def aff1_tower(aff1_bialgebra):
    return tower_for(aff1_bialgebra)


@pytest.fixture(scope="module")
def abelian_tower(abelian_translation):
    return tower_for(abelian_translation)


def rand_lagrangian(table, rng, max_base=2):
    """Random homogeneous element of the Lagrangian algebra."""
    for _ in range(50):
        tg = rng.choice((-2, -1, 0, 1, 2))
        monos = k_monomials(table, tg, max_base)
        if not monos:
            continue
        pick = rng.sample(monos, min(3, len(monos)))
        p = GPoly(table, {m: Fraction(rng.randint(-2, 2)) for m in pick})
        p = GPoly(table, {m: c for m, c in p.terms.items() if c})
        if not p:
            continue
        by_deg = {}
        for m, c in p.terms.items():
            by_deg.setdefault(p.mono_degree(m), {})[m] = c
        deg = rng.choice(sorted(by_deg))
        return GPoly(table, by_deg[deg])
    return GPoly.zero(table)


# -- restriction -------------------------------------------------------


def test_restrict_accepts_lagrangian(so3_classical):
    t = so3_classical.table
    restrict_check(parse(t, "1 * x1 c1"))
    restrict_check(parse(t, "1 * x3 B1 B2"))


def test_restrict_rejects_fiber(so3_classical):
    with pytest.raises(NotInLagrangian):
        restrict_check(parse(so3_classical.table, "1 * e1"))


def test_restrict_rejects_antighost_g_and_ghost_h(so3_classical):
    for bad in ("1 * b1", "1 * C1"):
        with pytest.raises(NotInLagrangian):
            restrict_check(parse(so3_classical.table, bad))


def test_lagrangian_is_abelian(so3_classical, rng):
    t = so3_classical.table
    for _ in range(40):
        F = rand_lagrangian(t, rng)
        G = rand_lagrangian(t, rng)
        assert not bracket(F, G)


# -- derived brackets --------------------------------------------------


def test_ell2_classical_limit():
    # trivial action on R^2 with pi = e1 e2: l_2(x1, x2) = +1, matching the
    # coordinate canonical-bracket oracle {x1, x2}_pi = pi(dx1, dx2) = 1
    t = bfv1_table(2, 1, 0)
    S = Scenario(kind="generalized_pair", n=2, table=t,
                 pi=parse(t, "1 * e1 e2"), psi=[GPoly.zero(t)], J0=[],
                 lie=preset_lie("abelian(1)"))
    tower = tower_for(S)
    assert tower.ell2(parse(t, "1 * x1"), parse(t, "1 * x2")) == GPoly.const(t, 1)


def test_ell1_abelian_base_function(abelian_translation, abelian_tower):
    # Q = e2 c1; for even base f the Leibniz rule forces
    # l_1(f) = {psi_1 c1, f} = -psi_1(f) c1 = -(df/dy) c1
    t = abelian_translation.table
    f = parse(t, "1 * x1^2")
    assert not abelian_tower.ell1(f)
    g = parse(t, "1 * x2^2")
    dy = g.deriv(t.by_name("x2").gid)
    assert abelian_tower.ell1(g) == -1 * (dy * GPoly.var(t, "c1"))


def test_ell2_bialgebra_ghost_ghost_vanishes(aff1_bialgebra, aff1_tower):
    t = aff1_bialgebra.table
    assert not aff1_tower.ell2(parse(t, "1 * c1"), parse(t, "1 * c2"))


def test_ell2_bialgebra_mixed_slot_dual_bracket(aff1_bialgebra, aff1_tower, rng):
    # engine truth: l_2(f, u*_m) = - sum_i {u^i_M, f} [u*_i, u*_m]*  with
    # [u*_i, u*_j]* = a^k_{ij} u*_k.  The global minus is forced by the
    # classical-limit normalization l_2(x1, x2) = +1; the mixed-slot sign
    # and the classical-limit sign cannot both be positive.
    S, tower = aff1_bialgebra, aff1_tower
    t = S.table
    from conftest import random_homogeneous

    for _ in range(25):
        f = random_homogeneous(bfv1_table(2, 0, 0), rng, 0, max_base=3)
        f = parse(t, str(f)) if f else GPoly.zero(t)
        for m in (1, 2):
            oracle = GPoly.zero(t)
            for i in (1, 2):
                for k in (1, 2):
                    v = S.bialgebra.ab(k, i, m)
                    if v:
                        oracle = oracle + v * (bracket(S.psi[i - 1], f)
                                               * S.gen(Kind.GHOST_G, k))
            got = tower.ell2(f, S.gen(Kind.GHOST_G, m))
            assert got == -oracle


def test_ell1_squares_to_zero(so3_classical, so3_tower, rng):
    t = so3_classical.table
    for _ in range(25):
        F = rand_lagrangian(t, rng)
        assert not so3_tower.ell1(so3_tower.ell1(F))


def test_ell2_graded_antisymmetry(so3_classical, so3_tower, rng):
    t = so3_classical.table
    for _ in range(25):
        F, G = rand_lagrangian(t, rng), rand_lagrangian(t, rng)
        if not (F and G):
            continue
        sign = (F.degree() * G.degree()) % 2
        lhs = so3_tower.ell2(F, G)
        rhs = so3_tower.ell2(G, F)
        assert lhs == ((rhs) if sign else (-rhs))


def test_ell2_leibniz_each_slot(so3_classical, so3_tower, rng):
    t = so3_classical.table
    done = 0
    while done < 20:
        F, G, H = (rand_lagrangian(t, rng) for _ in range(3))
        if not (F and G and H):
            continue
        done += 1
        f, g = F.degree() % 2, G.degree() % 2
        lhs = so3_tower.ell2(F, G * H)
        rhs = so3_tower.ell2(F, G) * H + (-1) ** ((f * g) % 2) * (
            G * so3_tower.ell2(F, H))
        assert lhs == rhs


def test_ell3_truncation_warning(so3_tower, so3_classical):
    t = so3_classical.table
    f = parse(t, "1 * x1")
    with pytest.warns(TruncationWarning):
        val = so3_tower.ell(3, [f, f, f])
    assert not val


def test_ell_multilinear_split(so3_tower, so3_classical):
    t = so3_classical.table
    mixed = parse(t, "1 * x1 + 1 * x2 c1 B1")  # degrees 0 and 0... split path
    inhomog = parse(t, "1 * x1 + 1 * c1")      # degrees 0 and 1
    g = parse(t, "1 * x1 x4")
    lhs = so3_tower.ell2(inhomog, g)
    rhs = so3_tower.ell2(parse(t, "1 * x1"), g) + so3_tower.ell2(parse(t, "1 * c1"), g)
    assert lhs == rhs
    assert so3_tower.ell2(mixed, g) == so3_tower.ell2(parse(t, "1 * x1"), g) \
        + so3_tower.ell2(parse(t, "1 * x2 c1 B1"), g)


def test_ell2_table_is_the_normalized_nested_bracket(so3_classical, so3_tower,
                                                     rng):
    # oracle, monomial by monomial: l_2(f, g) = -(-1)^{|f|} {{Pi, f}, g};
    # the rows take inhomogeneous arguments, the table every pair
    t = so3_classical.table
    Pi = so3_tower.series.term(0)
    fs = [rand_lagrangian(t, rng) + rand_lagrangian(t, rng) for _ in range(4)]
    gs = [rand_lagrangian(t, rng) + rand_lagrangian(t, rng) for _ in range(3)]

    def oracle(f, g):
        out = GPoly.zero(t)
        for m, c in f.terms.items():
            val = bracket(bracket(Pi, GPoly(t, {m: c})), g)
            out = out + (val if f.mono_degree(m) % 2 else -val)
        return out

    table = so3_tower.ell2_table(fs, gs)
    assert table == [[oracle(f, g) for g in gs] for f in fs]
    assert any(v for row in table for v in row)


# -- homotopy Jacobi ---------------------------------------------------


def test_jacobi_strict_on_base_functions(so3_classical, so3_tower):
    t = so3_classical.table
    f = parse(t, "1 * x1 x5")
    g = parse(t, "1 * x2^2")
    h = parse(t, "1 * x3 x4")
    assert not homotopy_jacobi_residual(so3_tower, f, g, h)


def test_jacobi_zero_on_constants(so3_tower, so3_classical):
    t = so3_classical.table
    one = GPoly.const(t, 1)
    assert not homotopy_jacobi_residual(so3_tower, one, one, one)


def test_jacobi_quasi_identity(quasi_chi, quasi_tower):
    t = quasi_chi.table
    f, g, h = (parse(t, f"1 * x{i}") for i in (1, 2, 3))
    lhs = quasi_tower.ell2(f, quasi_tower.ell2(g, h)) \
        + quasi_tower.ell2(g, quasi_tower.ell2(h, f)) \
        + quasi_tower.ell2(h, quasi_tower.ell2(f, g))
    assert lhs  # the 2-bracket Jacobiator does not vanish strictly
    rhs = quasi_tower.ell1(quasi_tower.ell3(f, g, h)) \
        + quasi_tower.ell3(quasi_tower.ell1(f), g, h) \
        + quasi_tower.ell3(f, quasi_tower.ell1(g), h) \
        + quasi_tower.ell3(f, g, quasi_tower.ell1(h))
    assert lhs == rhs
    assert not homotopy_jacobi_residual(quasi_tower, f, g, h)


def test_jacobi_exact_series_random_triples(so3_classical, so3_tower, rng):
    t = so3_classical.table
    done = 0
    while done < 30:
        f, g, h = (rand_lagrangian(t, rng) for _ in range(3))
        if not (f and g and h):
            continue
        done += 1
        assert not homotopy_jacobi_residual(so3_tower, f, g, h)


def test_ell_checks_its_arguments_before_truncation(so3_classical, so3_tower):
    t = so3_classical.table
    e1, x1, x2 = (parse(t, f"1 * {v}") for v in ("e1", "x1", "x2"))
    for k, args in ((1, [e1]), (2, [e1, x1]), (3, [e1, x1, x2]), (3, [x1, x2, e1])):
        with pytest.raises(NotInLagrangian):
            so3_tower.ell(k, args)


def oracle_residual(tower, f, g, h):
    """The homotopy Jacobi residual from ell1, ell2 and ell3 alone."""
    pf, pg, ph = f.parity(), g.parity(), h.parity()
    lhs = GPoly.zero(tower.table)
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        lhs = lhs + (-1) ** (a.parity() * c.parity()) * tower.ell2(a, tower.ell2(b, c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        l1f, l1g, l1h = tower.ell1(f), tower.ell1(g), tower.ell1(h)
        rhs = tower.ell1(tower.ell3(f, g, h)) + tower.ell3(l1f, g, h) \
            + (-1) ** pf * tower.ell3(f, l1g, h) \
            + (-1) ** (pf + pg) * tower.ell3(f, g, l1h)
    return lhs - (-1) ** (pf * ph) * rhs


def lagrangian_gens(table):
    return [GPoly.gen(table, g) for kind in (Kind.BASE, Kind.GHOST_G,
                                             Kind.ANTIGHOST_H)
            for g in table.ids_of_kind(kind)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_jacobi_residuals_match_the_ell_oracle(name):
    # every triple of base, c and B generators; on the exact series, and on
    # one with Pi^(-1) doubled, where the identity fails and both must agree
    scenario = parse_scenario(load_preset(name))
    tower = tower_for(scenario)
    gens = lagrangian_gens(scenario.table)
    series = [tower.series]
    if len(tower.series.terms) >= 2:
        Pi, P1, *rest = tower.series.terms
        series.append(ChargeSeries(Q=tower.series.Q, terms=[Pi, 2 * P1, *rest]))
    for s in series:
        tw = BracketTower(s)
        table = jacobi_residuals(tw, gens)
        assert list(table) == list(combinations(range(len(gens)), 3))
        for (i, j, k), r in table.items():
            assert r == oracle_residual(tw, gens[i], gens[j], gens[k])
        assert any(table.values()) == (s is not tower.series)


@pytest.mark.parametrize("name", ["quasi-chi", "aff1-bialgebra"])
def test_jacobi_residuals_match_the_ell_oracle_off_the_generators(name, rng):
    # random homogeneous elements of every parity, Pi^(-1) doubled
    scenario = parse_scenario(load_preset(name))
    Pi, P1, *rest = tower_for(scenario).series.terms
    tower = BracketTower(ChargeSeries(Q=build_charge_deg1(scenario),
                                      terms=[Pi, 2 * P1, *rest]))
    fs = [rand_lagrangian(scenario.table, rng) for _ in range(7)]
    table = jacobi_residuals(tower, fs)
    for (i, j, k), r in table.items():
        assert r == oracle_residual(tower, fs[i], fs[j], fs[k])
    assert any(table.values())


def test_jacobi_residuals_check_their_arguments(so3_classical, so3_tower):
    t = so3_classical.table
    x1, x2 = parse(t, "1 * x1"), parse(t, "1 * x2")
    with pytest.raises(ValueError):
        jacobi_residuals(so3_tower, [x1, parse(t, "1 * x1 + 1 * c1"), x2])
    with pytest.raises(NotInLagrangian):
        jacobi_residuals(so3_tower, [x1, x2, parse(t, "1 * e1")])
    assert jacobi_residuals(so3_tower, [x1, x2]) == {}


# -- H^0 probe ---------------------------------------------------------


def test_probe_abelian_line(abelian_translation, abelian_tower):
    rep = h0_probe(abelian_translation, abelian_tower, 3)
    t = abelian_translation.table
    expected = [parse(t, s) for s in ("1", "1 * x1", "1 * x1^2", "1 * x1^3")]
    assert rep.representatives == expected
    assert all(not v for v in rep.table.values())
    assert rep.closure_ok


def test_probe_degree_zero_constants(abelian_translation, abelian_tower):
    rep = h0_probe(abelian_translation, abelian_tower, 0)
    t = abelian_translation.table
    assert rep.representatives == [GPoly.const(t, 1)]
    assert all(not v for v in rep.table.values())


def test_probe_projection_is_ghost_free_part(abelian_translation, abelian_tower):
    rep = h0_probe(abelian_translation, abelian_tower, 2)
    for r, p in zip(rep.representatives, rep.projections):
        for m in p.terms:
            assert p.mono_ghost(m) == (0, 0)
        diff = r - p
        assert all(diff.mono_ghost(m) != (0, 0) for m in diff.terms)


def test_probe_so3_small_degree(so3_classical, so3_tower):
    rep = h0_probe(so3_classical, so3_tower, 2)
    t = so3_classical.table
    assert rep.dim_h0 == 4
    # the projections span exactly the invariants of degree <= 2:
    # 1, |q|^2, q.p, |p|^2
    from bfvkit.linalg import EchelonSolver

    span = EchelonSolver()
    for i, p in enumerate(rep.projections):
        span.add_column(i, p.terms)
    assert span.rank() == 4
    for expr in ("1", "1 * x1^2 + 1 * x2^2 + 1 * x3^2",
                 "1 * x1 x4 + 1 * x2 x5 + 1 * x3 x6",
                 "1 * x4^2 + 1 * x5^2 + 1 * x6^2"):
        assert not span.residual(parse(t, expr).terms)


def test_probe_class_equality_so3(so3_classical, so3_tower):
    t = so3_classical.table
    f = parse(t, "1 * x1^2 + 1 * x2^2 + 1 * x3^2")
    g = parse(t, "1 * x1 x4 + 1 * x2 x5 + 1 * x3 x6")
    val = so3_tower.ell2(f, g)
    assert class_equals(so3_classical, so3_tower, 2, val, 2 * f)
    assert not class_equals(so3_classical, so3_tower, 2, val, -2 * f)


def test_probe_so3_degree3_dimension(so3_classical, so3_tower):
    # rotation invariants on T*R^3 are generated by the three quadratics
    # |q|^2, q.p, |p|^2; there are no odd-degree invariants, so H^0 at
    # base degree <= 3 still has dimension 4 (with the constants)
    rep = h0_probe(so3_classical, so3_tower, 3)
    assert rep.dim_h0 == 4


def test_reduced_bracket_table_against_canonical_oracle(so3_classical, so3_tower):
    # {r, s, w} = {|q|^2, q.p, |p|^2} close under the canonical bracket:
    # {r, s} = 2r, {r, w} = 4s, {s, w} = 2w
    t = so3_classical.table
    r = parse(t, "1 * x1^2 + 1 * x2^2 + 1 * x3^2")
    s = parse(t, "1 * x1 x4 + 1 * x2 x5 + 1 * x3 x6")
    w = parse(t, "1 * x4^2 + 1 * x5^2 + 1 * x6^2")
    assert so3_tower.ell2(r, s) == 2 * r
    assert so3_tower.ell2(r, w) == 4 * s
    assert so3_tower.ell2(s, w) == 2 * w
    assert class_equals(so3_classical, so3_tower, 2, so3_tower.ell2(w, r), -4 * s)


def test_regular_translation_reduction_reproduces_cotangent_bracket():
    # free regular scenario: translations in q2 on T*R^2 with moment p2;
    # the reduced space is T*R^1 and the induced 2-bracket must give
    # {q1, p1} = 1 on representatives
    from bfvkit.config import parse_scenario

    doc = {
        "name": "free-translation",
        "kind": "classical_hamiltonian",
        "n": 4,
        "pi": "1 * e1 e3 + 1 * e2 e4",
        "psi": ["1 * e2"],
        "J0": ["1 * x4"],
        "lie": {"dim_g": 1, "dim_h": 1, "c": [], "d": [[1, 1, 1, 0]]},
        "degree_bound": 3,
        "assumptions": {"regular_value": True, "free_proper_action": True},
    }
    S = parse_scenario(doc)
    from bfvkit.scenario import check_compatibility, check_equivariance

    assert check_equivariance(S).passed
    assert check_compatibility(S).passed
    tower = tower_for(S)
    assert tower.series.exact
    t = S.table
    q1, p1 = parse(t, "1 * x1"), parse(t, "1 * x3")
    assert tower.ell2(q1, p1) == GPoly.const(t, 1)
    rep = h0_probe(S, tower, 2)
    # representatives are exactly the polynomials in (q1, p1) of degree <= 2
    assert rep.dim_h0 == 6
    assert class_equals(S, tower, 2, tower.ell2(q1, p1), GPoly.const(t, 1))
    # q2-dependence is pure gauge and p2 generates the ideal
    assert class_equals(S, tower, 2, parse(t, "1 * x4"), GPoly.zero(t))
    assert not class_equals(S, tower, 2, q1, GPoly.zero(t))


def test_generalized_pair_with_degree_zero_constraint():
    # submanifold {x3 = 0} with the tangent line field d/dx1 and bivector
    # d1 ^ d2: the reduced space is the x2-line with the zero bracket
    from bfvkit.config import parse_scenario

    doc = {
        "name": "plane-in-space",
        "kind": "generalized_pair",
        "n": 3,
        "pi": "1 * e1 e2",
        "psi": ["1 * e1"],
        "J0": ["1 * x3"],
        "lie": {"dim_g": 1, "dim_h": 1, "c": [], "d": [[1, 1, 1, 0]]},
        "degree_bound": 3,
        "assumptions": {"regular_value": True, "free_proper_action": True},
    }
    S = parse_scenario(doc)
    from bfvkit.engine import master_residual

    Q = build_charge_deg1(S)
    assert not master_residual(Q)
    tower = tower_for(S)
    assert tower.series.exact
    rep = h0_probe(S, tower, 3)
    t = S.table
    expected = [parse(t, s) for s in ("1", "1 * x2", "1 * x2^2", "1 * x2^3")]
    assert rep.representatives == expected
    assert all(not v for v in rep.table.values())


# -- the l_1 monomial kernel -------------------------------------------


@pytest.fixture(scope="module")
def dgla_tower(dgla_identity):
    return tower_for(dgla_identity)


@pytest.fixture(scope="module")
def group_tower(group_valued_so3):
    return tower_for(group_valued_so3)


@pytest.mark.parametrize("preset, degree", [
    ("so3_classical", 3), ("dgla_identity", 2), ("group_valued_so3", 2)])
def test_kernel_is_bracket_on_probe_spaces(request, preset, degree):
    S = request.getfixturevalue(preset)
    Q = build_charge_deg1(S)
    ad = inner_derivation(Q)
    checked = 0
    for total_ghost in (0, -1):
        for m in k_monomials(S.table, total_ghost, degree):
            got = ad(GPoly(S.table, {m: Fraction(1)}))
            assert got == bracket(Q, GPoly(S.table, {m: Fraction(1)})), m
            checked += 1
    assert checked > 100


def test_k_monomials_match_brute_force():
    # K = C[x] (x) Lambda g* (x) Lambda h: of total ghost t, the brute-force
    # monomials of the shapes (t, g, g - t) with no field outside K, merged
    # in tuple order; a lower bound keeps those of base degree within it
    for name in PRESET_NAMES:
        table = parse_scenario(load_preset(name)).table
        codec = table.codec
        dim_g = len(table.ids_of_kind(Kind.GHOST_G))
        for t in range(-2, 3):
            forms = sorted(codec.unpack(m) for g in range(max(t, 0), dim_g + 1)
                           for m in brute_force_monomials(table, t, g, g - t, 4)
                           if not m & codec.outside)
            for bound in range(5):
                want = [codec.pack(f) for f in forms
                        if sum(e for _x, e in f[0]) <= bound]
                assert k_monomials(table, t, bound) == want, (name, t, bound)


def test_k_monomials_so3_degree_6_sizes(so3_classical):
    # the spaces of the degree-6 so3-classical probe: C(12, 6) base
    # monomials in six coordinates times the sets of c's and B's of three
    # each with #c = #B (20 of them) or #B = #c + 1 (15)
    assert len(k_monomials(so3_classical.table, 0, 6)) == 924 * 20 == 18480
    assert len(k_monomials(so3_classical.table, -1, 6)) == 924 * 15 == 13860


def _lagrangian_polys(table):
    monos = [m for tg in (-2, -1, 0, 1, 2)
             for m in k_monomials(table, tg, 2)]
    coefs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.dictionaries(st.sampled_from(monos), coefs, max_size=6).map(
        lambda terms: GPoly(table, {m: c for m, c in terms.items() if c}))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ell1_is_bracket_with_charge(so3_tower, quasi_tower, aff1_tower,
                                     dgla_tower, group_tower, data):
    # inhomogeneous inputs too: ell splits them into homogeneous parts
    tower = data.draw(st.sampled_from(
        [so3_tower, quasi_tower, aff1_tower, dgla_tower, group_tower]))
    F = data.draw(_lagrangian_polys(tower.table))
    assert tower.ell1(F) == bracket(tower.series.Q, F)


def full_class_equals(tower, degree_bound, value, expected):
    """class_equals before the reach: l_1 of every ghost -1 monomial of K
    up to the bound, each checked to lie in K, in one solver."""
    diff = value - expected
    if not diff:
        return True
    bound = max(degree_bound, diff.max_base_degree())
    es = EchelonSolver()
    for m in k_monomials(tower.table, -1, bound):
        img = tower.l1_image(GPoly(tower.table, {m: 1}))
        if img:
            es.add_column(m, img.terms)
    return es.solve(diff.terms) is not None


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_class_equals_matches_full_enumeration(so3_classical, so3_tower,
                                               dgla_identity, dgla_tower, data):
    # half the differences are l_1 of a ghost -1 element, so exact; the
    # others add a random ghost 0 element
    S, tower = data.draw(st.sampled_from(
        [(so3_classical, so3_tower), (dgla_identity, dgla_tower)]))
    bound = data.draw(st.integers(0, 2))
    coefs = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)

    def element(total_ghost):
        monos = k_monomials(S.table, total_ghost, bound)
        return GPoly(S.table, data.draw(st.dictionaries(
            st.sampled_from(monos), coefs, min_size=1, max_size=3)))

    value = element(0)
    exact = data.draw(st.booleans())
    diff = tower.ell1(element(-1))
    if not exact:
        diff = diff + element(0)
    expected = value - diff
    got = class_equals(S, tower, bound, value, expected)
    assert got == full_class_equals(tower, bound, value, expected)
    assert got or not exact


def _reference_h0_probe(tower, degree_bound):
    """The probe before the monomial kernel: columns from the full bracket,
    blocks from a union-find, and the reference solver of the linalg tests,
    elimination over Fractions, on tuple keys (min-key pivots in tuple
    order)."""
    table = tower.table
    Q = tower.series.Q
    unpack, pack = table.codec.unpack, table.codec.pack

    def tup(P):
        return {unpack(k): c for k, c in P.terms.items()}

    rep = ProbeReport(degree_bound)
    dom0 = k_monomials(table, 0, degree_bound)
    domm = k_monomials(table, -1, degree_bound)
    rep.dim_space = len(dom0)

    def image(m):
        return restrict_check(bracket(Q, GPoly(table, {m: Fraction(1)})))

    d0 = {m: image(m) for m in dom0}
    dm = {m: image(m) for m in domm}
    low = set(dom0)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for m in dom0:
        find(("d", m))
        for key in d0[m].terms:
            union(("d", m), ("k", key))
    for m in domm:
        find(("i", m))
        for key in dm[m].terms:
            union(("i", m), ("dm", key))
            if key in low:
                union(("i", m), ("d", key))
    blocks = {}
    for m in dom0:
        blocks.setdefault(find(("d", m)), [[], []])[0].append(m)
    for m in domm:
        root = find(("i", m))
        if root in blocks:
            blocks[root][1].append(m)

    kernel_vecs = []
    image_vecs = []
    for _root, (dmonos, imonos) in sorted(blocks.items(),
                                          key=lambda kv: kv[1][0][0]):
        es = FractionEchelonSolver()
        for m in dmonos:
            es.add_column(unpack(m), tup(d0[m]))
        kernel_vecs.extend(es.kernel)
        if imonos:
            hi = FractionEchelonSolver()
            for m in imonos:
                hi.add_column(m, {unpack(k): v for k, v in dm[m].terms.items()
                                  if k not in low})
            for combo in hi.kernel:
                vec = GPoly.zero(table)
                for m, coef in combo.items():
                    vec = vec + coef * dm[m]
                if vec:
                    image_vecs.append(tup(vec))

    rep.dim_kernel = len(kernel_vecs)
    img = FractionEchelonSolver()
    for i, v in enumerate(image_vecs):
        img.add_column(("img", i), v)
    rep.dim_image = img.rank()
    reps = FractionEchelonSolver()
    for vec in kernel_vecs:
        resid = img.residual(vec)
        if resid and reps.add_column(len(rep.representatives), resid):
            poly = GPoly(table, {pack(k): c for k, c in resid.items()})
            rep.representatives.append(poly)
            rep.projections.append(GPoly(
                table, {m: c for m, c in poly.terms.items()
                        if poly.mono_ghost(m) == (0, 0)}))
    for i, r in enumerate(rep.representatives):
        img.add_column(("rep", i), tup(r))
    for i, ri in enumerate(rep.representatives):
        for j, rj in enumerate(rep.representatives):
            val = tower.ell2(ri, rj)
            if not val:
                rep.table[(i, j)] = {}
                continue
            sol = img.solve(tup(val))
            if sol is None:
                rep.inconclusive.append((i, j))
                continue
            rep.table[(i, j)] = {t[1]: c for t, c in sol.items()
                                 if t[0] == "rep" and c}
    return rep


def rescaled_preset(name, scales=(Fraction(2), Fraction(1, 2), Fraction(-2, 3))):
    """The preset after the cotangent rescaling x_i -> s_i x_i, e_i -> e_i / s_i,
    one scale per bfv0 pair and its inverse on the partner (as the benchmark
    documents are made), so that the charge has non-integer coefficients."""
    doc = copy.deepcopy(load_preset(name))
    assert "phi" not in doc and "sample_points" not in doc
    s = {}
    for (i, j), v in zip(doc["bfv0_pairs"], scales):
        s[i], s[j] = v, 1 / v
    table = parse_scenario(doc).table

    def rescale(text):
        P = parse(table, text)
        out = {}
        for m, c in P.terms.items():
            evens, odds = table.codec.unpack(m)
            for g, e in evens:
                token = table.gen(g).name
                if token[0] == "x":
                    c *= s[int(token[1:])] ** e
            for g in odds:
                token = table.gen(g).name
                if token[0] == "e":
                    c /= s[int(token[1:])]
            out[m] = c
        return serialize(GPoly(table, out))

    doc["pi"] = rescale(doc["pi"])
    doc["psi"] = [rescale(t) for t in doc["psi"]]
    doc["J0"] = [rescale(t) for t in doc["J0"]]
    return parse_scenario(doc)


@pytest.fixture(scope="module")
def so3_rescaled():
    return rescaled_preset("so3-classical")


@pytest.fixture(scope="module")
def dgla_rescaled():
    return rescaled_preset("dgla-identity")


@pytest.fixture(scope="module")
def so3_rescaled_tower(so3_rescaled):
    return tower_for(so3_rescaled)


@pytest.fixture(scope="module")
def dgla_rescaled_tower(dgla_rescaled):
    return tower_for(dgla_rescaled)


@pytest.mark.parametrize("preset, tower_name, degree", [
    ("so3_classical", "so3_tower", 3),
    ("dgla_identity", "dgla_tower", 2),
    ("group_valued_so3", "group_tower", 2),
    ("abelian_translation", "abelian_tower", 3),
    ("so3_rescaled", "so3_rescaled_tower", 3),
    ("dgla_rescaled", "dgla_rescaled_tower", 2),
])
def test_h0_probe_matches_reference(request, preset, tower_name, degree):
    S = request.getfixturevalue(preset)
    tower = request.getfixturevalue(tower_name)
    if "rescaled" in preset:
        # the probe's columns are D * l_1(m): a wrong D must show here
        assert tower.ad_q.denominator > 1
    got = h0_probe(S, tower, degree)
    want = _reference_h0_probe(tower, degree)
    for attr in ("dim_space", "dim_kernel", "dim_image", "representatives",
                 "projections", "table", "closure_ok", "inconclusive"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert got.dim_h0 > 0


@pytest.mark.parametrize("tower_name", [
    "so3_tower", "quasi_tower", "aff1_tower", "abelian_tower", "dgla_tower",
    "group_tower", "so3_rescaled_tower", "dgla_rescaled_tower"])
@pytest.mark.parametrize("total_ghost", [0, -1])
def test_leibniz_columns_match_apply(request, tower_name, total_ghost):
    # the probe's columns X_b o + Y_o b against D * l_1(b o) applied to each
    # monomial of K, in the same order
    tower = request.getfixturevalue(tower_name)
    if "rescaled" in tower_name:
        assert tower.ad_q.denominator > 1
    bases, odds = homotopy._k_factors(tower.table, total_ghost, 3)
    want = [tower.ad_q.apply({m: 1})
            for m in k_monomials(tower.table, total_ghost, 3)]
    assert list(tower.ad_q.columns(bases, odds)) == want
    # with no antighost, K has no ghost -1 monomials
    assert any(want) or not (want or tower.table.ids_of_kind(Kind.ANTIGHOST_H))


def probe_eliminations(monkeypatch, S, tower, degree):
    """(report, [(name, solver, columns, value)]): the solver of each
    ``linalg.rank`` and ``linalg.kernel`` call that h0_probe makes, with
    the call's name, its columns, before their relabelling, and the value
    it returned."""
    given, made = [], []

    class Recording(EchelonSolver):
        def __init__(self):
            super().__init__()
            made.append(self)

    for name in ("rank", "kernel"):
        def recording(columns, name=name, real=getattr(homotopy, name)):
            given.append((name, list(columns.items()), value := real(columns)))
            return value
        monkeypatch.setattr(homotopy, name, recording)
    monkeypatch.setattr(linalg, "EchelonSolver", Recording)
    rep = h0_probe(S, tower, degree)
    monkeypatch.undo()
    # one solver per call; a rank solver tracks no combination and holds
    # the columns its presolve leaves, a kernel solver every column
    assert len(made) == len(given)
    for es, (name, cols, value) in zip(made, given):
        if name == "rank":
            assert es.kernel == [] and not any(c for _r, c in es.pivots.values())
            assert es.rank() <= value
        else:
            assert es.rank() + len(es.kernel) == len(cols)
    return rep, [(name, es, cols, value)
                 for es, (name, cols, value) in zip(made, given)]


@pytest.mark.parametrize("preset, tower_name, degree", [
    ("so3_classical", "so3_tower", 3),
    ("dgla_identity", "dgla_tower", 2),
])
def test_probe_sparse_pivot_kernels_match_min_key(request, monkeypatch, preset,
                                                  tower_name, degree):
    S = request.getfixturevalue(preset)
    tower = request.getfixturevalue(tower_name)
    rep, calls = probe_eliminations(monkeypatch, S, tower, degree)
    # every ghost 0 column is ranked once, in its block, but for the private
    # ones, those holding a ghost +1 key that no other ghost 0 column holds,
    # and the image pivots, one per image dimension.  Kernel vectors are
    # built only in the blocks that hold a class
    images = [tower.ad_q.apply({m: 1}) for m in k_monomials(S.table, 0, degree)]
    holders = Counter(k for image in images for k in image)
    private = sum(any(holders[k] == 1 for k in image) for image in images)
    ranked = [cols for name, _es, cols, _v in calls if name == "rank"]
    kernels = [cols for name, _es, cols, _v in calls if name == "kernel"]
    assert 0 < private and 0 < rep.dim_image
    assert sum(map(len, ranked)) + private + rep.dim_image == rep.dim_space
    assert 0 < len(kernels) <= rep.dim_h0 < len(ranked)
    for name, _es, cols, value in calls:
        plain = EchelonSolver()
        for tag, vec in cols:
            plain.add_column(tag, vec)
        assert value == (plain.rank() if name == "rank" else plain.kernel)


def test_probe_kernel_pivots_reduce_fill(so3_classical, so3_tower, monkeypatch):
    # on these ranks and kernels, min-key pivots store 19,391 row entries
    # and the sparse-first pivots of linalg 11,288; after the rank presolve
    # the solvers store 1,729
    _rep, calls = probe_eliminations(monkeypatch, so3_classical, so3_tower, 3)
    stored = sum(len(row) for _name, es, _cols, _v in calls
                 for row, _c in es.pivots.values())
    assert stored < 3784


def hand_made_tower(t, images):
    """A tower whose l_1 sends a monomial m to images[m], zero if absent,
    and whose l_2 vanishes.  The generator check reads l_1 as zero."""
    class HandMade:
        table = t
        ad_q = types.SimpleNamespace(
            columns=lambda bases, odds: (
                dict(images.get(b + o, {})) for b in bases for o in odds),
            apply=lambda terms: {})

        def ell2_table(self, fs, gs):
            return [[GPoly.zero(t) for _g in gs] for _f in fs]

    return HandMade()


def test_probe_on_a_hand_made_l1(so3_classical):
    # l_1 is zero on ghost 0 and sends three ghost -1 monomials to
    # e0 + e1 + e2, e3 + X and e4 + X, with e_i = dom0[i] and X = x1^2 just
    # beyond the bound; X is the first key outside dom0, labelled -1
    t = so3_classical.table
    dom0, domm = k_monomials(t, 0, 1), k_monomials(t, -1, 1)
    e = dict(enumerate(dom0))
    (X,) = parse(t, "1 * x1^2").terms
    images = {domm[0]: {e[0]: 1, e[1]: 1, e[2]: 1},
              domm[1]: {e[3]: 1, X: 1}, domm[2]: {e[4]: 1, X: 1}}
    rep = h0_probe(so3_classical, hand_made_tower(t, images), 1)
    # the image inside the span is e0 + e1 + e2 and e3 - e4, where X cancels
    assert (rep.dim_space, rep.dim_kernel, rep.dim_image) == (len(dom0),) * 2 + (2,)
    # each kernel vector e_i is reduced modulo the image alone: e1 stays e1,
    # independent of -e1 - e2; e2 and e4 depend on the earlier residuals
    want = [{e[1]: -1, e[2]: -1}, {e[1]: 1}, {e[4]: 1}] + [
        {e[i]: 1} for i in range(5, len(dom0))]
    assert [r.terms for r in rep.representatives] == want
    assert rep.closure_ok and all(not v for v in rep.table.values())


def test_probe_private_ghost_minus_one_column_leaves_the_image(so3_classical):
    # l_1 sends a ghost -1 monomial to e0 + X, with X = x1^2 beyond the
    # bound and held by no other column, and another to 2 e0 + e1: no
    # combination inside the span uses the first, so its e0 is no image
    t = so3_classical.table
    dom0, domm = k_monomials(t, 0, 1), k_monomials(t, -1, 1)
    e = dict(enumerate(dom0))
    (X,) = parse(t, "1 * x1^2").terms
    images = {domm[0]: {e[0]: 1, X: 1}, domm[1]: {e[0]: 2, e[1]: 1}}
    rep = h0_probe(so3_classical, hand_made_tower(t, images), 1)
    assert (rep.dim_kernel, rep.dim_image) == (len(dom0), 1)
    # e0 reduces modulo 2 e0 + e1 to -e1 / 2, and e1 then depends on it
    assert [r.terms for r in rep.representatives][:2] == [
        {e[1]: Fraction(-1, 2)}, {e[2]: 1}]
    assert rep.dim_h0 == len(dom0) - 1


def test_probe_private_ghost_zero_column_leaves_the_rank(so3_classical):
    # l_1 sends e0 to c1 and e1 to c1 + c2: c2 is private to e1's column,
    # so the block's kernel is that of e0's column alone, which is zero
    t = so3_classical.table
    dom0 = k_monomials(t, 0, 1)
    (c1,), (c2,) = parse(t, "1 * c1").terms, parse(t, "1 * c2").terms
    images = {dom0[0]: {c1: 1}, dom0[1]: {c1: 1, c2: 1}}
    rep = h0_probe(so3_classical, hand_made_tower(t, images), 1)
    assert (rep.dim_kernel, rep.dim_image) == (len(dom0) - 2, 0)
    assert [r.terms for r in rep.representatives] == [
        {m: 1} for m in dom0[2:]]


def test_probe_rejects_l1_that_does_not_square_to_zero(so3_classical, so3_tower):
    # c1 e1 adds c1 to l_1(x1) and keeps l_1 inside K, but l_1^2 of x1 is
    # then l_1(c1) != 0.  The probe checks l_1^2 on each generator of K, in
    # id order (x, c, B), before it counts a kernel dimension
    t = so3_classical.table
    for text, token in (("1 * c1 e1", "x1"), ("1 * x1 c1 e2", "x1"),
                        ("1 * c1 c2 e3", "B1"), ("1 * c1 c2 b3", "x1")):
        bad = BracketTower(ChargeSeries(Q=so3_tower.series.Q + parse(t, text),
                                        terms=so3_tower.series.terms))
        with pytest.raises(InternalSignError, match=f"l_1\\^2 != 0 on {token}$"):
            h0_probe(so3_classical, bad, 1)


def test_restrict_check_names_first_offender(so3_classical):
    # even factors are scanned before odd ones, each in id order; the ids
    # run x, e, c, C, b, B
    t = so3_classical.table
    for text, token in (("1 * x1 b2 e1 C1", "C1"), ("1 * x1 c1 e2", "e2"),
                        ("1 * B1 e3 b1", "b1"), ("1 * c2 e1 e3", "e1")):
        with pytest.raises(NotInLagrangian) as exc:
            restrict_check(parse(t, text))
        assert exc.value.token == token, text


def test_l1_leaving_lagrangian_raises(so3_classical, so3_tower):
    # e1 b1 adds b1 to coef_{x1}: l_1 of any x1-dependent element leaves K
    t = so3_classical.table
    series = ChargeSeries(Q=so3_tower.series.Q + parse(t, "1 * e1 b1"),
                          terms=so3_tower.series.terms)
    bad = BracketTower(series)
    with pytest.raises(InternalSignError):
        bad.ell1(parse(t, "1 * x1"))
    # it also adds e1 to coef_{c1}; the first probe column that leaves K,
    # in monomial order, is that of a c1 B_j
    with pytest.raises(InternalSignError, match="at e1$"):
        h0_probe(so3_classical, bad, 1)
    # class_equals checks every column it poses: this difference reaches
    # c1 c2 B1 B2 B3, whose l_1 holds the term e1 c2 B1 B2 B3 outside K
    with pytest.raises(InternalSignError, match="at e1$"):
        class_equals(so3_classical, bad, 1,
                     parse(t, "1 * x2 x6 c1 c2 B2 B3"), GPoly.zero(t))
    # inputs outside K are still rejected before l_1 is applied
    with pytest.raises(NotInLagrangian):
        so3_tower.ell1(parse(t, "1 * e1"))
    x2 = parse(t, "1 * x2")
    assert bad.ell1(x2) == so3_tower.ell1(x2)


@pytest.fixture(scope="module")
def so3_probes(so3_classical, so3_tower):
    """The so3-classical probe at degree bounds 1 to 5."""
    return {d: h0_probe(so3_classical, so3_tower, d) for d in range(1, 6)}


def test_probe_so3_degree5(so3_probes):
    rep = so3_probes[5]
    assert (rep.dim_space, rep.dim_kernel, rep.dim_image, rep.dim_h0) == \
        (9240, 1355, 1346, 9)
    assert len(rep.inconclusive) == 20 and not rep.closure_ok


# -- independent oracles for the probe -----------------------------------


def test_probe_so3_matches_hilbert_function(so3_probes):
    # H^0 of so3-classical is the SO(3)-invariants of (q, p) on J = q x p = 0:
    # R[q^2, p^2, q.p] / ((q.p)^2 - q^2 p^2), whose Hilbert function counts
    # (floor(d/2) + 1)^2 classes of base degree at most d
    for d, rep in so3_probes.items():
        assert rep.dim_h0 == (d // 2 + 1) ** 2, d


def bracket_violations(table, n):
    """(antisymmetry failures, Jacobi failures, decided Jacobi triples) of
    an l_2 table on n classes of degree 0, {(i, j): {k: coefficient}}:
    l_2(i, j) = -l_2(j, i) where both are decided, and the cyclic sum of
    l_2(l_2(i, j), k) vanishes where every entry it reads is decided."""
    anti = [(i, j) for (i, j), v in table.items() if (j, i) in table
            and v != {k: -c for k, c in table[(j, i)].items()}]

    def nested(i, j, k):
        out = {}
        for m, c in table[(i, j)].items():
            for r, w in table[(m, k)].items():
                out[r] = out.get(r, 0) + c * w
        return out

    jacobi, decided = [], 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyc = ((i, j, k), (j, k, i), (k, i, j))
                if not all((a, b) in table and all((m, c) in table
                                                   for m in table[(a, b)])
                           for a, b, c in cyc):
                    continue
                decided += 1
                total = {}
                for a, b, c in cyc:
                    for r, w in nested(a, b, c).items():
                        total[r] = total.get(r, 0) + w
                if any(total.values()):
                    jacobi.append((i, j, k))
    return anti, jacobi, decided


def test_probe_l2_table_is_a_lie_bracket(request, so3_probes):
    # so3-classical at degree 4 and the other presets at degree 3: the
    # induced bracket is antisymmetric and satisfies Jacobi on every
    # decided entry; one flipped sign shows as a violation
    reps = [so3_probes[4]]
    for preset, tower in (("dgla_identity", "dgla_tower"),
                          ("aff1_bialgebra", "aff1_tower"),
                          ("quasi_chi", "quasi_tower"),
                          ("group_valued_so3", "group_tower"),
                          ("abelian_translation", "abelian_tower")):
        reps.append(h0_probe(request.getfixturevalue(preset),
                             request.getfixturevalue(tower), 3))
    triples = 0
    for rep in reps:
        anti, jacobi, decided = bracket_violations(rep.table, rep.dim_h0)
        assert anti == [] and jacobi == []
        triples += decided
    assert triples > 1000
    table = dict(so3_probes[4].table)
    (i, j), v = next(((i, j), v) for (i, j), v in sorted(table.items())
                     if v and i != j and (j, i) in table)
    table[(i, j)] = {k: -c for k, c in v.items()}
    anti, jacobi, _ = bracket_violations(table, so3_probes[4].dim_h0)
    assert (i, j) in anti and (j, i) in anti and jacobi
