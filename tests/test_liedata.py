"""Lie data validators: presets pass, perturbations are caught."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit.liedata import (BialgebraData, DglaData, LieAlgebraData,
                            ModuleActionData, QuasiBialgebraData,
                            adjoint_module, coadjoint_module, preset_bialgebra,
                            preset_lie, validate_bialgebra, validate_dgla,
                            validate_lie, validate_module, validate_quasi)
from bfvkit.linalg import EchelonSolver
from bfvkit.reports import ValidationReport


def total_chi(entries):
    import itertools

    out = {}
    for (i, j, k), v in entries.items():
        for perm in itertools.permutations(range(3)):
            idx = tuple((i, j, k)[p] for p in perm)
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            out[idx] = sign * Fraction(v)
    return out


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg", "abelian(4)", "aff1"])
def test_lie_presets_pass(name):
    assert validate_lie(preset_lie(name)).passed


def test_aff1_structure_constants_jacobi_by_expansion():
    # dim 2: every Jacobi triple repeats an index, so the identity reduces
    # to antisymmetry; verify the full expansion anyway
    L = preset_lie("aff1")
    assert L.C(1, 2, 2) == 1 and L.C(2, 1, 2) == -1
    assert validate_lie(L).passed


def test_perturbed_so3_fails_and_cites_indices():
    so3 = preset_lie("so3")
    bad = LieAlgebraData(3, dict(so3.c))
    bad.c[(1, 2, 3)] = Fraction(2)
    rep = validate_lie(bad)
    assert not rep.passed
    assert any("antisymmetry" == c.name for c in rep.failures) or \
        any("jacobi" == c.name for c in rep.failures)
    assert all(c.detail for c in rep.failures)


def test_perturbation_not_vacuous_on_so3():
    # bumping any stored entry of a passing dataset by 1 must be reported
    so3 = preset_lie("so3")
    for key in so3.c:
        bad = LieAlgebraData(3, dict(so3.c))
        bad.c[key] = bad.c[key] + 1
        assert not validate_lie(bad).passed, key


def test_modules_pass():
    so3 = preset_lie("so3")
    assert validate_module(so3, adjoint_module(so3)).passed
    assert validate_module(so3, coadjoint_module(so3)).passed
    sl2 = preset_lie("sl2")
    assert validate_module(sl2, adjoint_module(sl2)).passed
    assert validate_module(sl2, coadjoint_module(sl2)).passed
    # trivial module over a nonabelian algebra
    assert validate_module(so3, ModuleActionData(3, {})).passed


def test_module_violation_detected():
    so3 = preset_lie("so3")
    mod = adjoint_module(so3)
    bad = ModuleActionData(3, dict(mod.d))
    bad.d[(1, 2, 3)] = bad.d[(1, 2, 3)] + 1
    assert not validate_module(so3, bad).passed


def test_dgla_minus_identity_passes():
    so3 = preset_lie("so3")
    D = DglaData({(i, i): Fraction(-1) for i in (1, 2, 3)})
    assert validate_dgla(so3, adjoint_module(so3), D).passed


def test_dgla_zero_and_identity_pass():
    so3 = preset_lie("so3")
    assert validate_dgla(so3, adjoint_module(so3), DglaData({})).passed
    D = DglaData({(i, i): Fraction(1) for i in (1, 2, 3)})
    assert validate_dgla(so3, adjoint_module(so3), D).passed


def test_dgla_non_equivariant_fails():
    so3 = preset_lie("so3")
    D = DglaData({(1, 1): Fraction(1)})  # rank-one projector is not equivariant
    assert not validate_dgla(so3, adjoint_module(so3), D).passed


def test_trivial_cobracket_passes():
    assert validate_bialgebra(preset_lie("so3"), BialgebraData({})).passed


def test_aff1_bialgebra_passes_compatibility_identity():
    L, B = preset_bialgebra("aff1")
    rep = validate_bialgebra(L, B)
    assert rep.passed
    # independent brute-force check of the displayed identity
    n = L.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(1, n + 1):
                for nn in range(1, n + 1):
                    lhs = sum(B.ab(l, i, j) * L.C(m, nn, l)
                              for l in range(1, n + 1))
                    rhs = sum(-B.ab(nn, l, j) * L.C(l, m, i)
                              - B.ab(nn, i, l) * L.C(l, m, j)
                              + B.ab(m, l, j) * L.C(l, nn, i)
                              + B.ab(m, i, l) * L.C(l, nn, j)
                              for l in range(1, n + 1))
                    assert lhs == rhs


def test_aff1_bialgebra_scaled_is_still_bialgebra():
    # the compatibility identity is linear in the cobracket
    L, B = preset_bialgebra("aff1")
    scaled = BialgebraData({k: 2 * v for k, v in B.a.items()})
    assert validate_bialgebra(L, scaled).passed


def test_aff1_whole_cobracket_family_passes():
    # on aff(1) every map delta(e_i) = alpha_i e1 ^ e2 is a 1-cocycle and
    # co-Jacobi is vacuous in dimension 2, so perturbing the preset's
    # cobracket cannot produce a violation; the identity set does not
    # constrain those entries
    L, B = preset_bialgebra("aff1")
    fam = BialgebraData(dict(B.a))
    fam.a[(1, 1, 2)] = Fraction(1)
    fam.a[(1, 2, 1)] = Fraction(-1)
    assert validate_bialgebra(L, fam).passed


def test_broken_cobracket_fails_on_so3():
    so3 = preset_lie("so3")
    bad = BialgebraData({(1, 2, 3): Fraction(1, 2), (1, 3, 2): Fraction(-1, 2)})
    rep = validate_bialgebra(so3, bad)
    assert any(c.name == "cocycle-compatibility" for c in rep.failures)


def test_standard_so3_bialgebra_passes():
    # delta(e1) = e1 ^ e3, delta(e2) = e2 ^ e3, delta(e3) = 0
    so3 = preset_lie("so3")
    B = BialgebraData({(1, 1, 3): Fraction(1, 2), (1, 3, 1): Fraction(-1, 2),
                       (2, 2, 3): Fraction(1, 2), (2, 3, 2): Fraction(-1, 2)})
    assert validate_bialgebra(so3, B).passed


def test_quasi_chi_twisted_double():
    # chi != 0 with a = 0, c = 0: validation reduces to the Jacobi identity
    # of the chi-twisted double, which holds for any totally antisymmetric chi
    ab3 = preset_lie("abelian(3)")
    Q = QuasiBialgebraData(BialgebraData({}), total_chi({(1, 2, 3): 1}))
    assert validate_quasi(ab3, Q).passed


def test_quasi_with_so3_metric():
    so3 = preset_lie("so3")
    Q = QuasiBialgebraData(BialgebraData({}), {})
    rep = validate_quasi(so3, Q)
    # so3 with identity metric: ad-invariant (epsilon is totally antisymmetric)
    assert rep.passed


def test_quasi_detects_non_invariant_metric():
    aff1 = preset_lie("aff1")
    Q = QuasiBialgebraData(BialgebraData({}), {})
    rep = validate_quasi(aff1, Q)
    assert any(c.name == "metric-invariant" for c in rep.failures)


def test_quasi_detects_non_antisymmetric_chi():
    ab3 = preset_lie("abelian(3)")
    rep = validate_quasi(ab3, QuasiBialgebraData(BialgebraData({}), {(1, 1, 1): 1}))
    assert [c.name for c in rep.failures] == ["chi-antisymmetry"]
    assert "quasi.chi-antisymmetry=fail (1,1,1)" in list(rep.lines("machine"))
    assert not any(c.name == "double-jacobi" for c in rep.checks)


# ---------------------------------------------------------------------------
# Oracle: copies of the index-loop validators that the bracket table and
# the Jacobiator replaced, including the dense brute force on the double.


def ref_lie(L: LieAlgebraData) -> ValidationReport:
    rep = ValidationReport("lie")
    n = L.dim
    anti_ok = True
    for (i, j, k), v in L.c.items():
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            rep.record("index-range", False, f"({i},{j},{k})")
            anti_ok = False
            continue
        if L.C(j, i, k) != -v:
            rep.record("antisymmetry", False, f"({i},{j},{k})")
            anti_ok = False
    if anti_ok:
        rep.record("antisymmetry", True)
    jac_ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    s = sum(
                        L.C(i, j, m) * L.C(m, k, l)
                        + L.C(j, k, m) * L.C(m, i, l)
                        + L.C(k, i, m) * L.C(m, j, l)
                        for m in range(1, n + 1)
                    )
                    if s:
                        rep.record("jacobi", False, f"({i},{j},{k};{l}) -> {s}")
                        jac_ok = False
    if jac_ok:
        rep.record("jacobi", True)
    return rep


def ref_module(L: LieAlgebraData, M: ModuleActionData) -> ValidationReport:
    """rho is a Lie algebra morphism g -> gl(h), checked entrywise."""
    rep = ValidationReport("module")
    ok = True
    for i in range(1, L.dim + 1):
        for j in range(1, L.dim + 1):
            for nn in range(1, M.dim_h + 1):
                for p in range(1, M.dim_h + 1):
                    comm = sum(
                        M.D(i, q, p) * M.D(j, nn, q) - M.D(j, q, p) * M.D(i, nn, q)
                        for q in range(1, M.dim_h + 1)
                    )
                    act = sum(L.C(i, j, k) * M.D(k, nn, p)
                              for k in range(1, L.dim + 1))
                    if comm != act:
                        rep.record("morphism", False, f"({i},{j};{nn},{p})")
                        ok = False
    if ok:
        rep.record("morphism", True)
    return rep


def ref_bialgebra(L: LieAlgebraData, B: BialgebraData) -> ValidationReport:
    rep = ValidationReport("bialgebra")
    n = L.dim
    ok = True
    for (k, i, j), v in B.a.items():
        if B.ab(k, j, i) != -v:
            rep.record("cobracket-antisymmetry", False, f"({k},{i},{j})")
            ok = False
    if ok:
        rep.record("cobracket-antisymmetry", True)
    # co-Jacobi: Jacobi identity for the dual structure constants
    # ct^{ij}_k := a^k_{ij}.
    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    s = sum(
                        B.ab(m, i, j) * B.ab(l, m, k)
                        + B.ab(m, j, k) * B.ab(l, m, i)
                        + B.ab(m, k, i) * B.ab(l, m, j)
                        for m in range(1, n + 1)
                    )
                    if s:
                        rep.record("co-jacobi", False, f"({i},{j},{k};{l})")
                        ok = False
    if ok:
        rep.record("co-jacobi", True)
    # cocycle compatibility in structure constants:
    # a_{ij}^l c_l^{mn} = -a_{lj}^n c^{lm}_i - a_{il}^n c^{lm}_j
    #                     + a_{lj}^m c^{ln}_i + a_{il}^m c^{ln}_j
    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(1, n + 1):
                for nn in range(1, n + 1):
                    lhs = sum(B.ab(l, i, j) * L.C(m, nn, l) for l in range(1, n + 1))
                    rhs = sum(
                        -B.ab(nn, l, j) * L.C(l, m, i)
                        - B.ab(nn, i, l) * L.C(l, m, j)
                        + B.ab(m, l, j) * L.C(l, nn, i)
                        + B.ab(m, i, l) * L.C(l, nn, j)
                        for l in range(1, n + 1)
                    )
                    if lhs != rhs:
                        rep.record("cocycle-compatibility", False,
                                   f"(i={i},j={j},m={m},n={nn})")
                        ok = False
    if ok:
        rep.record("cocycle-compatibility", True)
    return rep


def ref_quasi(L: LieAlgebraData, Q: QuasiBialgebraData) -> ValidationReport:
    """Brute-force Jacobi for the chi-twisted double on g (+) g*.

    The bracket table is
        [(u,0),(v,0)]   = ([u,v], 0)
        [(u,0),(0,b*)]  = (iota_{b*} F(u), ad*_u b*)
        [(0,a*),(0,b*)] = (chi(a*, b*), [a*, b*]*)
    with iota the first-slot contraction, ad*_{u^i} u*_j = -c^{ik}_j u*_k,
    chi(u*_i, u*_j) = sum_k chi_{ijk} u^k.  The metric, when present, must
    be symmetric, invertible and ad-invariant.
    """
    B = Q.bialgebra
    rep = ref_bialgebra(L, B)
    rep.title = "quasi"
    n = L.dim

    def brk(x, y):
        # elements are pairs (g-coeffs, g*-coeffs)
        xu, xb = x
        yu, yb = y
        out_u = [Fraction(0)] * n
        out_b = [Fraction(0)] * n
        for i in range(n):
            if not xu[i]:
                continue
            for j in range(n):
                if yu[j]:
                    for k in range(n):
                        out_u[k] += xu[i] * yu[j] * L.C(i + 1, j + 1, k + 1)
                if yb[j]:
                    # [(u_i,0),(0,u*_j)] = (iota_{u*_j}F(u_i), ad*_{u_i}u*_j)
                    for q in range(n):
                        out_u[q] += xu[i] * yb[j] * B.ab(i + 1, j + 1, q + 1)
                    for k in range(n):
                        out_b[k] -= xu[i] * yb[j] * L.C(i + 1, k + 1, j + 1)
        for i in range(n):
            if not xb[i]:
                continue
            for j in range(n):
                if yu[j]:
                    # graded flip of the mixed bracket (even elements)
                    for q in range(n):
                        out_u[q] -= yu[j] * xb[i] * B.ab(j + 1, i + 1, q + 1)
                    for k in range(n):
                        out_b[k] += yu[j] * xb[i] * L.C(j + 1, k + 1, i + 1)
                if yb[j]:
                    for k in range(n):
                        out_u[k] += xb[i] * yb[j] * Q.x3(i + 1, j + 1, k + 1)
                        out_b[k] += xb[i] * yb[j] * B.ab(k + 1, i + 1, j + 1)
        return out_u, out_b

    def basis(idx):
        u = [Fraction(0)] * n
        b = [Fraction(0)] * n
        if idx < n:
            u[idx] = Fraction(1)
        else:
            b[idx - n] = Fraction(1)
        return u, b

    def add(x, y, s=1):
        return ([a + s * c for a, c in zip(x[0], y[0])],
                [a + s * c for a, c in zip(x[1], y[1])])

    ok = True
    for i in range(2 * n):
        for j in range(2 * n):
            for k in range(2 * n):
                jac = brk(basis(i), brk(basis(j), basis(k)))
                jac = add(jac, brk(brk(basis(i), basis(j)), basis(k)), -1)
                jac = add(jac, brk(basis(j), brk(basis(i), basis(k))), -1)
                if any(jac[0]) or any(jac[1]):
                    rep.record("double-jacobi", False, f"({i},{j},{k})")
                    ok = False
    if ok:
        rep.record("double-jacobi", True)

    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if Q.g(i, j) != Q.g(j, i):
                rep.record("metric-symmetric", False, f"({i},{j})")
                ok = False
    es = EchelonSolver()
    for j in range(1, n + 1):
        es.add_column(j, {i: Q.g(i, j) for i in range(1, n + 1) if Q.g(i, j)})
    if es.rank() != n:
        rep.record("metric-invertible", False, f"rank {es.rank()} < {n}")
        ok = False
    # ad-invariance: c^{ij}_m g_{mk} + c^{ik}_m g_{jm} = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                s = sum(L.C(i, j, m) * Q.g(m, k) + L.C(i, k, m) * Q.g(j, m)
                        for m in range(1, n + 1))
                if s:
                    rep.record("metric-invariant", False, f"({i},{j},{k})")
                    ok = False
    if ok:
        rep.record("metric", True)
    return rep


VALUES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(1, 2), Fraction(-3, 2)])


def swap_complete(raw, swap):
    out = {}
    for idx, v in raw.items():
        if swap(idx) != idx:
            out[idx], out[swap(idx)] = v, -v
    return out


def swap_ij(idx):
    return (idx[1], idx[0], idx[2])


def swap_jk(idx):
    return (idx[0], idx[2], idx[1])


def antisymmetric(table, *swaps):
    return all(table.get(swap(idx), 0) == -v
               for idx, v in table.items() for swap in swaps)


@st.composite
def lie_inputs(draw, complete):
    """(L, M, B, Q) with n, dim h in 1..3; ``complete`` decides per array
    (c, a, chi) whether it is made antisymmetric or left as drawn."""
    n, dim_h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g, h = st.integers(1, n), st.integers(1, dim_h)

    def entries(*ranges):
        return draw(st.dictionaries(st.tuples(*ranges), VALUES, max_size=8))

    c, d, a, chi = entries(g, g, g), entries(g, h, h), entries(g, g, g), \
        entries(g, g, g)
    if draw(complete):
        c = swap_complete(c, swap_ij)
    if draw(complete):
        a = swap_complete(a, swap_jk)
    if draw(complete):
        chi = total_chi({k: v for k, v in chi.items() if len(set(k)) == 3})
    metric = draw(st.one_of(st.none(), st.dictionaries(
        st.tuples(g, g), st.integers(-1, 2), max_size=4)))
    B = BialgebraData(a)
    return (LieAlgebraData(n, c), ModuleActionData(dim_h, d), B,
            QuasiBialgebraData(B, chi, metric))


def checks(rep):
    """The whole report: every check's name, status and detail, in order."""
    return rep.title, rep.checks


@settings(max_examples=60, deadline=None)
@given(lie_inputs(st.just(True)))
def test_one_table_matches_loops_on_antisymmetric_data(data):
    L, M, B, Q = data
    assert checks(validate_lie(L)) == checks(ref_lie(L))
    assert checks(validate_module(L, M)) == checks(ref_module(L, M))
    assert checks(validate_bialgebra(L, B)) == checks(ref_bialgebra(L, B))
    assert checks(validate_quasi(L, Q)) == checks(ref_quasi(L, Q))


@settings(max_examples=100, deadline=None)
@given(lie_inputs(st.booleans()))
def test_one_table_on_any_data(data):
    L, M, B, Q = data
    assert checks(validate_lie(L)) == checks(ref_lie(L))
    assert checks(validate_module(L, M)) == checks(ref_module(L, M))
    reports = [validate_lie(L), validate_quasi(L, Q)]
    if not (antisymmetric(L.c, swap_ij) and antisymmetric(B.a, swap_jk)
            and antisymmetric(Q.chi, swap_ij, swap_jk)):
        assert any(c.name.endswith("antisymmetry")
                   for rep in reports for c in rep.failures)
