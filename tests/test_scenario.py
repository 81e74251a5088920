"""Scenario assembly, equivariance/compatibility checks, group constraints."""

import copy
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from bfvkit.config import parse_scenario
from bfvkit.engine import build_charge_deg1, cocycle_lift
from bfvkit.errors import (BfvError, NotNearIdentity, RankDeficient,
                           SchemaError, ShapeMismatch)
from bfvkit.generators import Kind, bfv1_table
from bfvkit.gpoly import GPoly, bracket
from bfvkit.grammar import parse, serialize
from bfvkit.liedata import ModuleActionData, preset_lie
from bfvkit.presets import PRESET_NAMES, load_preset
from bfvkit.scenario import (Scenario, bch_transport_check,
                             check_compatibility, check_equivariance,
                             group_log_constraints, ideal_membership)


def canonical_bracket(table, f, g, n_half):
    """Coordinate canonical-bracket oracle on T*R^k: {f,g} = sum df/dq dg/dp
    - df/dp dg/dq with q = x1..xk, p = x(k+1)..x(2k)."""
    base = table.ids_of_kind(Kind.BASE)
    out = GPoly.zero(table)
    for a in range(n_half):
        q, p = base[a], base[a + n_half]
        out = out + f.deriv(q) * g.deriv(p) - f.deriv(p) * g.deriv(q)
    return out


def test_assemble_abelian_translation(abelian_translation):
    deg1, deg0 = abelian_translation.constraints
    assert deg1 == (parse(abelian_translation.table, "1 * e2"),)
    assert deg0 == ()


def test_assemble_classical_synthesis(so3_classical):
    # hamiltonian synthesis: with psi omitted, deg1_k = {pi, J0_k}; the
    # synthesized field acts on functions as minus the canonical bracket
    # with J0_k (oracle below), matching the degree -1 sign conventions
    S = replace(so3_classical, psi=())
    deg1, _deg0 = S.constraints
    assert S.psi == ()
    assert len(deg1) == 3
    t = S.table
    for k in range(3):
        V = deg1[k]
        assert V == bracket(S.pi, S.J0[k])
        for probe in ("1 * x1", "1 * x4", "1 * x2 x5"):
            f = parse(t, probe)
            assert bracket(V, f) == -canonical_bracket(t, S.J0[k], f, 3)


def test_assemble_dgla_passthrough(dgla_identity):
    deg1, deg0 = dgla_identity.constraints
    assert deg1 == dgla_identity.psi
    assert deg0 == dgla_identity.J0


def test_equivariance_abelian(abelian_translation):
    assert check_equivariance(abelian_translation).passed


def test_equivariance_so3(so3_classical):
    assert check_equivariance(so3_classical).passed


def test_equivariance_perturbed_so3_fails(so3_classical):
    S = copy.deepcopy(so3_classical)
    S.lie.c[(1, 2, 3)] = -S.lie.c[(1, 2, 3)]
    rep = check_equivariance(S)
    assert not rep.passed
    assert any("psi1,psi2" in c.detail for c in rep.failures)


def test_compatibility_so3(so3_classical):
    rep = check_compatibility(so3_classical)
    assert rep.passed
    # {pi, J0_k} = -psi_k lies in the ideal; cofactors exist at bound 0
    cof = ideal_membership(so3_classical,
                           bracket(so3_classical.pi, so3_classical.J0[0]), 0)
    assert cof is not None


def test_membership_reads_assembled_constraints():
    # a group-valued scenario keeps the document's empty J0: the log
    # constraints exist only in its constraints, and membership must use them
    S = parse_scenario(load_preset("group-valued-so3"))
    S2 = parse_scenario(load_preset("group-valued-so3"))
    f1 = S2.constraints[1][0]
    cof = ideal_membership(S, f1, 2)
    assert cof is not None
    assert S.J0 == ()
    gens = S.constraints[0] + S.constraints[1]
    rebuilt = GPoly.zero(S.table)
    for h, g in zip(cof, gens):
        rebuilt = rebuilt + h * g
    assert rebuilt == f1


def test_membership_verifies_cofactors(so3_classical, monkeypatch):
    # a solution that drops a coefficient no longer rebuilds the target
    import bfvkit.scenario as scenario

    real = scenario.EchelonSolver.solve_pair

    def lossy(self, target):
        sol = real(self, target)
        if sol and sol[0]:
            sol[0].pop(next(iter(sol[0])))
        return sol

    monkeypatch.setattr(scenario.EchelonSolver, "solve_pair", lossy)
    with pytest.raises(BfvError, match="failed verification"):
        ideal_membership(so3_classical,
                         bracket(so3_classical.pi, so3_classical.J0[0]), 0)


def test_compatibility_compiles_delta_v_once(monkeypatch):
    # three generators have a nonzero {pi, g}: one operator serves all
    # three membership solves, with the answers of separate compiles
    import bfvkit.scenario as scenario

    ops = []
    real = scenario._reached_solve

    def recording(op, *args):
        ops.append(op)
        return real(op, *args)

    doc = load_preset("so3-classical")
    S = parse_scenario(doc)
    targets = [bracket(S.pi, g) for g in S.constraints[0] + S.constraints[1]]
    targets = [t for t in targets if t]
    assert len(targets) == 3
    # a fresh scenario per solve compiles its own operator
    assert all(ideal_membership(parse_scenario(doc), t) is not None
               for t in targets)
    monkeypatch.setattr(scenario, "_reached_solve", recording)
    assert check_compatibility(S).passed
    assert len(ops) == 3
    assert ops[0] is ops[1] is ops[2]


def recorded_columns(monkeypatch):
    """Tags given to EchelonSolver.add_column from now on, in order."""
    import bfvkit.linalg as linalg

    seen = []
    real = linalg.EchelonSolver.add_column

    def recording(self, tag, vec):
        seen.append(tag)
        return real(self, tag, vec)

    monkeypatch.setattr(linalg.EchelonSolver, "add_column", recording)
    return seen


def test_compatibility_poses_only_needed_columns(so3_classical, monkeypatch):
    # every {pi, g} target is reached from base degree 0 columns, so at
    # degree_bound 4 no cofactor monomial of higher base degree is posed
    S = replace(so3_classical, degree_bound=4)
    seen = recorded_columns(monkeypatch)
    assert check_compatibility(S).passed
    assert seen
    assert all(S.table.codec.base_degree(mono) == 0 for mono in seen)


def test_undecided_membership_poses_each_column_once(monkeypatch):
    # e1 + e2 reaches the one column b1 (delta_V b1 = e2), which leaves e1
    # unsolved: the bounded system is posed and inconsistent
    doc = load_preset("abelian-translation")
    doc["degree_bound"] = 0
    S = parse_scenario(doc)
    seen = recorded_columns(monkeypatch)
    assert ideal_membership(S, parse(S.table, "1 * e1 + 1 * e2")) is None
    assert seen and len(seen) == len(set(seen))


def test_compatibility_zero_bivector(so3_classical):
    S = replace(so3_classical, pi=GPoly.zero(so3_classical.table))
    assert check_compatibility(S).passed


def test_compatibility_bialgebra(aff1_bialgebra):
    rep = check_compatibility(aff1_bialgebra)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "cobracket-covariance" in names


def test_compatibility_quasi(quasi_chi):
    rep = check_compatibility(quasi_chi)
    assert rep.passed
    assert any(c.name == "weak-master" for c in rep.checks)


def test_compatibility_monotone_in_bound(so3_classical):
    r4 = check_compatibility(so3_classical, bound=1)
    r5 = check_compatibility(so3_classical, bound=2)
    assert r4.passed and r5.passed


def test_classical_compat_follows_from_equivariance_with_synthesis():
    # for classical scenarios with psi = {pi, J0}, equivariance pass
    # implies compatibility pass (abelian instance, exact)
    t = bfv1_table(2, 1, 1)
    S = Scenario(kind="classical_hamiltonian", n=2, table=t,
                 pi=parse(t, "1 * e1 e2"), psi=[], J0=[parse(t, "1 * x2")],
                 lie=preset_lie("abelian(1)"), module=ModuleActionData(1, {}))
    assert S.constraints[0] == (bracket(S.pi, S.J0[0]),)
    assert check_equivariance(S).passed
    assert check_compatibility(S).passed


# -- group-valued ------------------------------------------------------


def test_group_log_identity_map():
    doc = load_preset("group-valued-so3")
    doc["phi"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc["sample_points"] = []
    S = parse_scenario(doc)
    # all constraints vanish, so the rank check would fail; bypass it by
    # checking the raw series instead
    with pytest.raises(RankDeficient):
        group_log_constraints(S)


def test_group_log_single_generator_exponential():
    # Phi = exp(x1 L1) truncated at order 4 -> f^k = x1 delta_{k1}, and the
    # differentials have rank 1 < 3
    doc = load_preset("group-valued-so3")
    entries = [["1", "0", "0"],
               ["0", "1 - 1/2 * x1^2 + 1/24 * x1^4", "-1 * x1 + 1/6 * x1^3"],
               ["0", "1 * x1 - 1/6 * x1^3", "1 - 1/2 * x1^2 + 1/24 * x1^4"]]
    doc["phi"] = entries
    with pytest.raises(RankDeficient, match=r"have rank 1 < 3 at sample point"):
        group_log_constraints(parse_scenario(doc))
    # with a one-dimensional algebra the same map has full rank
    doc["lie"] = {"dim_g": 1, "dim_h": 1, "c": [], "d": [[1, 1, 1, 0]]}
    doc["psi"] = ["0"]
    doc["basis_matrices"] = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]]]
    doc["sample_points"] = []
    S = parse_scenario(doc)
    fks = group_log_constraints(S)
    assert len(fks) == 1
    assert fks[0] == parse(S.table, "1 * x1")


def test_group_log_not_near_identity():
    doc = load_preset("group-valued-so3")
    doc["phi"][0][0] = "2"
    with pytest.raises(NotNearIdentity):
        group_log_constraints(parse_scenario(doc))


def test_group_log_vanishes_at_reference_point(group_valued_so3):
    fks = group_log_constraints(group_valued_so3)
    base = group_valued_so3.table.ids_of_kind(Kind.BASE)
    origin = {gid: Fraction(0) for gid in base}
    for f in fks:
        assert not f.eval_base(origin)


def test_group_log_matches_numeric_matrix_log(group_valued_so3):
    scipy = pytest.importorskip("scipy")
    import numpy as np
    from scipy.linalg import logm

    S = group_valued_so3
    fks = group_log_constraints(S)
    base = S.table.ids_of_kind(Kind.BASE)
    mats = [np.array([[float(v) for v in row] for row in m])
            for m in S.basis_matrices]
    pts = [(Fraction(1, 8), Fraction(-1, 16), Fraction(1, 32)),
           (Fraction(-1, 8), Fraction(1, 8), Fraction(1, 8)),
           (Fraction(3, 32), Fraction(0), Fraction(-1, 16))]
    for pt in pts:
        point = dict(zip(base, pt))
        phi_num = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                phi_num[i, j] = float(S.phi[i][j].eval_base(point).const_value())
        log_num = logm(phi_num)
        tol = float(sum(v * v for v in pt)) ** 2.5  # |y|^(order+1)
        for k, f in enumerate(fks):
            # <u^k, .> with the orthonormal trace pairing -1/2 tr(L_k .)
            oracle = -0.5 * np.trace(mats[k] @ log_num)
            got = float(f.eval_base(point).const_value())
            assert abs(got - oracle) < tol


def test_bch_transport_so3(group_valued_so3):
    rep = bch_transport_check(group_valued_so3, 3)
    assert rep.passed


def test_bch_transport_abelian_trivial():
    doc = {
        "kind": "group_valued", "n": 1, "pi": "0",
        "psi": ["0"],
        "lie": {"dim_g": 1, "dim_h": 1, "c": [], "d": [[1, 1, 1, 0]]},
        "truncation_order": 4,
        "phi": [["1 + 1 * x1 + 1/2 * x1^2 + 1/6 * x1^3 + 1/24 * x1^4"]],
        "basis_matrices": [[[1]]],
        "sample_points": [[0]],
    }
    S = parse_scenario(doc)
    assert bch_transport_check(S, 4).passed


def test_bch_order_one_is_kronecker(group_valued_so3):
    # at order 1 the constraint transport reduces to (df^i)_0(u^j) = delta^{ij}
    S = group_valued_so3
    fks = group_log_constraints(S)
    base = S.table.ids_of_kind(Kind.BASE)
    for i, f in enumerate(fks):
        lin = f.base_component(1)
        expected = GPoly.gen(S.table, base[i])
        assert lin == expected


def test_scenario_document_rejects_unknown_keys():
    doc = load_preset("abelian-translation")
    doc["surprise"] = 1
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_roundtrip_expressions(so3_classical):
    t = so3_classical.table
    for p in [so3_classical.pi, *so3_classical.psi, *so3_classical.J0]:
        assert parse(t, serialize(p)) == p


def test_shape_mismatch_ghost_in_pi(abelian_translation):
    S = abelian_translation
    with pytest.raises(ShapeMismatch):
        replace(S, pi=parse(S.table, "1 * e1 c1"))


def test_shape_mismatch_inhomogeneous_pi(abelian_translation):
    S = abelian_translation
    with pytest.raises(ShapeMismatch):
        replace(S, pi=parse(S.table, "1 * e1 e2 + 1 * x1"))


def test_scenario_is_frozen(so3_classical):
    S = so3_classical
    with pytest.raises(FrozenInstanceError):
        S.pi = GPoly.zero(S.table)
    with pytest.raises(FrozenInstanceError):
        S.psi = ()
    assert type(S.psi) is tuple and type(S.J0) is tuple
    t = bfv1_table(2, 1, 1)
    built = Scenario(kind="classical_hamiltonian", n=2, table=t,
                     pi=parse(t, "1 * e1 e2"), psi=[], J0=[parse(t, "1 * x2")],
                     lie=preset_lie("abelian(1)"), module=ModuleActionData(1, {}))
    assert built.psi == () and built.J0 == (parse(t, "1 * x2"),)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_checks_leave_the_scenario_as_parsed(name):
    # the derived data is cached on the scenario, and no check writes to it
    doc = load_preset(name)
    S = parse_scenario(doc)
    constraints = S.constraints
    check_equivariance(S)
    check_compatibility(S)
    Q = build_charge_deg1(S)
    cocycle_lift(S, Q)
    if S.kind == "group_valued":
        bch_transport_check(S, 3)
    assert S == parse_scenario(doc)
    assert S.constraints is constraints


def test_missing_required_key_rejected():
    with pytest.raises(SchemaError):
        parse_scenario({"kind": "bialgebra", "n": 2})


def test_bch_transport_so3_order4(group_valued_so3):
    # one order beyond the acceptance setting still passes: the Cayley
    # constraints are exactly equivariant, so only the log-transport
    # series is truncation-sensitive
    rep = bch_transport_check(group_valued_so3, 4)
    assert rep.passed
