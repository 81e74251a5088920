"""Lie-theoretic input data with executable axiom validators.

Index conventions (all 1-based, matching generator tokens):

* ``c[(i, j, k)]`` = c^{ij}_k with [u^i, u^j] = sum_k c^{ij}_k u^k,
  antisymmetric in (i, j).
* ``d[(m, i, p)]`` = d^{mi}_p with rho(u^m) v^i = sum_p d^{mi}_p v^p.
* ``A[(i, j)]`` = a^i_j, the matrix of the differential delta: h -> g,
  delta(v^j) = sum_i a^i_j u^i.
* ``a[(k, i, j)]`` = a^k_{ij}, cobracket constants with
  F(u^k) = sum_{ij} a^k_{ij} u^i (x) u^j (antisymmetric in (i, j)); the
  dual bracket is the same array reindexed, [u*_i, u*_j]* = sum_k a^k_{ij} u*_k.
* ``chi[(i, j, k)]`` totally antisymmetric.

Validators report every violated identity with its index tuple; an empty
failure list means all identities hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .reports import ValidationReport


def _q(x):
    return Fraction(x)


def _table(entries):
    return {k: _q(v) for k, v in entries.items() if _q(v)}


@dataclass
class LieAlgebraData:
    dim: int
    c: dict = field(default_factory=dict)

    def __post_init__(self):
        self.c = _table(self.c)

    def C(self, i, j, k) -> Fraction:
        return self.c.get((i, j, k), Fraction(0))


@dataclass
class ModuleActionData:
    dim_h: int
    d: dict = field(default_factory=dict)

    def __post_init__(self):
        self.d = _table(self.d)

    def D(self, m, i, p) -> Fraction:
        return self.d.get((m, i, p), Fraction(0))


@dataclass
class DglaData:
    A: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = _table(self.A)

    def a(self, i, j) -> Fraction:
        return self.A.get((i, j), Fraction(0))


@dataclass
class BialgebraData:
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a = _table(self.a)

    def ab(self, k, i, j) -> Fraction:
        return self.a.get((k, i, j), Fraction(0))


@dataclass
class QuasiBialgebraData:
    bialgebra: BialgebraData
    chi: dict = field(default_factory=dict)
    metric: dict | None = None  # None means the identity matrix

    def __post_init__(self):
        self.chi = _table(self.chi)

    def x3(self, i, j, k) -> Fraction:
        return self.chi.get((i, j, k), Fraction(0))

    def g(self, i, j) -> Fraction:
        if self.metric is None:
            return Fraction(1) if i == j else Fraction(0)
        return Fraction(self.metric.get((i, j), 0))


def validate_lie(L: LieAlgebraData) -> ValidationReport:
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


def validate_module(L: LieAlgebraData, M: ModuleActionData) -> ValidationReport:
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


def validate_dgla(L: LieAlgebraData, M: ModuleActionData, D: DglaData) -> ValidationReport:
    """Equivariance A o rho(u) = ad_u o A for every basis element u."""
    rep = ValidationReport("dgla")
    ok = True
    for m in range(1, L.dim + 1):
        for j in range(1, M.dim_h + 1):
            for i in range(1, L.dim + 1):
                lhs = sum(D.a(i, p) * M.D(m, j, p) for p in range(1, M.dim_h + 1))
                rhs = sum(L.C(m, l, i) * D.a(l, j) for l in range(1, L.dim + 1))
                if lhs != rhs:
                    rep.record("equivariance", False, f"(u{m};v{j}->u{i})")
                    ok = False
    if ok:
        rep.record("equivariance", True)
    return rep


def validate_bialgebra(L: LieAlgebraData, B: BialgebraData) -> ValidationReport:
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


def validate_quasi(L: LieAlgebraData, Q: QuasiBialgebraData) -> ValidationReport:
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
    rep = validate_bialgebra(L, B)
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
    from .linalg import EchelonSolver

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


# ---------------------------------------------------------------------------
# presets


def _eps():
    c = {}
    for (i, j, k), v in (((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1)):
        c[(i, j, k)] = Fraction(v)
        c[(j, i, k)] = Fraction(-v)
    return c


def preset_lie(name: str) -> LieAlgebraData:
    if name == "so3":
        return LieAlgebraData(3, _eps())
    if name == "sl2":
        # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
        c = {(1, 2, 2): 2, (2, 1, 2): -2, (1, 3, 3): -2, (3, 1, 3): 2,
             (2, 3, 1): 1, (3, 2, 1): -1}
        return LieAlgebraData(3, c)
    if name == "heisenberg":
        return LieAlgebraData(3, {(1, 2, 3): 1, (2, 1, 3): -1})
    if name.startswith("abelian"):
        n = int(name[7:].strip("()") or 1)
        return LieAlgebraData(n, {})
    if name == "aff1":
        # [e1, e2] = e2
        return LieAlgebraData(2, {(1, 2, 2): 1, (2, 1, 2): -1})
    raise ValueError(f"unknown Lie preset {name!r}")


def preset_bialgebra(name: str):
    if name == "aff1":
        L = preset_lie("aff1")
        # cobracket delta(e2) = -1/2 e1 ^ e2 (full-sum convention), delta(e1) = 0
        B = BialgebraData({(2, 1, 2): Fraction(-1, 2), (2, 2, 1): Fraction(1, 2)})
        return L, B
    raise ValueError(f"unknown bialgebra preset {name!r}")


def adjoint_module(L: LieAlgebraData) -> ModuleActionData:
    """The adjoint action of g on h = g, d^{mi}_p = c^{mi}_p."""
    return ModuleActionData(L.dim, dict(L.c))


def coadjoint_module(L: LieAlgebraData) -> ModuleActionData:
    """The coadjoint action on h = g*, rho(u^m) v_i = -c^{mp}_i v_p."""
    d = {}
    for (m, p, i), v in L.c.items():
        d[(m, i, p)] = d.get((m, i, p), Fraction(0)) - v
    return ModuleActionData(L.dim, {k: v for k, v in d.items() if v})
