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

Jacobi-type identities are components of one ``jacobiator``, the cyclic sum
[[x,y],z] + [[y,z],x] + [[z,x],y], over one sparse ``bracket_table``
{(x, y): {z: coefficient}} on integer labels: u_i is i, and v_i (of h) or
u*_i (of g*) is n + i with n = dim g.  The table holds c as stored, plus
either the semidirect sum g |x h, [u_m, v_i] = -[v_i, u_m] = d^{mi}_p v_p,
or the double g (+) g*, [u_i, u*_j] = -[u*_j, u_i] = a^i_{jq} u_q - c^{ik}_j
u*_k and [u*_i, u*_j] = chi_{ijk} u_k + a^k_{ij} u*_k (chi optional), summed
over repeated indices.  Out-of-range entries are left out of the table and
reported as ``index-range`` failures.  Validators report every violated
identity with its index tuple; an empty failure list means all identities
hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .linalg import rank
from .reports import ValidationReport


# shared defaults of the accessors: a Fraction is immutable
_ZERO, _ONE = Fraction(0), Fraction(1)


def _table(entries):
    return {k: q for k, v in entries.items() if (q := Fraction(v))}


@dataclass
class LieAlgebraData:
    dim: int
    c: dict = field(default_factory=dict)

    def __post_init__(self):
        self.c = _table(self.c)

    def C(self, i, j, k) -> Fraction:
        return self.c.get((i, j, k), _ZERO)


@dataclass
class ModuleActionData:
    dim_h: int
    d: dict = field(default_factory=dict)

    def __post_init__(self):
        self.d = _table(self.d)

    def D(self, m, i, p) -> Fraction:
        return self.d.get((m, i, p), _ZERO)


@dataclass
class DglaData:
    A: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = _table(self.A)

    def a(self, i, j) -> Fraction:
        return self.A.get((i, j), _ZERO)


@dataclass
class BialgebraData:
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a = _table(self.a)

    def ab(self, k, i, j) -> Fraction:
        return self.a.get((k, i, j), _ZERO)


@dataclass
class QuasiBialgebraData:
    bialgebra: BialgebraData
    chi: dict = field(default_factory=dict)
    metric: dict | None = None  # None means the identity matrix

    def __post_init__(self):
        self.chi = _table(self.chi)
        if self.metric is not None:
            self.metric = _table(self.metric)

    def x3(self, i, j, k) -> Fraction:
        return self.chi.get((i, j, k), _ZERO)

    def g(self, i, j) -> Fraction:
        if self.metric is None:
            return _ONE if i == j else _ZERO
        return self.metric.get((i, j), _ZERO)


def _inside(idx, *dims) -> bool:
    return all(1 <= i <= dim for i, dim in zip(idx, dims))


def _index_range(rep: ValidationReport, entries, *dims) -> bool:
    """Record an ``index-range`` failure for each entry index beyond
    ``dims``; True when there is none."""
    bad = ["(" + ",".join(map(str, idx)) + ")" for idx in entries
           if not _inside(idx, *dims)]
    rep.record_each("index-range", bad, ok=False)
    return not bad


def bracket_table(L: LieAlgebraData, M: ModuleActionData | None = None,
                  B: BialgebraData | None = None, chi: dict | None = None) -> dict:
    """Bracket table of g, g |x h (``M``) or the double (``B``, ``chi``)."""
    n = L.dim
    T = {}

    def put(x, y, z, v, flip=False):
        T.setdefault((x, y), {})[z] = v
        if flip:
            T.setdefault((y, x), {})[z] = -v

    for (i, j, k), v in L.c.items():
        if _inside((i, j, k), n, n, n):
            put(i, j, k, v)
            if B is not None:
                put(i, n + k, n + j, -v, flip=True)
    if M is not None:
        for (m, i, p), v in M.d.items():
            if _inside((m, i, p), n, M.dim_h, M.dim_h):
                put(m, n + i, n + p, v, flip=True)
    if B is not None:
        for (k, i, j), v in B.a.items():
            if _inside((k, i, j), n, n, n):
                put(n + i, n + j, n + k, v)
                put(k, n + i, j, v, flip=True)
    for (i, j, k), v in (chi or {}).items():
        if _inside((i, j, k), n, n, n):
            put(n + i, n + j, k, v)
    return T


def jacobiator(T: dict, x, y, z) -> dict:
    """Nonzero components of [[x,y],z] + [[y,z],x] + [[z,x],y] over ``T``."""
    out = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for w, s in T.get((a, b), {}).items():
            for t, r in T.get((w, c), {}).items():
                out[t] = out.get(t, 0) + s * r
    return {t: v for t, v in sorted(out.items()) if v}


def validate_lie(L: LieAlgebraData) -> ValidationReport:
    rep = ValidationReport("lie")
    n = L.dim
    # an out-of-range entry is reported where it stands, among the others
    rep.record_each("antisymmetry", (
        ("antisymmetry" if _inside((i, j, k), n, n, n) else "index-range",
         f"({i},{j},{k})") for (i, j, k), v in L.c.items()
        if not _inside((i, j, k), n, n, n) or L.C(j, i, k) != -v))
    T = bracket_table(L)
    rep.record_each("jacobi", (f"({i},{j},{k};{l}) -> {s}"
                               for i, j, k in product(range(1, n + 1), repeat=3)
                               for l, s in jacobiator(T, i, j, k).items()))
    return rep


def validate_module(L: LieAlgebraData, M: ModuleActionData) -> ValidationReport:
    """rho is a Lie algebra morphism g -> gl(h): the v_p components of
    J(u_i, u_j, v_nn) in g |x h are rho([u_i, u_j]) - [rho(u_i), rho(u_j)]."""
    rep = ValidationReport("module")
    n = L.dim
    _index_range(rep, M.d, n, M.dim_h, M.dim_h)
    T = bracket_table(L, M)
    rep.record_each("morphism", (f"({i},{j};{nn},{p - n})"
                                 for i, j in product(range(1, n + 1), repeat=2)
                                 for nn in range(1, M.dim_h + 1)
                                 for p in jacobiator(T, i, j, n + nn)))
    return rep


def validate_dgla(L: LieAlgebraData, M: ModuleActionData, D: DglaData) -> ValidationReport:
    """Equivariance A o rho(u) = ad_u o A for every basis element u."""
    rep = ValidationReport("dgla")
    gs, hs = range(1, L.dim + 1), range(1, M.dim_h + 1)
    rep.record_each("equivariance", (
        f"(u{m};v{j}->u{i})" for m, j, i in product(gs, hs, gs)
        if sum(D.a(i, p) * M.D(m, j, p) for p in hs)
        != sum(L.C(m, l, i) * D.a(l, j) for l in gs)))
    return rep


def validate_bialgebra(L: LieAlgebraData, B: BialgebraData) -> ValidationReport:
    """Cobracket antisymmetry, then co-Jacobi (the u*_l components of
    J(u*_i, u*_j, u*_k)) and the cocycle condition (the u*_n components of
    J(u*_i, u*_j, u_m)) in the untwisted double."""
    rep = ValidationReport("bialgebra")
    n = L.dim
    in_range = _index_range(rep, B.a, n, n, n)
    rep.record_each("cobracket-antisymmetry", (
        f"({k},{i},{j})" for (k, i, j), v in B.a.items()
        if _inside((k, i, j), n, n, n) and B.ab(k, j, i) != -v), in_range)
    T = bracket_table(L, B=B)
    cube = list(product(range(1, n + 1), repeat=3))
    rep.record_each("co-jacobi", (f"({i},{j},{k};{l - n})" for i, j, k in cube
                                  for l in jacobiator(T, n + i, n + j, n + k)))
    rep.record_each("cocycle-compatibility", (
        f"(i={i},j={j},m={m},n={t - n})" for i, j, m in cube
        for t in jacobiator(T, n + i, n + j, m) if t > n))
    return rep


def validate_quasi(L: LieAlgebraData, Q: QuasiBialgebraData) -> ValidationReport:
    """Jacobi identity of the chi-twisted double g (+) g* on every ordered
    triple of basis labels (reported 0-based), after the bialgebra checks.

    chi must be antisymmetric in each adjacent pair of indices for
    ``double-jacobi`` to pass.  The metric, when present, must be
    symmetric, invertible and ad-invariant.
    """
    B = Q.bialgebra
    rep = validate_bialgebra(L, B)
    rep.title = "quasi"
    n = L.dim

    in_range = _index_range(rep, Q.chi, n, n, n)
    chi_bad = [f"({i},{j},{k})" for (i, j, k), v in Q.chi.items()
               if _inside((i, j, k), n, n, n)
               and (Q.x3(j, i, k) != -v or Q.x3(i, k, j) != -v)]
    rep.record_each("chi-antisymmetry", chi_bad, ok=False)
    T = bracket_table(L, B=B, chi=Q.chi)
    rep.record_each("double-jacobi", (
        f"({i - 1},{j - 1},{k - 1})"
        for i, j, k in product(range(1, 2 * n + 1), repeat=3)
        if jacobiator(T, i, j, k)), in_range and not chi_bad)

    ns = range(1, n + 1)
    metric = [("metric-symmetric", f"({i},{j})") for i, j in product(ns, repeat=2)
              if Q.g(i, j) != Q.g(j, i)]
    r = rank({j: {i: Q.g(i, j) for i in ns if Q.g(i, j)} for j in ns})
    if r != n:
        metric.append(("metric-invertible", f"rank {r} < {n}"))
    # ad-invariance: c^{ij}_m g_{mk} + c^{ik}_m g_{jm} = 0
    metric += [("metric-invariant", f"({i},{j},{k})")
               for i, j, k in product(ns, repeat=3)
               if sum(L.C(i, j, m) * Q.g(m, k) + L.C(i, k, m) * Q.g(j, m) for m in ns)]
    rep.record_each("metric", metric)
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
        d[(m, i, p)] = d.get((m, i, p), _ZERO) - v
    return ModuleActionData(L.dim, {k: v for k, v in d.items() if v})
