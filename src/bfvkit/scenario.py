"""Reduction problem instances and their exact compatibility checks.

A :class:`Scenario` bundles the base manifold dimension, the bivector pi,
the action vector fields psi (fiber-linear GPolys), the degree-zero
constraints J0, and the Lie-theoretic structure data.  For group-valued
scenarios the moment map is a square matrix of base-coordinate polynomials
equal to the identity at the origin; its logarithm is truncated at the
scenario's truncation order and paired against the Lie algebra basis
matrices to produce ordinary polynomial constraints.

A Scenario is frozen and keeps psi and J0 as its document gives them.  Its
constraints, with any synthesized psi or log constraints, and its
constraint charge are derived once, at first use, and cached on it.

The matrix series run on integers.  A series is (codec, entries, d): each
entry split once by base degree, {degree: {monomial: int}}, over one
positive denominator d for the whole matrix.  The entries of Phi use only
the even base coordinates, so a product of two terms is one add of packed
keys with a guard-bit check, and no sign; products multiply
denominators.  With d the lcm of the
denominators of Phi, N = Phi - I is scaled by d, so its m-th power has
denominator d^m; the log sum_m (-1)^(m+1) N^m / m and the dual log
(whose m-th term N^(m-1) B + D_(m-1) N has denominator d^(m-1) times
that of B) are summed over the lcm of their terms' denominators.  The
pairing with the basis runs on integers too: the basis matrices over one
denominator, their Gram matrix on ints, each pullback over one
denominator, and the rank check on gradients evaluated at the sample
point put over a common denominator.

Conventions: the reference point of group-valued scenarios is the origin
of the base coordinates; hamiltonian synthesis for classical scenarios
with omitted psi uses psi_i := {pi, J0_i}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import lcm

from .engine import _reached_solve, _shift_part
from .errors import BfvError, NotNearIdentity, RankDeficient, ShapeMismatch
from .generators import GeneratorTable, Kind
from .gpoly import GPoly, bracket
from .liedata import (BialgebraData, DglaData, LieAlgebraData,
                      ModuleActionData, QuasiBialgebraData)
from .linalg import EchelonSolver, rank
from .reports import ValidationReport

KINDS = ("classical_hamiltonian", "generalized_pair", "dgla", "bialgebra",
         "quasi_bialgebra", "group_valued")


@dataclass(frozen=True)
class Scenario:
    kind: str
    n: int
    table: GeneratorTable
    pi: GPoly
    psi: tuple
    J0: tuple
    lie: LieAlgebraData
    module: ModuleActionData | None = None
    dgla: DglaData | None = None
    bialgebra: BialgebraData | None = None
    quasi: QuasiBialgebraData | None = None
    truncation_order: int = 4
    degree_bound: int = 4
    assumptions: dict = field(default_factory=dict)
    phi: tuple | None = None             # matrix of base-coordinate GPolys
    basis_matrices: tuple | None = None  # rational matrices for <u^k, .>
    sample_points: tuple = ()
    quasi_master_mode: str = "chi"       # "chi" or "ideal"
    name: str = "scenario"

    @property
    def dim_g(self) -> int:
        return self.lie.dim

    @property
    def dim_h(self) -> int:
        return self.module.dim_h if self.module else 0

    def __post_init__(self):
        """Store psi and J0 as tuples, and phi, the basis matrices and the
        sample points as tuples of tuples, as given; check the shapes."""
        object.__setattr__(self, "psi", tuple(self.psi))
        object.__setattr__(self, "J0", tuple(self.J0))
        if self.phi is not None:
            object.__setattr__(self, "phi", tuple(map(tuple, self.phi)))
        if self.basis_matrices is not None:
            object.__setattr__(self, "basis_matrices", tuple(
                tuple(map(tuple, m)) for m in self.basis_matrices))
        object.__setattr__(self, "sample_points", tuple(map(tuple, self.sample_points)))
        if self.kind not in KINDS:
            raise ShapeMismatch(f"unknown scenario kind {self.kind!r}")
        if self.psi and len(self.psi) != self.dim_g:
            raise ShapeMismatch("psi length must equal dim g")
        if self.J0 and len(self.J0) != self.dim_h:
            raise ShapeMismatch("J0 length must equal dim h")
        if self.kind == "group_valued" and (self.phi is None
                                            or self.basis_matrices is None):
            raise ShapeMismatch("group_valued scenarios need phi and basis_matrices")
        allowed = {Kind.BASE, Kind.FIBER}
        for name, polys in (("pi", [self.pi]), ("psi", self.psi), ("J0", self.J0)):
            for p in polys:
                if not p.kinds_used() <= allowed:
                    raise ShapeMismatch(f"{name} must use base/fiber generators only")
        for row in self.phi or ():
            for p in row:
                if not p.kinds_used() <= {Kind.BASE}:
                    raise ShapeMismatch("phi must use base generators only")
        if self.pi and self.pi.degree_support() != [2]:
            raise ShapeMismatch("pi must be homogeneous of function degree 2")
        for p in self.psi:
            if p and p.degree_support() != [1]:
                raise ShapeMismatch("psi entries must have function degree 1")
        for p in self.J0:
            if p and p.degree_support() != [0]:
                raise ShapeMismatch("J0 entries must have function degree 0")

    @cached_property
    def constraints(self) -> tuple:
        """(deg1, deg0): the degree-(1, 0) ideal generators J1#(u^i) = psi_i
        and J0#(v^j), with missing data synthesized per kind.

        For classical scenarios with omitted psi the action fields are the
        hamiltonian fields {pi, J0_i}; for group-valued scenarios with
        omitted J0 the degree-zero constraints come from the truncated
        matrix log.  Derived at first use, so a document whose log
        constraints fail (NotNearIdentity, RankDeficient) still parses.
        """
        psi, J0 = self.psi, self.J0
        if self.kind == "classical_hamiltonian" and not psi:
            if len(J0) != self.dim_g:
                raise ShapeMismatch("classical synthesis needs one J0 per g-basis element")
            psi = tuple(bracket(self.pi, j) for j in J0)
        if self.kind == "group_valued" and not J0:
            J0 = tuple(group_log_constraints(self))
        if len(psi) != self.dim_g:
            raise ShapeMismatch("assembled psi length must equal dim g")
        if self.dim_h and len(J0) != self.dim_h:
            raise ShapeMismatch("assembled J0 length must equal dim h")
        return psi, J0

    @cached_property
    def constraint_charge(self) -> GPoly:
        """psi_i c_i + J0_j C_j over the constraints: the part of the charge
        whose delta_V sends b_i to psi_i and B_j to J0_j.  That delta_V,
        compiled once and cached on this GPoly, is the operator of every
        membership solve of the scenario."""
        return sum((g * self.gen(kind, i) for kind, gens
                    in zip((Kind.GHOST_G, Kind.GHOST_H), self.constraints)
                    for i, g in enumerate(gens, start=1)), GPoly.zero(self.table))

    # -- generator access ----------------------------------------------

    def gen(self, kind: Kind, i: int) -> GPoly:
        ids = self.table.ids_of_kind(kind)
        return GPoly.gen(self.table, ids[i - 1])

    def chi_m(self) -> GPoly:
        """chi_M = sum_{i<j<k} chi^{ijk} psi_i psi_j psi_k."""
        if not self.quasi:
            return GPoly.zero(self.table)
        psi = self.constraints[0]
        return _combination(self.table, (
            (v, psi[i - 1] * psi[j - 1] * psi[k - 1])
            for i, j, k in combinations(range(1, self.dim_g + 1), 3)
            if (v := self.quasi.x3(i, j, k))))


def _combination(table, terms) -> GPoly:
    """sum v * g over the (v, g) pairs of ``terms``."""
    return sum((v * g for v, g in terms), GPoly.zero(table))


def check_equivariance(S: Scenario) -> ValidationReport:
    """{psi_i, psi_j} = c^{ij}_k psi_k and psi_i(J0_j) = d^{ij}_p J0_p, exactly.

    Group-valued scenarios compare after truncation at the scenario's
    truncation order, since their constraints are themselves truncated.
    """
    rep = ValidationReport("equivariance")
    deg1, deg0 = S.constraints
    n = S.dim_g

    def cut(p):
        return p.base_truncate(S.truncation_order) if S.kind == "group_valued" else p

    gs, hs = range(1, n + 1), range(1, S.dim_h + 1)
    rep.record_each("action-bracket", (
        f"(psi{i},psi{j})" for i, j in combinations(gs, 2)
        if cut(bracket(deg1[i - 1], deg1[j - 1]) - _combination(S.table, (
            (v, deg1[k - 1]) for k in gs if (v := S.lie.C(i, j, k)))))))
    if S.dim_h:
        rep.record_each("moment-equivariance", (
            f"(psi{i},J0_{j})" for i, j in product(gs, hs)
            if cut(bracket(deg1[i - 1], deg0[j - 1]) - _combination(S.table, (
                (v, deg0[p - 1]) for p in hs if (v := S.module.D(i, j, p)))))))
    return rep


def ideal_membership(S: Scenario, target: GPoly, bound: int | None = None):
    """Cofactors h_g with target = sum h_g * g over the constraint ideal.

    The generators g are those of ``S.constraints``, deg1 then deg0.
    delta_V of ``S.constraint_charge`` sends the antighost a_g of g (b_i
    for psi_i, B_j for J0_j) to g and kills base and fiber functions, so
    the target is in the ideal exactly when it is delta_V of a sum P of
    monomials h * a_g, h base/fiber: one Koszul solve over the columns it
    reaches, of base degree at most ``bound``.  delta_V is odd, so the
    cofactor of g is (-1)^|h| h over the terms h of dP/da_g|R.  Returns the
    cofactors, parallel to the generators and checked to rebuild the
    target, or None when the bounded system is inconsistent.  delta_V is
    compiled once per scenario, on its constraint charge.
    """
    bound = S.degree_bound if bound is None else bound
    table = S.table
    P, _cols, _rank = _reached_solve(
        _shift_part(S.constraint_charge, (0, -1)), target,
        [(d - 1, 0, 1) for d in target.degree_support()], [bound])
    if P is None:
        return None
    ags = table.ids_of_kind(Kind.ANTIGHOST_G) + table.ids_of_kind(Kind.ANTIGHOST_H)
    dP = P.partials("right")
    cof = [GPoly._make(table, {m: -c if P.mono_degree(m) % 2 else c
                               for m, c in dP.get(a, {}).items()}, P.den) for a in ags]
    deg1, deg0 = S.constraints
    rebuilt = sum((h * g for h, g in zip(cof, deg1 + deg0)), GPoly.zero(table))
    if rebuilt != target or any(h.max_base_degree() > bound for h in cof):
        raise BfvError("ideal membership cofactors failed verification")
    return cof


def check_compatibility(S: Scenario, bound: int | None = None) -> ValidationReport:
    """pi lies in the normalizer of the constraint ideal, plus kind-specific
    weak-master checks.  Membership failures at the bound are reported as
    undecided, never as failures."""
    rep = ValidationReport("compatibility")
    deg1, deg0 = S.constraints
    bound = S.degree_bound if bound is None else bound

    def member(name, br, detail=""):
        """Record that br is in the ideal, or undecided at the bound."""
        if br and ideal_membership(S, br, bound) is None:
            rep.record_undecided(name, f"membership undecided at bound {bound}")
        else:
            rep.record(name, True, detail)

    names = [f"psi{i+1}" for i in range(len(deg1))] + \
            [f"J0_{j+1}" for j in range(len(deg0))]
    for name, g in zip(names, deg1 + deg0):
        member(f"normalizer.{name}", bracket(S.pi, g))
    if S.kind in ("bialgebra", "quasi_bialgebra") and S.bialgebra is not None:
        gs = range(1, S.dim_g + 1)
        rep.record_each("cobracket-covariance", (
            f"psi{k}" for k in gs
            if bracket(S.pi, deg1[k - 1]) != _combination(S.table, (
                (v, deg1[i - 1] * deg1[j - 1]) for i, j in product(gs, repeat=2)
                if (v := S.bialgebra.ab(k, i, j))))))
    if S.kind == "quasi_bialgebra":
        if S.quasi_master_mode == "chi":
            lhs = Fraction(1, 2) * bracket(S.pi, S.pi)
            rep.record("weak-master", lhs == S.chi_m(),
                       "1/2{pi,pi} = chi_M")
        else:
            br = bracket(S.pi, S.pi)
            member("weak-master", br, "{pi,pi} in ideal" if br else "{pi,pi} = 0")
    for key, val in sorted(S.assumptions.items()):
        rep.record(f"assumption.{key}", True, f"recorded={val} (not verified)")
    return rep


# ---------------------------------------------------------------------------
# group-valued scenarios: polynomial matrix series on integers


def _integer_matrix(table, rows, order):
    """The matrix of GPolys ``rows`` truncated at base degree ``order``, as
    a series (codec, entries, d) over the lcm d of their denominators."""
    codec = table.codec
    d = lcm(*(P.den for row in rows for P in row))
    entries = []
    for row in rows:
        out = []
        for P in row:
            parts, s = {}, d // P.den
            for m, c in P.num.items():
                g = codec.base_degree(m)
                if g <= order:
                    parts.setdefault(g, {})[m] = c * s
            out.append(parts)
        entries.append(out)
    return codec, entries, d


def _log_argument(S: Scenario, order):
    """N = Phi - I as a series truncated at base degree ``order``."""
    return _integer_matrix(S.table, [[P - 1 if i == j else P for j, P in enumerate(row)]
                                     for i, row in enumerate(S.phi)], order)


def _integer_basis(mats):
    """(D, [U_l]): the basis matrices L_l = U_l / D over the lcm D of their
    denominators."""
    mats = [[[Fraction(v) for v in row] for row in m] for m in mats]
    D = lcm(*(v.denominator for m in mats for row in m for v in row))
    return D, [[[v.numerator * (D // v.denominator) for v in row] for row in m]
               for m in mats]


def mat_mul(A, B, order):
    """Product of square matrix series truncated at base degree ``order``.

    The entries are polynomials in even generators, so a product of two
    terms is one key add, with no sign, and a guard-bit check.  Base
    degrees add exactly: parts of degrees d1, d2 are multiplied only when
    d1 + d2 <= ``order``, into part d1 + d2, and the result equals the full
    product followed by truncation.  Denominators multiply.
    """
    codec, ea, da = A
    _, eb, db = B
    guard = codec.guard
    cols = list(zip(*eb))
    out = []
    for arow in ea:
        row = []
        for col in cols:
            parts = {}
            for a, b in zip(arow, col):
                for d1, s in a.items():
                    for d2, t in b.items():
                        if d1 + d2 > order:
                            continue
                        acc = parts.setdefault(d1 + d2, {})
                        get = acc.get
                        for k1, c1 in s.items():
                            for k2, c2 in t.items():
                                k = k1 + k2
                                if k & guard:
                                    raise codec.overflow(k)
                                acc[k] = get(k, 0) + c1 * c2
            row.append(_nonzero(parts))
        out.append(row)
    return codec, out, da * db


def _nonzero(parts):
    """The parts {degree: {monomial: int}} without zero terms or parts."""
    out = {}
    for g, part in parts.items():
        if part := {k: v for k, v in part.items() if v}:
            out[g] = part
    return out


def _mat_sum(terms):
    """Sum of c * M over the (rational c, series M) of ``terms``, over the
    lcm of the denominators of the c / d(M)."""
    codec, entries, _ = terms[0][1]
    scaled = [(Fraction(c) / d, e) for c, (_, e, d) in terms]
    L = lcm(*(f.denominator for f, _e in scaled))
    out = [[{} for _ in row] for row in entries]
    for f, e in scaled:
        s = f.numerator * (L // f.denominator)
        for orow, row in zip(out, e):
            for acc, entry in zip(orow, row):
                for g, part in entry.items():
                    a = acc.setdefault(g, {})
                    get = a.get
                    for k, c in part.items():
                        a[k] = get(k, 0) + c * s
    return codec, [[_nonzero(acc) for acc in row] for row in out], L


def _powers(N, order):
    """[N, N^2, ..., N^order] (just [N] at order 0) truncated at base degree
    ``order``; the powers after the first zero one are that zero."""
    powers = [N]
    for _ in range(order - 1):
        last = powers[-1]
        powers.append(mat_mul(last, N, order) if any(map(any, last[1])) else last)
    return powers


def _log(powers):
    """log(I + N) = N - N^2/2 + ... from ``_powers(N, order)``; N vanishes at
    the origin, so the series terminates at order ``order``."""
    return _mat_sum([(Fraction((-1) ** (m + 1), m), P)
                     for m, P in enumerate(powers, start=1)])


def _dual_log(powers, B, order):
    """Terms (c, D_m) of the dual part of log(I + N + tB) with t^2 = 0, from
    ``_powers(N, order)`` and B truncated at base degree ``order``.

    The dual part of (N + tB)^m is D_m = N^(m-1) B + D_(m-1) N, of base
    degree at least m - 1, so the series ends at m = order + 1.
    """
    terms = [(1, B)]
    D = B
    for m in range(2, order + 2):
        D = _mat_sum([(1, mat_mul(powers[m - 2], B, order)),
                      (1, mat_mul(D, powers[0], order))])
        terms.append((Fraction((-1) ** (m + 1), m), D))
    return terms


def _pair_with_basis(S: Scenario, M) -> list:
    """<u^k, M> for a matrix series M = E / d, via the trace-form dual basis.

    With the basis matrices L_l = U_l / D on integers, the Gram matrix
    tr(L_k L_l) is G / D^2 for the integer G = tr(U_k U_l), so
    <u^k, M> = sum_l (G^-1)_kl tr(L_l M) = D sum_l (G^-1)_kl tr(U_l E) / d:
    one integer term dict per trace and one denominator per f_k.  Raises
    RankDeficient if the trace form is degenerate.
    """
    _codec, entries, d = M
    D, mats = _integer_basis(S.basis_matrices)
    n, dim = len(mats), len(mats[0])
    es = EchelonSolver()
    for l in range(n):
        es.add_column(l, {k: g for k in range(n)
                          if (g := sum(mats[k][a][b] * mats[l][b][a]
                                       for a in range(dim) for b in range(dim)))})
    traces = []
    for U in mats:
        tr = {}
        for a, row in enumerate(U):
            for b, u in enumerate(row):
                if u:
                    for part in entries[b][a].values():
                        for m, c in part.items():
                            tr[m] = tr.get(m, 0) + u * c
        traces.append(tr)
    out = []
    for k in range(n):
        pair = es.solve_pair({k: 1})
        if pair is None:
            raise RankDeficient("trace form of the basis matrices is degenerate")
        combo, scale = pair
        acc = {}
        for l, c in combo.items():
            for m, v in traces[l].items():
                acc[m] = acc.get(m, 0) + c * v
        out.append(GPoly._make(S.table, {m: D * v for m, v in acc.items() if v},
                               scale * d))
    return out


def _gradient_columns(S: Scenario, fks, point) -> dict:
    """{k: {coordinate: q^order f_k.den * df_k/dx(point)}}: the gradients at
    ``point`` = P / q, on integers, each column scaled by a positive
    constant, which keeps the rank.  A derivative term of base degree g <=
    order - 1 is worth its numerator times P^e q^(order - g)."""
    codec, order = S.table.codec, S.truncation_order
    base_ids = S.table.ids_of_kind(Kind.BASE)
    point = [Fraction(v) for v in point]
    q = lcm(*(v.denominator for v in point))
    at = {gid: v.numerator * (q // v.denominator) for gid, v in zip(base_ids, point)}

    @cache
    def value(m):
        evens, _odds = codec.unpack(m)
        v = q ** (order - sum(e for _g, e in evens))
        for g, e in evens:
            v *= at[g] ** e
        return v

    out = {}
    for k, f in enumerate(fks):
        partials = f.partials("left")
        out[k] = {col: v for col, gid in enumerate(base_ids)
                  if (v := sum(c * value(m) for m, c in partials.get(gid, {}).items()))}
    return out


def group_log_constraints(S: Scenario) -> list:
    """Pullbacks <u^k, log Phi> truncated at the scenario truncation order.

    Raises NotNearIdentity when Phi differs from the identity at the
    origin, and RankDeficient when the constraint differentials fail to
    have full rank at a sample point.
    """
    if S.kind != "group_valued":
        raise ShapeMismatch("group_log_constraints requires a group_valued scenario")
    order = S.truncation_order
    table = S.table
    N = _log_argument(S, order)
    for i, row in enumerate(N[1]):
        for j, entry in enumerate(row):
            if 0 in entry:
                raise NotNearIdentity(
                    f"phi[{i}][{j}] differs from identity at the origin")
    fks = _pair_with_basis(S, _log(_powers(N, order)))
    base_ids = table.ids_of_kind(Kind.BASE)
    for pt in S.sample_points or [tuple(Fraction(0) for _ in base_ids)]:
        r = rank(_gradient_columns(S, fks, pt))
        if r != len(fks):
            raise RankDeficient(
                f"constraint differentials have rank {r} < {len(fks)}"
                f" at sample point {tuple(map(str, pt))}")
    return fks


def bch_transport_check(S: Scenario, order: int) -> ValidationReport:
    """Series checks of the transport identities for group-valued moment maps:

    (a) d/dt|0 [ log(Phi exp(t u)) - log(exp(t u) Phi) ] = [log Phi, u]
    (b) psi_i(Phi* f^j) = c^{ij}_k Phi* f^k

    both compared after truncation at base degree ``order``; the report
    cites the first failing order.  The constraints are cut at the
    scenario's truncation order, so a higher ``order`` would pass terms it
    never tests: it raises ShapeMismatch.
    """
    rep = ValidationReport("bch")
    if S.kind != "group_valued":
        raise ShapeMismatch("bch_transport_check requires a group_valued scenario")
    if len(S.psi) != S.dim_g:
        raise ShapeMismatch("bch_transport_check needs one psi per g-basis element")
    if order > S.truncation_order:
        raise ShapeMismatch(f"bch order {order} exceeds the truncation order "
                            f"{S.truncation_order} of the constraints")
    table = S.table
    N = _log_argument(S, order)
    powers = _powers(N, order)
    nmat = _log(powers)
    bad = set()
    D, mats = _integer_basis(S.basis_matrices)
    for U in mats:
        um = (table.codec, [[{0: {0: v}} if v else {} for v in row] for row in U], D)
        # Phi u - u Phi = N u - u N, and the dual part of the log is linear
        # in B: one series for left - right
        B = _mat_sum([(1, mat_mul(N, um, order)), (-1, mat_mul(um, N, order))])
        diff = _mat_sum(_dual_log(powers, B, order)
                        + [(-1, mat_mul(nmat, um, order)),
                           (1, mat_mul(um, nmat, order))])
        bad.update(g for row in diff[1] for entry in row for g in entry)
    rep.record("log-transport", not bad,
               f"first failing order {min(bad)}" if bad else "")

    fks = group_log_constraints(S)
    gs = range(1, S.dim_g + 1)

    def first_failing(i, j):
        diff = bracket(S.psi[i - 1], fks[j - 1]) - _combination(table, (
            (v, fks[k - 1]) for k in gs if (v := S.lie.C(i, j, k))))
        return next((o for o in range(order + 1) if diff.base_component(o)), None)

    bad = {o for i, j in product(gs, repeat=2) if (o := first_failing(i, j)) is not None}
    rep.record("constraint-transport", not bad,
               f"first failing order {min(bad)}" if bad else "")
    return rep
