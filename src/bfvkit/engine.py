"""BRST charges, master equations, Koszul solves and extended charges.

The degree-one charge follows the four-term template

    Q = psi_i c_i + J0_j C_j - 1/2 c^{ij}_k c_i c_j b_k - d^{mn}_p c_m C_n B_p

whose bracket-square vanishes exactly whenever the Lie data validators and
the equivariance checks pass.  Its inner derivation, {Q, F} = sum_b coef_b
* dF/dz_b|L with coef_b = p * dQ/dz_a|R over the pairings (a, b)
(:func:`~bfvkit.gpoly.inner_derivation`), is compiled once per charge and
cached on it, and one packed-integer kernel applies it to the ansatz
monomials of the cocycle lift and the Koszul systems and to the l_1
columns of :mod:`bfvkit.homotopy`.  On (ghost, antighost)-bihomogeneous
elements {Q, .} splits into the antighost-lowering Koszul part delta_V and
the ghost-raising Chevalley-Eilenberg part delta_H.  A term of coef_b
shifts the bidegree of F by its own bidegree minus that of z_b, so
delta_V is the same operator with each coef_b cut to its (0, -1)-shift
terms and delta_H the one cut to its (1, 0)-shift terms; a term of any
other shift raises NotBihomogeneous.

All exactness problems (Koszul preimages, cocycle lifts, extended-charge
corrections) are solved by bounded linear ansatz over the monomial basis
and verified before returning; an inconsistent bounded system raises
:class:`~bfvkit.errors.NotFound` and never produces an unverified result.
Each system is posed over the part of the monomial basis that its target
reaches through the kernel's transpose, with the full system's solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (LiftNotFound, NotBihomogeneous, NotClosed, NotFound,
                     PresetMismatch, SchemaError, ShapeMismatch)
from .generators import Kind
from .gpoly import (Derivation, GPoly, bracket, derivation_sources,
                    inner_derivation)
from .liedata import _inside
from .linalg import EchelonSolver

if TYPE_CHECKING:
    from .scenario import Scenario


def _in_range(entries: dict, key, *dims):
    """The items of ``entries``, every index checked against its range
    1..dim; an index outside it is a SchemaError of the document ``key``."""
    for idx in entries:
        if not _inside(idx, *dims):
            raise SchemaError(key, "index-range: entry ("
                              + ",".join(map(str, idx)) + ") is out of range")
    return entries.items()


def _ghost_cubics(table, entries, key, *kinds):
    """sum v * z1_i z2_j z3_k over {(i, j, k): v}, z_n of the n-th kind,
    with every index checked against its kind's range."""
    ids = [table.ids_of_kind(kind) for kind in kinds]
    out = GPoly.zero(table)
    for idx, v in _in_range(entries, key, *map(len, ids)):
        term = GPoly.const(table, v)
        for i, r in zip(idx, ids):
            term = term * GPoly.gen(table, r[i - 1])
        out = out + term
    return out


def build_charge_deg0(L, J, table) -> GPoly:
    """Degree-zero BRST charge J_i c_i - 1/2 c^{ij}_k c_i c_j b_k."""
    if table.preset != "BFV0":
        raise PresetMismatch("build_charge_deg0 requires a BFV0 table")
    if len(J) != L.dim:
        raise ShapeMismatch("one moment component per Lie algebra generator")
    Q = sum((Ji * GPoly.gen(table, g) for Ji, g in zip(J, table.ids_of_kind(Kind.GHOST_G))),
            GPoly.zero(table))
    return Q - Fraction(1, 2) * _ghost_cubics(
        table, L.c, "lie.c", Kind.GHOST_G, Kind.GHOST_G, Kind.ANTIGHOST_G)


def build_charge_deg1(S: Scenario) -> GPoly:
    """The four-term degree-one charge of the scenario's reduction data."""
    table = S.table
    if table.preset != "BFV1":
        raise PresetMismatch("build_charge_deg1 requires a BFV1 table")
    Q = S.constraint_charge - Fraction(1, 2) * _ghost_cubics(
        table, S.lie.c, "lie.c", Kind.GHOST_G, Kind.GHOST_G, Kind.ANTIGHOST_G)
    if S.module:
        Q = Q - _ghost_cubics(table, S.module.d, "lie.d",
                              Kind.GHOST_G, Kind.GHOST_H, Kind.ANTIGHOST_H)
    return Q


def master_residual(Q: GPoly) -> GPoly:
    return Fraction(1, 2) * bracket(Q, Q)


def _shift_part(Q: GPoly, shift) -> Derivation:
    """The part of {Q, .} that shifts bidegrees by ``shift``, (0, -1) for
    delta_V and (1, 0) for delta_H: the inner derivation cut to its terms
    of that shift; both are cached on Q.  A term whose shift is neither
    (0, -1) nor (1, 0) raises NotBihomogeneous.
    """
    parts = inner_derivation(Q).by_shift()
    for s, op in parts.items():
        if s not in ((0, -1), (1, 0)):
            zb = Q.table.gen(next(iter(op.nums)))
            raise NotBihomogeneous(
                f"{{Q, .}} shifts bidegrees by {s} through "
                f"({Q.table.gen(zb.conjugate).name}, {zb.name})")
    return parts.get(shift) or Derivation(Q.table, {})


def delta_v(Q: GPoly, F: GPoly) -> GPoly:
    """The Koszul part of {Q, F}: its (0, -1)-shift part on every
    bihomogeneous component of F."""
    if not F:
        return F
    return _shift_part(Q, (0, -1))(F)


def delta_h(Q: GPoly, F: GPoly) -> GPoly:
    """The Chevalley-Eilenberg part of {Q, F}: its (1, 0)-shift part on
    every bihomogeneous component of F."""
    if not F:
        return F
    return _shift_part(Q, (1, 0))(F)


def _reached_solve(op, target: GPoly, shapes, bounds):
    """Solve sum_m x_m op(m) = target over the monomials m of the
    (function degree, ghost, antighost) ``shapes`` with base degree at most
    b, for b in ``bounds`` until one solves.  Only the columns holding a key
    of the target or of a posed column are posed: the blocks of the full
    system that the target touches, in its column order (shape, then
    monomial), so the solution is the full system's.  Returns (solution
    GPoly or None, {posed monomial: image}, rank), each image the integers
    D * op(m) of ``op.apply``, computed once.
    """
    order = {shape: i for i, shape in enumerate(shapes)}
    table = target.table
    codec = table.codec
    # the columns are op.apply's integers D * op(m), so D * num is posed:
    # its solution is den times the target's
    D = op.denominator
    scaled = target.num if D == 1 else {k: c * D for k, c in target.num.items()}
    images, columns, es, sol = {}, {}, EchelonSolver(), None
    for bound in bounds:
        columns, keys, reached = {}, list(target.num), set(target.num)
        while keys:
            k = keys.pop()
            for m in derivation_sources(op, k):
                if m in columns:
                    continue
                pos = order.get(codec.grading(m))
                if pos is None or codec.base_degree(m) > bound:
                    continue
                if m not in images:
                    images[m] = op.apply({m: 1})
                if k in images[m]:
                    columns[m] = pos
                    keys.extend(kk for kk in images[m] if kk not in reached)
                    reached.update(images[m])
        es = EchelonSolver()
        for m in sorted(columns, key=lambda m: (columns[m], codec.unpack(m))):
            es.add_column(m, images[m])
        sol = es.solve_pair(scaled)
        if sol is not None:
            combo, scale = sol
            sol = GPoly._make(table, combo, scale * target.den)
            break
    return sol, {m: images[m] for m in columns}, es.rank()


def koszul_solve(S: Scenario, Q: GPoly, R: GPoly, ansatz_degree: int) -> GPoly:
    """Solve delta_V P = R with P posed over monomials of base degree at
    most ``ansatz_degree``; raises NotFound when the bounded system is
    inconsistent.  The returned P is verified before returning."""
    if not R:
        return GPoly.zero(S.table)
    bids = R.ghost_support()
    degs = R.degree_support()
    if len(bids) > 1 or len(degs) > 1:
        raise NotBihomogeneous("koszul_solve expects a bihomogeneous right side")
    shape = (degs[0] - 1, bids[0][0], bids[0][1] + 1)
    P, cols, rank = _reached_solve(_shift_part(Q, (0, -1)), R, [shape],
                                   [ansatz_degree])
    if P is None:
        raise NotFound(f"no Koszul preimage in the bounded ansatz: shape "
                       f"{shape}, {len(cols)} columns, rank {rank}",
                       ansatz_degree)
    if delta_v(Q, P) != R:
        raise NotFound("bounded Koszul solve failed verification", ansatz_degree)
    return P


def solve_brst_exact(S: Scenario, Q: GPoly, R: GPoly, ansatz_degree: int,
                     total_ghost: int) -> GPoly:
    """Solve {Q, X} = R for X of total ghost number ``total_ghost`` by
    staged Koszul solves up the antighost ladder.

    R must be concentrated in total ghost number ``total_ghost + 1``.  The
    solution is assembled bidegree by bidegree: at antighost level q the
    equation delta_V X^{(q-1+k, q)} = R-part - delta_H X^(previous) is
    solved, with k fixed by the ghost bookkeeping.
    """
    if not R:
        return GPoly.zero(S.table)
    rcomps = R.bidegree_components()
    # X components live at (g, g - total_ghost).  At function degree 2 the
    # ghost number is bounded: n_c + 2 n_C <= 2 + n_B <= 2 + dim h.
    max_ghost = 2 + S.dim_h
    X = GPoly.zero(S.table)
    carry = GPoly.zero(S.table)  # delta_H of the previous X component
    for g in range(0, max_ghost + 2):
        a = g - total_ghost
        if a < 1:
            continue
        rhs = rcomps.pop((g, a - 1), GPoly.zero(S.table)) - carry
        if rhs:
            comp = koszul_solve(S, Q, rhs, ansatz_degree)
        else:
            comp = GPoly.zero(S.table)
        X = X + comp
        carry = delta_h(Q, comp)
    if rcomps and any(v for v in rcomps.values()):
        raise NotFound("right side has components beyond the antighost ladder",
                       ansatz_degree)
    if bracket(Q, X) != R:
        raise NotFound("staged BRST solve failed verification", ansatz_degree)
    return X


def cocycle_lift(S: Scenario, Q: GPoly, ansatz_degree: int = 4) -> GPoly:
    """A total-ghost-zero cocycle Pi with Pi^(0,0) = pi and {Q, Pi} = 0.

    Scenario kinds with a closed form try it first (classical and
    group-valued: pi + b_i C_i; dgla: pi - a^i_j C_i b_j; bialgebra and
    quasi-bialgebra: pi + a^j_{ik} psi_i c_j b_k).  A candidate with
    {Q, candidate} != 0 (pi + b_i C_i on group-valued-so3) falls through,
    as every other kind does, to a bounded ansatz for the target -{Q, pi},
    and a zero target gives Pi = pi.  The result is always verified;
    LiftNotFound is raised when no bounded lift exists.
    """
    table = S.table
    pi = S.pi
    corr = None
    if S.kind in ("classical_hamiltonian", "group_valued"):
        corr = (S.gen(Kind.ANTIGHOST_G, i) * S.gen(Kind.GHOST_H, i)
                for i in range(1, S.dim_g + 1))
    elif S.kind == "dgla" and S.dgla is not None:
        corr = (-(v * (S.gen(Kind.GHOST_H, i) * S.gen(Kind.ANTIGHOST_G, j)))
                for (i, j), v in S.dgla.A.items())
    elif S.kind in ("bialgebra", "quasi_bialgebra") and S.bialgebra is not None:
        psi = S.constraints[0]
        corr = (v * (psi[i - 1] * S.gen(Kind.GHOST_G, j) * S.gen(Kind.ANTIGHOST_G, k))
                for (j, i, k), v in _in_range(S.bialgebra.a, "lie.a", *[S.dim_g] * 3))
    if corr is not None:
        candidate = pi + sum(corr, GPoly.zero(table))
        if not bracket(Q, candidate):
            return candidate
    # generic ansatz: Pi = pi + sum over total-ghost-0 corrections with
    # at least one ghost (so the (0,0) component stays pi).  Function
    # degree 2 bounds the ghost number by 2 + dim h; the base-degree
    # bound escalates, so small corrections are found cheaply and only a
    # failure at the full bound raises.
    target = -bracket(Q, pi)
    sol = GPoly.zero(table)
    if target:
        sol, cols, rank = _reached_solve(
            inner_derivation(Q), target,
            [(2, g, g) for g in range(1, S.dim_h + 3)], range(ansatz_degree + 1))
    if sol is None:
        raise LiftNotFound(
            f"no cocycle lift in the bounded ansatz: shapes (2, g, g) for g "
            f"in 1..{S.dim_h + 2}, {len(cols)} columns, rank {rank}",
            ansatz_degree)
    Pi = pi + sol
    if bracket(Q, Pi):
        raise LiftNotFound("cocycle lift failed verification", ansatz_degree)
    return Pi


@dataclass
class ChargeSeries:
    """Extended charge S = Q + Pi^(0) + Pi^(-1) + ... with its residual."""

    Q: GPoly
    terms: list = field(default_factory=list)
    residual: GPoly = None
    residual_bound: int | None = None
    exact: bool = False

    @property
    def total(self) -> GPoly:
        return sum(self.terms, self.Q)

    def term(self, k: int) -> GPoly:
        """Pi^(-k), zero when beyond the computed range."""
        if 0 <= k < len(self.terms):
            return self.terms[k]
        return GPoly.zero(self.Q.table)


def _residual_info(S_total: GPoly):
    """1/2 {S, S} and its highest total ghost number (None when it is zero),
    read off the monomial gradings."""
    res = Fraction(1, 2) * bracket(S_total, S_total)
    grading = S_total.table.codec.grading
    bound = max((gh - ag for _d, gh, ag in map(grading, res.num)), default=None)
    return res, bound


def _total_ghost_part(F: GPoly, total_ghost: int) -> GPoly:
    """The terms of F of total ghost number ``total_ghost``."""
    grading = F.table.codec.grading
    part = {}
    for m, c in F.num.items():
        _deg, gh, ag = grading(m)
        if gh - ag == total_ghost:
            part[m] = c
    return GPoly._make(F.table, part, F.den)


def extend_charge(S: Scenario, Q: GPoly, Pi: GPoly, k_max: int,
                  ansatz_degree: int) -> ChargeSeries:
    """Extend Q + Pi by corrections of descending total ghost number.

    After step k every residual component of total ghost number > -k
    vanishes; the iteration stops early with ``exact`` set when the whole
    residual is zero.  The residual is one full 1/2 {S, S} per distinct
    total: of Q + Pi, then of the total after each nonzero correction, so
    the stored residual is that of the returned terms.
    """
    series = ChargeSeries(Q=Q, terms=[Pi])
    total = Q + Pi
    res, bound = _residual_info(total)
    if res and bound > 0:
        raise NotClosed("extend_charge requires {Q, Q} = 0 and {Q, Pi} = 0")
    for k in range(1, k_max + 1):
        if not res:
            break
        target = _total_ghost_part(res, -(k - 1))
        if not target:
            series.terms.append(GPoly.zero(S.table))
            continue
        correction = solve_brst_exact(S, Q, -target, ansatz_degree,
                                      total_ghost=-k)
        series.terms.append(correction)
        total = total + correction
        res, bound = _residual_info(total)
    series.residual = res
    series.residual_bound = bound
    series.exact = not res
    return series
