"""Canonical-form polynomials in graded generators over exact rationals.

A monomial is the pair ``(evens, odds)`` where ``evens`` is a sorted tuple
of ``(gid, exponent)`` pairs for even generators and ``odds`` is a strictly
increasing tuple of odd generator ids.  The empty monomial ``((), ())`` is
the constant 1.  A :class:`GPoly` maps monomials to nonzero
:class:`fractions.Fraction` coefficients; equal polynomials have identical
term dictionaries, so equality of canonical forms is dictionary equality.

The degree -1 (BFV1) or degree 0 (BFV0) Poisson bracket is the biderivation
generated by the pairing table of the :class:`~bfvkit.generators.GeneratorTable`:

    {F, G} = sum over paired (a, b) of  P(a, b) * dF/dz_a|_R * dG/dz_b|_L

with right derivatives on the first slot and left derivatives on the
second.  With the stored pairing orientations this satisfies, exactly and
with shift s = table.shift,

    {F, G} = -(-1)^((|F|-s)(|G|-s)) {G, F}
    {F, GH} = {F, G} H + (-1)^((|F|-s)|G|) G {F, H}
    {F, {G, H}} = {{F, G}, H} + (-1)^((|F|-s)(|G|-s)) {G, {F, H}}

Convention note: the axioms together with {e_a, x_b} = delta_ab force
{e1 e2, x1} = -e2 (expand {x1, e1 e2} by the Leibniz rule and flip); the
frequently seen left-derivative coordinate formula that yields +e2 is not
compatible with the Leibniz rule above and is not used here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TableMismatch
from .generators import GeneratorTable

Monomial = tuple  # ((gid, exp), ...), (gid, ...)

ONE_MONO: Monomial = ((), ())


def _merge_odds(s: tuple, t: tuple):
    """Merge two sorted odd-id tuples; return (merged, sign) or (None, 0)."""
    if not s:
        return t, 1
    if not t:
        return s, 1
    merged = []
    sign = 1
    i = j = 0
    while i < len(s) and j < len(t):
        if s[i] == t[j]:
            return None, 0  # odd square
        if s[i] < t[j]:
            merged.append(s[i])
            i += 1
        else:
            # t[j] jumps over the len(s)-i remaining elements of s
            if (len(s) - i) % 2:
                sign = -sign
            merged.append(t[j])
            j += 1
    merged.extend(s[i:])
    merged.extend(t[j:])
    return tuple(merged), sign


def _mono_mul(m1: Monomial, m2: Monomial):
    odds, sign = _merge_odds(m1[1], m2[1])
    if sign == 0:
        return None, 0
    if not m2[0]:
        return (m1[0], odds), sign
    if not m1[0]:
        return (m2[0], odds), sign
    ev = dict(m1[0])
    for gid, e in m2[0]:
        ev[gid] = ev.get(gid, 0) + e
    return (tuple(sorted(ev.items())), odds), sign


def mul_into(out: dict, s_terms: dict, t_terms: dict, scale=1):
    """Add scale * S * T to the term dict ``out`` in place."""
    for m1, c1 in s_terms.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in t_terms.items():
            m, sign = _mono_mul(m1, m2)
            if sign == 0:
                continue
            v = out.get(m, 0)
            v = v + c1 * c2 if sign > 0 else v - c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]


class GPoly:
    """Canonical polynomial in the generators of a fixed table.

    Values are treated as immutable after construction; derivative results
    are cached per instance, which makes repeated brackets against a fixed
    polynomial (a charge, a bivector) cheap.
    """

    __slots__ = ("table", "terms", "_dcache", "__weakref__")

    def __init__(self, table: GeneratorTable, terms: dict | None = None):
        self.table = table
        self.terms = terms or {}
        self._dcache = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table) -> "GPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table, value) -> "GPoly":
        value = Fraction(value)
        return cls(table, {ONE_MONO: value} if value else {})

    @classmethod
    def gen(cls, table, gid: int) -> "GPoly":
        g = table.gen(gid)
        if g.parity:
            return cls(table, {((), (gid,)): Fraction(1)})
        return cls(table, {(((gid, 1),), ()): Fraction(1)})

    @classmethod
    def var(cls, table, name: str) -> "GPoly":
        return cls.gen(table, table.by_name(name).gid)

    # -- ring structure -----------------------------------------------

    def _check(self, other: "GPoly"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatch("operands use different generator tables")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def __neg__(self):
        return GPoly(self.table, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GPoly.const(self.table, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return GPoly(self.table, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GPoly.const(self.table, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return GPoly.zero(self.table)
            return GPoly(self.table, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        out = {}
        mul_into(out, self.terms, other.terms)
        return GPoly(self.table, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- grading ------------------------------------------------------

    def mono_degree(self, m: Monomial) -> int:
        deg = self.table.degrees
        return sum(deg[g] * e for g, e in m[0]) + sum(deg[g] for g in m[1])

    def mono_ghost(self, m: Monomial):
        gh, ag = self.table.ghosts, self.table.antighosts
        return (sum(gh[g] * e for g, e in m[0]) + sum(gh[g] for g in m[1]),
                sum(ag[g] * e for g, e in m[0]) + sum(ag[g] for g in m[1]))

    def mono_base_degree(self, m: Monomial) -> int:
        base = self.table.base_ids
        return sum(e for g, e in m[0] if g in base)

    def degree_support(self):
        return sorted({self.mono_degree(m) for m in self.terms})

    def ghost_support(self):
        return sorted({self.mono_ghost(m) for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degree_support()) <= 1

    def degree(self):
        """Function degree of a homogeneous polynomial (None for 0)."""
        sup = self.degree_support()
        if not sup:
            return None
        if len(sup) > 1:
            raise ValueError("polynomial is not homogeneous")
        return sup[0]

    def parity(self) -> int:
        deg = self.degree()
        return 0 if deg is None else deg % 2

    def grade_components(self) -> dict:
        """Split into parts indexed by (total ghost number, function degree)."""
        out = {}
        for m, c in self.terms.items():
            gh, ag = self.mono_ghost(m)
            key = (gh - ag, self.mono_degree(m))
            out.setdefault(key, {})[m] = c
        return {k: GPoly(self.table, v) for k, v in out.items()}

    def bidegree_components(self) -> dict:
        """Split into parts indexed by (ghost number, antighost number)."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(self.mono_ghost(m), {})[m] = c
        return {k: GPoly(self.table, v) for k, v in out.items()}

    def base_truncate(self, order: int) -> "GPoly":
        """Drop terms of base-coordinate polynomial degree > order."""
        return GPoly(self.table, {m: c for m, c in self.terms.items()
                                  if self.mono_base_degree(m) <= order})

    def base_component(self, degree: int) -> "GPoly":
        return GPoly(self.table, {m: c for m, c in self.terms.items()
                                  if self.mono_base_degree(m) == degree})

    def base_grades(self) -> dict:
        """Terms split by base degree, {degree: {monomial: coefficient}}."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(self.mono_base_degree(m), {})[m] = c
        return out

    def max_base_degree(self) -> int:
        return max((self.mono_base_degree(m) for m in self.terms), default=0)

    def generator_ids(self) -> set:
        """Ids of the generators that occur in some term."""
        ids = set()
        for evens, odds in self.terms:
            ids.update(g for g, _ in evens)
            ids.update(odds)
        return ids

    def kinds_used(self):
        return {self.table.gen(g).kind for g in self.generator_ids()}

    # -- calculus -----------------------------------------------------

    def deriv(self, gid: int, side: str = "left") -> "GPoly":
        """Left or right derivative with respect to one generator (cached)."""
        if self._dcache is None:
            self._dcache = {}
        cached = self._dcache.get((gid, side))
        if cached is not None:
            return cached
        result = self._deriv(gid, side)
        self._dcache[(gid, side)] = result
        return result

    def _deriv(self, gid: int, side: str) -> "GPoly":
        t = self.table
        out = {}
        if gid not in t.odd_ids:
            for m, c in self.terms.items():
                ev = dict(m[0])
                e = ev.get(gid)
                if not e:
                    continue
                if e == 1:
                    del ev[gid]
                else:
                    ev[gid] = e - 1
                mono = (tuple(sorted(ev.items())), m[1])
                v = out.get(mono, 0) + c * e
                if v:
                    out[mono] = v
                else:
                    del out[mono]
            return GPoly(t, out)
        for m, c in self.terms.items():
            odds = m[1]
            try:
                pos = odds.index(gid)
            except ValueError:
                continue
            crossed = pos if side == "left" else len(odds) - 1 - pos
            sign = -1 if crossed % 2 else 1
            mono = (m[0], odds[:pos] + odds[pos + 1:])
            v = out.get(mono, 0) + sign * c
            if v:
                out[mono] = v
            else:
                del out[mono]
        return GPoly(t, out)

    def eval_base(self, point: dict) -> "GPoly":
        """Substitute rational values for base generators (gid -> value)."""
        t = self.table
        acc = {}
        for m, c in self.terms.items():
            ev = []
            for g, e in m[0]:
                if g in point:
                    c = c * Fraction(point[g]) ** e
                    if not c:
                        break
                else:
                    ev.append((g, e))
            if not c:
                continue
            mono = (tuple(ev), m[1])
            v = acc.get(mono, 0) + c
            if v:
                acc[mono] = v
            else:
                del acc[mono]
        return GPoly(t, acc)

    def const_value(self) -> Fraction:
        """Value of a generator-free polynomial."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {ONE_MONO}:
            raise ValueError("polynomial is not constant")
        return self.terms[ONE_MONO]

    def __str__(self):
        from .grammar import serialize

        return serialize(self)

    __repr__ = __str__


def normalize(table: GeneratorTable, raw) -> GPoly:
    """Build a canonical GPoly from (coefficient, factor-id list) pairs.

    Reordering odd factors contributes the sign of the permutation that
    sorts them; a repeated odd factor kills the term.
    """
    acc = {}
    for coeff, factors in raw:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        evens = {}
        odds = []
        for gid in factors:
            g = table.gen(gid)  # raises UnknownGenerator
            if g.parity:
                odds.append(gid)
            else:
                evens[gid] = evens.get(gid, 0) + 1
        # permutation sign from sorting the odd subsequence
        sign = 1
        seen = set()
        dup = False
        for i, a in enumerate(odds):
            if a in seen:
                dup = True
                break
            seen.add(a)
            for b in odds[:i]:
                if b > a:
                    sign = -sign
        if dup:
            continue
        mono = (tuple(sorted(evens.items())), tuple(sorted(odds)))
        v = acc.get(mono, 0) + sign * coeff
        if v:
            acc[mono] = v
        else:
            del acc[mono]
    return GPoly(table, acc)


def bracket(F: GPoly, G: GPoly) -> GPoly:
    """Graded Poisson bracket generated by the table's pairing."""
    table = F.table
    if table is not G.table and table != G.table:
        raise TableMismatch("bracket operands use different generator tables")
    present = G.generator_ids()
    out = {}
    for (a, b), p in table.pairing.items():
        if b not in present:
            continue
        dF = F.deriv(a, side="right")
        if dF:
            mul_into(out, dF.terms, G.deriv(b, side="left").terms, p)
    return GPoly(table, out)


def inner_derivation(F: GPoly) -> dict:
    """{F, .} as {b: coef_b}, coef_b = sum over pairings (a, b) of
    p * dF/dz_a|R, so that {F, G} = sum_b coef_b * dG/dz_b|L."""
    ops = {}
    for (a, b), p in F.table.pairing.items():
        coef = ops.setdefault(b, {})
        for m, c in F.deriv(a, side="right").terms.items():
            v = coef.get(m, 0) + p * c
            if v:
                coef[m] = v
            else:
                del coef[m]
    return {b: coef for b, coef in ops.items() if coef}


def apply_derivation(op: dict, terms: dict) -> dict:
    """Terms of sum_b coef_b * dF/dz_b|L for F with the given terms.

    The derivative of each monomial is read off its tuples (exponent of an
    even factor, position sign of an odd one), so no GPoly is built.
    """
    out = {}
    for (evens, odds), c in terms.items():
        parts = []
        for i, (b, e) in enumerate(evens):
            if b in op:
                rest = evens[:i] + ((b, e - 1),) if e > 1 else evens[:i]
                parts.append((op[b], (rest + evens[i + 1:], odds), c * e))
        for pos, b in enumerate(odds):
            if b in op:
                parts.append((op[b], (evens, odds[:pos] + odds[pos + 1:]),
                              -c if pos % 2 else c))
        for coef, dm, k in parts:
            for mc, cc in coef.items():
                m, sign = _mono_mul(mc, dm)
                if not sign:
                    continue
                f = k if sign > 0 else -k
                w = cc if f == 1 else cc * f
                v = out.get(m)
                if v is None:
                    out[m] = w
                elif (v := v + w):
                    out[m] = v
                else:
                    del out[m]
    return out


def derivation_sources(op: dict, key: Monomial, odd_ids) -> set:
    """The transpose of :func:`apply_derivation`: the monomials m whose
    image under ``op`` can hold ``key``, m = z_b * (k / t) for each term t
    of coef_b dividing k (none if z_b is odd and in k / t).  Cancellation
    may still drop k, so a caller confirms each candidate by its image."""
    kev, kodd = key
    out = set()
    for b, coef in op.items():
        for tev, todd in coef:
            ev = dict(kev)
            for g, e in tev:
                ev[g] = ev.get(g, 0) - e
            odds = tuple(g for g in kodd if g not in todd)
            if (min(ev.values(), default=0) < 0 or b in odds
                    or len(odds) + len(todd) != len(kodd)):
                continue
            if b in odd_ids:
                odds = tuple(sorted(odds + (b,)))
            else:
                ev[b] = ev.get(b, 0) + 1
            out.add((tuple(sorted((g, e) for g, e in ev.items() if e)), odds))
    return out


def mul(F: GPoly, G: GPoly) -> GPoly:
    return F * G
