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

An inner derivation {F, .} is compiled once (:class:`Derivation`) and
applied by one kernel on packed monomials.  A :class:`MonomialCodec` for
the table and an exponent bound gives each odd generator one bit and each
even generator a fixed-width exponent field of one Python int, so a
product is an integer add (zero when the odd masks meet) with a popcount
parity for its sign, and a derivative is a field decrement times the
exponent or a cleared bit with the sign of the odd bits below it.  The
operator's coefficients are scaled to integers by one common denominator
D: :func:`apply_derivation` divides by D on the way out, while the H^0
probe keeps the integer columns D * l_1(m), which have the same kernels
and spans.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import BfvError, TableMismatch
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


class MonomialCodec:
    """Monomials of one table packed into one int each, exponents up to
    ``bound``.

    Odd generator j (in id order) is bit j; above the odd bits each even
    generator, in id order, has an exponent field of ``width`` bits, one more
    than ``bound`` needs, so the sum of two packed exponents never carries
    into the next field.  A product is then an integer add when the odd
    masks are disjoint (zero otherwise), with sign (-1)^n, n the number of
    pairs of an odd bit of the left factor above an odd bit of the right
    factor: the parity of ``popcount(right & sign_mask(left))``.
    """

    def __init__(self, table: GeneratorTable, bound: int):
        self.table = table
        self.width = w = bound.bit_length() + 1
        self.bound = (1 << (w - 1)) - 1
        self.field = (1 << w) - 1
        self.odd_ids = sorted(table.odd_ids)
        self.even_ids = sorted(g.gid for g in table.entries
                               if g.gid not in table.odd_ids)
        self.bit = {g: 1 << j for j, g in enumerate(self.odd_ids)}
        self.shift = {g: len(self.odd_ids) + i * w
                      for i, g in enumerate(self.even_ids)}
        self.odd_mask = (1 << len(self.odd_ids)) - 1
        lag = table.lagrangian_ids
        self.outside = (sum(self.bit[g] for g in self.odd_ids if g not in lag)
                        + sum(self.field << self.shift[g]
                              for g in self.even_ids if g not in lag))

    def pack(self, mono: Monomial) -> int:
        evens, odds = mono
        key = sum(self.bit[g] for g in odds)
        for g, e in evens:
            if e > self.bound:
                raise BfvError(f"exponent {e} of {self.table.gen(g).name} "
                               f"exceeds the packed field bound {self.bound}")
            key += e << self.shift[g]
        return key

    def unpack(self, key: int) -> Monomial:
        """The monomial of a key, visiting only its set bits and fields."""
        odds = []
        rest = key & self.odd_mask
        while rest:
            low = rest & -rest
            odds.append(self.odd_ids[low.bit_length() - 1])
            rest ^= low
        evens = []
        rest, w = key >> len(self.odd_ids), self.width
        while rest:
            i = ((rest & -rest).bit_length() - 1) // w
            e = rest >> (i * w) & self.field
            evens.append((self.even_ids[i], e))
            rest ^= e << (i * w)
        return tuple(evens), tuple(odds)

    def sign_mask(self, key: int) -> int:
        """The odd bits below each odd bit of ``key``, combined by XOR: a
        popcount parity is additive over XOR."""
        mask, rest = 0, key & self.odd_mask
        while rest:
            low = rest & -rest
            mask ^= low - 1
            rest ^= low
        return mask


class PackedDerivation:
    """The kernel of a :class:`Derivation` on one codec: each coef_b packed,
    with its coefficients times the operator's common denominator D, under
    the bit of an odd z_b or the field index of an even one."""

    def __init__(self, op: "Derivation", codec: MonomialCodec):
        self.codec = codec
        D = op.denominator
        self.odd_parts = {}
        self.even_parts = [None] * len(codec.even_ids)
        for b, coef in op.terms.items():
            terms = []
            for m, c in coef.items():
                t = codec.pack(m)
                terms.append((t, t & codec.odd_mask, codec.sign_mask(t),
                              c.numerator * (D // c.denominator)))
            if b in codec.bit:
                self.odd_parts[codec.bit[b]] = terms
            else:
                self.even_parts[codec.even_ids.index(b)] = terms

    def apply(self, terms: dict) -> dict:
        """D * sum_b coef_b * dF/dz_b|L for F with these packed terms.  The
        derivative of a packed monomial k: for an odd z_b, k without its
        bit, with sign (-1)^(odd bits of k below it); for an even z_b, k
        minus one field unit, times the exponent."""
        codec = self.codec
        n_odd, w, f_mask = len(codec.odd_ids), codec.width, codec.field
        out = {}
        get = out.get
        for k, c in terms.items():
            derivs = []
            rest = k & codec.odd_mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                coef = self.odd_parts.get(bit)
                if coef:
                    derivs.append((coef, k ^ bit,
                                   -c if (k & (bit - 1)).bit_count() & 1 else c))
            rest = k >> n_odd
            while rest:
                i = ((rest & -rest).bit_length() - 1) // w
                e = rest >> (i * w) & f_mask
                rest ^= e << (i * w)
                coef = self.even_parts[i]
                if coef:
                    derivs.append((coef, k - (1 << (n_odd + i * w)), c * e))
            for coef, dm, f in derivs:
                for t, todd, sm, cc in coef:
                    if dm & todd:
                        continue
                    m = dm + t
                    if (dm & sm).bit_count() & 1:
                        out[m] = get(m, 0) - cc * f
                    else:
                        out[m] = get(m, 0) + cc * f
        return {m: v for m, v in out.items() if v}


class Derivation:
    """A compiled inner derivation {F, .} = sum_b coef_b * d/dz_b|L.

    ``terms`` is the tuple view {b: coef_b}.  ``packed(bound)`` is the
    kernel for inputs with exponents up to ``bound``; it is kept and built
    again only when an input needs wider fields.
    """

    def __init__(self, table: GeneratorTable, terms: dict):
        self.table = table
        self.terms = terms
        self.denominator = lcm(*(c.denominator for coef in terms.values()
                                 for c in coef.values()))
        self.max_exponent = max((e for coef in terms.values()
                                 for evens, _ in coef for _, e in evens), default=0)
        self._kernel = None

    def packed(self, bound: int) -> PackedDerivation:
        kernel = self._kernel
        if kernel is None or bound > kernel.codec.bound:
            codec = MonomialCodec(self.table, max(bound, self.max_exponent))
            kernel = self._kernel = PackedDerivation(self, codec)
        return kernel


def inner_derivation(F: GPoly) -> Derivation:
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
    return Derivation(F.table, {b: coef for b, coef in ops.items() if coef})


def apply_derivation(op: Derivation, terms: dict) -> dict:
    """Terms of sum_b coef_b * dF/dz_b|L for F with the given terms, exact:
    the packed kernel's result divided by the operator's denominator D."""
    kernel = op.packed(max((e for evens, _ in terms for _, e in evens), default=0))
    pack, unpack, D = kernel.codec.pack, kernel.codec.unpack, op.denominator
    out = kernel.apply({pack(m): c for m, c in terms.items()})
    return {unpack(k): Fraction(v, D) for k, v in out.items()}


def derivation_sources(op: Derivation, key: Monomial) -> set:
    """The transpose of :func:`apply_derivation`: the monomials m whose
    image under ``op`` can hold ``key``, m = z_b * (k / t) for each term t
    of coef_b dividing k (none if z_b is odd and in k / t).  Cancellation
    may still drop k, so a caller confirms each candidate by its image."""
    kev, kodd = key
    out = set()
    for b, coef in op.terms.items():
        for tev, todd in coef:
            ev = dict(kev)
            for g, e in tev:
                ev[g] = ev.get(g, 0) - e
            odds = tuple(g for g in kodd if g not in todd)
            if (min(ev.values(), default=0) < 0 or b in odds
                    or len(odds) + len(todd) != len(kodd)):
                continue
            if b in op.table.odd_ids:
                odds = tuple(sorted(odds + (b,)))
            else:
                ev[b] = ev.get(b, 0) + 1
            out.add((tuple(sorted((g, e) for g, e in ev.items() if e)), odds))
    return out


def mul(F: GPoly, G: GPoly) -> GPoly:
    return F * G
