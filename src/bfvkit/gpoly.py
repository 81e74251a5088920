"""Canonical-form polynomials in graded generators over exact rationals.

A monomial is one int, packed by the table's
:class:`~bfvkit.generators.MonomialCodec`: a bit per odd generator and an
exponent field per even generator, so that the constant 1 is key 0.  A
:class:`GPoly` maps monomials to nonzero :class:`fractions.Fraction`
coefficients; equal polynomials have identical term dictionaries, so
equality of canonical forms is dictionary equality.  Odd generators are
ordered by id inside a monomial.

Two rules act on packed keys, each written once.  A product
(:func:`mul_into`) is an integer add, zero when the odd masks meet, with
sign (-1)^n for n the pairs of an odd bit of the left factor above an odd
bit of the right one: the parity of ``popcount(right & sign_mask(left))``.
A field whose guard bit the add sets raises ExponentOverflow.  A
derivative (:func:`_derivatives`) clears an odd bit, with the sign of the odd
bits it crosses (below it from the left, above it from the right), or
takes one unit off an even field and multiplies by the exponent.

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

An inner derivation {F, .} = sum_b coef_b * d/dz_b|L is compiled once per
F (:class:`Derivation`, cached on F like its derivatives), with its
coefficients scaled to integers by one common denominator D:
``Derivation.apply`` gives D * {F, .} on integer columns, which have the
same kernels and spans, and calling the derivation divides by D.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import TableMismatch
from .generators import GeneratorTable


def _prepared(codec, terms: dict, scale=1) -> list:
    """Left factors for :func:`_mul_terms`: (key, odd bits, sign mask,
    coefficient times ``scale``)."""
    odd = codec.odd_mask
    return [(k, k & odd, codec.sign_mask(k), c if scale == 1 else c * scale)
            for k, c in terms.items()]


def _mul_terms(codec, out: dict, triples):
    """Add L * c m to ``out`` in place for each (prepared left factors L,
    monomial m, coefficient c) of ``triples``."""
    guard, get = codec.guard, out.get
    for lefts, k2, c2 in triples:
        for k1, o1, sm, c1 in lefts:
            if k2 & o1:
                continue  # odd square
            k = k1 + k2
            if k & guard:
                raise codec.overflow(k)
            v = get(k, 0) - c1 * c2 if (k2 & sm).bit_count() & 1 \
                else get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]


def mul_into(codec, out: dict, s_terms: dict, t_terms: dict, scale=1):
    """Add scale * S * T to the term dict ``out`` in place."""
    if scale:
        lefts = _prepared(codec, s_terms, scale)
        _mul_terms(codec, out, [(lefts, k, c) for k, c in t_terms.items()])


def _derivatives(codec, terms: dict, side: str, label: dict) -> list:
    """[(label[key of z], dm/dz, its coefficient)] over the terms c m and
    the generators z of m whose keys ``label`` holds, left or right
    derivatives."""
    out = []
    odd, n_odd, w, field = codec.odd_mask, codec.n_odd, codec.WIDTH, codec.FIELD
    for k, c in terms.items():
        rest = k & odd
        while rest:
            bit = rest & -rest
            rest ^= bit
            if bit in label:
                crossed = k & (bit - 1) if side == "left" else k & odd & -(bit << 1)
                out.append((label[bit], k ^ bit, -c if crossed.bit_count() & 1 else c))
        rest = k >> n_odd
        while rest:
            s = ((rest & -rest).bit_length() - 1) // w * w
            e = rest >> s & field
            rest ^= e << s
            unit = 1 << (n_odd + s)
            if unit in label:
                out.append((label[unit], k - unit, c * e if e > 1 else c))
    return out


class GPoly:
    """Canonical polynomial in the generators of a fixed table.

    Values are treated as immutable after construction; derivatives and the
    compiled inner derivation are cached per instance, which makes repeated
    brackets against a fixed polynomial (a charge, a bivector) cheap.
    """

    __slots__ = ("table", "terms", "_cache")

    def __init__(self, table: GeneratorTable, terms: dict | None = None):
        self.table = table
        self.terms = terms or {}
        self._cache = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table) -> "GPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table, value) -> "GPoly":
        value = Fraction(value)
        return cls(table, {0: value} if value else {})

    @classmethod
    def gen(cls, table, gid: int) -> "GPoly":
        table.gen(gid)  # raises UnknownGenerator
        return cls(table, {table.codec.unit[gid]: Fraction(1)})

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
        return hash((self.table, frozenset(self.terms.items())))

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
        mul_into(self.table.codec, out, self.terms, other.terms)
        return GPoly(self.table, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- grading ------------------------------------------------------

    def mono_degree(self, m: int) -> int:
        return self.table.codec.grading(m)[0]

    def mono_ghost(self, m: int):
        return self.table.codec.grading(m)[1:]

    def mono_base_degree(self, m: int) -> int:
        return self.table.codec.base_degree(m)

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
            deg, gh, ag = self.table.codec.grading(m)
            out.setdefault((gh - ag, deg), {})[m] = c
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

    def max_base_degree(self) -> int:
        return max((self.mono_base_degree(m) for m in self.terms), default=0)

    def kinds_used(self):
        """Kinds of the generators that occur in some term; a field of the
        OR of all keys is nonzero exactly when some term has that generator."""
        present = 0
        for m in self.terms:
            present |= m
        evens, odds = self.table.codec.unpack(present)
        return {self.table.gen(g).kind for g in [g for g, _e in evens] + list(odds)}

    # -- calculus -----------------------------------------------------

    def _cached(self, key, build):
        if self._cache is None:
            self._cache = {}
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def partials(self, side: str, gids) -> dict:
        """{gid: dF/dz_gid} holding at least the given generators, left or
        right derivatives (cached), the missing ones found in one pass.  No
        two monomials share a derivative in one generator, so nothing
        cancels."""
        known = self._cached(side, dict)
        unit = self.table.codec.unit
        missing = {unit[g]: g for g in gids if g not in known}
        if missing:
            found = {g: {} for g in missing.values()}
            for g, m, c in _derivatives(self.table.codec, self.terms, side, missing):
                found[g][m] = c
            known.update((g, GPoly(self.table, d)) for g, d in found.items())
        return known

    def deriv(self, gid: int, side: str = "left") -> "GPoly":
        """Left or right derivative with respect to one generator (cached)."""
        self.table.gen(gid)  # raises UnknownGenerator
        return self.partials(side, (gid,))[gid]

    def eval_base(self, point: dict) -> "GPoly":
        """Substitute rational values for base generators (gid -> value)."""
        codec = self.table.codec
        acc = {}
        for m, c in self.terms.items():
            for g, e in codec.unpack(m)[0]:
                if g in point:
                    c = c * Fraction(point[g]) ** e
                    m -= e * codec.unit[g]
            if not c:
                continue
            v = acc.get(m, 0) + c
            if v:
                acc[m] = v
            else:
                del acc[m]
        return GPoly(self.table, acc)

    def const_value(self) -> Fraction:
        """Value of a generator-free polynomial."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {0}:
            raise ValueError("polynomial is not constant")
        return self.terms[0]

    def __str__(self):
        from .grammar import serialize

        return serialize(self)

    __repr__ = __str__


def normalize(table: GeneratorTable, raw) -> GPoly:
    """Build a canonical GPoly from (coefficient, factor-id list) pairs.

    Each term is the product of its factors in the order given, so
    reordering odd factors contributes the sign of the sorting permutation
    and a repeated odd factor kills the term.
    """
    codec = table.codec
    gens, acc = {}, {}
    for coeff, factors in raw:
        coeff = Fraction(coeff)
        if not coeff:
            continue
        # the factors from the right, each one a prepared left factor
        term = {0: 1}
        for gid in reversed(factors):
            if gid not in gens:
                table.gen(gid)  # raises UnknownGenerator
                gens[gid] = _prepared(codec, {codec.unit[gid]: 1})
            term, prev = {}, term
            _mul_terms(codec, term, [(gens[gid], k, c) for k, c in prev.items()])
        for m, sign in term.items():
            v = acc.get(m, 0) + sign * coeff
            if v:
                acc[m] = v
            else:
                del acc[m]
    return GPoly(table, acc)


def bracket(F: GPoly, G: GPoly) -> GPoly:
    """Graded Poisson bracket generated by the table's pairing: a sum of
    products of packed derivatives."""
    table = F.table
    if table is not G.table and table != G.table:
        raise TableMismatch("bracket operands use different generator tables")
    dG = G.partials("left", [b for _a, b in table.pairing])
    pairs = [(a, dG[b].terms, p) for (a, b), p in table.pairing.items()
             if dG[b].terms]
    dF = F.partials("right", [a for a, _g, _p in pairs])
    triples = []
    for a, g_terms, p in pairs:
        if dF[a].terms:
            lefts = _prepared(table.codec, dF[a].terms, p)
            triples.extend((lefts, k, c) for k, c in g_terms.items())
    out = {}
    _mul_terms(table.codec, out, triples)
    return GPoly(table, out)


class Derivation:
    """A compiled inner derivation {F, .} = sum_b coef_b * d/dz_b|L.

    ``terms`` is {b: coef_b} with rational coefficients; ``parts`` holds
    each coef_b under the key of z_b, as prepared left factors with its
    coefficients times the common denominator D.
    """

    def __init__(self, table: GeneratorTable, terms: dict):
        self.table = table
        self.terms = terms
        self.denominator = D = lcm(*(c.denominator for coef in terms.values()
                                     for c in coef.values()))
        self.parts = {table.codec.unit[b]: _prepared(table.codec, {
            m: c.numerator * (D // c.denominator) for m, c in coef.items()})
            for b, coef in terms.items()}
        self._shifts = None

    def apply(self, terms: dict) -> dict:
        """D * sum_b coef_b * dF/dz_b|L for F with these terms."""
        codec, out = self.table.codec, {}
        _mul_terms(codec, out, _derivatives(codec, terms, "left", self.parts))
        return out

    def columns(self, bases, odds):
        """apply({b + o: 1}) for b in the even ``bases`` and o in ``odds``,
        b major: by Leibniz, with no sign as b is even, X_b o + Y_o b for
        X_b = apply({b: 1}) and Y_o = apply({o: 1}), each prepared once."""
        codec = self.table.codec
        ys = [(_prepared(codec, self.apply({o: 1})), o) for o in odds]
        for b in bases:
            x = _prepared(codec, self.apply({b: 1}))
            for y, o in ys:
                out = {}
                _mul_terms(codec, out, [(x, o, 1), (y, b, 1)])
                yield out

    def __call__(self, F: GPoly) -> GPoly:
        """The exact image of F: {F', F} for the F' compiled here."""
        D = self.denominator
        return GPoly(F.table, {m: Fraction(v, D)
                               for m, v in self.apply(F.terms).items()})

    def by_shift(self) -> dict:
        """{(ghost, antighost) shift: Derivation} (cached): a term t of coef_b
        shifts the bidegree of F by the bidegree of t minus that of z_b."""
        if self._shifts is None:
            split = {}
            for b, coef in self.terms.items():
                zb = self.table.gen(b)
                for m, c in coef.items():
                    _deg, gh, ag = self.table.codec.grading(m)
                    shift = (gh - zb.ghost, ag - zb.antighost)
                    split.setdefault(shift, {}).setdefault(b, {})[m] = c
            self._shifts = {s: Derivation(self.table, t) for s, t in split.items()}
        return self._shifts


def inner_derivation(F: GPoly) -> Derivation:
    """{F, .} as {b: coef_b}, coef_b = sum over pairings (a, b) of
    p * dF/dz_a|R, so that {F, G} = sum_b coef_b * dG/dz_b|L (cached)."""
    def build():
        dF = F.partials("right", [a for a, _b in F.table.pairing])
        ops = {}
        for (a, b), p in F.table.pairing.items():
            if dF[a].terms:
                coef = ops.setdefault(b, {})
                for m, c in dF[a].terms.items():
                    v = coef.get(m, 0) + p * c
                    if v:
                        coef[m] = v
                    else:
                        del coef[m]
        return Derivation(F.table, {b: coef for b, coef in ops.items() if coef})

    return F._cached("ad", build)


def derivation_sources(op: Derivation, key: int) -> set:
    """The transpose of ``op.apply``: the monomials m whose image under
    ``op`` can hold ``key``, m = z_b * (key / t) for each term t of coef_b
    dividing key (none if z_b is odd and in key / t).  With every guard bit
    set on key, a field of t that exceeds key's borrows its guard bit away.
    Cancellation may still drop key, so a caller confirms each candidate by
    its image."""
    codec = op.table.codec
    guard = codec.guard
    padded = key | guard
    out = set()
    for unit, lefts in op.parts.items():
        odd = unit & codec.odd_mask
        for t, todd, _sm, _c in lefts:
            q = padded - t
            if todd & ~key or q & guard != guard:
                continue
            q ^= guard
            if odd:
                if not q & unit:
                    out.add(q | unit)
            elif not (q + unit) & guard:
                out.add(q + unit)
    return out


def mul(F: GPoly, G: GPoly) -> GPoly:
    return F * G
