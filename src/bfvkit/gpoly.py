"""Canonical-form polynomials in graded generators over exact rationals.

A monomial is one int, packed by the table's
:class:`~bfvkit.generators.MonomialCodec`: a bit per odd generator and an
exponent field per even generator, so that the constant 1 is key 0.  A
:class:`GPoly` holds integer numerators over one denominator,
``num = {monomial: nonzero int}`` over ``den > 0``, kept canonical by
``gcd(den, *num.values()) == 1``: equal polynomials have equal ``den``
and equal ``num``, so equality is dictionary equality.  Every operation
runs on the integers (a sum over the lcm of the denominators, a product
or a bracket over their product) and reduces its result once by one gcd.
``terms`` is a read-only {monomial: :class:`fractions.Fraction`} view for
callers off the hot paths.  Odd generators are ordered by id inside a
monomial.

Two rules act on packed keys, each written once.  A product
(:func:`mul_into`) is an integer add, zero when the odd masks meet, with
sign (-1)^n for n the pairs of an odd bit of the left factor above an odd
bit of the right one: the parity of ``popcount(right & sign_mask(left))``.
A field whose guard bit the add sets raises ExponentOverflow.  A
derivative (:func:`_derivatives`) clears an odd bit, with the sign of the odd
bits it crosses (below it from the left, above it from the right), or
takes one unit off an even field and multiplies by the exponent.  A term
given as its generators in order (:func:`normalize`, the parser) is
built by :meth:`~bfvkit.generators.MonomialCodec.product`, one generator
at a time.

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
coefficients scaled to integers by their least common denominator D, read
off F's own ``den``: ``Derivation.apply`` gives D * {F, .} on integer
columns, which have the same kernels and spans, and calling the
derivation puts the image over D times the argument's ``den``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

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


def _ratio(value) -> tuple:
    """(numerator, denominator) of a rational scalar."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


class GPoly:
    """Canonical polynomial ``num / den`` in the generators of a fixed table.

    Values are immutable: the public constructor copies its terms, and the
    package hands fresh dicts to :meth:`_make`.  The hash, derivatives and
    compiled inner derivation are cached per instance, which makes repeated
    brackets against a fixed polynomial (a charge, a bivector) cheap.
    """

    __slots__ = ("table", "num", "den", "_hash", "_cache")

    def __init__(self, table: GeneratorTable, terms: dict | None = None):
        """From rational terms {monomial: int or Fraction}, zeros dropped.
        Over the lcm of the reduced denominators the numerators already
        have no common factor with it, so nothing is reduced."""
        pairs = [(k, _ratio(c)) for k, c in (terms or {}).items() if c]
        den = lcm(*(q for _k, (_p, q) in pairs))
        self.table, self.den, self._hash, self._cache = table, den, None, None
        self.num = {k: p * (den // q) for k, (p, q) in pairs}

    @classmethod
    def _make(cls, table, num: dict, den: int = 1) -> "GPoly":
        """``num / den`` from a fresh {monomial: nonzero int} dict that no
        one else holds and a positive ``den``, reduced by one gcd."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        self = object.__new__(cls)
        self.table, self.num, self.den, self._hash, self._cache = table, num, den, None, None
        return self

    @property
    def terms(self):
        """The read-only {monomial: Fraction} view (built once)."""
        def build():
            den = self.den
            return MappingProxyType({k: Fraction(v, den) for k, v in self.num.items()})

        return self._cached("terms", build)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table) -> "GPoly":
        return cls._make(table, {})

    @classmethod
    def const(cls, table, value) -> "GPoly":
        p, q = _ratio(value)
        return cls._make(table, {0: p} if p else {}, q)

    @classmethod
    def gen(cls, table, gid: int) -> "GPoly":
        table.gen(gid)  # raises UnknownGenerator
        return cls._make(table, {table.codec.unit[gid]: 1})

    # -- ring structure -----------------------------------------------

    def _check(self, other: "GPoly"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatch("operands use different generator tables")

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num \
            and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.table, self.den, frozenset(self.num.items())))
        return self._hash

    def __neg__(self):
        return GPoly._make(self.table, {m: -c for m, c in self.num.items()}, self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GPoly.const(self.table, other)
        self._check(other)
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        out = dict(self.num) if s1 == 1 else {m: c * s1 for m, c in self.num.items()}
        get = out.get
        for m, c in other.num.items():
            v = get(m, 0) + c * s2
            if v:
                out[m] = v
            else:
                del out[m]
        return GPoly._make(self.table, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GPoly.const(self.table, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                return GPoly.zero(self.table)
            return GPoly._make(self.table, {m: v * p for m, v in self.num.items()},
                               self.den * q)
        self._check(other)
        out = {}
        mul_into(self.table.codec, out, self.num, other.num)
        return GPoly._make(self.table, out, self.den * other.den)

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
        return sorted({self.mono_degree(m) for m in self.num})

    def ghost_support(self):
        return sorted({self.mono_ghost(m) for m in self.num})

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

    def _split(self, part) -> dict:
        """{part(m): the terms of the monomials m with that value}."""
        out = {}
        for m, c in self.num.items():
            out.setdefault(part(m), {})[m] = c
        return {k: GPoly._make(self.table, v, self.den) for k, v in out.items()}

    def grade_components(self) -> dict:
        """Split into parts indexed by (total ghost number, function degree)."""
        grading = self.table.codec.grading

        def grade(m):
            deg, gh, ag = grading(m)
            return gh - ag, deg

        return self._split(grade)

    def bidegree_components(self) -> dict:
        """Split into parts indexed by (ghost number, antighost number)."""
        return self._split(self.mono_ghost)

    def base_truncate(self, order: int) -> "GPoly":
        """Drop terms of base-coordinate polynomial degree > order."""
        return GPoly._make(self.table, {m: c for m, c in self.num.items()
                                        if self.mono_base_degree(m) <= order}, self.den)

    def base_component(self, degree: int) -> "GPoly":
        return GPoly._make(self.table, {m: c for m, c in self.num.items()
                                        if self.mono_base_degree(m) == degree}, self.den)

    def max_base_degree(self) -> int:
        return max((self.mono_base_degree(m) for m in self.num), default=0)

    def kinds_used(self):
        """Kinds of the generators that occur in some term; a field of the
        OR of all keys is nonzero exactly when some term has that generator."""
        present = 0
        for m in self.num:
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

    def partials(self, side: str) -> dict:
        """{gid: numerators of dF/dz_gid over ``den``} for the generators
        that occur in F, left or right derivatives, found in one pass and
        cached (not to be changed).  No two monomials share a derivative in
        one generator, so nothing cancels."""
        def build():
            found = {}
            codec = self.table.codec
            for g, m, c in _derivatives(codec, self.num, side, codec.gid_of_unit):
                found.setdefault(g, {})[m] = c
            return found

        return self._cached(side, build)

    def __str__(self):
        from .grammar import serialize

        return serialize(self)

    __repr__ = __str__


def normalize(table: GeneratorTable, raw) -> GPoly:
    """Build a canonical GPoly from (rational coefficient, factor-id list)
    pairs.

    Each term is the product of its factors in the order given
    (:meth:`~bfvkit.generators.MonomialCodec.product`), so reordering odd
    factors contributes the sign of the sorting permutation and a repeated
    odd factor kills the term.
    """
    codec = table.codec
    terms = []
    for c, factors in raw:
        p, q = _ratio(c)
        if not p:
            continue
        for gid in factors:
            if gid not in codec.unit:
                table.gen(gid)  # raises UnknownGenerator
        term = codec.product([(codec.unit[gid], 1) for gid in factors])
        if term is not None:
            terms.append((term[0], term[1] * p, q))
    return _sum_terms(table, terms)


def _sum_terms(table: GeneratorTable, terms) -> GPoly:
    """The sum of (p / q) m over the (key m, p, q > 0) of ``terms``, over the
    lcm of the q."""
    den = lcm(*(q for _m, _p, q in terms))
    acc = {}
    for m, p, q in terms:
        v = acc.get(m, 0) + p * (den // q)
        if v:
            acc[m] = v
        else:
            del acc[m]
    return GPoly._make(table, acc, den)


def bracket(F: GPoly, G: GPoly) -> GPoly:
    """Graded Poisson bracket generated by the table's pairing: one product
    of packed derivative numerators over ``F.den * G.den``.  A zero
    operand gives zero, after the table check, with no derivative built."""
    table = F.table
    if table is not G.table and table != G.table:
        raise TableMismatch("bracket operands use different generator tables")
    if not F.num or not G.num:
        return GPoly._make(table, {})
    dF, dG = F.partials("right"), G.partials("left")
    triples = []
    for (a, b), p in table.pairing.items():
        if a in dF and b in dG:
            lefts = _prepared(table.codec, dF[a], p)
            triples.extend((lefts, k, c) for k, c in dG[b].items())
    out = {}
    _mul_terms(table.codec, out, triples)
    return GPoly._make(table, out, F.den * G.den)


class Derivation:
    """A compiled inner derivation {F, .} = sum_b coef_b * d/dz_b|L.

    ``nums`` is {b: D * coef_b} with integer coefficients over the least
    common denominator D (``denominator``); ``parts`` holds each of them
    under the key of z_b as prepared left factors.
    """

    def __init__(self, table: GeneratorTable, nums: dict, den: int = 1):
        """From integer coefficients {b: {monomial: int}} over ``den``,
        reduced to their least common denominator."""
        g = gcd(den, *(v for coef in nums.values() for v in coef.values()))
        if g != 1:
            nums = {b: {m: v // g for m, v in coef.items()} for b, coef in nums.items()}
        self.table, self.nums, self.denominator = table, nums, den // g
        self.parts = {table.codec.unit[b]: _prepared(table.codec, coef)
                      for b, coef in nums.items()}
        self._shifts = None

    def apply(self, terms: dict) -> dict:
        """D * sum_b coef_b * dF/dz_b|L for F with these integer terms."""
        codec, out = self.table.codec, {}
        _mul_terms(codec, out, _derivatives(codec, terms, "left", self.parts))
        return out

    def columns(self, bases, odds):
        """apply({b + o: 1}) for b in the even ``bases`` and o in ``odds``,
        b major: by Leibniz, with no sign as b is even, X_b o + Y_o b for
        X_b = apply({b: 1}) and Y_o = apply({o: 1}), each computed once.
        The terms of X_b o have distinct keys and cannot overflow, as o is
        odd; a term of Y_o b takes no sign, as b has no odd bit."""
        codec = self.table.codec
        guard = codec.guard
        ys = [(self.apply({o: 1}).items(), o) for o in odds]
        for b in bases:
            x = _prepared(codec, self.apply({b: 1}))
            for y, o in ys:
                out = {k + o: -c if (o & sm).bit_count() & 1 else c
                       for k, odd, sm, c in x if not o & odd}
                for k, c in y:
                    k += b
                    if k & guard:
                        raise codec.overflow(k)
                    if v := out.get(k, 0) + c:
                        out[k] = v
                    else:
                        del out[k]
                yield out

    def __call__(self, F: GPoly) -> GPoly:
        """The exact image of F: {F', F} for the F' compiled here."""
        return GPoly._make(F.table, self.apply(F.num), self.denominator * F.den)

    def by_shift(self) -> dict:
        """{(ghost, antighost) shift: Derivation} (cached): a term t of coef_b
        shifts the bidegree of F by the bidegree of t minus that of z_b."""
        if self._shifts is None:
            split = {}
            for b, coef in self.nums.items():
                zb = self.table.gen(b)
                for m, c in coef.items():
                    _deg, gh, ag = self.table.codec.grading(m)
                    shift = (gh - zb.ghost, ag - zb.antighost)
                    split.setdefault(shift, {}).setdefault(b, {})[m] = c
            self._shifts = {s: Derivation(self.table, t, self.denominator)
                            for s, t in split.items()}
        return self._shifts


def inner_derivation(F: GPoly) -> Derivation:
    """{F, .} as {b: coef_b}, coef_b = sum over pairings (a, b) of
    p * dF/dz_a|R, so that {F, G} = sum_b coef_b * dG/dz_b|L (cached)."""
    def build():
        dF = F.partials("right")
        ops = {}
        for (a, b), p in F.table.pairing.items():
            if a in dF:
                coef = ops.setdefault(b, {})
                for m, c in dF[a].items():
                    v = coef.get(m, 0) + p * c
                    if v:
                        coef[m] = v
                    else:
                        del coef[m]
        return Derivation(F.table, {b: coef for b, coef in ops.items() if coef}, F.den)

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

