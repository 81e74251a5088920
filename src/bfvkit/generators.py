"""Graded coordinate alphabets for the BFV phase spaces.

A :class:`GeneratorTable` fixes the alphabet of graded generators together
with their degrees, ghost/antighost numbers, conjugate pairings and the
orientation of the fundamental bracket pairings.  Two presets are provided:

``BFV1``
    Coordinates on T*[1]M x T*[1]g~*[-1] for a graded Lie algebra
    g~ = h[1] (+) g.  The bracket carries degree -1.  Generators and their
    (degree, ghost, antighost):

    =========  ======  ======  ======  =========
    token      kind    degree  ghost   antighost
    =========  ======  ======  ======  =========
    ``x{i}``   base       0      0        0
    ``e{i}``   fiber      1      0        0
    ``c{i}``   ghost-g    1      1        0
    ``C{j}``   ghost-h    2      1        0
    ``b{k}``   anti-g     0      0        1
    ``B{p}``   anti-h    -1      0        1
    =========  ======  ======  ======  =========

``BFV0``
    Coordinates on M x g*[-1]-type super phase space with a degree-0
    bracket: base variables of degree 0 (optionally paired among
    themselves, e.g. Darboux pairs on a cotangent space), ghosts ``c{i}``
    of degree 1 and antighosts ``b{k}`` of degree -1.

Pairing orientation.  The bracket is the biderivation generated by the
constant pairings stored in :attr:`GeneratorTable.pairing`.  For BFV1 the
positive orientations are::

    {e_i, x_i} = 1,   {c_i, b_i} = 1,   {C_j, B_j} = 1,

i.e. the ghost-momentum generator comes first.  The reversed entries are
fixed by the graded antisymmetry of a degree -1 bracket.  For BFV0 the
positive orientations are ``{q, p} = 1`` on declared base pairs and
``{c_i, b_i} = {b_i, c_i} = 1`` (the odd-odd pairing of a degree-0
bracket is symmetric).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ExponentOverflow, UnknownGenerator


class Kind(enum.Enum):
    BASE = "base"
    FIBER = "fiber"
    GHOST_G = "ghost_g"
    GHOST_H = "ghost_h"
    ANTIGHOST_G = "antighost_g"
    ANTIGHOST_H = "antighost_h"


_TOKEN_PREFIX = {
    Kind.BASE: "x",
    Kind.FIBER: "e",
    Kind.GHOST_G: "c",
    Kind.GHOST_H: "C",
    Kind.ANTIGHOST_G: "b",
    Kind.ANTIGHOST_H: "B",
}

# The Lagrangian submanifold N_{1,-1} keeps base coordinates, g-ghosts and
# h-antighosts; its function algebra is C(M) (x) Lambda g* (x) Lambda h.
LAGRANGIAN_KINDS = frozenset({Kind.BASE, Kind.GHOST_G, Kind.ANTIGHOST_H})


@dataclass(frozen=True)
class Generator:
    gid: int
    name: str
    kind: Kind
    degree: int
    ghost: int
    antighost: int
    conjugate: int | None = None

    @property
    def parity(self) -> int:
        return self.degree % 2


# Degree shift of each preset's bracket: |{F,G}| = |F| + |G| - shift.
_SHIFT = {"BFV0": 0, "BFV1": 1}


class GeneratorTable:
    """Immutable alphabet of graded generators plus bracket pairing data."""

    def __init__(self, preset: str, entries: list[Generator], pairing: dict):
        if preset not in _SHIFT:
            raise ValueError(f"unknown preset {preset!r}")
        self.preset = preset
        self.shift = _SHIFT[preset]
        self.entries = tuple(entries)
        self._by_id = {g.gid: g for g in self.entries}
        self._by_name = {g.name: g for g in self.entries}
        if len(self._by_id) != len(self.entries):
            raise ValueError("duplicate generator ids")
        # pairing[(a, b)] = value of {z_a, z_b} for conjugate generators.
        self.pairing = dict(pairing)
        self.odd_ids = frozenset(g.gid for g in self.entries if g.parity)
        self.base_ids = frozenset(self.ids_of_kind(Kind.BASE))
        self.lagrangian_ids = frozenset(
            g.gid for g in self.entries if g.kind in LAGRANGIAN_KINDS)
        for g in self.entries:
            if g.conjugate is not None:
                h = self._by_id[g.conjugate]
                if h.conjugate != g.gid:
                    raise ValueError(f"conjugation is not involutive at {g.name}")
                if g.degree + h.degree != self.shift:
                    raise ValueError(
                        f"conjugate degrees of ({g.name}, {h.name}) must sum "
                        f"to {self.shift} in preset {preset}"
                    )
        self.codec = MonomialCodec(self)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GeneratorTable)
            and self.preset == other.preset
            and self.entries == other.entries
            and self.pairing == other.pairing
        )

    def __hash__(self):
        return hash((self.preset, self.entries))

    def gen(self, gid: int) -> Generator:
        try:
            return self._by_id[gid]
        except KeyError:
            raise UnknownGenerator(f"no generator with id {gid}") from None

    def by_name(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGenerator(f"no generator named {name!r}") from None

    def ids_of_kind(self, kind: Kind) -> tuple:
        return tuple(g.gid for g in self.entries if g.kind == kind)


class MonomialCodec:
    """The monomials of one table, each packed into one int.

    Odd generator j (in id order) is bit j.  Above the odd bits each even
    generator, in id order, has a field of ``WIDTH`` bits: an exponent up
    to ``CAP`` and a guard bit on top.  Two valid keys add without a carry
    out of any field, so a product of monomials is one integer add, and an
    exponent past ``CAP`` shows as a set guard bit.  The monomial 1 is key
    0.  The tuple form ``((gid, exponent), ...), (gid, ...)`` (evens, then
    odds, each by id) fixes the printed orders and nothing else.
    """

    WIDTH = 8
    FIELD = (1 << WIDTH) - 1
    CAP = FIELD >> 1

    def __init__(self, table: GeneratorTable):
        self.table = table
        self.odd_ids = sorted(table.odd_ids)
        self.even_ids = sorted(g.gid for g in table.entries if not g.parity)
        self.n_odd = n = len(self.odd_ids)
        self.odd_mask = (1 << n) - 1
        self.unit = {g: 1 << j for j, g in enumerate(self.odd_ids)}
        self.unit.update({g: 1 << (n + i * self.WIDTH)
                          for i, g in enumerate(self.even_ids)})
        self.gid_of_unit = {u: g for g, u in self.unit.items()}
        self.unit_of_name = {g.name: self.unit[g.gid] for g in table.entries}
        full = {g: self.unit[g] * (1 if g in table.odd_ids else self.FIELD)
                for g in self.unit}
        self.weights = {g.gid: (g.degree, g.ghost, g.antighost)
                        for g in table.entries}
        self.guard = sum(self.unit[g] << (self.WIDTH - 1) for g in self.even_ids)
        self.base_mask = sum(full[g] for g in table.base_ids)
        self.outside = sum(full[g] for g in full if g not in table.lagrangian_ids)

    def product(self, factors) -> tuple | None:
        """(key, sign) of the product of the generators ``factors``, (unit,
        exponent) pairs in order, or None when it vanishes.  The factors
        multiply from the right: an even one adds ``min(e, CAP + 1)`` units,
        and a set guard raises ExponentOverflow; an odd one sets its bit,
        with the sign of the odd bits below it, and a repeat (or an
        exponent above 1) kills the term."""
        key, sign, odd, guard, top = 0, 1, self.odd_mask, self.guard, self.CAP + 1
        for unit, e in reversed(factors):
            if unit & odd:
                if e > 1 or key & unit:
                    return None
                if (key & (unit - 1)).bit_count() & 1:
                    sign = -sign
                key |= unit
            else:
                key += min(e, top) * unit
                if key & guard:
                    raise self.overflow(key)
        return key, sign

    def overflow(self, key: int) -> ExponentOverflow:
        """The error for a key with a set guard bit."""
        i = ((key & self.guard).bit_length() - 1 - self.n_odd) // self.WIDTH
        return ExponentOverflow(f"exponent of {self.table.gen(self.even_ids[i]).name}"
                                f" exceeds the cap {self.CAP}")

    def unpack(self, key: int) -> tuple:
        """The tuple form of a key, visiting only its set bits and fields."""
        odds = []
        rest = key & self.odd_mask
        while rest:
            low = rest & -rest
            odds.append(self.odd_ids[low.bit_length() - 1])
            rest ^= low
        evens = []
        rest, w = key >> self.n_odd, self.WIDTH
        while rest:
            i = ((rest & -rest).bit_length() - 1) // w
            e = rest >> (i * w) & self.FIELD
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

    def grading(self, key: int) -> tuple:
        """(function degree, ghost number, antighost number) of a key."""
        evens, odds = self.unpack(key)
        d = g = a = 0
        for x, e in evens:
            wd, wg, wa = self.weights[x]
            d, g, a = d + wd * e, g + wg * e, a + wa * e
        for x in odds:
            wd, wg, wa = self.weights[x]
            d, g, a = d + wd, g + wg, a + wa
        return d, g, a

    def base_degree(self, key: int) -> int:
        rest, total = (key & self.base_mask) >> self.n_odd, 0
        while rest:
            total += rest & self.FIELD
            rest >>= self.WIDTH
        return total


def _build(preset: str, rows, links) -> GeneratorTable:
    """The table of ``rows``, (kind, count, degree, ghost, antighost), with
    ids assigned in row order, in which each (a, b) of ``links``, each a
    (kind, 0-based index), is a conjugate pair with {a, b} = 1 and the
    reverse entry {b, a} = -(-1)^((|a|-s)(|b|-s)) fixed by antisymmetry."""
    shift = _SHIFT[preset]
    ids, specs = {}, []
    for kind, count, *grading in rows:
        for i in range(count):
            ids[kind, i] = len(specs) + 1
            specs.append((f"{_TOKEN_PREFIX[kind]}{i + 1}", kind, *grading))
    conjugate, pairing = {}, {}
    for a, b in ((ids[x], ids[y]) for x, y in links):
        conjugate[a], conjugate[b] = b, a
        pairing[a, b] = 1
        pairing[b, a] = -(-1) ** ((specs[a - 1][2] - shift)
                                  * (specs[b - 1][2] - shift) % 2)
    return GeneratorTable(preset, [Generator(gid, *spec, conjugate=conjugate.get(gid))
                                   for gid, spec in enumerate(specs, start=1)], pairing)


def _links(*kinds):
    """((kind_a, i), (kind_b, i)) for i < count, per (kind_a, kind_b, count)."""
    return [((a, i), (b, i)) for a, b, count in kinds for i in range(count)]


def bfv1_table(n_base: int, dim_g: int, dim_h: int) -> GeneratorTable:
    """Alphabet for the degree-one phase space with the degree -1 bracket."""
    return _build("BFV1", (
        (Kind.BASE, n_base, 0, 0, 0),
        (Kind.FIBER, n_base, 1, 0, 0),
        (Kind.GHOST_G, dim_g, 1, 1, 0),
        (Kind.GHOST_H, dim_h, 2, 1, 0),
        (Kind.ANTIGHOST_G, dim_g, 0, 0, 1),
        (Kind.ANTIGHOST_H, dim_h, -1, 0, 1),
    ), _links((Kind.FIBER, Kind.BASE, n_base), (Kind.GHOST_G, Kind.ANTIGHOST_G, dim_g),
              (Kind.GHOST_H, Kind.ANTIGHOST_H, dim_h)))


def bfv0_table(n_base: int, dim_g: int, base_pairs=()) -> GeneratorTable:
    """Alphabet for the degree-zero super phase space.

    ``base_pairs`` lists 1-based index pairs (i, j) of base coordinates with
    canonical bracket {x_i, x_j} = 1 (e.g. Darboux pairs (q_a, p_a) on a
    cotangent space).  Base coordinates may appear in at most one pair.
    """
    flat = [i for pair in base_pairs for i in pair]
    if len(set(flat)) < len(flat):
        raise ValueError("base coordinates may appear in at most one pair")
    return _build("BFV0", (
        (Kind.BASE, n_base, 0, 0, 0),
        (Kind.GHOST_G, dim_g, 1, 1, 0),
        (Kind.ANTIGHOST_G, dim_g, -1, 0, 1),
    ), [((Kind.BASE, i - 1), (Kind.BASE, j - 1)) for i, j in base_pairs]
       + _links((Kind.GHOST_G, Kind.ANTIGHOST_G, dim_g)))
