"""Reference implementations and fixtures that only the tests use: named
Lie algebra presets, tuple forms packed into keys, substitution of rational
points, and generators and derivatives by name."""

from fractions import Fraction

from bfvkit.errors import ExponentOverflow
from bfvkit.gpoly import GPoly, _ratio
from bfvkit.liedata import BialgebraData, LieAlgebraData, ModuleActionData

_ZERO = Fraction(0)


def var(table, name: str) -> GPoly:
    """The generator of ``table`` named ``name``."""
    return GPoly.gen(table, table.by_name(name).gid)


def deriv(F: GPoly, gid: int, side: str = "left") -> GPoly:
    """Left or right derivative of F with respect to one generator."""
    return GPoly._make(F.table, dict(F.partials(side).get(gid, {})), F.den)


def pack(codec, mono) -> int:
    """The key of a tuple form; an exponent past ``CAP`` raises."""
    evens, odds = mono
    key = sum(codec.unit[g] for g in odds)
    for g, e in evens:
        if e > codec.CAP:
            raise ExponentOverflow(f"exponent {e} of {codec.table.gen(g).name}"
                                   f" exceeds the cap {codec.CAP}")
        key += e * codec.unit[g]
    return key


def eval_base(F: GPoly, point: dict) -> GPoly:
    """Substitute rational values p/q for base generators (gid -> value):
    with E the largest exponent of a generator, every term is put over
    den * q^E, so the sum runs on integers."""
    codec = F.table.codec
    point = {g: _ratio(v) for g, v in point.items()}
    terms = [(m, v, dict(codec.unpack(m)[0])) for m, v in F.num.items()]
    top = {g: max((ev.get(g, 0) for _m, _v, ev in terms), default=0) for g in point}
    den, acc = F.den, {}
    for g, E in top.items():
        den *= point[g][1] ** E
    for m, v, ev in terms:
        for g, E in top.items():
            p, q = point[g]
            e = ev.get(g, 0)
            v *= p ** e * q ** (E - e)
            m -= e * codec.unit[g]
        w = acc.get(m, 0) + v
        if w:
            acc[m] = w
        else:
            acc.pop(m, None)
    return GPoly._make(F.table, acc, den)


def const_value(F: GPoly) -> Fraction:
    """Value of a generator-free polynomial."""
    if F.num.keys() - {0}:
        raise ValueError("polynomial is not constant")
    return Fraction(F.num.get(0, 0), F.den)


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


def coadjoint_module(L: LieAlgebraData) -> ModuleActionData:
    """The coadjoint action on h = g*, rho(u^m) v_i = -c^{mp}_i v_p."""
    d = {}
    for (m, p, i), v in L.c.items():
        d[(m, i, p)] = d.get((m, i, p), _ZERO) - v
    return ModuleActionData(L.dim, {k: v for k, v in d.items() if v})
