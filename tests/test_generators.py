"""The BFV1 and BFV0 alphabets: entries, conjugates and pairing orientation."""

from itertools import product

from bfvkit.generators import Generator, Kind, bfv0_table, bfv1_table


def test_entries_and_pairing_literals():
    t = bfv1_table(1, 1, 1)
    assert t.entries == (Generator(1, "x1", Kind.BASE, 0, 0, 0, 2),
                         Generator(2, "e1", Kind.FIBER, 1, 0, 0, 1),
                         Generator(3, "c1", Kind.GHOST_G, 1, 1, 0, 5),
                         Generator(4, "C1", Kind.GHOST_H, 2, 1, 0, 6),
                         Generator(5, "b1", Kind.ANTIGHOST_G, 0, 0, 1, 3),
                         Generator(6, "B1", Kind.ANTIGHOST_H, -1, 0, 1, 4))
    assert list(t.pairing.items()) == [((2, 1), 1), ((1, 2), -1), ((3, 5), 1),
                                       ((5, 3), -1), ((4, 6), 1), ((6, 4), -1)]
    t = bfv0_table(2, 1, [(1, 2)])
    assert t.entries == (Generator(1, "x1", Kind.BASE, 0, 0, 0, 2),
                         Generator(2, "x2", Kind.BASE, 0, 0, 0, 1),
                         Generator(3, "c1", Kind.GHOST_G, 1, 1, 0, 4),
                         Generator(4, "b1", Kind.ANTIGHOST_G, -1, 0, 1, 3))
    assert list(t.pairing.items()) == [((1, 2), 1), ((2, 1), -1), ((3, 4), 1),
                                       ((4, 3), 1)]


def _check(t, positive):
    """The pairing holds exactly the conjugate pairs, each named pair of
    ``positive`` is oriented with {a, b} = 1, and each reverse entry is
    {b, a} = -(-1)^((|a|-s)(|b|-s)) {a, b}."""
    assert set(t.pairing) == {(g.gid, g.conjugate) for g in t.entries if g.conjugate}
    assert all(t.pairing[t.by_name(a).gid, t.by_name(b).gid] == 1 for a, b in positive)
    for (a, b), v in t.pairing.items():
        da, db = t.gen(a).degree - t.shift, t.gen(b).degree - t.shift
        assert t.pairing[b, a] == -(-1) ** (da * db % 2) * v


def test_orientation_over_a_grid():
    # BFV1: {e, x} = {c, b} = {C, B} = 1
    for n, dim_g, dim_h in product(range(4), range(1, 4), range(3)):
        _check(bfv1_table(n, dim_g, dim_h),
               [(f"e{i}", f"x{i}") for i in range(1, n + 1)]
               + [(f"c{i}", f"b{i}") for i in range(1, dim_g + 1)]
               + [(f"C{i}", f"B{i}") for i in range(1, dim_h + 1)])
    # BFV0: {q, p} = 1 on the declared pairs, and {c, b} = {b, c} = 1
    for n, dim_g, pairs in product(range(2, 5), range(1, 4),
                                   [(), ((1, 2),), ((2, 1),), ((1, 2), (3, 4))]):
        if max((i for p in pairs for i in p), default=0) <= n:
            _check(bfv0_table(n, dim_g, pairs),
                   [(f"x{i}", f"x{j}") for i, j in pairs]
                   + [(f"{a}{i}", f"{b}{i}") for i in range(1, dim_g + 1)
                      for a, b in (("c", "b"), ("b", "c"))])
