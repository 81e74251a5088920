"""Monomial enumeration against a brute-force enumerator."""

import itertools

from bfvkit.basis import enumerate_monomials
from bfvkit.generators import Kind


def brute_force_monomials(table, fdeg, ghost, antighost, max_base_degree):
    """Every monomial of the shape, by exhaustive search.

    Odd non-base generators occur at most once; every even non-base
    generator carries a ghost or antighost number, so its exponent is at
    most max(ghost, antighost).  Odd subsets are grouped by grade and
    matched against every even exponent vector.
    """
    base = [g.gid for g in table.entries if g.kind == Kind.BASE]
    odd = [g for g in table.entries if g.kind != Kind.BASE and g.parity]
    even = [g for g in table.entries if g.kind != Kind.BASE and not g.parity]
    assert all(g.ghost or g.antighost for g in even)

    def grade(gens, exps):
        return tuple(sum(getattr(g, attr) * e for g, e in zip(gens, exps))
                     for attr in ("degree", "ghost", "antighost"))

    odd_by_grade = {}
    for exps in itertools.product((0, 1), repeat=len(odd)):
        odds = tuple(g.gid for g, e in zip(odd, exps) if e)
        odd_by_grade.setdefault(grade(odd, exps), []).append(odds)
    base_vecs = [v for v in itertools.product(range(max_base_degree + 1),
                                              repeat=len(base))
                 if sum(v) <= max_base_degree]
    cap = max(ghost, antighost, 0)
    out = []
    for exps in itertools.product(range(cap + 1), repeat=len(even)):
        d, gh, ag = grade(even, exps)
        for odds in odd_by_grade.get((fdeg - d, ghost - gh, antighost - ag), ()):
            for vec in base_vecs:
                evens = [(gid, e) for gid, e in zip(base, vec) if e]
                evens += [(g.gid, e) for g, e in zip(even, exps) if e]
                out.append((tuple(sorted(evens)), tuple(sorted(odds))))
    return sorted(out)


def test_enumerate_matches_brute_force(engine_requests):
    # every shape that lift and extend enumerate on the presets, plus the
    # group-valued lift shapes at the higher bounds a lift may escalate to
    cases = [(req.S.table, args) for req in engine_requests.values()
             for args in req.enumerations]
    gv_table = engine_requests["group-valued-so3"].S.table
    cases += [(gv_table, (2, g, g, bound)) for g in range(1, 6)
              for bound in range(3)]
    for table, args in cases:
        # packed keys, listed in the order of their tuple forms
        assert ([table.codec.unpack(m) for m in enumerate_monomials(table, *args)]
                == brute_force_monomials(table, *args)), args
    assert not enumerate_monomials(gv_table, 2, 5, 5, 2)
