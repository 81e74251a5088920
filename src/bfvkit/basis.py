"""Enumeration of graded monomials under degree and ghost constraints.

Used to pose the bounded spaces of the H^0 probe (:mod:`bfvkit.homotopy`);
Koszul, lift, ideal-membership and class-equality systems enumerate no
space and pose only the part of one that their target reaches
(:mod:`bfvkit.engine`).  Base generators (degree 0, no ghost numbers) are
enumerated by total polynomial degree up to a cap; all other generators
are constrained by the requested function degree and (ghost, antighost)
bidegree, which keeps the search finite.  Monomials are packed keys
(:class:`~bfvkit.generators.MonomialCodec`), listed in the order of their
tuple forms, which callers that print a basis element rely on.
"""

from __future__ import annotations

import itertools

from .generators import GeneratorTable, Kind


def base_exponent_vectors(n_vars: int, max_total: int):
    """All exponent tuples of length n_vars with sum <= max_total."""
    if n_vars == 0:
        yield ()
        return
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + n_vars - 1), n_vars - 1):
            prev = -1
            vec = []
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(total + n_vars - 2 - prev)
            yield tuple(vec)


def enumerate_monomials(table: GeneratorTable, fdeg: int, ghost: int,
                        antighost: int, max_base_degree: int,
                        kinds=None) -> list:
    """Monomials with the given function degree and exact (ghost, antighost)
    bidegree, base-polynomial degree <= max_base_degree, over the allowed
    generator kinds (all kinds when None)."""
    gens = [g for g in table.entries
            if (kinds is None or g.kind in kinds)]
    base = [g for g in gens if g.kind == Kind.BASE]
    rest = [g for g in gens if g.kind != Kind.BASE]

    # Bounds for pruning: how much function degree, ghost and antighost
    # number the tail can still add.
    neg = [0] * (len(rest) + 1)
    pos = [0] * (len(rest) + 1)
    gh_max = [0] * (len(rest) + 1)
    ag_max = [0] * (len(rest) + 1)
    for idx in range(len(rest) - 1, -1, -1):
        g = rest[idx]
        cap = 1 if g.parity else max(ghost, antighost, 0)
        lo = min(0, g.degree * cap)
        hi = max(0, g.degree * cap)
        neg[idx] = neg[idx + 1] + lo
        pos[idx] = pos[idx + 1] + hi
        gh_max[idx] = gh_max[idx + 1] + g.ghost * cap
        ag_max[idx] = ag_max[idx + 1] + g.antighost * cap

    results = []
    chosen = []

    def rec(idx, deg, gh, ag):
        if gh > ghost or ag > antighost:
            return
        if idx == len(rest):
            if gh == ghost and ag == antighost and deg == fdeg:
                results.append(list(chosen))
            return
        if deg + neg[idx] > fdeg or deg + pos[idx] < fdeg:
            return
        if gh + gh_max[idx] < ghost or ag + ag_max[idx] < antighost:
            return
        g = rest[idx]
        cap = 1 if g.parity else max(ghost - gh, antighost - ag, 0)
        if g.ghost == 0 and g.antighost == 0 and g.parity == 0:
            cap = 0  # no even ghost-free non-base generators in our presets
        for e in range(cap + 1):
            if e:
                chosen.append((g, e))
            rec(idx + 1, deg + g.degree * e, gh + g.ghost * e, ag + g.antighost * e)
            if e:
                chosen.pop()

    rec(0, 0, 0, 0)

    pack = table.codec.pack
    base_ids = [g.gid for g in base]
    bases = []
    for vec in base_exponent_vectors(len(base_ids), max_base_degree):
        bev = tuple((gid, e) for gid, e in zip(base_ids, vec) if e)
        bases.append((bev, pack((bev, ()))))
    monomials = []
    for combo in results:
        evens = tuple(sorted((g.gid, e) for g, e in combo if g.parity == 0))
        odds = tuple(sorted(g.gid for g, e in combo if g.parity == 1))
        key = pack((evens, odds))
        for bev, bkey in bases:
            monomials.append(((tuple(sorted(bev + evens)), odds), key + bkey))
    monomials.sort()
    return [key for _mono, key in monomials]
