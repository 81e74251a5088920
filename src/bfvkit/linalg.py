"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping hashable keys (monomials) to nonzero rationals
(Fractions or ints).  The solver keeps an incremental echelon basis with
combination tracking so that solutions are expressed in the original column
tags.  The pivot of each new row is its minimal key.  ``kernel`` and
``solve`` are canonical for a fixed column order under any pivot choice: a
dependent column yields the unique combination over the earlier independent
columns, and a solution is the unique one over the independent columns.
``residual`` is the unique vector of ``target + span`` that vanishes on the
pivot set, so it is canonical for the min-key pivots.  A caller that reads
kernels or ranks alone may pivot sparsely, as :func:`kernel` and
:func:`rank` do; one that reads residuals keeps the min-key pivots.
:func:`rank` first peels, with no arithmetic, the columns that hold a key
no other column holds and the columns of a single key, whose key it
clears from the others.

Elimination runs on integer rows (fraction-free, after Bareiss, Math.
Comp. 1968).  An incoming column or target is scaled once by the common
denominator of its entries.  Stored pivot rows, with their tag combinations,
are primitive integer vectors with a positive pivot entry, and each step is
``vec <- (p/g) vec - (c/g) row`` with ``g = gcd(p, c)``.  A reduced vector
carries one positive integer scale, so it is an exact multiple of the vector
that elimination over Fractions would produce, with the same support at
every step.  A kernel vector stays integer: a primitive pair ``(combo,
scale)`` with ``combo / scale`` the combination that has coefficient 1 on
the dependent column, reduced as ``residual(combo, scale)``.  Division back
to Fractions happens only in ``solve`` and ``residual``; ``solve_pair``
returns the integer solution with its scale.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from math import gcd, lcm


def _to_integers(vec: dict):
    """(integer vector, scale) with integer vector = scale * vec, zeros dropped."""
    if {*map(type, vec.values())} == {int} and 0 not in vec.values():
        return dict(vec), 1
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (scale // v.denominator)
            for k, v in vec.items() if v}, scale


class EchelonSolver:
    """Incremental echelon form with combination tracking."""

    def __init__(self):
        # pivot key -> (primitive integer row with positive pivot entry,
        #               its combination over tags, scaled alike)
        self.pivots = {}
        self.kernel = []  # primitive (combo, scale) pairs that map to zero

    def _reduce(self, vec: dict, combo: dict, scale: int):
        """Eliminate pivot keys from the integer pair (vec, combo) in place.

        Returns the scale that the pair carries afterwards.
        """
        # stored pivot rows have their pivot as minimal key, so keys are
        # eliminated in increasing order and never reappear once processed
        pivots = self.pivots
        heap = [k for k in vec if k in pivots]
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            k = heapq.heappop(heap)
            c = vec.get(k)
            if not c:
                continue
            row, crow = pivots[k]
            p = row[k]
            g = gcd(p, c)
            if p != g:
                m = p // g
                scale *= m
                for kk in vec:
                    vec[kk] *= m
                for kk in combo:
                    combo[kk] *= m
            f = c // g
            for kk, vv in row.items():
                w = vec.get(kk, 0) - f * vv
                if w:
                    vec[kk] = w
                    if kk in pivots and kk not in queued:
                        heapq.heappush(heap, kk)
                        queued.add(kk)
                else:
                    vec.pop(kk, None)
            for kk, vv in crow.items():
                w = combo.get(kk, 0) - f * vv
                if w:
                    combo[kk] = w
                else:
                    combo.pop(kk, None)
        return scale

    def add_column(self, tag, vec: dict):
        """Insert one column; returns True if it enlarged the span.  A tag
        of None tracks no combination and keeps no kernel pair."""
        vec, scale = _to_integers(vec)
        combo = {} if tag is None else {tag: scale}
        scale = self._reduce(vec, combo, scale)
        if not vec:
            if tag is not None:
                g = gcd(scale, *combo.values())
                self.kernel.append(({t: c // g for t, c in combo.items()}, scale // g))
            return False
        pivot = min(vec)
        g = gcd(*vec.values(), *combo.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:  # a primitive row is stored as it is
            vec = {k: v // g for k, v in vec.items()}
            combo = {t: c // g for t, c in combo.items()}
        self.pivots[pivot] = (vec, combo)
        return True

    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, target: dict, denominator: int = 1) -> dict:
        """The reduced form of ``target / denominator``."""
        vec, scale = _to_integers(target)
        scale = self._reduce(vec, {}, scale * denominator)
        return {k: Fraction(v, scale) for k, v in vec.items()}

    def solve_pair(self, target: dict):
        """(combo, scale) with sum(combo[t] * column t) = scale * target, on
        integers, or None."""
        vec, scale = _to_integers(target)
        combo = {}
        scale = self._reduce(vec, combo, scale)
        if vec:
            return None
        return {t: -c for t, c in combo.items()}, scale

    def solve(self, target: dict, denominator: int = 1):
        """Coefficients over tags with sum(coef * column) = target /
        denominator, or None."""
        pair = self.solve_pair(target)
        if pair is None:
            return None
        combo, scale = pair
        return {t: Fraction(c, scale * denominator) for t, c in combo.items()}


def _sparse_echelon(columns: dict, track: bool) -> EchelonSolver:
    """The columns ``{tag: vec}`` added in order, tagged only if ``track``.
    Kernel and rank do not depend on the pivots, so keys are relabelled to
    pivot sparsely: ordered by ``(n, key)``, n the number of columns holding
    the key, the min-key pivots are the keys fewest columns contain (a
    static Markowitz count, after Markowitz, Management Sci. 1957)."""
    count = Counter(k for vec in columns.values() for k in vec)
    label = {k: i for i, k in enumerate(sorted(count, key=lambda k: (count[k], k)))}
    es = EchelonSolver()
    for tag, vec in columns.items():
        es.add_column(tag if track else None, {label[k]: v for k, v in vec.items()})
    return es


def kernel(columns: dict) -> list:
    """The kernel pairs of the columns ``{tag: vec}``, added in order."""
    return _sparse_echelon(columns, True).kernel


def rank(columns: dict) -> int:
    """The rank of the columns ``{tag: vec}``, with no combination tracked.

    A singleton presolve comes first and does no arithmetic (structured
    elimination, after LaMacchia and Odlyzko, CRYPTO 1990): a column
    holding a key that no other remaining column holds is independent of
    them, and a column c e_k spans e_k, so k is cleared from every other
    column.  Either adds 1 to the rank and drops the column; an emptied
    column adds 0.  What is left goes to the sparse echelon."""
    cols = {t: {k for k, v in vec.items() if v} for t, vec in columns.items()}
    holders = {}
    for t, keys in cols.items():
        for k in keys:
            holders.setdefault(k, set()).add(t)
    found, queue = 0, list(cols)
    while queue:
        keys = cols.get(t := queue.pop())
        if keys is None:
            continue
        if len(keys) == 1:
            (k,) = keys
            for u in holders.pop(k):
                if u != t:
                    cols[u].discard(k)
                    queue.append(u)
        elif keys and all(len(holders[k]) > 1 for k in keys):
            continue
        else:
            for k in keys:
                (hs := holders[k]).discard(t)
                if len(hs) == 1:
                    queue.extend(hs)
        found += len(cols.pop(t)) > 0
    return found + _sparse_echelon({t: {k: columns[t][k] for k in keys}
                                    for t, keys in cols.items()}, False).rank()


def connected_blocks(links) -> list:
    """The indices of ``links`` grouped into the classes that joining each
    i to every index of ``links[i]`` connects; each class ascending,
    classes by first index.  A union-find whose roots are the least index
    of their class."""
    parent = list(range(len(links)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, js in enumerate(links):
        r = root(i)
        for j in js:
            if (j := root(j)) != r:
                parent[max(j, r)] = r = min(j, r)
    blocks = {}
    for i in range(len(links)):
        blocks.setdefault(root(i), []).append(i)
    return list(blocks.values())


# Kept in src/: perfbench's tracer names BlockEchelon.__init__ and crashes
# when the class is gone, until ROADMAP item 1 mends the tracer.
class BlockEchelon:
    """Echelon solver split into independent blocks by support connectivity.

    Columns sharing a key are forced into one block, so distinct blocks
    have disjoint key supports and solves decompose exactly.  The package
    no longer builds full systems (Koszul and lift systems pose only the
    blocks their target touches); this is the tests' full-system reference.
    """

    def __init__(self, columns):
        cols = [(tag, dict(vec)) for tag, vec in columns if vec]
        self.key_block = {}
        self.blocks = []
        owner = {}  # each key joins the first column holding it
        for block in connected_blocks([[owner.setdefault(k, i) for k in vec]
                                       for i, (_tag, vec) in enumerate(cols)]):
            es = EchelonSolver()
            for i in block:
                tag, vec = cols[i]
                es.add_column(tag, vec)
                for k in vec:
                    self.key_block[k] = len(self.blocks)
            self.blocks.append(es)

    def solve(self, target: dict):
        parts = {}
        for k, v in target.items():
            b = self.key_block.get(k)
            if b is None:
                return None
            parts.setdefault(b, {})[k] = v
        out = {}
        for b, sub in parts.items():
            sol = self.blocks[b].solve(sub)
            if sol is None:
                return None
            out.update(sol)
        return out
