"""Exact sparse linear algebra over the rationals."""

import heapq
from fractions import Fraction
from math import gcd, lcm

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bfvkit import linalg
from bfvkit.linalg import EchelonSolver, connected_blocks, kernel


def _solver(cols):
    es = EchelonSolver()
    for tag, vec in cols:
        es.add_column(tag, vec)
    return es


def test_solve_consistent_system():
    cols = [("a", {1: Fraction(1), 2: Fraction(1)}),
            ("b", {2: Fraction(1)}),
            ("c", {1: Fraction(2), 2: Fraction(3)})]
    target = {1: Fraction(3), 2: Fraction(5)}
    sol = _solver(cols).solve(target)
    assert sol is not None
    # reconstruct
    acc = {}
    lookup = dict(cols)
    for tag, coef in sol.items():
        for k, v in lookup[tag].items():
            acc[k] = acc.get(k, 0) + coef * v
    acc = {k: v for k, v in acc.items() if v}
    assert acc == target


def test_solve_inconsistent_system():
    cols = [("a", {1: Fraction(1)})]
    assert _solver(cols).solve({2: Fraction(1)}) is None


def as_fractions(pairs):
    """Kernel pairs read as combinations with coefficient 1 on the dependent
    column."""
    return [{t: Fraction(c, scale) for t, c in combo.items()}
            for combo, scale in pairs]


def test_kernel_vectors_annihilate():
    cols = [(i, {0: Fraction(i + 1), 1: Fraction(2 * (i + 1))}) for i in range(4)]
    kers = _solver(cols).kernel
    assert len(kers) == 3
    lookup = dict(cols)
    for combo in as_fractions(kers):
        acc = {}
        for tag, coef in combo.items():
            for k, v in lookup[tag].items():
                acc[k] = acc.get(k, 0) + coef * v
        assert not any(acc.values())


def test_rank_and_residual():
    es = EchelonSolver()
    es.add_column("a", {1: Fraction(1)})
    es.add_column("b", {1: Fraction(1), 2: Fraction(1)})
    assert es.rank() == 2
    assert es.residual({1: Fraction(5), 2: Fraction(7)}) == {}
    assert es.residual({3: Fraction(1)}) == {3: Fraction(1)}


def test_solution_is_exact_rational():
    cols = [("a", {0: Fraction(1, 3)}), ("b", {0: Fraction(1, 7), 1: Fraction(1)})]
    sol = _solver(cols).solve({0: Fraction(1), 1: Fraction(0)})
    assert sol is not None
    assert all(isinstance(v, Fraction) for v in sol.values())
    acc0 = sol.get("a", 0) * Fraction(1, 3) + sol.get("b", 0) * Fraction(1, 7)
    acc1 = sol.get("b", 0)
    assert acc0 == 1 and acc1 == 0


# ---------------------------------------------------------------------------
# oracle tests: sympy rank over QQ and a Fraction-arithmetic reference solver


class FractionEchelonSolver:
    """Reference: elimination over Fractions with pivot rows normalized to 1.

    Same pivot choice (minimal key) and elimination order (increasing key)
    as ``EchelonSolver``, so every returned rational must be equal.
    """

    def __init__(self):
        self.pivots = {}
        self.kernel = []

    def _reduce(self, vec, combo):
        vec = {k: v for k, v in vec.items() if v}
        combo = dict(combo)
        heap = [k for k in vec if k in self.pivots]
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            k = heapq.heappop(heap)
            queued.discard(k)
            coef = vec.get(k)
            if not coef or k not in self.pivots:
                continue
            pvec, pcombo = self.pivots[k]
            for kk, vv in pvec.items():
                w = vec.get(kk, 0) - coef * vv
                if w:
                    vec[kk] = w
                    if kk in self.pivots and kk not in queued and kk != k:
                        heapq.heappush(heap, kk)
                        queued.add(kk)
                else:
                    vec.pop(kk, None)
            for kk, vv in pcombo.items():
                w = combo.get(kk, 0) - coef * vv
                if w:
                    combo[kk] = w
                else:
                    combo.pop(kk, None)
        return vec, combo

    def add_column(self, tag, vec):
        vec, combo = self._reduce(dict(vec), {tag: Fraction(1)})
        if not vec:
            self.kernel.append(combo)
            return False
        pivot = sorted(vec)[0]
        inv = Fraction(1) / vec[pivot]
        self.pivots[pivot] = ({k: c * inv for k, c in vec.items()},
                              {k: c * inv for k, c in combo.items()})
        return True

    def rank(self):
        return len(self.pivots)

    def residual(self, target):
        vec, _ = self._reduce(dict(target), {})
        return vec

    def solve(self, target):
        vec, combo = self._reduce(dict(target), {})
        if vec:
            return None
        return {t: -c for t, c in combo.items() if c}


ROWS = 6
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))
vectors = st.dictionaries(st.integers(0, ROWS - 1), entries, max_size=ROWS)


@st.composite
def systems(draw):
    """Sparse rational columns with zero entries, parallel and empty columns."""
    columns = []
    for tag in range(draw(st.integers(1, 8))):
        if columns and draw(st.booleans()):
            _t, base = columns[draw(st.integers(0, len(columns) - 1))]
            factor = draw(entries)
            columns.append((tag, {k: factor * v for k, v in base.items()}))
        else:
            columns.append((tag, draw(vectors)))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=len(columns),
                               max_size=len(columns)))
        target = combine(columns, dict(enumerate(coeffs)))
    else:
        target = draw(vectors)
    return columns, target


def combine(columns, coeffs):
    lookup = dict(columns)
    acc = {}
    for tag, coef in coeffs.items():
        for k, v in lookup[tag].items():
            acc[k] = acc.get(k, 0) + coef * v
    return {k: v for k, v in acc.items() if v}


def sympy_rank(vecs):
    if not vecs:
        return 0
    return sympy.Matrix([[sympy.Rational(v.get(k, 0).numerator,
                                         v.get(k, 0).denominator)
                          for v in vecs] for k in range(ROWS)]).rank()


@settings(max_examples=150, deadline=None)
@given(systems())
def test_echelon_matches_oracles(system):
    columns, target = system
    es, ref = EchelonSolver(), FractionEchelonSolver()
    for tag, vec in columns:
        assert es.add_column(tag, vec) == ref.add_column(tag, vec)
    vecs = [vec for _tag, vec in columns]
    rank = sympy_rank(vecs)
    assert es.rank() == rank
    assert len(es.kernel) == len(columns) - rank
    for combo, scale in es.kernel:
        assert all(type(c) is int for c in combo.values())
        assert type(scale) is int and scale > 0
        assert gcd(scale, *combo.values()) == 1
        assert combine(columns, combo) == {}
    assert as_fractions(es.kernel) == ref.kernel

    sol = es.solve(target)
    consistent = sympy_rank(vecs + [target]) == rank
    assert (sol is not None) == consistent
    if sol is not None:
        assert combine(columns, sol) == {k: v for k, v in target.items() if v}
    assert sol == ref.solve(target)
    assert es.residual(target) == ref.residual(target)

    # untracked columns keep no combination and no kernel pair, and span
    # the same pivots, so their residuals agree
    span = EchelonSolver()
    for _tag, vec in columns:
        span.add_column(None, vec)
    assert span.kernel == [] and span.pivots.keys() == es.pivots.keys()
    assert span.residual(target) == es.residual(target)


@settings(max_examples=150, deadline=None)
@given(systems(), st.permutations(range(ROWS)))
def test_relabelled_keys_keep_kernel_and_solve(system, order):
    # kernel and solve depend on the column order alone, so relabelling the
    # keys, which moves the min-key pivots, leaves them unchanged
    columns, target = system
    es, plain = EchelonSolver(), EchelonSolver()
    for tag, vec in columns:
        es.add_column(tag, {order[k]: v for k, v in vec.items()})
        plain.add_column(tag, vec)
    assert es.kernel == plain.kernel
    assert (es.solve({order[k]: v for k, v in target.items()})
            == plain.solve(target))


@settings(max_examples=150, deadline=None)
@given(systems(), st.permutations(range(ROWS)), st.integers(1, 10**6))
def test_kernel_pairs_and_scaled_residuals_match_fraction_oracle(system, order,
                                                                 denominator):
    # linalg.kernel relabels the keys itself: its pairs match the oracle's
    # min-key kernels under any relabelling of the keys given to it
    columns, target = system
    ref = FractionEchelonSolver()
    for tag, vec in columns:
        ref.add_column(tag, vec)
    pairs = kernel({tag: {order[k]: v for k, v in vec.items()}
                    for tag, vec in columns})
    assert as_fractions(pairs) == ref.kernel
    es = _solver(columns)
    want = {k: v / denominator for k, v in ref.residual(target).items()}
    assert es.residual(target, denominator) == want
    assert es.residual(target, denominator) == {
        k: v / denominator for k, v in es.residual(target).items()}


@settings(max_examples=150, deadline=None)
@given(systems(), st.booleans())
def test_rank_and_kernel_split_the_columns(system, integral):
    # rank-only and tracked elimination share the sparse-first relabelling;
    # integral columns take the integer fast path wherever no entry is 0
    columns, _target = system
    if integral:
        columns = [(tag, {k: int(v * lcm(*(w.denominator for w in vec.values())))
                          for k, v in vec.items()}) for tag, vec in columns]
    cols = dict(columns)
    assert linalg.rank(cols) == sympy_rank(list(cols.values()))
    assert linalg.rank(cols) + len(kernel(cols)) == len(cols)


def key_owners(supports):
    """connected_blocks links of key sets: for each set, the first set that
    holds each of its keys."""
    owner = {}
    return [[owner.setdefault(k, i) for k in keys] for i, keys in enumerate(supports)]


def search_blocks(supports):
    """The classes of connected_blocks by a search over the column/key
    graph that expands each key once."""
    holders = {}
    for i, keys in enumerate(supports):
        for k in keys:
            holders.setdefault(k, []).append(i)
    seen = [False] * len(supports)
    blocks = []
    for i, keys in enumerate(supports):
        if seen[i]:
            continue
        seen[i] = True
        block, stack = [i], [keys]
        while stack:
            for k in stack.pop():
                for j in holders.pop(k, ()):
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
                        stack.append(supports[j])
        blocks.append(sorted(block))
    return blocks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 15), max_size=4), max_size=16))
def test_connected_blocks_match_search(supports):
    assert connected_blocks(key_owners(supports)) == search_blocks(supports)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 15), max_size=3), max_size=16))
def test_connected_blocks_join_links_either_way(links):
    # a link to a later index joins as one to an earlier index does: both
    # ends of link (i, j) hold the key (i, j)
    links = [[j % len(links) for j in js] for js in links]
    supports = [[] for _ in links]
    for i, js in enumerate(links):
        for j in js:
            supports[i].append((i, j))
            supports[j].append((i, j))
    assert connected_blocks(links) == search_blocks(supports)


@st.composite
def singleton_systems(draw):
    """Columns rich in what the rank presolve peels: unit columns, chains
    in which each column holds a key no later one does, explicit zero
    entries and empty columns, among random columns on the same keys."""
    nonzero = entries.filter(bool)
    keys = st.integers(0, 9)
    columns = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("unit", "chain", "zero", "empty", "random")))
        if kind == "unit":
            vec = {draw(keys): draw(nonzero)}
        elif kind == "chain":
            start, length = draw(keys), draw(st.integers(1, 4))
            columns += [{start + i: draw(nonzero), start + i + 1: draw(nonzero)}
                        for i in range(length)]
            continue
        elif kind == "zero":
            vec = {draw(keys): Fraction(0)}
        elif kind == "empty":
            vec = {}
        else:
            vec = draw(st.dictionaries(keys, entries, max_size=4))
        if draw(st.booleans()):  # an explicit zero on another key
            vec.setdefault(draw(keys), Fraction(0))
        columns.append(vec)
    return dict(enumerate(draw(st.permutations(columns))))


def sympy_rank_on_keys(columns):
    """The rank over QQ of the columns {tag: vec} on all their keys."""
    keys = sorted({k for vec in columns.values() for k in vec})
    if not keys:
        return 0
    return sympy.Matrix([[sympy.Rational(vec.get(k, 0).numerator,
                                         vec.get(k, 0).denominator)
                          for vec in columns.values()] for k in keys]).rank()


@settings(max_examples=300, deadline=None)
@given(singleton_systems())
def test_rank_presolve_matches_sympy(columns):
    # the presolve peels unit columns and keys held once, clearing a unit
    # column's key from the others, and counts no column that is zero
    assert linalg.rank(columns) == sympy_rank_on_keys(columns)
