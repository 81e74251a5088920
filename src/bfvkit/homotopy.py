"""Derived k-ary brackets on the Lagrangian algebra and H^0 probes.

The Lagrangian algebra K = C(M) (x) Lambda g* (x) Lambda h is the span of
monomials in base coordinates, g-ghosts and h-antighosts.  It is abelian
for the big bracket, and the extended charge S = Q + Pi + Pi^(-1) + ...
induces on it the derived brackets

    l_1(f)            = {Q, f}
    l_2(f1, f2)       = -(-1)^{f1} {{Pi, f1}, f2}
    l_k(f1, ..., fk)  = (-1)^{eps} {...{{Pi^(2-k), f1}, f2}, ..., fk}
                        with eps = sum_i (k - i) f_i,  k >= 3.

Sign normalization: the 2-bracket carries one global sign relative to the
raw nested bracket so that, for a bivector pi written in the standard
coordinate form sum pi^{ij} e_i e_j (i < j), l_2 on base functions equals
the bivector's classical bracket: l_2(x1, x2) = +1 for pi = e1 e2.  With
the right-derivative bracket convention of :mod:`bfvkit.gpoly` the raw
nested bracket yields the opposite sign; the normalization restores the
classical limit and leaves every coherence identity unchanged (the 2-ary
bracket enters the homotopy Jacobi identity quadratically).

l_1 has one code path: the inner derivation of Q, compiled once per
charge (:func:`~bfvkit.gpoly.inner_derivation`) and applied by the packed
kernel of :mod:`bfvkit.gpoly` that also builds the ansatz columns of
:mod:`bfvkit.engine`.  Every l_k value is checked to lie in K; one that
leaves it raises InternalSignError.

The H^0 probe lists its spaces of K as products b o of an even base
monomial and a set of odd ghosts (:func:`_k_factors`) and runs on the
kernel's integers: each column is D * l_1(b o) = X_b o + Y_o b by Leibniz,
l_1 applied once per factor (:meth:`~bfvkit.gpoly.Derivation.columns`),
and K membership is one AND against the codec's mask of the fields outside
K.  Scaling every column by the same D leaves each kernel, span and
residual unchanged.  One pass labels the keys, a monomial of the bounded
ghost 0 space by its index in that space's sorted list and any other key
by -1, -2, ..., so the in-span test is a sign test; it also joins each
column to its block and counts the holders of each negative label.  A
column holding a negative label that no other column holds is private,
and no elimination sees it: a private ghost -1 column has coefficient 0 in
every image combination inside the bound, and a private ghost 0 column is
independent of its block.  l_1 is a derivation of K, so l_1^2 is one too:
the probe checks that it vanishes on each generator of K, and so on K,
and raises InternalSignError naming a generator where it does not.  The
probe is one loop over the blocks, which have disjoint keys.  The min-key
solver ``img`` takes each block's ghost -1 columns untracked and
eliminates negative keys first: its rows v_p with a pivot p >= 0 span the
block's bounded image I, and the image rank r_B is their count.  v_p has
p as its least key, so each e_p lies in I + span(e_i : i not a pivot),
and l_1 kills I: l_1 has the rank of the columns off the pivots.  So the
kernel dimension k_B is r_B + |R| - rank(R), R the block's ghost 0 columns
neither private nor a pivot (l_1 v_p = 0 puts column p in the span of
others, so no pivot is private), a :func:`~bfvkit.linalg.rank`, which
peels singletons first.  Only where k_B > r_B does a
:func:`~bfvkit.linalg.kernel` give kernel vectors, which ``img`` reduces,
holding the independent residuals as representatives.
Index order is monomial order, so its pivots, and so the printed
representatives, are the monomial order's.
"""

from __future__ import annotations

import warnings
from itertools import chain, combinations, combinations_with_replacement, groupby

from .engine import _reached_solve
from .errors import InternalSignError, NotInLagrangian, TruncationWarning
from .generators import Kind
from .gpoly import GPoly, bracket, inner_derivation
from .linalg import EchelonSolver, kernel, rank


def restrict_check(F: GPoly) -> GPoly:
    """Verify F lies in the Lagrangian alphabet; identity on values."""
    codec = F.table.codec
    for m in F.num:
        if m & codec.outside:
            evens, odds = codec.unpack(m & codec.outside)
            raise NotInLagrangian(F.table.gen(evens[0][0] if evens else odds[0]).name)
    return F


def _checked(val: GPoly) -> GPoly:
    """An l_k value, which must lie in the Lagrangian algebra."""
    try:
        return restrict_check(val)
    except NotInLagrangian as exc:
        raise InternalSignError(
            f"derived bracket left the Lagrangian algebra at {exc.token}"
        ) from exc


class BracketTower:
    """Evaluator for the derived brackets of a charge series."""

    def __init__(self, series):
        self.series = series
        self.table = series.Q.table
        self.ad_q = inner_derivation(series.Q)

    def l1_image(self, f: GPoly) -> GPoly:
        """l_1 of a Lagrangian polynomial: ad_Q applied by the monomial
        kernel, the value checked like every l_k value."""
        return _checked(self.ad_q(f))

    def _homogeneous_args(self, args):
        """Split inhomogeneous arguments into homogeneous components."""
        split = []
        for a in args:
            restrict_check(a)
            if a.is_homogeneous():
                split.append([a])
            else:
                by_deg = {}
                for m, c in a.num.items():
                    by_deg.setdefault(a.mono_degree(m), {})[m] = c
                split.append([GPoly._make(self.table, t, a.den)
                              for _, t in sorted(by_deg.items())])
        return split

    def ell(self, k: int, args) -> GPoly:
        """The k-ary derived bracket; multilinear over homogeneous parts."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(args) != k:
            raise ValueError(f"expected {k} arguments")
        if k == 2:
            return self.ell2_table(args[:1], args[1:])[0][0]
        split = self._homogeneous_args(args)
        if k >= 3 and k - 2 >= len(self.series.terms):
            warnings.warn(
                f"{k}-ary bracket vanishes by truncation of the charge series",
                TruncationWarning, stacklevel=2)
            return GPoly.zero(self.table)
        stack = [[]]
        for parts in split:
            stack = [chosen + [p] for chosen in stack for p in parts]
        return restrict_check(sum((self._ell_homogeneous(k, chosen) for chosen in stack),
                                  GPoly.zero(self.table)))

    def _ell_homogeneous(self, k, args):
        if k == 1:
            return self.l1_image(args[0])
        val = self.series.term(k - 2)
        for a in args:
            val = bracket(val, a)
        eps = sum((k - i) * a.parity() for i, a in enumerate(args, start=1))
        if eps % 2:
            val = -val
        return _checked(val)

    def ell2_table(self, fs, gs) -> list:
        """Rows [l_2(f, g) for g in gs] for f in fs, each argument split and
        checked once and {Pi, f} formed once per homogeneous part of f."""
        Pi = self.series.term(0)
        fparts, gparts = self._homogeneous_args(fs), self._homogeneous_args(gs)
        # -(-1)^{f} {Pi, f}: the minus is the classical-limit normalization
        heads = [[bracket(Pi, p) if p.parity() else -bracket(Pi, p) for p in parts]
                 for parts in fparts]
        return [[sum((_checked(bracket(h, q)) for h in hs for q in qs),
                     GPoly.zero(self.table)) for qs in gparts] for hs in heads]


def jacobi_residuals(tower: BracketTower, fs) -> dict:
    """{(i, j, k): the homotopy Jacobi residual of fs[i], fs[j], fs[k]}
    for i < j < k, where for (f, g, h)

    residual = sum_cyc (-1)^{|a||c|} l_2(a, l_2(b, c))
             - (-1)^{|f||h|} (l_3 o l_1^{x3} + l_1 o l_3)(f, g, h)

    which vanishes identically whenever the charge series is exact on the
    relevant ghost levels.  Each argument is checked once, and the shared
    factors are formed once: the head -(-1)^{a} {Pi, a} and l_1(a) per
    argument, l_2 per pair the triples read, {Pi^(-1), a} and
    {{Pi^(-1), a}, b} per argument and pair that a triple opens with.
    """
    for a in fs:
        restrict_check(a)
        if not a.is_homogeneous():
            raise ValueError("arguments must be degree-homogeneous")
    triples = list(combinations(range(len(fs)), 3))
    ps = [a.parity() for a in fs]
    Pi = tower.series.term(0)
    # -(-1)^{a} {Pi, a}: the minus is the classical-limit normalization
    heads = {a: bracket(Pi, fs[a]) if ps[a] else -bracket(Pi, fs[a])
             for a in {a for t in triples for a in t}}
    l2 = {(b, c): _checked(bracket(heads[b], fs[c])) for b, c in
          {bc for i, j, k in triples for bc in ((j, k), (k, i), (i, j))}}
    out = {}
    for i, j, k in triples:
        lhs = GPoly.zero(tower.table)
        for a, bc, c in ((i, (j, k), k), (j, (k, i), i), (k, (i, j), j)):
            term = _checked(bracket(heads[a], l2[bc]))
            lhs = lhs + ((-term) if ps[a] * ps[c] % 2 else term)
        out[i, j, k] = lhs
    if len(tower.series.terms) < 2:  # l_3 vanishes by truncation
        return out
    # l_3(a, b, c) = (-1)^{b} {{{Pi^(-1), a}, b}, c}
    P3 = tower.series.term(1)
    l1 = [tower.l1_image(a) for a in fs]
    q = {i: (bracket(P3, fs[i]), bracket(P3, l1[i])) for i in {t[0] for t in triples}}
    qq = {(i, j): (bracket(q[i][0], fs[j]), bracket(q[i][1], fs[j]),
                   bracket(q[i][0], l1[j])) for i, j in {t[:2] for t in triples}}

    def ell3(prefix, sign, c):  # l_3 from its nested prefix {{Pi^(-1), a}, b}
        val = _checked(bracket(prefix, c))
        return -val if sign % 2 else val

    for i, j, k in triples:
        pf, pg = ps[i], ps[j]
        fg, lf_g, f_lg = qq[i, j]
        rhs = tower.l1_image(ell3(fg, pg, fs[k]))
        rhs = rhs + ell3(lf_g, pg, fs[k])
        # the sign of l_3 times that of l_1 passing f, then f and g
        rhs = rhs + ell3(f_lg, l1[j].parity() + pf, fs[k])
        rhs = rhs + ell3(fg, pf, l1[k])
        out[i, j, k] = out[i, j, k] - ((-rhs) if pf * ps[k] % 2 else rhs)
    return out


# ---------------------------------------------------------------------------
# bounded cohomology probe


def _k_factors(table, total_ghost: int, max_base_degree: int):
    """(bases, odds), each sorted: the keys of the base monomials of degree
    at most ``max_base_degree`` and of the sets of c's and B's of total
    ghost number ``total_ghost``.  Every generator of K but the base
    coordinates is odd (c_i of degree 1, B_p of degree -1), so the
    monomials of K are the products b + o, of total ghost number #c - #B."""
    unit = table.codec.unit
    cs, Bs = table.ids_of_kind(Kind.GHOST_G), table.ids_of_kind(Kind.ANTIGHOST_H)
    # tuple order compares base parts first: the products of the sorted base
    # parts and the sorted odd parts c + B (ids in order) are sorted
    odds = sorted(c + B for k in range(max(total_ghost, 0), len(cs) + 1)
                  for c in combinations(cs, k)
                  for B in combinations(Bs, k - total_ghost))
    bases = sorted((tuple((g, len(list(run))) for g, run in groupby(base)), base)
                   for d in range(max_base_degree + 1)
                   for base in combinations_with_replacement(
                       table.ids_of_kind(Kind.BASE), d))
    return ([sum(unit[g] for g in base) for _evens, base in bases],
            [sum(unit[g] for g in odd) for odd in odds])


class ProbeReport:
    """Outcome of a bounded-degree H^0 probe."""

    def __init__(self, degree_bound):
        self.degree_bound = degree_bound
        self.dim_space = 0
        self.dim_kernel = 0
        self.dim_image = 0
        self.representatives = []       # GPolys
        self.projections = []           # (0,0)-components of representatives
        self.table = {}                 # (i, j) -> dict of rep coefficients
        self.inconclusive = []          # (i, j) pairs beyond the bound

    @property
    def closure_ok(self):
        return not self.inconclusive

    @property
    def dim_h0(self):
        return len(self.representatives)


def h0_probe(scenario, tower: BracketTower, degree_bound: int) -> ProbeReport:
    """Kernel-mod-image probe of the total-ghost-zero cohomology.

    Builds the Lagrangian monomial space of total ghost number 0 with base
    degree <= degree_bound, computes ker(l_1) and the part of im(l_1) that
    lies inside the bounded span (combinations of images of ghost -1
    elements whose out-of-bound components cancel), and returns
    representatives with the l_2 multiplication table expressed modulo the
    image.  Entries that cannot be expressed at the bound are reported as
    inconclusive rather than failed.

    Private columns still join the union-find: without them a block could
    split, and the blocks, taken by least column, fix the printed order of
    the representatives.  At so3-classical degree 4 the 9 come from blocks
    with least columns 0, 2, 8, 49, 820, 1140, 1260, 3720 and 3780, and
    their dependent ghost 0 columns, 0, 3400, 3160, 3480, 3200, 3220, 3500,
    4140 and 4180, are not ascending.
    """
    table = tower.table
    rep = ProbeReport(degree_bound)
    spaces = [_k_factors(table, 0, degree_bound), _k_factors(table, -1, degree_bound)]
    dom0 = [b + o for b in spaces[0][0] for o in spaces[0][1]]
    rep.dim_space = n0 = len(dom0)

    # columns: the ghost 0 monomials (indices below n0), then the ghost -1
    # monomials.  Each joins the block of the owner of each label it holds,
    # the first column holding it or a dom0 label's own column.  The blocks
    # fix the order of the kernel vectors, and so which representatives print.
    outside = table.codec.outside
    label = {m: i for i, m in enumerate(dom0)}
    first, held = [], []  # per negative label ~i: its owner, its holders
    cols, parent = [], []  # a union-find, each root its block's least column
    for j, image in enumerate(chain(*(tower.ad_q.columns(*f) for f in spaces))):
        col, r = {}, j
        parent.append(j)
        for k, v in image.items():
            i = label.get(k)
            if i is None:
                if k & outside:
                    _checked(GPoly._make(table, {k: 1}))
                i = label[k] = ~len(first)
                first.append(j)
                held.append(1)
            else:
                if i < 0:
                    s = first[~i]
                    held[~i] += 1
                else:
                    s = i
                while parent[s] != s:
                    parent[s] = s = parent[parent[s]]
                if s != r:
                    parent[max(s, r)] = r = min(s, r)
            col[i] = v
        cols.append(col)
    blocks = {}
    for j in range(len(cols)):
        # parent[j] <= j, and each earlier column already points at its root
        s = parent[j] = parent[parent[j]]
        blocks.setdefault(s, []).append(j)

    # l_1 is a derivation of K, and so is l_1^2: it vanishes on K if it
    # does on the generators, which k_B below takes for granted
    ad_q = tower.ad_q
    for z in sorted(table.lagrangian_ids):
        if ad_q.apply(ad_q.apply({table.codec.unit[z]: 1})):
            raise InternalSignError(f"l_1^2 != 0 on {table.gen(z).name}")

    # a negative label is held by columns of one ghost only, so img and k_B
    # leave out the private columns (see the module docstring), and k_B
    # ranks only the columns whose labels are not img's pivots
    private = {first[i] for i, n in enumerate(held) if n == 1}
    img = EchelonSolver()
    for block in blocks.values():
        g0 = {i: cols[i] for i in block if i < n0}
        for i in block[len(g0):]:  # ascending: the ghost -1 columns
            if i not in private:
                img.add_column(None, cols[i])
        pivots = img.pivots
        rest = {i: col for i, col in g0.items()
                if i not in private and i not in pivots}
        r_b = sum(i in pivots for i in g0)
        k_b = r_b + len(rest) - rank(rest)
        rep.dim_kernel += k_b
        rep.dim_image += r_b
        if r_b == k_b:
            continue
        # a block that holds a class: every kernel vector is reduced modulo
        # the image first, then a residual joins img if independent of the
        # earlier ones.  It vanishes on img's pivots, as only the zero image
        # vector does, so this is independence modulo the image.  A
        # dependent one leaves its tag in the unread img.kernel only.
        for resid in [img.residual(combo, scale) for combo, scale in kernel(g0)]:
            if resid and img.add_column(rep.dim_h0, resid):
                poly = GPoly(table, {dom0[k]: c for k, c in resid.items()})
                rep.representatives.append(poly)
                rep.projections.append(GPoly._make(
                    table, {m: c for m, c in poly.num.items()
                            if poly.mono_ghost(m) == (0, 0)}, poly.den))

    # l_2 table on representatives, expressed modulo the image: img holds
    # the representatives, independent modulo the image, so their
    # coefficients are unique, and its only tags are their indices.  A
    # value with a key outside dom0 is not in their span.
    reps = rep.representatives
    for i, row in enumerate(tower.ell2_table(reps, reps)):
        for j, val in enumerate(row):
            keys = [label.get(m, -1) for m in val.num]
            sol = img.solve(dict(zip(keys, val.num.values())), val.den) \
                if min(keys, default=0) >= 0 else None
            if sol is None:
                rep.inconclusive.append((i, j))
            else:
                rep.table[(i, j)] = sol
    return rep


def class_equals(scenario, tower: BracketTower, degree_bound: int,
                 value: GPoly, expected: GPoly) -> bool:
    """Whether value and expected define the same class modulo im(l_1).

    The difference is posed as l_1 of a ghost -1 element of K of base
    degree up to the bound or the difference's own: one reached solve over
    the shapes (-1, g, g + 1), which lie in K.  Every posed column is an
    l_1 value and is checked to lie in K.
    """
    diff = value - expected
    if not diff:
        return True
    bound = max(degree_bound, diff.max_base_degree())
    dim_g = len(tower.table.ids_of_kind(Kind.GHOST_G))
    sol, cols, _rank = _reached_solve(
        tower.ad_q, diff, [(-1, g, g + 1) for g in range(dim_g + 1)], [bound])
    for image in cols.values():
        _checked(GPoly(tower.table, image))
    return sol is not None
