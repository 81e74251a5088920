import functools
import itertools
import random
from types import SimpleNamespace

import pytest

from bfvkit.config import parse_scenario
from bfvkit.generators import Kind, bfv1_table
from bfvkit.gpoly import GPoly
from bfvkit.homotopy import _k_factors
from bfvkit.presets import PRESET_NAMES, load_preset
from oracles import pack


@pytest.fixture(scope="session")
def so3_classical():
    return parse_scenario(load_preset("so3-classical"))


@pytest.fixture(scope="session")
def dgla_identity():
    return parse_scenario(load_preset("dgla-identity"))


@pytest.fixture(scope="session")
def aff1_bialgebra():
    return parse_scenario(load_preset("aff1-bialgebra"))


@pytest.fixture(scope="session")
def quasi_chi():
    return parse_scenario(load_preset("quasi-chi"))


@pytest.fixture(scope="session")
def group_valued_so3():
    return parse_scenario(load_preset("group-valued-so3"))


@pytest.fixture(scope="session")
def abelian_translation():
    return parse_scenario(load_preset("abelian-translation"))


@pytest.fixture(scope="session")
def engine_requests():
    """Per preset: the scenario, its charge and the ansatz shapes that the
    lift and the extension (CLI defaults: bound 4, two steps) pose.

    ``enumerations`` holds (fdeg, ghost, antighost, max_base_degree) for
    every shape and bound given to a Koszul or lift system; the full
    ansatz of such a system is the ``brute_force_monomials`` of its shapes.
    """
    import bfvkit.engine as engine

    real_solve = engine._reached_solve
    out = {}
    for name in PRESET_NAMES:
        S = parse_scenario(load_preset(name))
        shapes = set()

        def reached_solve(op, target, posed, bounds):
            shapes.update(shape + (bound,) for shape in posed for bound in bounds)
            return real_solve(op, target, posed, bounds)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_reached_solve", reached_solve)
            Q = engine.build_charge_deg1(S)
            Pi = engine.cocycle_lift(S, Q, 4)
            engine.extend_charge(S, Q, Pi, 2, 4)
        out[name] = SimpleNamespace(S=S, Q=Q, enumerations=sorted(shapes))
    return out


def _grade(gens, exps):
    """(function degree, ghost, antighost) of a product of generators."""
    d = gh = ag = 0
    for g, e in zip(gens, exps):
        d, gh, ag = d + g.degree * e, gh + g.ghost * e, ag + g.antighost * e
    return d, gh, ag


@functools.lru_cache(maxsize=None)
def _odd_subsets_by_grade(table):
    odd = [g for g in table.entries if g.kind != Kind.BASE and g.parity]
    out = {}
    for exps in itertools.product((0, 1), repeat=len(odd)):
        odds = tuple(g.gid for g, e in zip(odd, exps) if e)
        out.setdefault(_grade(odd, exps), []).append(odds)
    return out


@functools.lru_cache(maxsize=None)
def brute_force_monomials(table, fdeg, ghost, antighost, max_base_degree):
    """Every monomial of the shape, by exhaustive search: a tuple of packed
    keys in the order of their tuple forms, cached per shape.

    Odd non-base generators occur at most once.  Every even non-base
    generator carries ghost or antighost number 1, and no generator a
    negative one, so its exponent is at most the shape's ghost or
    antighost number.  Odd subsets are grouped by grade and matched
    against every even exponent vector.
    """
    base = [g.gid for g in table.entries if g.kind == Kind.BASE]
    even = [g for g in table.entries if g.kind != Kind.BASE and not g.parity]
    assert all(g.ghost >= 0 and g.antighost >= 0 for g in table.entries)
    assert all(g.ghost == 1 or g.antighost == 1 for g in even)
    odd_by_grade = _odd_subsets_by_grade(table)
    base_vecs = [v for v in itertools.product(range(max_base_degree + 1),
                                              repeat=len(base))
                 if sum(v) <= max_base_degree]
    caps = [max(ghost if g.ghost else antighost, 0) for g in even]
    out = []
    for exps in itertools.product(*(range(cap + 1) for cap in caps)):
        d, gh, ag = _grade(even, exps)
        for odds in odd_by_grade.get((fdeg - d, ghost - gh, antighost - ag), ()):
            for vec in base_vecs:
                evens = [(gid, e) for gid, e in zip(base, vec) if e]
                evens += [(g.gid, e) for g, e in zip(even, exps) if e]
                out.append((tuple(sorted(evens)), tuple(sorted(odds))))
    return tuple(pack(table.codec, m) for m in sorted(out))


def k_monomials(table, total_ghost, max_base_degree):
    """The monomials of K that the H^0 probe lists, flat and in tuple
    order: each even base part times each odd part, base major."""
    bases, odds = _k_factors(table, total_ghost, max_base_degree)
    return [b + o for b in bases for o in odds]


@pytest.fixture
def small_table():
    # six generators covering every kind: x1, e1, c1, C1, b1, B1
    return bfv1_table(1, 1, 1)


def random_homogeneous(table, rng, fdeg, n_terms=3, max_base=2):
    """Random homogeneous GPoly of the requested function degree (may be 0)."""
    gens = list(table.entries)
    for _ in range(300):
        terms = {}
        for _ in range(n_terms):
            factors = []
            deg = 0
            for _ in range(8):
                g = rng.choice(gens)
                factors.append(g.gid)
                deg += g.degree
                if deg == fdeg and rng.random() < 0.5:
                    break
            if deg != fdeg:
                continue
            from bfvkit.gpoly import normalize

            cand = normalize(table, [(rng.randint(-3, 3), factors)])
            for m, c in cand.terms.items():
                if cand.mono_base_degree(m) > max_base:
                    continue
                v = terms.get(m, 0) + c
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        if terms:
            return GPoly(table, terms)
    return GPoly.zero(table)


@pytest.fixture
def rng():
    return random.Random(20240811)
