import random
from types import SimpleNamespace

import pytest

from bfvkit.config import parse_scenario
from bfvkit.generators import bfv1_table
from bfvkit.gpoly import GPoly
from bfvkit.presets import PRESET_NAMES, load_preset


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
    ansatz of such a system is the enumeration of its shapes.
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
