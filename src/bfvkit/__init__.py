"""bfvkit: exact graded Poisson brackets, BRST/BFV charges and derived
k-ary bracket towers for polynomial reduction scenarios, over rationals.
"""

from .generators import GeneratorTable, Kind, bfv0_table, bfv1_table
from .gpoly import GPoly, bracket, normalize
from .grammar import parse, serialize

__all__ = [
    "GeneratorTable", "Kind", "bfv0_table", "bfv1_table",
    "GPoly", "bracket", "normalize", "parse", "serialize",
]

__version__ = "0.1.0"
