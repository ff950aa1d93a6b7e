"""Mixed moments of generators in graph products of Gaussian algebras,
computed three independent ways: admissible pair-partition counting, exact
Fock-space simulation, and random-sign finite matrix models.
"""

from .cltlab import (
    SweepRow,
    VarianceRow,
    VarianceSweepResult,
    convergence_sweep,
    t_estimate,
    variance_sweep,
)
from .fock import vacuum, vacuum_moment
from .graph import SimplicialGraph, build_graph, graph_from_json, load_graph
from .partitions import (
    PairPartition,
    count_gamma_admissible,
    crossing_polynomial,
    enumerate_pairings,
    gamma_crossing_pairs,
    limit_moment,
    parse_labeled_word,
)
from .spinmodel import (
    ConstantSigns,
    SeededSigns,
    SpinAlgebra,
    moment_s_word,
)
from .words import (
    are_equivalent,
    format_word,
    is_reduced,
    normalize,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "SimplicialGraph",
    "build_graph",
    "graph_from_json",
    "load_graph",
    "parse_word",
    "format_word",
    "is_reduced",
    "normalize",
    "are_equivalent",
    "PairPartition",
    "parse_labeled_word",
    "enumerate_pairings",
    "gamma_crossing_pairs",
    "crossing_polynomial",
    "count_gamma_admissible",
    "limit_moment",
    "vacuum",
    "vacuum_moment",
    "ConstantSigns",
    "SeededSigns",
    "SpinAlgebra",
    "moment_s_word",
    "t_estimate",
    "convergence_sweep",
    "variance_sweep",
    "SweepRow",
    "VarianceRow",
    "VarianceSweepResult",
]
