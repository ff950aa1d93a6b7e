"""Mixed moments of generators in graph products of Gaussian algebras,
computed three independent ways: admissible pair-partition counting, exact
Fock-space simulation, and random-sign finite matrix models.

Importing the package loads no submodule: each exported name is looked up
in its home module on access, so a process pays only for the modules it
uses, and ``python -m graphmoments.cli`` only for its subcommand's route.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, and the submodule that defines it.
_HOMES = {
    "SimplicialGraph": "graph",
    "build_graph": "graph",
    "graph_from_json": "graph",
    "load_graph": "graph",
    "parse_word": "words",
    "format_word": "words",
    "is_reduced": "words",
    "normalize": "words",
    "are_equivalent": "words",
    "PairPartition": "partitions",
    "parse_labeled_word": "partitions",
    "enumerate_pairings": "partitions",
    "gamma_crossing_pairs": "partitions",
    "crossing_polynomial": "partitions",
    "count_gamma_admissible": "partitions",
    "limit_moment": "partitions",
    "vacuum": "fock",
    "vacuum_moment": "fock",
    "ConstantSigns": "spinmodel",
    "SeededSigns": "spinmodel",
    "SpinAlgebra": "spinmodel",
    "moment_s_word": "spinmodel",
    "t_estimate": "cltlab",
    "convergence_sweep": "cltlab",
    "variance_sweep": "cltlab",
    "SweepRow": "cltlab",
    "VarianceRow": "cltlab",
    "VarianceSweepResult": "cltlab",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)
