"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input (bad graphs, words,
partitions, parameters) exits with 2, exceeded budgets with 3.
"""


class GraphMomentsError(Exception):
    """Base class for every error this package raises deliberately."""


class UnknownVertex(GraphMomentsError, ValueError):
    """A vertex token does not belong to the graph."""


class LoopEdge(GraphMomentsError, ValueError):
    """An edge {v, v} was supplied; simplicial graphs have no loops."""


class DuplicateVertex(GraphMomentsError, ValueError):
    """The same vertex token was declared twice."""


class InvalidToken(GraphMomentsError, ValueError):
    """A vertex token, word or spin literal could not be parsed."""


class MalformedPartition(GraphMomentsError, ValueError):
    """The pairs do not form a perfect matching of the word's positions."""


class DomainError(GraphMomentsError, ValueError):
    """A numeric parameter lies outside its admissible range."""


class OddN(GraphMomentsError, ValueError):
    """Averaged sums need an even summand count (N=1 only for spin 1)."""


class BudgetExceeded(GraphMomentsError, RuntimeError):
    """A configured computation budget would be exceeded."""


class SizeLimit(BudgetExceeded):
    """Input size exceeds the configured cap for exact computation."""
