"""Defaults and mode names shared by the kernels and the CLI parser.

This module imports nothing, so the parser reads its defaults without
loading the kernels that use them.
"""

# Longest word the pairing, Fock and matrix routes accept.
DEFAULT_MAX_WORD_LEN = 16

# --match modes: pair equal labels (vertex and spin), or equal vertices only.
MATCH_LABEL = "label"
MATCH_VERTEX = "vertex"

# Cap on the N^n terms of a matrix moment and the index tuples of clt.
DEFAULT_BUDGET = 10**8

# Probability of a +1 sign: unbiased signs, theta = 2p - 1 = 0, the regime
# of the central limit theorem.
DEFAULT_P = 0.5
