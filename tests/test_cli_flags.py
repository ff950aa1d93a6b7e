"""The command-line flag table, pinned: every subcommand's options and
positionals with their action, required-ness, type, default and choices.

A flag dropped, renamed or given another type or default fails here,
whatever way ``build_parser`` declares it.
"""

import argparse

from graphmoments.cli import _int_list, build_parser

REQUIRED = (True, None, None, None)
GRAPH = {"--graph": ("store", *REQUIRED)}
OUTPUT = {"--output": ("store", False, None, "human", ["human", "json"])}
MAX_WORD_LEN = {"--max-word-len": ("store", False, int, 16, None)}
MAX_ITERATIONS = {"--max-iterations": ("store", False, int, 10**8, None)}
WORD = {"--word": ("store", *REQUIRED)}
MATCH = {"--match": ("store", False, None, "label", ["label", "vertex"])}
SEED = {"--seed": ("store", False, int, 0, None)}
P = {"--p": ("store", False, float, 0.5, None)}
SIGNS = {"--signs": ("store", False, None, "seeded", ["seeded", "constant"])}
PAIRING = {"--pairing": ("store", *REQUIRED)}
N_REQUIRED = {"--N": ("store", True, int, None, None)}

# command -> (options, positionals)
TABLE = {
    "normalize": ({**GRAPH, **OUTPUT, **WORD}, {}),
    "reduced": ({**GRAPH, **OUTPUT, **WORD}, {}),
    "equivalent": ({**GRAPH, **OUTPUT, "--word": ("append", *REQUIRED)}, {}),
    "partitions": (
        {**GRAPH, **OUTPUT, **MAX_WORD_LEN, **WORD, **MATCH},
        {"what": ("store", True, None, None, ["count", "list"])},
    ),
    "moment": (
        {
            **GRAPH, **OUTPUT, **MAX_WORD_LEN, **MAX_ITERATIONS, **WORD, **MATCH,
            **SEED, **P, **SIGNS,
            "--method": ("store", True, None, None, ["partitions", "fock", "matrix"]),
            "--N": ("store", False, int, 8, None),
        },
        {},
    ),
    "limit": (
        {
            **GRAPH, **OUTPUT, **MAX_WORD_LEN, **WORD, **MATCH,
            "--theta": ("store", True, float, None, None),
        },
        {},
    ),
    "compare": (
        {
            **GRAPH, **MAX_WORD_LEN, **MAX_ITERATIONS, **WORD, **P,
            "--N-list": ("store", True, _int_list, None, None),
            "--seeds": ("store", True, _int_list, None, None),
        },
        {},
    ),
    "clt t-estimate": (
        {
            **GRAPH, **OUTPUT, **MAX_ITERATIONS, **WORD, **PAIRING, **N_REQUIRED, **SEED, **P,
            **SIGNS,
        },
        {},
    ),
    "clt variance": (
        {
            **GRAPH, **MAX_ITERATIONS, **WORD, **PAIRING, **P,
            "--M-list": ("store", True, _int_list, None, None),
            "--samples": ("store", False, int, 32, None),
            "--seed-base": ("store", False, int, 0, None),
        },
        {},
    ),
    "sign-dump": ({**GRAPH, **N_REQUIRED, **SEED, **P}, {}),
}


def _leaf_commands(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
                    yield from _leaf_commands(sub, path + (name,))
                else:
                    yield " ".join(path + (name,)), sub


def _row(action):
    kind = type(action).__name__.strip("_").removesuffix("Action").lower()
    choices = None if action.choices is None else list(action.choices)
    return (kind, action.required, action.type, action.default, choices)


def test_flag_table_is_pinned():
    found = {}
    for name, sub in _leaf_commands(build_parser()):
        options, positionals = {}, {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                (flag,) = action.option_strings
                options[flag] = _row(action)
            else:
                positionals[action.dest] = _row(action)
        found[name] = (options, positionals)
    assert found == TABLE
