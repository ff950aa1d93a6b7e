"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 invalid input (bad graph, word,
partition or parameter), 3 exceeded budget.  All randomized commands take
explicit seeds and print byte-identical output for identical flags.

Each command imports the kernels it runs, so a process loads only its own
route; the parser's defaults come from ``defaults``, which imports nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import defaults
from .errors import BudgetExceeded, DomainError, GraphMomentsError
from .graph import SimplicialGraph, load_graph

# Listing commands hold every row, then the whole output, in memory.
MAX_LISTED_ROWS = 2 * 10**5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -5 and -0.5 as negative numbers, so a value
        # such as -1e-05, -.5E+3 or the list -2,4 was taken for an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on usage errors; this surface reserves 2 for bad input
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(chunk) for chunk in text.split(",") if chunk.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _signs_from_args(graph: SimplicialGraph, args):
    from . import spinmodel

    if args.signs == "constant":
        return spinmodel.ConstantSigns(graph)
    return spinmodel.SeededSigns(graph, args.p, args.seed)


def _emit(args, human: str, payload: dict) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _cmd_normalize(graph: SimplicialGraph, args) -> None:
    from . import words

    word = words.normalize(graph, words.parse_word(args.word))
    _emit(args, words.format_word(word), {"word": words.format_word(word)})


def _cmd_reduced(graph: SimplicialGraph, args) -> None:
    from . import words

    value = words.is_reduced(graph, words.parse_word(args.word))
    _emit(args, "true" if value else "false", {"value": value})


def _cmd_equivalent(graph: SimplicialGraph, args) -> None:
    from . import words

    if len(args.word) != 2:
        raise _UsageError("graphmoments equivalent: error: give --word exactly twice")
    w1, w2 = (words.parse_word(w) for w in args.word)
    value = words.are_equivalent(graph, w1, w2)
    _emit(args, "true" if value else "false", {"value": value})


def _require_listable(rows: int, what: str) -> None:
    if rows > MAX_LISTED_ROWS:
        raise BudgetExceeded(f"{rows} {what} to list, over the cap of {MAX_LISTED_ROWS}")


def _cmd_partitions(graph: SimplicialGraph, args) -> None:
    from . import partitions

    word = partitions.parse_labeled_word(args.word)
    count = partitions.count_pairings(graph, word, args.match, args.max_word_len)
    try:
        text = str(count)
    except ValueError:  # more digits than the interpreter converts
        raise BudgetExceeded(
            f"the pairing count has over {sys.get_int_max_str_digits()} digits"
        ) from None
    if args.what == "count":
        _emit(args, text, {"count": count})
        return
    _require_listable(count, "pairings")
    pairings = partitions.enumerate_pairings(graph, word, args.match, args.max_word_len)
    human = "\n".join(str(p) for p in pairings)
    _emit(args, human, {"pairings": [[list(pair) for pair in p.pairs] for p in pairings]})


def _cmd_moment(graph: SimplicialGraph, args) -> None:
    from . import partitions

    if args.match != defaults.MATCH_LABEL and args.method != "partitions":
        raise DomainError(
            f"--match {args.match} needs --method partitions; "
            f"the {args.method} route matches labels"
        )
    word = partitions.parse_labeled_word(args.word)
    if args.method == "partitions":
        value = partitions.count_gamma_admissible(
            graph, word, args.match, args.max_word_len
        )
        payload = {"value": value}
    elif args.method == "fock":
        from . import fock

        value = fock.vacuum_moment(graph, word, args.max_word_len)
        payload = {"value": value}
    else:
        from . import spinmodel

        partitions.validate_labeled_word(graph, word, args.max_word_len)
        signs = _signs_from_args(graph, args)
        value = spinmodel.moment_s_word(signs, word, args.N, args.max_iterations)
        payload = {
            "numerator": value.numerator,
            "denominator": value.denominator,
            "value": float(value),
        }
    _emit(args, str(value), {"method": args.method, **payload})


def _cmd_limit(graph: SimplicialGraph, args) -> None:
    from . import partitions

    word = partitions.parse_labeled_word(args.word)
    value = partitions.limit_moment(graph, word, args.theta, args.match, args.max_word_len)
    _emit(args, repr(value), {"value": value})


def _cmd_compare(graph: SimplicialGraph, args) -> None:
    from . import cltlab, partitions

    word = partitions.parse_labeled_word(args.word)
    rows = cltlab.convergence_sweep(
        graph,
        word,
        args.N_list,
        args.seeds,
        args.p,
        args.max_iterations,
        args.max_word_len,
    )
    sys.stdout.write(cltlab.convergence_csv(rows))


def _cmd_t_estimate(graph: SimplicialGraph, args) -> None:
    from . import cltlab, partitions, words

    word = words.parse_word(args.word)
    pairing = partitions.PairPartition.parse(args.pairing, len(word))
    signs = _signs_from_args(graph, args)
    value = cltlab.t_estimate(signs, graph, word, pairing, args.N, args.max_iterations)
    _emit(args, repr(value), {"value": value})


def _cmd_variance(graph: SimplicialGraph, args) -> None:
    from . import cltlab, partitions, words

    word = words.parse_word(args.word)
    pairing = partitions.PairPartition.parse(args.pairing, len(word))
    result = cltlab.variance_sweep(
        graph,
        word,
        pairing,
        args.M_list,
        args.samples,
        args.p,
        args.seed_base,
        args.max_iterations,
    )
    sys.stdout.write(cltlab.variance_csv(result))


def _cmd_sign_dump(graph: SimplicialGraph, args) -> None:
    from . import spinmodel

    if args.N < 0:
        raise DomainError(f"N must not be negative, got {args.N}")
    universe = 2 * args.N * len(graph.vertices)
    _require_listable(math.comb(universe, 2), "sign entries")
    signs = spinmodel.SeededSigns(graph, args.p, args.seed)
    doc = {
        "p": args.p,
        "seed": args.seed,
        "n_indices": 2 * args.N,
        "vertices": list(graph.vertices),
        "entries": spinmodel.sign_table(signs, 2 * args.N),
    }
    print(json.dumps(doc, sort_keys=True))


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option for every subcommand that lists it."""
    parent = _Parser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _subcommand(subparsers, name: str, help: str, func, *parents):
    p = subparsers.add_parser(name, parents=parents, help=help)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    graph = _option("--graph", required=True, help="path to a graph JSON file")
    output = _option("--output", choices=["human", "json"], default="human")
    word_len = _option("--max-word-len", type=int, default=defaults.DEFAULT_MAX_WORD_LEN)
    iterations = _option("--max-iterations", type=int, default=defaults.DEFAULT_BUDGET)
    word = _option("--word", required=True)
    modes = [defaults.MATCH_LABEL, defaults.MATCH_VERTEX]
    match = _option("--match", choices=modes, default=defaults.MATCH_LABEL)
    sign_p = _option("--p", type=float, default=defaults.DEFAULT_P)
    seed = _option("--seed", type=int, default=0)
    signs = _option("--signs", choices=["seeded", "constant"], default="seeded")
    pairing = _option("--pairing", required=True, help="e.g. '1-3,2-4'")

    parser = _Parser(
        prog="graphmoments",
        description="Mixed moments in graph products of Gaussian algebras, "
        "by pairing counts, exact Fock simulation, and random-sign matrix models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "normalize", "canonical form of a word", _cmd_normalize, graph, output, word)
    _subcommand(sub, "reduced", "is the word reduced?", _cmd_reduced, graph, output, word)
    p = _subcommand(sub, "equivalent", "are two words equivalent?", _cmd_equivalent, graph, output)
    p.add_argument("--word", action="append", required=True, help="give twice")

    p = _subcommand(sub, "partitions", "matching pairings of a labeled word",
                    _cmd_partitions, graph, output, word_len, word, match)
    p.add_argument("what", choices=["count", "list"])

    p = _subcommand(sub, "moment", "vacuum moment of a labeled word", _cmd_moment,
                    graph, output, word_len, iterations, word, match, seed, sign_p, signs)
    p.add_argument("--method", choices=["partitions", "fock", "matrix"], required=True)
    p.add_argument("--N", type=int, default=8, help="summands per spin (matrix method)")

    p = _subcommand(sub, "limit", "limit moment at a sign bias", _cmd_limit,
                    graph, output, word_len, word, match)
    p.add_argument("--theta", type=float, required=True)

    p = _subcommand(sub, "compare", "convergence sweep CSV over N and seeds", _cmd_compare,
                    graph, word_len, iterations, word, sign_p)
    p.add_argument("--N-list", dest="N_list", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, required=True)

    clt = sub.add_parser("clt", help="concentration experiments").add_subparsers(
        dest="clt_command", required=True
    )
    p = _subcommand(clt, "t-estimate", "finite-N weight of one pairing", _cmd_t_estimate,
                    graph, output, iterations, word, pairing, seed, sign_p, signs)
    p.add_argument("--N", type=int, required=True)

    p = _subcommand(clt, "variance", "variance decay CSV over M", _cmd_variance,
                    graph, iterations, word, pairing, sign_p)
    p.add_argument("--M-list", dest="M_list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed-base", dest="seed_base", type=int, default=0)

    p = _subcommand(sub, "sign-dump", "realized sign table for an index universe",
                    _cmd_sign_dump, graph, seed, sign_p)
    p.add_argument("--N", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(load_graph(args.graph), args)
        return 0
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"graphmoments: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (GraphMomentsError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"graphmoments: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
