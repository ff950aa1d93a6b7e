"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 invalid input (bad graph, word,
partition or parameter), 3 exceeded budget.  All randomized commands take
explicit seeds and print byte-identical output for identical flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cltlab, fock, partitions, spinmodel, words
from .errors import BudgetExceeded, GraphMomentsError
from .graph import SimplicialGraph, load_graph
from .partitions import PairPartition

# Listing commands hold every row, then the whole output, in memory.
MAX_LISTED_ROWS = 2 * 10**5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this surface reserves 2 for bad input
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(chunk) for chunk in text.split(",") if chunk.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _signs_from_args(graph: SimplicialGraph, args) -> spinmodel.SignFunction:
    if args.signs == "constant":
        return spinmodel.ConstantSigns(graph)
    return spinmodel.SeededSigns(graph, args.p, args.seed)


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "output", "human") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _cmd_normalize(graph: SimplicialGraph, args) -> None:
    word = words.normalize(graph, words.parse_word(args.word))
    _emit(args, words.format_word(word), {"word": words.format_word(word)})


def _cmd_reduced(graph: SimplicialGraph, args) -> None:
    value = words.is_reduced(graph, words.parse_word(args.word))
    _emit(args, "true" if value else "false", {"value": value})


def _cmd_equivalent(graph: SimplicialGraph, args) -> None:
    if len(args.word) != 2:
        raise _UsageError("graphmoments equivalent: error: give --word exactly twice")
    w1, w2 = (words.parse_word(w) for w in args.word)
    value = words.are_equivalent(graph, w1, w2)
    _emit(args, "true" if value else "false", {"value": value})


def _require_listable(rows: int, what: str) -> None:
    if rows > MAX_LISTED_ROWS:
        raise BudgetExceeded(f"{rows} {what} to list, over the cap of {MAX_LISTED_ROWS}")


def _cmd_partitions(graph: SimplicialGraph, args) -> None:
    word = partitions.parse_labeled_word(args.word)
    count = sum(
        partitions.crossing_polynomial(graph, word, args.match, args.max_word_len)
    )
    if args.what == "count":
        _emit(args, str(count), {"count": count})
        return
    _require_listable(count, "pairings")
    pairings = partitions.enumerate_pairings(graph, word, args.match, args.max_word_len)
    human = "\n".join(str(p) for p in pairings)
    _emit(args, human, {"pairings": [[list(pair) for pair in p.pairs] for p in pairings]})


def _cmd_moment(graph: SimplicialGraph, args) -> None:
    word = partitions.parse_labeled_word(args.word)
    if args.method == "partitions":
        value = partitions.count_gamma_admissible(
            graph, word, args.match, args.max_word_len
        )
        payload = {"value": value}
    elif args.method == "fock":
        value = fock.vacuum_moment(graph, word, args.max_word_len)
        payload = {"value": value}
    else:
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
    word = partitions.parse_labeled_word(args.word)
    value = partitions.limit_moment(graph, word, args.theta, args.match, args.max_word_len)
    _emit(args, repr(value), {"value": value})


def _cmd_compare(graph: SimplicialGraph, args) -> None:
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
    word = words.parse_word(args.word)
    pairing = PairPartition.parse(args.pairing, len(word))
    signs = _signs_from_args(graph, args)
    value = cltlab.t_estimate(signs, graph, word, pairing, args.N, args.max_iterations)
    _emit(args, repr(value), {"value": value})


def _cmd_variance(graph: SimplicialGraph, args) -> None:
    word = words.parse_word(args.word)
    pairing = PairPartition.parse(args.pairing, len(word))
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
    universe = 2 * args.N * len(graph.vertices)
    _require_listable(math.comb(max(universe, 0), 2), "sign entries")
    signs = spinmodel.SeededSigns(graph, args.p, args.seed)
    doc = {
        "p": args.p,
        "seed": args.seed,
        "n_indices": 2 * args.N,
        "vertices": list(graph.vertices),
        "entries": spinmodel.sign_table(signs, 2 * args.N),
    }
    print(json.dumps(doc, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--graph", required=True, help="path to a graph JSON file")
    common.add_argument("--output", choices=["human", "json"], default="human")

    word_len = _Parser(add_help=False)
    word_len.add_argument(
        "--max-word-len", type=int, default=partitions.DEFAULT_MAX_WORD_LEN
    )
    iterations = _Parser(add_help=False)
    iterations.add_argument(
        "--max-iterations", type=int, default=spinmodel.DEFAULT_BUDGET
    )

    parser = _Parser(
        prog="graphmoments",
        description="Mixed moments in graph products of Gaussian algebras, "
        "by pairing counts, exact Fock simulation, and random-sign matrix models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="canonical form of a word")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("reduced", parents=[common], help="is the word reduced?")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_reduced)

    p = sub.add_parser("equivalent", parents=[common], help="are two words equivalent?")
    p.add_argument("--word", action="append", required=True, help="give twice")
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser(
        "partitions", parents=[common, word_len], help="matching pairings of a labeled word"
    )
    p.add_argument("what", choices=["count", "list"])
    p.add_argument("--word", required=True)
    p.add_argument("--match", choices=["label", "vertex"], default="label")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser(
        "moment",
        parents=[common, word_len, iterations],
        help="vacuum moment of a labeled word",
    )
    p.add_argument("--method", choices=["partitions", "fock", "matrix"], required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--match", choices=["label", "vertex"], default="label")
    p.add_argument("--N", type=int, default=8, help="summands per spin (matrix method)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--signs", choices=["seeded", "constant"], default="seeded")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("limit", parents=[common, word_len], help="limit moment at a sign bias")
    p.add_argument("--word", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--match", choices=["label", "vertex"], default="label")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser(
        "compare",
        parents=[common, word_len, iterations],
        help="convergence sweep CSV over N and seeds",
    )
    p.add_argument("--word", required=True)
    p.add_argument("--N-list", dest="N_list", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(func=_cmd_compare)

    clt = sub.add_parser("clt", help="concentration experiments").add_subparsers(
        dest="clt_command", required=True
    )

    p = clt.add_parser(
        "t-estimate", parents=[common, iterations], help="finite-N weight of one pairing"
    )
    p.add_argument("--word", required=True, help="plain vertex word, e.g. 'a a a a'")
    p.add_argument("--pairing", required=True, help="e.g. '1-3,2-4'")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--signs", choices=["seeded", "constant"], default="seeded")
    p.set_defaults(func=_cmd_t_estimate)

    p = clt.add_parser(
        "variance", parents=[common, iterations], help="variance decay CSV over M"
    )
    p.add_argument("--word", required=True)
    p.add_argument("--pairing", required=True)
    p.add_argument("--M-list", dest="M_list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser(
        "sign-dump", parents=[common], help="realized sign table for an index universe"
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(func=_cmd_sign_dump)

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
