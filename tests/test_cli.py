import itertools
import json
import math
import time
import warnings

import pytest

from graphmoments import cli, cltlab
from graphmoments.cli import main
from tests.test_cli_flags import _leaf_commands


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    docs = {
        "edge2": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "noedge2": {"vertices": ["a", "b"], "edges": []},
        "single": {"vertices": ["a"], "edges": []},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


T_ESTIMATE = ["clt", "t-estimate", "--word", "a a a a", "--pairing", "1-3,2-4"]
VARIANCE = ["clt", "variance", "--word", "a a a a", "--pairing", "1-3,2-4"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys, graph_files):
    code, out, _ = run(
        capsys, ["normalize", "--graph", graph_files["edge2"], "--word", "a b b a"]
    )
    assert code == 0
    assert out == "a b\n"


def test_reduced_and_equivalent(capsys, graph_files):
    code, out, _ = run(
        capsys, ["reduced", "--graph", graph_files["noedge2"], "--word", "a b a"]
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(
        capsys,
        [
            "equivalent",
            "--graph", graph_files["edge2"],
            "--word", "a b",
            "--word", "b a",
        ],
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(
        capsys,
        [
            "equivalent",
            "--graph", graph_files["noedge2"],
            "--word", "a b",
            "--word", "b a",
        ],
    )
    assert (code, out) == (0, "false\n")


def test_partitions_commands(capsys, graph_files):
    argv = ["partitions", "count", "--graph", graph_files["single"], "--word", "a:1 a:1 a:1 a:1"]
    assert run(capsys, argv)[:2] == (0, "3\n")
    argv = ["partitions", "list", "--graph", graph_files["edge2"], "--word", "a:1 b:1 a:1 b:1"]
    assert run(capsys, argv)[:2] == (0, "1-3,2-4\n")


def test_moment_methods_agree(capsys, graph_files):
    argv = [
        "moment", "--method", "partitions",
        "--graph", graph_files["noedge2"], "--word", "a:1 b:1 a:1 b:1",
    ]
    assert run(capsys, argv)[:2] == (0, "0\n")
    argv[2] = "fock"
    assert run(capsys, argv)[:2] == (0, "0\n")
    code, out, _ = run(
        capsys,
        ["moment", "--method", "fock", "--graph", graph_files["edge2"], "--word", "a:1"],
    )
    assert (code, out) == (0, "0\n")


def test_moment_matrix(capsys, graph_files):
    argv = [
        "moment", "--method", "matrix", "--N", "8", "--seed", "3",
        "--graph", graph_files["edge2"], "--word", "a:1 b:1 a:1 b:1",
    ]
    assert run(capsys, argv)[:2] == (0, "1\n")
    argv = [
        "moment", "--method", "matrix", "--N", "4", "--signs", "constant",
        "--graph", graph_files["single"], "--word", "a:1 a:1 a:1 a:1",
    ]
    assert run(capsys, argv)[:2] == (0, "5/2\n")


def test_limit(capsys, graph_files):
    argv = [
        "limit", "--theta", "0.5",
        "--graph", graph_files["noedge2"], "--word", "a:1 a:1 a:1 a:1",
    ]
    assert run(capsys, argv)[:2] == (0, "2.5\n")


def test_json_output(capsys, graph_files):
    argv = [
        "moment", "--method", "matrix", "--N", "4", "--signs", "constant",
        "--output", "json",
        "--graph", graph_files["single"], "--word", "a:1 a:1 a:1 a:1",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "method": "matrix",
        "numerator": 5,
        "denominator": 2,
        "value": 2.5,
    }


def test_compare_csv_reproducible(capsys, graph_files):
    argv = [
        "compare", "--graph", graph_files["noedge2"],
        "--word", "a:1 b:1 a:1 b:1",
        "--N-list", "2,4", "--seeds", "0,1", "--p", "0.5",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "N,seed,estimate,exact,abs_err"
    assert len(lines) == 5
    assert all(line.split(",")[3] == "0.0" for line in lines[1:])
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_clt_t_estimate(capsys, graph_files):
    argv = [
        "clt", "t-estimate", "--graph", graph_files["single"],
        "--word", "a a a a", "--pairing", "1-3,2-4",
        "--N", "10", "--signs", "constant",
    ]
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, "0.9\n")


def test_clt_variance(capsys, graph_files):
    argv = [
        "clt", "variance", "--graph", graph_files["single"],
        "--word", "a a a a", "--pairing", "1-3,2-4",
        "--M-list", "4,8", "--samples", "8", "--p", "1.0",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "M,samples,variance"
    assert lines[-1] == "# slope=0"
    argv[argv.index("--M-list") + 1] = ""
    assert run(capsys, argv) == (0, "M,samples,variance\n# slope=0\n", "")


@pytest.mark.parametrize("m_list", ["4,4,4", "4,4,8"])
def test_clt_variance_fits_no_slope_to_repeated_m(capsys, graph_files, m_list):
    # the seeds repeat with M, so a repeated M repeats its row: fewer than
    # three distinct M leave no slope to fit, and no fit warns
    argv = VARIANCE + ["--graph", graph_files["single"], "--samples", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv + ["--M-list", m_list])
    rows = out.split("\n")[1:-2]
    assert (code, out.split("\n")[-2], err) == (0, "# slope=0", "")
    assert len(rows) == 3 and rows[0] == rows[1]


def test_sign_dump(capsys, graph_files):
    argv = [
        "sign-dump", "--graph", graph_files["noedge2"],
        "--N", "2", "--seed", "5", "--p", "0.5",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out1)
    assert doc["n_indices"] == 4
    assert doc["vertices"] == ["a", "b"]
    assert len(doc["entries"]) == 8 * 7 // 2
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# one valid argv of every command that takes --output
READS_OUTPUT = {
    "normalize": ["normalize", "--word", "a b b a"],
    "reduced": ["reduced", "--word", "a b a"],
    "equivalent": ["equivalent", "--word", "a b", "--word", "b a"],
    "partitions": ["partitions", "list", "--word", "a:1 b:1 a:1 b:1"],
    "moment": ["moment", "--method", "matrix", "--N", "4", "--word", "a:1 b:1 a:1 b:1"],
    "limit": ["limit", "--theta", "0.5", "--word", "a:1 b:1 a:1 b:1"],
    "clt t-estimate": ["clt", "t-estimate", "--word", "a b a b", "--pairing", "1-3,2-4",
                       "--N", "4"],
}


def test_every_output_flag_is_read(capsys, graph_files):
    takes_output = {
        name for name, sub in _leaf_commands(cli.build_parser())
        if "--output" in sub._option_string_actions
    }
    assert takes_output == set(READS_OUTPUT)
    for argv in READS_OUTPUT.values():
        argv = argv + ["--graph", graph_files["noedge2"]]
        human = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--output", "json"])
        assert code == 0 and human[0] == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) is not None
        assert out != human[1], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--word", "a:1 a:1", "--N-list", "2", "--seeds", "0"],
        VARIANCE + ["--M-list", "4,8"],
        ["sign-dump", "--N", "1"],
    ],
    ids=["compare", "variance", "sign-dump"],
)
@pytest.mark.parametrize("output", ["human", "json"])
def test_commands_without_output_reject_it(capsys, graph_files, argv, output):
    code, out, err = run(capsys, argv + ["--graph", graph_files["single"], "--output", output])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --output" in err


def test_every_seed_draws_its_own_signs(capsys, graph_files):
    # seeds 2^64 apart once shared a key; each now draws its own signs
    seeds = [-1, 0, 2**64 - 1, 2**64, -(2**511), 2**511 - 1]
    entries = []
    for seed in seeds:
        argv = ["sign-dump", "--graph", graph_files["noedge2"], "--N", "2", f"--seed={seed}"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == seed
        entries.append(json.dumps(doc["entries"]))
    assert len(set(entries)) == len(seeds)


def test_usage_error_exits_1(capsys, graph_files):
    assert run(capsys, ["moment", "--graph", graph_files["edge2"]])[0] == 1
    assert run(capsys, ["bogus"])[0] == 1
    assert run(
        capsys,
        ["equivalent", "--graph", graph_files["edge2"], "--word", "a b"],
    )[0] == 1


def test_invalid_input_exits_2(capsys, graph_files, tmp_path):
    code, _, err = run(
        capsys,
        ["normalize", "--graph", graph_files["edge2"], "--word", "a z"],
    )
    assert code == 2 and "invalid input" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["normalize", "--graph", str(bad), "--word", "a"])[0] == 2
    assert run(
        capsys,
        ["normalize", "--graph", str(tmp_path / "missing.json"), "--word", "a"],
    )[0] == 2
    assert run(
        capsys,
        ["limit", "--theta", "2.0", "--graph", graph_files["edge2"], "--word", "a:1"],
    )[0] == 2
    assert run(
        capsys,
        [
            "moment", "--method", "matrix", "--N", "3",
            "--graph", graph_files["edge2"], "--word", "a:1 a:1",
        ],
    )[0] == 2


def test_budget_exceeded_exits_3(capsys, graph_files):
    code, _, err = run(
        capsys,
        [
            "moment", "--method", "partitions",
            "--graph", graph_files["single"],
            "--word", " ".join(["a:1"] * 18),
        ],
    )
    assert code == 3 and "budget" in err
    code, _, err = run(
        capsys,
        [
            "moment", "--method", "matrix", "--N", "64", "--max-iterations", "1000",
            "--graph", graph_files["single"], "--word", "a:1 a:1",
        ],
    )
    assert code == 3
    # (2^21)^3 = 2^63 index tuples would overflow the 64-bit sum
    code, _, err = run(
        capsys,
        [
            "clt", "t-estimate", "--graph", graph_files["single"],
            "--word", "a a a a a a", "--pairing", "1-4,2-5,3-6",
            "--N", str(2**21), "--max-iterations", str(10**30),
        ],
    )
    assert code == 3 and "overflows" in err
    # the listings are refused before any row is built: 2,027,025 pairings
    # of a^16, and C(2 * 10**6, 2) sign entries
    for argv in (
        ["partitions", "list", "--word", " ".join(["a:1"] * 16)],
        ["sign-dump", "--N", str(10**6)],
    ):
        code, out, err = run(capsys, argv + ["--graph", graph_files["single"]])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "over the cap" in err
    # the sweeps are refused before the first estimate, although each of
    # their estimates is within the budget: 10^8 samples x 4^2 index tuples,
    # and 2 seeds x 100^4 sweep terms
    for argv in (
        VARIANCE + ["--M-list", "4", "--samples", str(10**8)],
        ["compare", "--word", "a:1 a:1 a:1 a:1", "--N-list", "100", "--seeds", "0,1"],
    ):
        code, out, err = run(capsys, argv + ["--graph", graph_files["single"]])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "exceeds the budget" in err


def test_matrix_exit_codes_read_the_word_as_given(capsys, graph_files):
    # a-b is an edge, so the pairs of each word would all cancel; the
    # checks come before the cancellation and see every letter
    moment = ["moment", "--method", "matrix", "--graph", graph_files["edge2"]]
    for flags, expected in (
        (["--N", "1", "--word", "a:1 b:2 b:2 a:1"], 2),  # spin 2 at N = 1
        (["--N", "200", "--word", "a:1 b:1 a:1 b:1"], 3),  # 200^4 > 10^8
        (["--N", "2", "--word", "a:1 z:1 z:1 a:1"], 2),  # z is no vertex
    ):
        code, out, err = run(capsys, moment + flags)
        assert (code, out, len(err.splitlines())) == (expected, "", 1), flags
    assert run(capsys, [*moment, "--N", "2", "--word", "a:1 b:1 a:1 b:1"])[:2] == (0, "1\n")


@pytest.mark.parametrize(
    "argv, cap",
    [
        # 4 samples x (2^2 + 3^2) index tuples
        (VARIANCE + ["--M-list", "2,3", "--samples", "4"], 52),
        # 2 seeds x (2^4 + 4^4) sweep terms
        (["compare", "--word", "a:1 a:1 a:1 a:1", "--N-list", "2,4", "--seeds", "0,1"], 544),
    ],
    ids=["variance", "compare"],
)
def test_sweep_budget_is_inclusive(capsys, graph_files, argv, cap):
    argv = argv + ["--graph", graph_files["single"]]
    assert run(capsys, argv + ["--max-iterations", str(cap)])[0] == 0
    assert run(capsys, argv + ["--max-iterations", str(cap - 1)])[0] == 3


@pytest.mark.parametrize(
    "argv",
    [
        VARIANCE + ["--M-list", "4", "--samples", "8", "--seed-base", str(2**511 - 3)],
        ["compare", "--word", "a:1 a:1", "--N-list", "2,4", "--seeds", f"0,{2**600}"],
    ],
    ids=["variance-last-seed", "compare-second-seed"],
)
def test_sweeps_key_every_seed_before_the_first_estimate(
    capsys, graph_files, monkeypatch, argv
):
    def unreachable(*args):
        raise AssertionError("an estimate ran before every seed was keyed")

    monkeypatch.setattr(cltlab, "_estimate", unreachable)
    monkeypatch.setattr(cltlab, "moment_s_word", unreachable)
    code, out, err = run(capsys, argv + ["--graph", graph_files["single"]])
    assert (code, out) == (2, "")
    assert err == "graphmoments: invalid input: seed must lie in [-2^511, 2^511)\n"


@pytest.mark.parametrize("p", ["1.5", "-0.5"])
def test_compare_rejects_p_outside_unit_interval(capsys, graph_files, p):
    # p is checked before the exact column turns it into theta = 2p - 1
    argv = ["compare", "--word", "a:1 a:1", "--N-list", "2", "--seeds", "0", "--p", p]
    code, out, err = run(capsys, argv + ["--graph", graph_files["single"]])
    assert code == 2 and out == ""
    assert err == f"graphmoments: invalid input: p must lie in [0, 1], got {float(p)}\n"


def test_listing_cap_is_inclusive(capsys, graph_files, monkeypatch):
    # a^4 has 3 pairings; 2N = 4 indices on two vertices give C(8, 2) = 28 entries
    for argv, rows in (
        (["partitions", "list", "--graph", graph_files["single"], "--word", "a:1 a:1 a:1 a:1"], 3),
        (["sign-dump", "--graph", graph_files["noedge2"], "--N", "2"], 28),
    ):
        monkeypatch.setattr(cli, "MAX_LISTED_ROWS", rows)
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_LISTED_ROWS", rows - 1)
        assert run(capsys, argv)[0] == 3


def test_partitions_route_answers_a16(capsys, graph_files):
    argv = [
        "moment", "--method", "partitions",
        "--graph", graph_files["single"], "--word", " ".join(["a:1"] * 16),
    ]
    assert run(capsys, argv)[:2] == (0, "1430\n")


def test_pairing_route_reads_only_what_it_prints(capsys, tmp_path):
    # h cycles a, b, c, d on the edges a-b and c-d: the whole crossing
    # polynomial of h + h at length 40 takes about a minute, its
    # coefficient c[0] a few milliseconds
    path = tmp_path / "two_edges.json"
    path.write_text(json.dumps({"vertices": list("abcd"), "edges": [["a", "b"], ["c", "d"]]}))
    hh = ["--graph", str(path), "--word", " ".join("abcd" * 10), "--max-word-len", "40"]
    # 400 letters over three labels: (200 - 1)!! (100 - 1)!! (100 - 1)!! pairings
    word400 = " ".join(["a:1", "b:2", "a:1", "c:1"] * 100)
    count400 = math.prod(range(1, 200, 2)) * math.prod(range(1, 100, 2)) ** 2
    for argv, answer in (
        (["moment", "--method", "partitions", *hh], "0\n"),
        (["limit", "--theta", "0", *hh], "0.0\n"),
        (["limit", "--theta", "-0.0", *hh], "0.0\n"),
        (["partitions", "count", "--graph", str(path), "--word", word400,
          "--max-word-len", "400"], f"{count400}\n"),
    ):
        start = time.perf_counter()
        assert run(capsys, argv)[:2] == (0, answer), argv
        assert time.perf_counter() - start < 1.0, argv


def test_partitions_list_does_not_search_a_word_without_pairings(capsys, graph_files):
    # b occurs once, so no pairing exists; a search would try every partial
    # pairing of the seventeen a's, which takes seconds
    argv = ["partitions", "list", "--graph", graph_files["noedge2"], "--max-word-len", "18",
            "--word", " ".join(["a:1"] * 17 + ["b:1"])]
    for extra in ([], ["--match", "vertex"]):
        start = time.perf_counter()
        assert run(capsys, argv + extra) == (0, "\n", "")
        assert time.perf_counter() - start < 1.0


def test_pairing_totals_beyond_what_prints_exit_3(capsys, graph_files):
    # 3,000 letters a: 2999!! has over 4,300 digits, and is over the float range
    word = " ".join(["a"] * 3000)
    for argv, says in (
        (["partitions", "count"], "the pairing count has over 4300 digits"),
        (["partitions", "list"], "the pairing count has over 4300 digits"),
        (["limit", "--theta", "1"], "the limit moment exceeds the float range"),
    ):
        argv += ["--graph", graph_files["single"], "--word", word, "--max-word-len", "3000"]
        assert run(capsys, argv) == (3, "", f"graphmoments: budget exceeded: {says}\n")


def test_word_commands_answer_long_words(capsys, graph_files, tmp_path):
    # 20,000-letter words: the word kernel makes one pass over the word, so
    # each answers well within the bound
    path = tmp_path / "clique4e.json"
    clique = [[v, w] for v, w in itertools.combinations("abcd", 2)]
    path.write_text(json.dumps({"vertices": list("abcde"), "edges": clique}))
    alternating = " ".join("ab" * 10000)
    clique_then_run = " ".join("abcd" * 2500 + "e" * 10000)
    for argv, answer in (
        (["normalize", "--graph", graph_files["noedge2"], "--word", alternating],
         alternating + "\n"),
        (["normalize", "--graph", graph_files["edge2"], "--word", alternating], "a b\n"),
        (["reduced", "--graph", str(path), "--word", clique_then_run], "false\n"),
        (["equivalent", "--graph", str(path), "--word", clique_then_run,
          "--word", "a b c d e"], "true\n"),
    ):
        start = time.perf_counter()
        assert run(capsys, argv)[:2] == (0, answer), argv[0]
        assert time.perf_counter() - start < 2.0, argv[0]


def test_fock_and_partitions_always_agree(capsys, graph_files):
    import random

    rng = random.Random(3)
    for _ in range(10):
        word = " ".join(
            f"{rng.choice('ab')}:{rng.choice('12')}" for _ in range(rng.randrange(0, 7))
        )
        outs = []
        for method in ("partitions", "fock"):
            code, out, _ = run(
                capsys,
                [
                    "moment", "--method", method,
                    "--graph", graph_files["edge2"], "--word", word,
                ],
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


SINGLE = {"vertices": ["a"], "edges": []}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["limit", "--word", "a:1 a:1 a:1 a:1", "--theta", "-1e-05"], 0),
        (["limit", "--word", "a:1 a:1 a:1 a:1", "--theta", "-.5E+3"], 2),
        (["moment", "--method", "matrix", "--word", "a:1 a:1", "--p", "-1e-3"], 2),
        (T_ESTIMATE + ["--N", "2", "--p", "-2.5e-1"], 2),
        (["compare", "--word", "a:1 a:1", "--N-list", "-2,4", "--seeds", "0"], 2),
        (["compare", "--word", "a:1 a:1", "--N-list", "2", "--seeds", "-1,2"], 0),
    ],
    ids=["theta", "theta-out-of-range", "p", "t-estimate-p", "N-list", "seeds"],
)
def test_negative_number_is_a_value(capsys, graph_files, argv, code):
    # "--flag -1e-05" reads the same as "--flag=-1e-05"
    graph = ["--graph", graph_files["single"]]
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    got, out, err = run(capsys, argv + graph)
    assert (got, out) == run(capsys, joined + graph)[:2]
    assert got == code
    if code:
        assert out == "" and len(err.splitlines()) == 1


def test_match_vertex_is_rejected_by_the_label_matching_methods(capsys, graph_files):
    # one argv used to print 2, 0 and 1 with exit 0: only the partitions
    # method can pair a:1 with a:2, the Fock and matrix routes match labels
    argv = ["moment", "--graph", graph_files["single"], "--word", "a:1 a:2 a:1 a:2",
            "--N", "2", "--signs", "constant", "--match"]
    assert run(capsys, argv + ["vertex", "--method", "partitions"]) == (0, "2\n", "")
    for method, answer in (("fock", "0\n"), ("matrix", "1\n")):
        says = f"--match vertex needs --method partitions; the {method} route matches labels"
        got = run(capsys, argv + ["vertex", "--method", method])
        assert got == (2, "", f"graphmoments: invalid input: {says}\n"), method
        assert run(capsys, argv + ["label", "--method", method]) == (0, answer, ""), method


@pytest.mark.parametrize(
    "argv, code",
    [
        # commands without a word-length cap reject the flag as a usage error
        (T_ESTIMATE + ["--N", "4", "--max-word-len", "2"], 1),
        (VARIANCE + ["--M-list", "4,8", "--max-word-len", "2"], 1),
        # commands without an iteration budget reject that flag
        (["partitions", "count", "--word", "a:1 a:1", "--max-iterations", "9"], 1),
        (["limit", "--theta", "0.5", "--word", "a:1 a:1", "--max-iterations", "9"], 1),
        # the others enforce the cap
        (["compare", "--word", "a:1 a:1 a:1 a:1", "--N-list", "2", "--seeds", "0",
          "--max-word-len", "2"], 3),
        (["moment", "--method", "matrix", "--word", "a:1 a:1 a:1 a:1",
          "--max-word-len", "2"], 3),
        (["moment", "--method", "matrix", "--word", "a:1 a:1 a:1 a:1",
          "--max-word-len", "4"], 0),
    ],
    ids=[
        "t-estimate-word-len", "variance-word-len", "partitions-iterations",
        "limit-iterations", "compare-word-len", "matrix-word-len", "matrix-at-cap",
    ],
)
def test_every_budget_flag_is_read(capsys, graph_files, argv, code):
    got, out, _ = run(capsys, argv + ["--graph", graph_files["single"]])
    assert got == code
    if code:
        assert out == ""


@pytest.mark.parametrize(
    "doc, argv, says",
    [
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, ["normalize", "--word", "a"],
         "is not a pair of vertices"),
        ({"vertices": ["a", "b"], "edges": ["ab"]}, ["normalize", "--word", "a"],
         "is not a pair of vertices"),
        ({"vertices": ["a", "b"], "edges": [["a", ["b"]]]}, ["normalize", "--word", "a"],
         "is not a declared vertex"),
        ({"vertices": ["a", "b"], "edges": 5}, ["normalize", "--word", "a"], "must be lists"),
        ({"vertices": "ab", "edges": []}, ["normalize", "--word", "a"], "must be lists"),
        (SINGLE, VARIANCE + ["--M-list", "4,8", "--samples", "1"],
         "samples must be at least 2, got 1"),
        (SINGLE, VARIANCE + ["--M-list", "0,2"], "M must be positive, got 0"),
        (SINGLE, VARIANCE + ["--M-list", "", "--p", "5"], "p must lie in [0, 1], got 5.0"),
        (SINGLE, ["clt", "variance", "--word", "a a a z", "--pairing", "1-3,2-4",
                  "--M-list", ""], "vertex 'z' is not in the graph"),
        (SINGLE, VARIANCE + ["--M-list", "", "--seed-base", str(2**511 - 3), "--samples", "8"],
         "seed must lie in [-2^511, 2^511)"),
        (SINGLE, T_ESTIMATE + ["--N", "0"], "N must be positive, got 0"),
        (SINGLE, T_ESTIMATE + ["--N", "-2"], "N must be positive, got -2"),
        (SINGLE, ["sign-dump", "--N", "-1"], "N must not be negative, got -1"),
        (SINGLE, ["sign-dump", "--N", "1", "--seed", str(2**511)],
         "seed must lie in [-2^511, 2^511)"),
        (SINGLE, T_ESTIMATE + ["--N", "2", f"--seed={-(2**511) - 1}"],
         "seed must lie in [-2^511, 2^511)"),
        ("[" * 100000 + "]" * 100000, ["normalize", "--word", "a"], "nests too deeply"),
    ],
    ids=[
        "edge-of-three",
        "edge-as-string",
        "edge-endpoint-list",
        "edges-not-a-list",
        "vertices-as-string",
        "variance-one-sample",
        "variance-M-zero",
        "variance-empty-M-list-p",
        "variance-empty-M-list-word",
        "variance-empty-M-list-last-seed",
        "t-estimate-N-zero",
        "t-estimate-N-negative",
        "sign-dump-N-negative",
        "sign-dump-seed-too-large",
        "t-estimate-seed-too-small",
        "graph-nested-too-deeply",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, doc, argv, says):
    path = tmp_path / "graph.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, argv + ["--graph", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("graphmoments: ")
    assert says in err
    assert "Traceback" not in err
