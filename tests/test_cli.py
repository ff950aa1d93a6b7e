import json

import pytest

from graphmoments import cli
from graphmoments.cli import main


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


T_ESTIMATE = ["clt", "t-estimate", "--word", "a a a a", "--pairing", "1-3,2-4"]
VARIANCE = ["clt", "variance", "--word", "a a a a", "--pairing", "1-3,2-4"]
SINGLE = {"vertices": ["a"], "edges": []}


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
    "doc, argv",
    [
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, ["normalize", "--word", "a"]),
        ({"vertices": ["a", "b"], "edges": ["ab"]}, ["normalize", "--word", "a"]),
        ({"vertices": ["a", "b"], "edges": [["a", ["b"]]]}, ["normalize", "--word", "a"]),
        ({"vertices": ["a", "b"], "edges": 5}, ["normalize", "--word", "a"]),
        ({"vertices": "ab", "edges": []}, ["normalize", "--word", "a"]),
        (SINGLE, VARIANCE + ["--M-list", "4,8", "--samples", "1"]),
        (SINGLE, VARIANCE + ["--M-list", "0,2"]),
        (SINGLE, T_ESTIMATE + ["--N", "0"]),
        (SINGLE, T_ESTIMATE + ["--N", "-2"]),
        (SINGLE, ["sign-dump", "--N", "-1"]),
        ("[" * 100000 + "]" * 100000, ["normalize", "--word", "a"]),
    ],
    ids=[
        "edge-of-three",
        "edge-as-string",
        "edge-endpoint-list",
        "edges-not-a-list",
        "vertices-as-string",
        "variance-one-sample",
        "variance-M-zero",
        "t-estimate-N-zero",
        "t-estimate-N-negative",
        "sign-dump-N-negative",
        "graph-nested-too-deeply",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, doc, argv):
    path = tmp_path / "graph.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, argv + ["--graph", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("graphmoments: ")
    assert "Traceback" not in err
