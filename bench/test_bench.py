"""Tests of the benchmark itself: generator, checker and tracer.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calls  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

import graphmoments.partitions  # noqa: E402


def _cheap(workload):
    """A few fast requests of every kind the workload sends."""
    requests = gen.pool(workload)
    if workload == "exact":
        return [r for r in requests if len(r["word"]) <= 8 or r["family"] == "many"][:12]
    if workload == "matrix":
        return [r for r in requests if r.get("N", 8) <= 8][:8]
    if workload == "clt":
        return [r for r in requests if r.get("M", 8) <= 16][:8]
    return requests


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    pool = gen.pool(workload)
    assert pool == gen.pool(workload)
    first = list(itertools.islice(gen.stream(pool, 7), 3 * len(pool)))
    again = list(itertools.islice(gen.stream(gen.pool(workload), 7), 3 * len(pool)))
    other = list(itertools.islice(gen.stream(pool, 8), 3 * len(pool)))
    assert [r["id"] for r in first] == [r["id"] for r in again]
    assert [r["id"] for r in first] != [r["id"] for r in other]
    ids = sorted(r["id"] for r in pool)
    for k in range(3):
        assert sorted(r["id"] for r in first[k * len(pool):(k + 1) * len(pool)]) == ids


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_pool_matches_the_recording(workload):
    expected = check.load_expected(workload, gen.pool(workload))
    assert len(expected) == len(gen.pool(workload))


def _first(workload, **match):
    for request in gen.pool(workload):
        if all(request.get(k) == v for k, v in match.items()):
            return request
    raise LookupError(match)


def test_checker_flags_a_wrong_value():
    exact = _first("exact", family="few", theta=0.5)
    want = check.load_expected("exact", gen.pool("exact"))[exact["id"]]
    assert check.check(exact, want, want) is None
    both = dict(want, count=want["count"] + 1, fock=want["fock"] + 1)
    assert check.check(exact, both, want) is not None
    assert "fock" in check.check(exact, dict(want, fock=want["fock"] + 1), want)
    nudged = dict(want, limit=want["limit"] * (1 + 1e-6) + 1e-6)
    assert check.check(exact, nudged, want) is not None
    rounded = dict(want, limit=want["limit"] * (1 + 1e-13))
    assert check.check(exact, rounded, want) is None

    t = _first("clt", op="t", signs="constant")
    right = check.constant_t(t)
    assert check.check(t, right, right) is None
    assert check.check(t, right * (1 + 2**-52), right) is None
    assert "constant-sign" in check.check(t, right + 1e-3, right + 1e-3)

    moment = _first("matrix", op="moment", signs="constant")
    n = moment["N"]
    assert check.check(moment, [3 * n - 2, n], [3 * n - 2, n]) is None
    assert check.check(moment, [3 * n - 1, n], [3 * n - 1, n]) is not None


def test_checker_flags_cli_failures():
    ok = _first("cli", expect_code=0)
    want = {"stdout": "1-3,2-4\n0.25\n"}
    assert check.check(ok, {"code": 0, "stdout": "1-3,2-4\n0.25\n", "stderr": ""}, want) is None
    assert check.check(ok, {"code": 0, "stdout": "1-3,2-4\n0.26\n", "stderr": ""}, want)
    assert check.check(ok, {"code": 0, "stdout": "1-4,2-3\n0.25\n", "stderr": ""}, want)
    crash = _first("cli", known_crash=True)
    traceback = {"code": 1, "stdout": "", "stderr": "Traceback (most recent call last):\n"}
    assert check.check(crash, traceback, None)
    two_lines = {"code": 2, "stdout": "", "stderr": "graphmoments: a\nb\n"}
    assert check.check(crash, two_lines, None)
    one_line = {"code": 2, "stdout": "", "stderr": "graphmoments: invalid input: x\n"}
    assert check.check(crash, one_line, None) is None


def test_closed_forms():
    assert [check.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert check.pairing_total([["a", 1]] * 6 + [["b", 2]] * 4) == 15 * 3
    assert check.pairing_total([["a", 1]] * 3 + [["b", 2]]) == 0
    request = {"M": 10, "word": ["a", "b", "a", "a", "b", "a"],
               "pairing": [[1, 4], [2, 5], [3, 6]]}
    assert check.constant_t(request) == 10 * 9 * 10 / 10**3


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Every cheap request untraced, then traced: (runs, tracer)."""
    runs = []
    tracer = Tracer()
    for workload in gen.WORKLOADS:
        requests = _cheap(workload)
        ctx = calls.prepare(workload, requests, tmp_path_factory.mktemp(workload))
        in_process = workload == "cli"

        def attempt(request):
            try:
                return calls.execute(ctx, request, in_process), None
            except Exception as exc:
                return None, repr(exc)

        for request in requests:
            plain = attempt(request)
            with tracer:
                start = perf_counter()
                traced = tracer.run_request(len(runs), attempt, request)
                wall = perf_counter() - start
            runs.append((request, plain, traced, wall))
    return runs, tracer


def test_traced_outputs_equal_untraced(traced_runs):
    runs, _ = traced_runs
    assert len(runs) > 40
    for request, plain, traced, _ in runs:
        assert plain == traced, request["id"]


def test_tracer_restores_the_program():
    original = graphmoments.partitions.count_gamma_admissible
    with Tracer():
        assert graphmoments.partitions.count_gamma_admissible is not original
    assert graphmoments.partitions.count_gamma_admissible is original
    assert "__init__" not in vars(graphmoments.errors.GraphMomentsError)


def test_self_times_per_request_fit_in_its_wall_time(traced_runs):
    runs, tracer = traced_runs
    own = {}
    for span in tracer.span_records():
        own[span["request"]] = own.get(span["request"], 0.0) + span["self_s"]
    for k, (request, _, _, wall) in enumerate(runs):
        assert 0.0 < own[k] <= wall, request["id"]


def test_tracer_counts_layers_and_errors(traced_runs):
    _, tracer = traced_runs
    for name in ("partitions.enumerate_pairings", "fock.apply_field", "cli.main",
                 "spinmodel.SpinAlgebra", "cltlab.t_estimate"):
        assert tracer.calls(name) > 0, name
    assert tracer.calls("spinmodel.sign") > 0
    assert tracer.counters["graph.errors"] > 0
    assert tracer.counters["partitions.pairings"] > 0
