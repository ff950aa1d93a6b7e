"""Benchmark worker: one fresh process per measurement, started by run.py.

Set-up (import, graphs, graph files) ends with a ``READY`` line on stdout;
run.py times the worker from launch to that line.  In ``setup`` mode the
worker stops there.  In ``measure`` mode it sends requests one at a time
in a closed loop, untraced, and prints one JSON result line.  In ``trace``
mode it runs whole passes over the pool untraced, replays them traced,
writes the spans to SPANS_PATH and reports per-layer numbers per pass.

Usage: python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR [SPANS_PATH]
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import calls  # imports graphmoments: part of set-up
import check
import gen
import tracing

WARMUP_REQUESTS = 3
# The timed loop pauses this many times, at even intervals of its measured
# time, while run.py times the set-up of another worker.
SETUP_PAUSES = 11

SELF_TIMES = (
    "graph.load",
    "words.normalize",
    "words.is_reduced",
    "partitions.enumerate_pairings",
    "partitions.count_gamma_admissible",
    "partitions.limit_moment",
    "fock.vacuum_moment",
    "fock.apply_field",
    "spinmodel.SpinAlgebra",
    "spinmodel.moment_s_word",
    "spinmodel.sign",
    "spinmodel.sign_table",
    "cltlab.t_estimate",
    "cltlab.variance_sweep",
    "cltlab.convergence_sweep",
    "cli.main",
)
CALL_COUNTS = (
    "graph.require_vertex",
    "graph.is_edge",
    "words.normalize",
    "partitions.gamma_crossing_pairs",
    "fock.apply_field",
    "spinmodel.SpinAlgebra",
    "spinmodel.sign",
    "cltlab.t_estimate",
)


class Worker:
    def __init__(self, workload: str, seed: int, ctx, requests):
        self.workload = workload
        self.seed = seed
        self.ctx = ctx
        self.requests = requests

    def attempt(self, request, in_process_cli=False):
        """Outcome of one request, or the reason it raised."""
        try:
            return calls.execute(self.ctx, request, in_process_cli), None
        except Exception as exc:  # a failed request is data, not a benchmark error
            return None, f"raised {type(exc).__name__}: {exc}"

    def _stream(self, warmup: int, in_process_cli=False):
        """The run's request stream, after ``warmup`` untimed requests.

        The warm-up draws from a stream of its own, so that the timed
        passes stay aligned with the stream's permutations of the pool.
        """
        for request in itertools.islice(gen.stream(self.requests, self.seed), warmup):
            self.attempt(request, in_process_cli)
        return gen.stream(self.requests, self.seed)

    def _summary(self, done, extra_failures=()):
        """Counts and reasons over (request, outcome, error) triples.

        ``unexpected`` counts failures other than the known crash paths.
        """
        expected = check.load_expected(self.workload, self.requests)
        reasons = list(extra_failures)
        for request, outcome, error in done:
            reason = error or check.check(request, outcome, expected.get(request["id"]))
            if reason:
                reasons.append((request, reason))
        return {
            "attempted": len(done),
            "failed": len(reasons),
            "unexpected": sum(1 for r, _ in reasons if not r.get("known_crash")),
            "known_crash": sum(1 for r, _, _ in done if r.get("known_crash")),
            "failures": sorted({f"{r['id']}: {reason}" for r, reason in reasons}),
        }

    def measure(self, seconds: float) -> dict:
        stream = self._stream(WARMUP_REQUESTS)
        done, latencies = [], []
        pause_every = seconds / (SETUP_PAUSES + 1)
        pauses, paused = 0, 0.0
        start = perf_counter()
        # Whole passes only: every run then sends the same multiset of
        # requests, and its percentiles do not depend on where it stopped.
        # The run ends at the pass boundary nearest to ``seconds``.
        passes = 0
        while True:
            for _ in self.requests:
                if pauses < SETUP_PAUSES and perf_counter() - start - paused >= pause_every * (pauses + 1):
                    t0 = perf_counter()
                    print("PAUSE", flush=True)
                    sys.stdin.readline()
                    paused += perf_counter() - t0
                    pauses += 1
                request = next(stream)
                t0 = perf_counter()
                outcome, error = self.attempt(request)
                latencies.append(perf_counter() - t0)
                done.append((request, outcome, error))
            passes += 1
            if passes == 1:
                # Peak memory over one pass: the same work on every run.  On
                # clt the program's uncollected garbage grows with every
                # pass, so a whole run's peak would count its passes.
                if self.workload == "cli":
                    maxrss_kb = self.ctx.child_maxrss_kb
                else:
                    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = perf_counter() - start - paused
            if len(done) >= gen.MIN_REQUESTS and elapsed * (1 + 0.5 / passes) >= seconds:
                break
        return dict(
            self._summary(done),
            elapsed_s=elapsed,
            latencies_s=latencies,
            passes=passes,
            maxrss_kb=maxrss_kb,
        )

    def trace(self, seconds: float, spans_path: Path) -> dict:
        in_process = self.workload == "cli"
        # A whole untimed pass first: the untraced and traced replays must
        # both run warm for their ratio to measure the tracer.
        stream = self._stream(len(self.requests), in_process)
        plain, sequence = [], []
        untraced_s, passes = 0.0, 0
        while passes == 0 or untraced_s < seconds / 2:
            for _ in self.requests:
                request = next(stream)
                t0 = perf_counter()
                plain.append(self.attempt(request, in_process))
                untraced_s += perf_counter() - t0
                sequence.append(request)
            passes += 1

        tracer = tracing.Tracer()
        traced = []
        traced_s = 0.0
        with tracer:
            for k, request in enumerate(sequence):
                t0 = perf_counter()
                traced.append(tracer.run_request(k, self.attempt, request, in_process))
                traced_s += perf_counter() - t0

        mismatched = [
            (r, "traced outcome differs from untraced")
            for r, a, b in zip(sequence, plain, traced)
            if a != b
        ]
        done = [(r, o, e) for r, (o, e) in zip(sequence, traced)]
        stdout_bytes = sum(len(o["stdout"].encode()) for o, _ in traced if o) if in_process else 0
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
        return dict(
            self._summary(done, mismatched),
            passes=passes,
            untraced_s=untraced_s,
            traced_s=traced_s,
            layers=layer_metrics(tracer, passes, stdout_bytes),
            self_s_by_module=tracer.self_seconds_by_module(),
            request_calls_s=tracer.request_call_seconds(),
        )


def layer_metrics(tracer, passes: int, stdout_bytes: int) -> dict:
    """Per-layer numbers per pass over the pool (ratios and peaks as is)."""
    c = tracer.counters
    per_pass = {f"{name}.s": tracer.self_seconds(name) for name in SELF_TIMES}
    per_pass.update({f"{name}.calls": tracer.calls(name) for name in CALL_COUNTS})
    per_pass["partitions.pairings"] = c["partitions.pairings"]
    per_pass["fock.terms_in"] = c["fock.terms_in"]
    per_pass["cli.stdout_bytes"] = stdout_bytes
    for module in tracing.MODULES:
        per_pass[f"{module}.errors"] = c[f"{module}.errors"]
    metrics = {name: value / passes for name, value in per_pass.items()}
    enumerated = c["partitions.enumerated_for_count"]
    metrics["partitions.admissible_ratio"] = (
        c["partitions.admissible"] / enumerated if enumerated else 0.0
    )
    estimates = tracer.calls("cltlab.t_estimate")
    metrics["cltlab.sign_calls_per_estimate"] = (
        c["cltlab.sign_calls_in_t"] / estimates if estimates else 0.0
    )
    metrics["fock.peak_terms"] = tracer.peaks["fock.peak_terms"]
    return metrics


def main(argv) -> None:
    mode, workload, seed, seconds, workdir = argv[:5]
    requests = gen.pool(workload)
    ctx = calls.prepare(workload, requests, Path(workdir))
    print("READY", flush=True)
    if mode == "setup":
        return
    worker = Worker(workload, int(seed), ctx, requests)
    if mode == "measure":
        result = worker.measure(float(seconds))
    else:
        result = worker.trace(float(seconds), Path(argv[5]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
