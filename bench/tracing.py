"""In-memory tracer for the benchmark's traced run.

``Tracer.install`` wraps public functions of the graphmoments modules
(every module-level binding of each function, so imports by name are
covered too) and restores them on ``uninstall``.  A wrapped call is either

- a span: name, start, end, parent span and request id, kept in memory
  and written out when the run ends; or
- a hot call (sign queries, ``is_edge``, ...): no span, only an aggregated
  call count and self time, because these run millions of times.

Self time is a call's duration minus the time of the wrapped calls made
inside it, so the self times of one request never sum to more than its
wall time.  ``GraphMomentsError`` constructions are counted per module of
the raising frame.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, metric name or None for "<module>.<function>")
SPANS = (
    ("graph", "load_graph", "graph.load"),
    ("words", "normalize", None),
    ("words", "is_reduced", None),
    ("partitions", "enumerate_pairings", None),
    ("partitions", "count_gamma_admissible", None),
    ("partitions", "limit_moment", None),
    ("fock", "vacuum_moment", None),
    ("fock", "apply_field", None),
    ("spinmodel", "SpinAlgebra.__init__", "spinmodel.SpinAlgebra"),
    ("spinmodel", "moment_s_word", None),
    ("spinmodel", "sign_table", None),
    ("cltlab", "t_estimate", None),
    ("cltlab", "variance_sweep", None),
    ("cltlab", "convergence_sweep", None),
    ("cli", "main", None),
)
HOT = (
    ("graph", "SimplicialGraph.require_vertex", None),
    ("graph", "SimplicialGraph.is_edge", None),
    ("partitions", "gamma_crossing_pairs", None),
    ("spinmodel", "SignFunction.__call__", "spinmodel.sign"),
)
MODULES = ("graph", "words", "partitions", "fock", "spinmodel", "cltlab", "cli")


def _enumerate_probe(tracer, args):
    parent = tracer.stack[-1][2]

    def done(result):
        tracer.counters["partitions.pairings"] += len(result)
        if parent == "partitions.count_gamma_admissible":
            tracer.counters["partitions.enumerated_for_count"] += len(result)

    return done


def _count_probe(tracer, args):
    def done(result):
        tracer.counters["partitions.admissible"] += result

    return done


def _apply_field_probe(tracer, args):
    state = args[1]
    tracer.counters["fock.terms_in"] += len(state)

    def done(result):
        tracer.peaks["fock.peak_terms"] = max(
            tracer.peaks["fock.peak_terms"], len(state), len(result)
        )

    return done


def _t_estimate_probe(tracer, args):
    start = tracer.stats["spinmodel.sign"][0]

    def done(result):
        tracer.counters["cltlab.sign_calls_in_t"] += (
            tracer.stats["spinmodel.sign"][0] - start
        )

    return done


PROBES = {
    "partitions.enumerate_pairings": _enumerate_probe,
    "partitions.count_gamma_admissible": _count_probe,
    "fock.apply_field": _apply_field_probe,
    "cltlab.t_estimate": _t_estimate_probe,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: Counter = Counter()
        self.peaks: Counter = Counter()
        self.request = None
        # One frame per wrapped call in flight: [span id, child seconds, name].
        self.stack: list[list] = [[0, 0.0, None]]
        self._next_id = 1
        self._undo: list = []

    # -- wrappers

    def _span(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = probe(self, args) if probe else None
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1]
            frame = [sid, 0.0, name]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - start
                parent[1] += duration
                own = duration - frame[1]
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += own
                self.spans.append((sid, name, start, end, parent[0], self.request, own))
            if done:
                done(result)
            return result

        return wrapper

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            frame = [parent[0], 0.0, name]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.stack.pop()
                parent[1] += duration
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += duration - frame[1]

        return wrapper

    def _count_error(self):
        def init(exc, *args):
            module = sys._getframe(1).f_globals.get("__name__", "")
            self.counters[module.rsplit(".", 1)[-1] + ".errors"] += 1
            BaseException.__init__(exc, *args)

        return init

    # -- install / uninstall

    def install(self) -> "Tracer":
        modules = {m: importlib.import_module(f"graphmoments.{m}") for m in MODULES}
        package = [mod for key, mod in sys.modules.items() if key.startswith("graphmoments")]
        for targets, make in ((SPANS, self._span), (HOT, self._hot)):
            for module, attr, name in targets:
                name = name or f"{module}.{attr.rsplit('.', 1)[-1]}"
                owner = modules[module]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                wrapped = make(name, original)
                if path:
                    self._set(owner, leaf, wrapped)
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        errors = importlib.import_module("graphmoments.errors").GraphMomentsError
        self._set(errors, "__init__", self._count_error())
        return self

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, had = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- requests and results

    def run_request(self, request_id, fn, *args):
        """Call ``fn`` inside a root span that tags its spans with the id."""
        self.request = request_id
        try:
            return self._span("bench.request", fn)(*args)
        finally:
            self.request = None

    def self_seconds(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_seconds_by_module(self) -> dict:
        """Self time summed per module, hot calls included; "bench" is the
        benchmark's own share of each request."""
        totals = Counter()
        for name, (_, seconds) in self.stats.items():
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals.most_common())

    def request_call_seconds(self) -> dict:
        """Inclusive time of the wrapped calls a request makes directly."""
        roots = {span[0] for span in self.spans if span[1] == "bench.request"}
        totals = Counter()
        for _, name, start, end, parent, _, _ in self.spans:
            if parent in roots:
                totals[name] += end - start
        return dict(totals.most_common())

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def span_records(self):
        keys = ("id", "name", "start", "end", "parent", "request", "self_s")
        return [dict(zip(keys, span)) for span in self.spans]
