"""graphmoments benchmark: one workload (or all four) in fresh worker processes.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Every request's output is checked
(see check.py).  Human-readable lines come first, with the run environment
and sample counts; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when any request fails other than the known crash paths of the cli
workload, which count in ``failed`` until the program is fixed.  The full
result, environment included, is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# Start-up of a bare interpreter and of the cli import, timed this many
# times per traced run and reported as medians.
STARTUP_SAMPLES = 5
# Every run ends within this many seconds or fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + DEADLINE_S
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        # One BLAS thread: importing numpy otherwise starts a thread per
        # core that spins during start-up, so that a cli process competes
        # for the cores with whatever else the host runs.  The program's
        # numpy calls are a few tiny vectors and gain nothing from threads.
        # Workers pass this environment on to the cli processes they start.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        return left

    def worker(self, mode: str, *extra: str, on_pause=None) -> tuple[float, dict | None]:
        """Start a worker; return its set-up seconds and its JSON result.

        Set-up ends when the worker's first line (``READY``) arrives.  A
        ``PAUSE`` line from a measuring worker calls ``on_pause`` and then
        lets the worker go on.  The worker runs in its own session, so that
        on a timeout it is killed together with any cli process it has
        started.
        """
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, self.workload,
               str(self.seed), str(self.seconds), str(self.workdir), *extra]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT, start_new_session=True)
        data, ready_at, seen = b"", None, 0
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    if not selector.select(timeout=self._remaining()):
                        continue
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    data += chunk
                    if ready_at is None and b"\n" in data:
                        ready_at = perf_counter()
                    while (end := data.find(b"\n", seen)) >= 0:
                        if data[seen:end] == b"PAUSE":
                            on_pause()
                            proc.stdin.write(b"GO\n")
                            proc.stdin.flush()
                        seen = end + 1
            proc.wait(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        lines = [line for line in data.decode().splitlines() if line != "PAUSE"]
        if not lines or lines[0] != "READY" or proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        return ready_at - start, json.loads(lines[-1]) if len(lines) > 1 else None

    def startup_ms(self, code: str) -> float:
        """Median wall time of ``python -c code`` in milliseconds."""
        times = []
        for _ in range(STARTUP_SAMPLES):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                           check=True, timeout=self._remaining())
            times.append((perf_counter() - start) * 1e3)
        return statistics.median(times)

    def measure(self) -> tuple[dict, dict]:
        self.worker("setup")  # untimed: fills the bytecode cache
        # The measuring worker pauses at even intervals of its run; each
        # pause times the set-up of another worker, so that the median of
        # the set-up samples spans the run rather than one moment of it.
        setups = []
        setup_s, result = self.worker(
            "measure", on_pause=lambda: setups.append(self.worker("setup")[0])
        )
        setups.append(setup_s)
        latencies = result.pop("latencies_s")
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "throughput_rps": result["attempted"] / result["elapsed_s"],
            "latency_ms.p50": statistics.median(latencies) * 1e3,
            "latency_ms.p90": deciles[8] * 1e3,
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "setup_s": statistics.median(setups),
        }
        samples = {
            "requests": result["attempted"],
            "passes": result["passes"],
            "latency_samples": len(latencies),
            "setup_samples": len(setups),
            "measured_s": result["elapsed_s"],
        }
        return metrics, dict(result, samples=samples)

    def trace(self) -> tuple[dict, dict]:
        self.worker("setup")  # untimed: fills the bytecode cache
        interpreter_ms = self.startup_ms("pass")
        import_ms = self.startup_ms("import graphmoments.cli") - interpreter_ms
        spans = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"
        _, result = self.worker("trace", str(spans))
        metrics = dict(
            result.pop("layers"),
            trace_overhead_ratio=result["traced_s"] / result["untraced_s"],
        )
        metrics["cli.interpreter_ms"] = interpreter_ms
        metrics["cli.import_ms"] = import_ms
        samples = {
            "requests": result["attempted"],
            "pool_passes": result["passes"],
            "startup_samples": STARTUP_SAMPLES,
        }
        return metrics, dict(result, samples=samples, spans_file=str(spans))


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one; no git process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, seconds: int, trace: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def report(workload, env, metrics, units, result) -> None:
    print(f"== {workload}  seed={env['seed']}  seconds={env['seconds']}  "
          f"trace={env['trace']}  python={env['python']}  numpy={env['numpy']}  "
          f"nproc={env['nproc']}  git={env['git_sha']}")
    print(f"   samples: {json.dumps(result['samples'])}")
    for name, value in metrics.items():
        print(f"   {name:40s} {value:14.6f} {units[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_ratio':40s} {failed / attempted:14.6f} ratio"
          f"  ({failed} of {attempted}; known crash paths {result['known_crash']})")
    if "self_s_by_module" in result:
        modules = result["self_s_by_module"]
        total = sum(modules.values())
        shares = ", ".join(f"{m} {100 * t / total:.1f}%" for m, t in modules.items())
        print(f"   traced self time by module: {shares}")
        top = result["request_calls_s"]
        total = sum(top.values())
        shares = ", ".join(f"{m} {100 * t / total:.1f}%" for m, t in top.items())
        print(f"   traced time of calls made by requests: {shares}")
    for line in result["failures"]:
        print(f"   failure {line}")


def run_workload(workload, args, spec) -> dict:
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    run = Run(workload, args.seed, args.seconds)
    try:
        metrics, result = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    env = environment(args.seed, args.seconds, args.trace)
    result["correct"] = result["unexpected"] == 0
    report(workload, env, metrics, units, result)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"workload": workload, "environment": env, "metrics": metrics,
         "units": units, **result}, indent=1))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphmoments" / "__init__.py").is_file():
        print(f"bench: no graphmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args, spec) for w in workloads}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
