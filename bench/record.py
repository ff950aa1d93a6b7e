"""Record the expected answer of every pool request into expected.json.

    python3 bench/record.py

Run it only at a commit whose answers are trusted: the checker compares
every later run against these values.  A value is recorded only after it
passes the cross-route oracles and closed forms of check.py, and a cli
request only when its exit code is the expected one; the known crash
paths are recorded without output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calls  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402


def record(workload: str, workdir: Path) -> dict:
    requests = gen.pool(workload)
    ctx = calls.prepare(workload, requests, workdir)
    entries = {}
    for request in requests:
        got = calls.execute(ctx, request)
        if workload == "cli":
            expect = {"stdout": got["stdout"]} if request["expect_code"] == 0 else None
            reason = None if request.get("known_crash") else check.check(request, got, expect)
        else:
            expect = got
            reason = check.check(request, got, got)
        if reason:
            raise SystemExit(f"{request['id']}: {reason}; not recording")
        entries[request["id"]] = {"spec": check.spec(request), "expect": expect}
    return entries


def main() -> None:
    workdir = ROOT / ".bench_work" / "record"
    try:
        expected = {w: record(w, workdir) for w in gen.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, expected.values()))} requests")


if __name__ == "__main__":
    main()
