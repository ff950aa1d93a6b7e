"""Output checker: every request's outcome against oracles and recorded values.

Three kinds of evidence, all of which must hold:

- cross-route oracles: pairing count == Fock moment, and the limit moment
  at theta 0 equals the count;
- closed forms: Catalan numbers on single-label words, the total pairing
  count at theta 1, ``3 - 2/N`` for ``a^4`` under constant signs, and the
  number of admissible index tuples over ``N^r`` for ``t_estimate`` under
  constant signs;
- the answer recorded in ``expected.json`` when the benchmark was added:
  ints and fractions exactly, floats within ``REL_TOL`` (a float rounded
  once may move its last bits when a kernel is replaced).

For the cli workload the exit code must be the expected one, stderr must
hold no traceback, and a rejection must be a single ``graphmoments:`` line.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

REL_TOL = 1e-9
ABS_TOL = 1e-12


def spec(request: dict) -> dict:
    """The request as recorded: everything but the id."""
    return {k: v for k, v in request.items() if k != "id"}


def load_expected(workload: str, requests: list[dict]) -> dict:
    """Recorded answers by request id; the pool must match the recording."""
    recorded = json.loads(EXPECTED_PATH.read_text())[workload]
    for request in requests:
        entry = recorded.get(request["id"])
        if entry is None or entry["spec"] != spec(request):
            raise ValueError(
                f"request {request['id']} differs from expected.json; "
                "run bench/record.py at a commit whose answers are trusted"
            )
    return {rid: entry["expect"] for rid, entry in recorded.items()}


def same(got, want) -> bool:
    """Structural equality; floats within tolerance, everything else exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k]) for k in want)
        )
    return type(got) is type(want) and got == want


_NUMBER = re.compile(r"-?\d+(\.\d*)?([eE][-+]?\d+)?\Z")
_SEPARATORS = re.compile(r"([\s,:=\[\]{}\"]+)")


def same_text(got: str, want: str) -> bool:
    """Printed output equal token by token, floats within tolerance."""
    got_tokens, want_tokens = _SEPARATORS.split(got), _SEPARATORS.split(want)
    if len(got_tokens) != len(want_tokens):
        return False
    for g, w in zip(got_tokens, want_tokens):
        if g == w:
            continue
        if not (_NUMBER.match(g) and _NUMBER.match(w)):
            return False
        if not math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False
    return True


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def pairing_total(word) -> int:
    """Label-matching pairings of a word: product of (m - 1)!! per label."""
    total = 1
    for m in Counter(tuple(letter) for letter in word).values():
        if m % 2:
            return 0
        total *= math.prod(range(m - 1, 0, -2))
    return total


def constant_t(request: dict) -> float:
    """t_estimate under constant signs: admissible index tuples / M^r."""
    m = request["M"]
    blocks = Counter(request["word"][e - 1] for e, _ in request["pairing"])
    tuples = math.prod(math.perm(m, b) for b in blocks.values())
    return tuples / m ** len(request["pairing"])


def _oracle(request: dict, got) -> str | None:
    op = request["op"]
    if op == "exact":
        word = request["word"]
        if got["count"] != got["fock"]:
            return f"partitions {got['count']} != fock {got['fock']}"
        if request["theta"] == 0.0 and got["limit"] != got["count"]:
            return f"limit at theta 0 {got['limit']} != count {got['count']}"
        if request["theta"] == 1.0 and got["limit"] != pairing_total(word):
            return f"limit at theta 1 {got['limit']} != {pairing_total(word)} pairings"
        if len({tuple(x) for x in word}) == 1 and got["count"] != catalan(len(word) // 2):
            return f"single-label count {got['count']} is not a Catalan number"
        if got["reduced"] is not True:
            return "normal form is not reduced"
    elif op == "moment" and request["signs"] == "constant":
        if Fraction(*got) != 3 - Fraction(2, request["N"]):
            return f"constant-sign a^4 moment {got} != 3 - 2/N"
    elif op == "t" and request["signs"] == "constant":
        want = constant_t(request)
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"constant-sign t {got!r} != {want!r}"
    return None


def _cli(request: dict, got: dict, want) -> str | None:
    if got["code"] != request["expect_code"]:
        return f"exit code {got['code']}, expected {request['expect_code']}"
    if "Traceback" in got["stderr"]:
        return "traceback on stderr"
    if request["expect_code"] == 0:
        if not same_text(got["stdout"], want["stdout"]):
            return "stdout differs from the recorded output"
    else:
        lines = got["stderr"].splitlines()
        if len(lines) != 1 or not lines[0].startswith("graphmoments:"):
            return f"rejection is not one 'graphmoments:' line: {got['stderr']!r}"
    return None


def check(request: dict, got, want) -> str | None:
    """Why the outcome is wrong, or None when every check passes."""
    if request["op"] == "cli":
        return _cli(request, got, want)
    reason = _oracle(request, got)
    if reason is None and not same(got, want):
        reason = f"{got!r} differs from the recorded {want!r}"
    return reason
