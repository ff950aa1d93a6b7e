"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
All randomness is seeded, so each criterion is fully deterministic.
"""

import itertools
import random
import statistics
import time
from fractions import Fraction

from graphmoments import (
    ConstantSigns,
    PairPartition,
    SeededSigns,
    build_graph,
    count_gamma_admissible,
    enumerate_pairings,
    limit_moment,
    moment_s_word,
    normalize,
    t_estimate,
    vacuum,
    vacuum_moment,
    variance_sweep,
)
from tests.conftest import fixture_graphs, random_labeled_word
from tests.oracles import (
    applicable_moves,
    apply_annihilate,
    apply_create,
    apply_move,
    equivalence_class_oracle,
    every_index_algebra,
    inner,
    vacuum_trace,
)


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_moment_oracle_agreement():
    rng = random.Random(101)
    start = time.monotonic()
    mismatches = []
    for name, g in fixture_graphs().items():
        for _ in range(300):
            word = random_labeled_word(rng, g, rng.choice((2, 4, 6, 8)))
            simulated = vacuum_moment(g, word)
            counted = count_gamma_admissible(g, word)
            if simulated != counted:
                mismatches.append((name, word, simulated, counted))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed <= 60.0
    report(
        1,
        f"fock == pairing count on 6x300 random even words ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_02_odd_vanishing():
    rng = random.Random(102)
    bad = []
    for name, g in fixture_graphs().items():
        for _ in range(20):
            word = random_labeled_word(rng, g, rng.choice((1, 3, 5, 7)))
            if vacuum_moment(g, word) != 0 or count_gamma_admissible(g, word) != 0:
                bad.append((name, word))
    report(2, "both routes return exactly 0 on 120 random odd words", not bad)


def test_criterion_03_catalan_moments():
    g = build_graph(["a"])
    expected = [1, 2, 5, 14, 42]
    ok = True
    for r, catalan in enumerate(expected, start=1):
        word = (("a", 1),) * (2 * r)
        ok = ok and vacuum_moment(g, word) == catalan
        ok = ok and count_gamma_admissible(g, word) == catalan
    report(3, "single-vertex moments at lengths 2..10 are 1, 2, 5, 14, 42", ok)


def test_criterion_04_edge_dichotomy():
    edge = build_graph(["a", "b"], [("a", "b")])
    noedge = build_graph(["a", "b"])
    word = tuple((v, 1) for v in "abab")
    ok = (
        vacuum_moment(edge, word) == 1
        and count_gamma_admissible(edge, word) == 1
        and vacuum_moment(noedge, word) == 0
        and count_gamma_admissible(noedge, word) == 0
    )
    for n in (2, 8, 32):
        for seed in range(10):
            ok = ok and moment_s_word(SeededSigns(edge, 0.5, seed), word, n) == 1
    report(4, "abab moment: 1 with the edge, 0 without; matrix exactly 1", ok)


def test_criterion_05_matrix_convergence_at_half():
    noedge = build_graph(["a", "b"])
    word = tuple((v, 1) for v in "abab")
    seeds = range(10)
    means = []
    for n in (8, 16, 32):
        values = [
            abs(float(moment_s_word(SeededSigns(noedge, 0.5, s), word, n)))
            for s in seeds
        ]
        means.append(statistics.mean(values))
    ok = means[0] > means[1] > means[2] and means[2] <= 0.15

    single = build_graph(["a"])
    word4 = (("a", 1),) * 4
    errors = [
        abs(float(moment_s_word(SeededSigns(single, 0.5, s), word4, 32)) - 2.0)
        for s in seeds
    ]
    ok = ok and statistics.mean(errors) <= 0.2
    report(
        5,
        f"p=1/2 convergence: |m| means {[round(m, 4) for m in means]} decreasing, "
        f"|m-2| mean {statistics.mean(errors):.4f} <= 0.2",
        ok,
    )


def test_criterion_06_deterministic_sign_law():
    single = build_graph(["a"])
    word = (("a", 1),) * 4
    signs = ConstantSigns(single)
    ok = all(
        moment_s_word(signs, word, n) == Fraction(3) - Fraction(2, n)
        for n in (2, 4, 8, 64)
    )
    ok = ok and limit_moment(single, word, 1.0) == 3.0
    report(6, "constant signs give exactly 3 - 2/N, limit 3", ok)


def test_criterion_07_t_concentration_and_variance_decay():
    single = build_graph(["a"])
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    values = [
        t_estimate(SeededSigns(single, 0.5, seed), single, word, pairing, 100)
        for seed in range(50)
    ]
    spread = statistics.stdev(values)
    within = sum(1 for x in values if abs(x) <= 3.0 * spread) / len(values)
    result = variance_sweep(single, word, pairing, [16, 32, 64, 128], 32, 0.5, 0)
    ok = within >= 0.9 and not result.degenerate and -2.5 <= result.slope <= -1.5
    report(
        7,
        f"t-estimates: {within:.0%} within 3 std at N=100, "
        f"variance slope {result.slope:.2f} in [-2.5, -1.5]",
        ok,
    )


def test_criterion_08_algebraic_identity_suite():
    rng = random.Random(108)
    graphs = fixture_graphs()
    path3 = graphs["path3"]
    algebra = every_index_algebra(SeededSigns(path3, 0.5, 7), 6)
    size = len(algebra.universe)
    ok = True

    for _ in range(1000):
        mask = rng.randrange(1 << size)
        r = rng.randrange(size)
        ok = ok and algebra.apply_b(algebra.apply_b({mask: 1}, r), r) == {mask: 1}

    for _ in range(1000):
        mask = rng.randrange(1 << size)
        r1, r2 = rng.sample(range(size), 2)
        i, v = algebra.universe[r1]
        j, w = algebra.universe[r2]
        sign = algebra.signs(i, v, j, w)
        lhs = algebra.apply_b(algebra.apply_b({mask: 1}, r2), r1)
        rhs = algebra.apply_b(algebra.apply_b({mask: 1}, r1), r2)
        ok = ok and lhs == {m: sign * c for m, c in rhs.items()}

    for _ in range(1000):
        word = [rng.randrange(size) for _ in range(rng.randrange(2, 9))]
        cut = rng.randrange(len(word))
        ok = ok and vacuum_trace(algebra, word) == vacuum_trace(
            algebra, word[cut:] + word[:cut]
        )
        ok = ok and abs(vacuum_trace(algebra, word)) <= 1

    small = every_index_algebra(SeededSigns(graphs["edgeless3"], 0.5, 9), 2)
    for k in (1, 2, 3):
        for gens in itertools.permutations(range(len(small.universe)), k):
            for powers in itertools.product(range(1, 5), repeat=k):
                word = [r for r, l in zip(gens, powers) for _ in range(l)]
                expected = 1
                for l in powers:
                    expected *= 1 if l % 2 == 0 else 0
                ok = ok and vacuum_trace(small, word) == expected

    for _ in range(1000):
        g = graphs[rng.choice(sorted(graphs))]
        x, y = vacuum(), vacuum()
        for _ in range(rng.randrange(0, 4)):
            x = apply_create(g, x, (rng.choice(g.vertices), rng.choice((1, 2))))
        for _ in range(rng.randrange(0, 5)):
            y = apply_create(g, y, (rng.choice(g.vertices), rng.choice((1, 2))))
        letter = (rng.choice(g.vertices), rng.choice((1, 2)))
        ok = ok and inner(apply_create(g, x, letter), y) == inner(
            x, apply_annihilate(g, y, letter)
        )

    report(8, "b^2, commutation, traciality, factorization, adjointness all exact", ok)


def test_criterion_09_word_combinatorics_suite():
    rng = random.Random(109)
    ok = True
    for g in fixture_graphs().values():
        word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(1, 7)))
        target = normalize(g, word)
        ok = ok and normalize(g, target) == target
        current = word
        for step in range(10**4):
            options = [("move", m) for m in applicable_moves(g, current)]
            if len(current) < 10:
                options += [("dup", i) for i in range(len(current))]
            kind, payload = rng.choice(options)
            if kind == "move":
                current = apply_move(g, current, payload)
            else:
                current = (
                    current[: payload + 1] + (current[payload],) + current[payload + 1 :]
                )
            if step % 1000 == 999:
                ok = ok and normalize(g, current) == target
        ok = ok and normalize(g, current) == target

    for g in (fixture_graphs()["path3"], fixture_graphs()["edgeless3"]):
        all_words = [()]
        frontier = [()]
        for _ in range(5):
            frontier = [w + (v,) for w in frontier for v in g.vertices]
            all_words.extend(frontier)
        class_of = {}
        for w in all_words:
            if w not in class_of:
                members = equivalence_class_oracle(g, w, 5)
                for x in members:
                    class_of[x] = members
        canon = {w: normalize(g, w) for w in all_words}
        for w1 in all_words:
            cls = class_of[w1]
            for w2 in all_words:
                ok = ok and (canon[w1] == canon[w2]) == (w2 in cls)
    report(9, "normalize invariant under 10^4 moves; matches closure oracle", ok)


def test_criterion_10_convention_coherence():
    rng = random.Random(110)
    ok = True
    for g in fixture_graphs().values():
        for _ in range(50):
            word = random_labeled_word(rng, g, rng.randrange(0, 9))
            ok = ok and limit_moment(g, word, 0.0) == count_gamma_admissible(g, word)
            ok = ok and limit_moment(g, word, 1.0) == len(enumerate_pairings(g, word))
    report(10, "limit moment at 0 is the count, at 1 the pairing total", ok)
