"""Acceptance suite.

Each test below is one pass/fail gate for the package as a whole, so
`pytest -v tests/test_acceptance.py` prints exactly one line per
criterion.  Time budgets are asserted inside the tests that carry one.
"""

import itertools
import random
import time

from koszulbench import hecke, koszul, mult, shapes, weights
from koszulbench.laurent import LaurentPoly
from koszulbench.mult import Space

from oracles import (box_shapes, delta_ic_flag, dominates, entry,
                     euler_matrix, from_pairs, graded_dims, involute)


def _all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_criterion_01_depth_set_identity():
    start = time.monotonic()
    for n in range(2, 11):
        for k in range(1, n):
            scan = shapes.scan_box(k, n - k)
            want = set(range(min(k, n - k) + 1))
            assert set(scan.depth_counts) == want, (k, n)
            assert scan.bound_violations == 0, (k, n)
    assert time.monotonic() - start < 60.0


def test_criterion_02_depth_bound_in_8x8():
    scan = shapes.scan_box(8, 8)
    assert scan.bound_violations == 0
    assert scan.shapes == 12320068
    assert scan.dyck == 179712
    assert scan.max_depth == 8


def test_criterion_03_kl_inversion():
    start = time.monotonic()
    pairs = [(k, n) for n in range(2, 8) for k in range(1, n)]
    pairs.append((2, 8))
    pairs += [(k, 9) for k in range(1, 9)]
    for k, n in pairs:
        report = mult.kl_inversion_check(k, n)
        assert report.ok, (k, n, report.first_failure)
    assert time.monotonic() - start < 120.0


def test_criterion_04_weight_supports():
    for n in range(2, 8):
        assert weights.wt_space(Space.gr(1, n)) == (0, 1), n
    assert weights.wt_space(Space.flag(3)) == (0, 1, 2, 3)
    for k, n in ((2, 4), (2, 5), (3, 6), (2, 6)):
        want = tuple(range(min(k, n - k) + 1))
        assert weights.wt_space(Space.gr(k, n)) == want, (k, n)
    assert len(weights.wt_space(Space.flag(4))) == 7


def test_criterion_05_loewy_dominance_and_socle():
    for n in range(2, 5):
        perms = [p for _, p in sorted(
            ((hecke.length(w), w) for w in _all_perms(n)))]
        identity = tuple(range(1, n + 1))
        for x in perms:
            bound = from_pairs(
                [(-i, 1) for i in range(hecke.length(x) + 1)])
            socle = delta_ic_flag(n, x, identity)
            assert socle, x
            for y in perms:
                p = delta_ic_flag(n, x, y)
                assert dominates(p, bound), (x, y)


def test_criterion_06_cartan_matches_graded_dims():
    C = mult.graded_cartan(Space.gr(1, 2))
    lam_empty, lam_box = C.labels
    v = LaurentPoly.monomial
    assert entry(C, lam_empty, lam_empty) == v(0) + v(-2)
    assert entry(C, lam_empty, lam_box) == v(-1)
    assert entry(C, lam_box, lam_empty) == v(-1)
    assert entry(C, lam_box, lam_box) == v(0)
    dims = graded_dims(koszul.builtin_algebra("p1"))
    pairing = {"b": lam_empty, "a": lam_box}
    for s in ("a", "b"):
        for t in ("a", "b"):
            assert dims[(s, t)] == entry(C, pairing[s], pairing[t]), (s, t)


def test_criterion_07_koszulity_battery():
    start = time.monotonic()
    assert koszul.is_koszul(koszul.builtin_algebra("dual_numbers"),
                            "Q").is_koszul
    x3 = koszul.is_koszul(koszul.builtin_algebra("x3_truncation"), "Q")
    assert not x3.is_koszul
    assert x3.first_violation == (2, "pt", "pt", -3)
    assert koszul.is_koszul(koszul.builtin_algebra("p1"), "Q").is_koszul
    for l in (2, 3, 5, 7):
        assert koszul.is_koszul(koszul.builtin_algebra("p1"),
                                "F:%d" % l).is_koszul, l
    integral = koszul.integral_koszul_check(koszul.builtin_algebra("p1"), 5)
    assert integral.dims_match
    assert integral.koszul_over_q == integral.koszul_over_f
    assert integral.verdict == "koszul"
    assert time.monotonic() - start < 5.0


def test_criterion_08_separated_implies_decomposable():
    for l in (2, 3, 5):
        report = weights.is_phi_decomposable([[1, 1], [0, l + 1]],
                                             l + 1, l)
        assert report.applicable
        assert not report.decomposable, l
    report = weights.is_phi_decomposable([[1, 0], [0, 3]], 3, 5)
    assert report.applicable and report.decomposable

    rng = random.Random(88)
    primes = [3, 5, 7, 11, 13]
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 4)
        l = rng.choice([p for p in primes if p - 1 >= n])
        q = rng.randint(2, 9)
        if q % l == 0:
            continue
        exponents = list(range(8))
        rng.shuffle(exponents)
        chosen, residues = [], set()
        for e in exponents:
            r = pow(q, e, l)
            if r not in residues:
                residues.add(r)
                chosen.append(e)
            if len(chosen) == n:
                break
        if len(chosen) < n:
            continue
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = q ** chosen[i]
            for j in range(i + 1, n):
                matrix[i][j] = rng.randint(-4, 4)
        assert weights.is_separated(chosen, q, l)
        report = weights.is_phi_decomposable(matrix, q, l)
        assert report.applicable
        assert report.decomposable, (matrix, q, l)
        checked += 1
    assert checked == 1000


def test_criterion_09_separating_prime_for_gr25():
    wt = weights.wt_space(Space.gr(2, 5))
    assert len(wt) == 3
    search = weights.find_separating_prime(wt, 5)
    assert search.status == "found"
    assert search.prime == 2


def test_criterion_10_property_suites():
    rng = random.Random(1010)

    def rand_poly():
        return from_pairs(
            [(rng.randint(-4, 4), rng.randint(-5, 5))
             for _ in range(rng.randint(0, 5))])

    one = LaurentPoly.monomial(0)
    zero = LaurentPoly.zero()
    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + zero == a and a * one == a
        assert involute(a * b) == involute(a) * involute(b)
        assert involute(a + b) == involute(a) + involute(b)
        assert involute(involute(a)) == a
        assert dominates(a, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    for rows, cols in ((3, 3), (2, 4)):
        for shape in box_shapes(rows, cols):
            assert shapes.dyck_depth(shape) == shapes.dyck_depth(
                shapes.transpose(shape))

    for name in ("p1", "semisimple"):
        algebra = koszul.builtin_algebra(name)
        table = koszul.ext_table(algebra, "Q")
        euler = euler_matrix(table)
        inverse = koszul.cartan_inverse(algebra)
        for i, a in enumerate(algebra.vertices):
            for j, b in enumerate(algebra.vertices):
                got = euler.get((a, b), LaurentPoly.zero())
                assert got == inverse[i][j], (name, a, b)
