import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from koszulbench import _linalg, mult, weights
from oracles import (cartan_blocks, has_weights_in, phi_report_by_sweep,
                     sparse, wt_brute)


def test_wt_from_blocks_single():
    assert weights.wt_from_blocks([[0, 1, 2]]) == (0, 1, 2)
    assert weights.wt_from_blocks([[5, 6]]) == (0, 1)
    assert weights.wt_from_blocks([[3]]) == (0,)


def test_wt_from_blocks_merges_translates():
    assert weights.wt_from_blocks([[0, 1], [0, 1, 2]]) == (0, 1, 2)
    assert weights.wt_from_blocks([[1, 3], [0, 1, 2, 4]]) == (0, 1, 2, 4)
    for blocks in ([[0, 2], [0, 1]], [[0, 3], [0, 1]]):
        with pytest.raises(ValueError, match="no single block covers"):
            weights.wt_from_blocks(blocks)


def test_wt_from_blocks_refuses_when_no_block_covers():
    # the brute-force answer, (0, 2, 4), has more elements than any block
    with pytest.raises(ValueError, match="no single block covers"):
        weights.wt_from_blocks([[0, 2], [0, 4]])
    assert wt_brute([[0, 2], [0, 4]]) == (0, 2, 4)
    assert weights.wt_from_blocks([[0], [0], [0]]) == (0,)


def test_wt_from_blocks_empty_cases():
    assert weights.wt_from_blocks([]) == (0,)
    with pytest.raises(ValueError):
        weights.wt_from_blocks([[]])


def test_cartan_blocks_parity():
    blocks = cartan_blocks(mult.Space.gr(1, 2))
    assert (0, 1) in blocks
    assert all(b[0] == 0 for b in blocks)
    # one block per distinct entry (1, v^-1, 1 + v^-2), sorted
    assert blocks == [(0,), (0,), (0, 1)]


WT_CASES = [
    ("gr:1,2", (0, 1)),
    ("gr:1,5", (0, 1)),
    ("gr:1,7", (0, 1)),
    ("gr:2,4", (0, 1, 2)),
    ("gr:2,5", (0, 1, 2)),
    ("gr:2,6", (0, 1, 2)),
    ("gr:3,6", (0, 1, 2, 3)),
    ("flag:3", (0, 1, 2, 3)),
]


@pytest.mark.parametrize("space,want", WT_CASES)
def test_wt_space_cases(space, want):
    assert weights.wt_space(space) == want


def test_wt_space_flag4_range():
    wt = weights.wt_space("flag:4")
    assert len(wt) == 7
    assert wt == tuple(range(7))


# every space the CLI accepts, with m, the top of its wt = {0, ..., m}
SPACES = ([(mult.Space.gr(k, n), min(k, n - k))
           for n in range(2, 11) for k in range(1, n)]
          + [(mult.Space.flag(n), n * (n - 1) // 2) for n in range(1, 6)])


def test_wt_matches_the_brute_force_route_on_every_small_space():
    """wt is the interval 0..m, the block of the diagonal Cartan entry
    at the first label (the closed form proved in weights' docstring),
    by three routes: the library's packed corner, the corner of
    graded_cartan, and the brute-force cover of every entry's block."""
    assert len(SPACES) == 50
    for space, m in SPACES:
        wt = weights.wt_space(space)
        assert wt == tuple(range(m + 1)), space
        assert wt == wt_brute(cartan_blocks(space)), space
        corner = mult.graded_cartan(space).entries[0][0]
        assert tuple(sorted(-e // 2 for e, _ in corner.items())) == wt, space


def test_wt_space_reads_no_whole_cartan_matrix(monkeypatch):
    """wt_space reads one Cartan entry off D's rows; it never builds the
    matrix."""
    def refuse(space):
        raise AssertionError("graded_cartan(%s) was built" % space.render())

    monkeypatch.setattr(mult, "graded_cartan", refuse)
    for space, m in SPACES:
        assert weights.wt_space(space) == tuple(range(m + 1)), space


def test_a_space_has_a_separating_prime_exactly_when_l_exceeds_m_plus_one():
    """By the Fermat argument of find_separating_prime, 0..m has a
    separating prime mod l exactly when no two of its exponents agree
    mod l - 1, that is when m < l - 1; otherwise none exists."""
    primes = [l for l in range(2, 200) if _linalg.is_prime(l)]
    assert len(primes) == 46
    for space, m in SPACES:
        for l in primes:
            status = weights.find_separating_prime(range(m + 1), l).status
            want = "found" if l >= m + 2 else "none_exists"
            assert status == want, (space, l)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4),
                max_size=5))
@example([[0, 1], [0, 1, 2]])
@example([[0, 2], [0, 1]])
def test_wt_from_blocks_matches_the_brute_force_route(blocks):
    """Either one block covers the others and is the brute-force
    answer, or none does, and that answer is larger than every block."""
    brute = wt_brute(blocks)
    largest = max((len(set(b)) for b in blocks), default=1)
    try:
        got = weights.wt_from_blocks(blocks)
    except ValueError as exc:
        assert str(exc) == "no single block covers the others"
        assert len(brute) > largest
    else:
        assert got == brute
        assert len(got) == largest


def test_wt_space_preconditions():
    with pytest.raises(ValueError):
        weights.wt_space("gr:2,11")
    with pytest.raises(ValueError):
        weights.wt_space("flag:6")


def test_render_wt():
    assert weights.render_wt((0, 1, 2)) == "{1,q,q^2}"
    assert weights.render_wt((0,)) == "{1}"


def test_is_separated():
    assert weights.is_separated([0, 1, 2], 2, 5)
    assert not weights.is_separated([0, 4], 2, 5)
    assert weights.separation_residues([0, 1, 2], 2, 5) == [1, 2, 4]
    with pytest.raises(ValueError):
        weights.is_separated([0, 1], 10, 5)
    for l in (1, 0, -3):
        with pytest.raises(ValueError, match="l must be at least 2"):
            weights.is_separated([0, 1], 2, l)


def test_find_separating_prime_found():
    report = weights.find_separating_prime([0, 1, 2], 5)
    assert report.status == "found"
    assert report.prime == 2
    assert report.residues == (1, 2, 4)
    report = weights.find_separating_prime([0, 1], 3)
    assert (report.status, report.prime) == ("found", 2)


def test_find_separating_prime_none_exists():
    report = weights.find_separating_prime([0, 1], 2)
    assert report.status == "none_exists"
    report = weights.find_separating_prime([0, 4], 5)
    assert report.status == "none_exists"


def test_find_separating_prime_bound_too_small():
    report = weights.find_separating_prime([0, 1], 5, bound=1)
    assert report.status == "bound_too_small"


def test_separating_prime_exists_whenever_wr_below_l():
    rng = random.Random(99)
    for _ in range(200):
        l = rng.choice([3, 5, 7, 11, 13])
        size = rng.randint(1, l - 1)
        wt = sorted(rng.sample(range(0, l - 1), size))
        report = weights.find_separating_prime(wt, l, bound=100)
        assert report.status == "found", (wt, l, report)


def test_char_poly():
    assert _linalg.char_poly([[2]])[0] == [-2, 1]
    assert _linalg.char_poly([[1, 1], [0, 3]])[0] == [3, -4, 1]
    assert _linalg.char_poly([[0, 1], [1, 0]])[0] == [-1, 0, 1]


def test_det_bareiss():
    assert _linalg.det_bareiss([[1, 2], [3, 4]]) == -2
    assert _linalg.det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert _linalg.det_bareiss([[1, 1], [1, 1]]) == 0


def test_smith_kernel_basis_saturated():
    kern = _linalg.smith_kernel_basis([[0, 2]], 2)
    assert len(kern) == 1
    assert kern[0][1] == 0 and abs(kern[0][0]) == 1
    kern = _linalg.smith_kernel_basis([[1, 1], [1, 1]], 2)
    assert len(kern) == 1
    assert sorted(map(abs, kern[0])) == [1, 1]


@st.composite
def low_rank_products(draw):
    """B C with B nrows x r and C r x ncols, small entries: square with
    n <= 6 and rank at most r in 0..n, or of any shape up to 6 x 6."""
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        nrows = ncols = draw(st.integers(1, 6))
    else:
        nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, max(nrows, ncols)))
    B = [[draw(entries) for _ in range(r)] for _ in range(nrows)]
    C = [[draw(entries) for _ in range(ncols)] for _ in range(r)]
    return [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(ncols)]
            for i in range(nrows)], ncols


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(low_rank_products())
def test_smith_kernel_basis_is_a_saturated_kernel(case):
    matrix, ncols = case
    kern = _linalg.smith_kernel_basis(matrix, ncols)
    for vec in kern:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0
                   for row in matrix)
    ech = _linalg.Echelon(0)
    rank = sum(ech.add(sparse(row)) for row in matrix)
    assert len(kern) == ncols - rank
    minors = [_linalg.det_bareiss([[kern[c][i] for c in range(len(kern))]
                                   for i in rows])
              for rows in itertools.combinations(range(ncols), len(kern))]
    assert gcd(*minors) == 1


def test_has_weights_in():
    ok, wts = has_weights_in([[1, 1], [0, 3]], 3)
    assert ok and wts == {0: 1, 1: 1}
    ok, wts = has_weights_in([[9, 0], [0, 9]], 3)
    assert ok and wts == {2: 2}
    ok, wts = has_weights_in([[2, 0], [0, 3]], 3)
    assert not ok and wts is None
    ok, wts = has_weights_in([[1, 0], [0, 1]], 1)
    assert ok and wts == {0: 2}


def test_has_weights_in_q_one_needs_every_root_one():
    ok, wts = has_weights_in([[1, 0], [0, 2]], 1)
    assert not ok and wts is None
    ok, wts = has_weights_in([[1, 5], [0, 1]], 1)
    assert ok and wts == {0: 2}


def test_phi_decomposable_refuses_a_short_weight_kernel(monkeypatch):
    """A split characteristic polynomial makes Q^n the sum of the
    generalized eigenspaces, so the weight kernels always hold n
    vectors; a kernel routine that lost one raises instead of
    reporting a verdict. The weight 1 is repeated, so its kernel comes
    from smith_kernel_basis."""
    kernel = _linalg.smith_kernel_basis
    monkeypatch.setattr(_linalg, "smith_kernel_basis",
                        lambda matrix, ncols: kernel(matrix, ncols)[:-1])
    with pytest.raises(RuntimeError):
        weights.is_phi_decomposable([[1, 1], [0, 1]], 3, 5)


def test_phi_decomposable_refuses_a_zero_adjugate(monkeypatch):
    """At a simple weight adj(q^i - A) has rank 1; adjugate terms that
    vanish there raise instead of reporting a verdict."""
    char_poly = _linalg.char_poly

    def zero_terms(matrix):
        coeffs, terms = char_poly(matrix)
        return coeffs, [[[0] * len(matrix) for _ in matrix]] * len(terms)

    monkeypatch.setattr(_linalg, "char_poly", zero_terms)
    with pytest.raises(RuntimeError, match="adjugate vanishes"):
        weights.is_phi_decomposable([[1, 1], [0, 3]], 3, 5)


def test_phi_decomposable_refuses_q_below_one():
    with pytest.raises(ValueError, match="q must be a positive integer"):
        weights.is_phi_decomposable([[1, 0], [0, 4]], -2, 5)


def test_phi_not_decomposable_witness():
    for l in (2, 3, 5):
        q = l + 1
        report = weights.is_phi_decomposable([[1, 1], [0, q]], q, l)
        assert report.applicable
        assert report.weights == {0: 1, 1: 1}
        assert report.index == l
        assert not report.decomposable


def test_phi_decomposable_diagonal():
    report = weights.is_phi_decomposable([[1, 0], [0, 3]], 3, 5)
    assert report.applicable and report.decomposable
    assert report.index == 1
    assert report.residues == (1, 3)


def test_phi_inapplicable():
    report = weights.is_phi_decomposable([[2, 0], [0, 3]], 3, 5)
    assert not report.applicable
    assert report.decomposable is None


def test_phi_validates_inputs():
    with pytest.raises(ValueError):
        weights.is_phi_decomposable([[1, 0], [0, 3]], 3, 4)
    with pytest.raises(ValueError):
        weights.is_phi_decomposable([[1, 0], [0, 3]], 15, 5)
    with pytest.raises(ValueError):
        weights.is_phi_decomposable([[5, 0], [0, 1]], 1, 5)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, "1"])
def test_phi_refuses_an_entry_that_is_not_an_int(bad):
    """The library checks entry types, not only the CLI: [[0.5]] used to
    raise ArithmeticError from the trace division, [[2.0]] and [[True]]
    gave a report, and [["1"]] a TypeError from abs; in a larger matrix
    the message names the row."""
    for matrix, row in (([[bad]], 0), ([[1, 0], [bad, 3]], 1)):
        with pytest.raises(ValueError, match="^matrix row %d has an entry "
                           "that is not an integer" % row):
            weights.is_phi_decomposable(matrix, 3, 5)


def test_phi_separated_implies_decomposable_seeded():
    rng = random.Random(20260819)
    primes = [2, 3, 5, 7, 11]
    checked = 0
    while checked < 300:
        n = rng.randint(2, 4)
        l = rng.choice([p for p in primes if p - 1 >= n])
        q = rng.choice([p for p in primes if p != l])
        exps = []
        seen = set()
        for e in range(0, 8):
            r = pow(q, e, l)
            if r not in seen:
                seen.add(r)
                exps.append(e)
            if len(exps) == n:
                break
        if len(exps) < n:
            continue
        rng.shuffle(exps)
        matrix = [[q ** exps[i] if i == j
                   else (rng.randint(-4, 4) if j > i else 0)
                   for j in range(n)] for i in range(n)]
        report = weights.is_phi_decomposable(matrix, q, l)
        assert report.applicable
        assert report.decomposable, (matrix, q, l, report)
        checked += 1


@st.composite
def square_pairs(draw):
    """Two n x n integer matrices, n in 1..5, entries in -3..3."""
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return draw(square), draw(square)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(square_pairs(), st.integers(1, 6))
def test_mat_pow_matches_chained_products(pair, e):
    a, b = pair
    n = len(a)
    assert _linalg.mat_mul(a, b) == [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)]
    want = a
    for _ in range(e - 1):
        want = _linalg.mat_mul(want, a)
    assert weights._mat_pow(a, e) == want


def test_mat_pow_refuses_exponent_zero():
    with pytest.raises(ValueError):
        weights._mat_pow([[2]], 0)


@st.composite
def char_poly_inputs(draw):
    """n x n integer matrices, n in 1..6, with small entries or entries
    within a few of +-2^31."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-3, 3),
                        st.integers(2 ** 31 - 4, 2 ** 31 - 1),
                        st.integers(-2 ** 31 + 1, -2 ** 31 + 4))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(char_poly_inputs())
def test_char_poly_and_adjugate_agree_with_determinants(matrix):
    """p(t) = det(tI - A) by Bareiss elimination and
    (tI - A) sum_k M_k t^(n-k) = p(t) I at 2n + 2 integer points: more
    than the n + 1 that fix p, and at most n of them are roots of p,
    so the adjugate, of degree n - 1, is fixed by the others."""
    n = len(matrix)
    coeffs, terms = _linalg.char_poly(matrix)
    assert coeffs[n] == 1 and len(terms) == n
    for t in range(-n - 1, n + 1):
        shifted = [[t * (i == j) - matrix[i][j] for j in range(n)]
                   for i in range(n)]
        p = sum(c * t ** k for k, c in enumerate(coeffs))
        assert _linalg.det_bareiss(shifted) == p
        adj = [[sum(M[i][j] * t ** (n - 1 - k) for k, M in enumerate(terms))
                for j in range(n)] for i in range(n)]
        assert [[sum(shifted[i][s] * adj[s][j] for s in range(n))
                 for j in range(n)] for i in range(n)] == [
            [p * (i == j) for j in range(n)] for i in range(n)]


@st.composite
def triangular_conjugates(draw):
    """(U T U^-1, q, diagonal of T) with T upper triangular, n in 1..6,
    and U a product of elementary integer matrices. Each diagonal entry
    is q^e with e in 0..4, so weights are simple or repeated, or, one
    time in five, any int in -3..9, which may stop the polynomial
    splitting."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    diagonal = [draw(st.integers(-3, 9)) if draw(st.integers(0, 4)) == 0
                else q ** draw(st.integers(0, 4)) for _ in range(n)]
    T = [[diagonal[i] if i == j else draw(small) if j > i else 0
          for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        # U <- U (I + c e_ij) and V <- (I - c e_ij) V keep V = U^-1
        for row in U:
            row[j] += c * row[i]
        V[i] = [x - c * y for x, y in zip(V[i], V[j])]
    UT = [[sum(U[i][s] * T[s][j] for s in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(UT[i][s] * V[s][j] for s in range(n)) for j in range(n)]
            for i in range(n)], q, diagonal


def _q_exponent(x, q):
    """e with q^e = x (0 when q = 1), or None."""
    e = 0
    while q ** e < x and q > 1:
        e += 1
    return e if q ** e == x else None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(triangular_conjugates())
def test_has_weights_in_reads_the_triangular_diagonal(case):
    """The weights of U T U^-1 are the exponents of T's diagonal, or
    there are none when an entry is not a power of q."""
    matrix, q, diagonal = case
    exponents = [_q_exponent(x, q) for x in diagonal]
    want = ((False, None) if None in exponents else
            (True, {e: exponents.count(e) for e in set(exponents)}))
    assert has_weights_in(matrix, q) == want


@st.composite
def phi_inputs(draw):
    """(matrix, q, l): a triangular conjugate, or, one time in four, a
    dense matrix with entries in -3..3 and q in 1..5. l may divide the
    determinant, and for a dense matrix q too; both routes refuse
    either."""
    if draw(st.integers(0, 3)):
        matrix, q, _ = draw(triangular_conjugates())
        primes = [p for p in (2, 3, 5, 7) if q % p]
    else:
        n = draw(st.integers(1, 6))
        matrix = [[draw(st.integers(-3, 3)) for _ in range(n)]
                  for _ in range(n)]
        q, primes = draw(st.integers(1, 5)), [2, 3, 5, 7]
    return matrix, q, draw(st.sampled_from(primes))


def _outcome(route, matrix, q, l):
    try:
        return route(matrix, q, l)
    except ValueError as exc:
        return "ValueError", str(exc)


# Matrices where a simple weight's adjugate adj(q^i - A) has a zero
# first column: upper triangular, lower triangular with a row that is
# zero left of the diagonal, and not triangular at all (dense blocks
# whose left eigenvectors vanish on the first coordinates).
ADJUGATE_BASES = {
    "upper": ([[1, 2, -1], [0, 3, 1], [0, 0, 9]], 3),
    "lower": ([[1, 0, 0], [0, 3, 0], [1, 2, 9]], 3),
    "block": ([[16, 1, 2], [0, 0, 1], [0, -4, 5]], 4),
    "two-blocks": ([[0, 1, 1, -1], [-4, 5, 2, 0], [0, 0, 0, 1],
                    [0, 0, -1024, 80]], 4),
}


def _first_column_vanishes(matrix, q):
    """Whether column 0 of adj(q^i - A) is zero at some simple weight
    i, the adjugate summed from char_poly's terms."""
    _, terms = _linalg.char_poly(matrix)
    _, found = has_weights_in(matrix, q)
    for i in [i for i, m in found.items() if m == 1]:
        col = [0] * len(matrix)
        for M in terms:
            col = [c * q ** i + row[0] for c, row in zip(col, M)]
        if not any(col):
            return True
    return False


def test_phi_report_matches_the_sweep_where_first_adjugate_columns_vanish():
    """A simple weight takes its kernel vector from the adjugate column
    at its first nonzero diagonal entry, not from the first nonzero
    column. Every permuted conjugate P A P^-1 of the bases above whose
    first adjugate column vanishes at a simple weight, with every l in
    2..7 prime to q, gives the sweep's PhiReport or refusal."""
    cases = []
    for name, (matrix, q) in ADJUGATE_BASES.items():
        found = 0
        for perm in itertools.permutations(range(len(matrix))):
            conj = [[matrix[a][b] for b in perm] for a in perm]
            if _first_column_vanishes(conj, q):
                found += 1
                cases += [(conj, q, l) for l in (2, 3, 5, 7) if q % l]
        assert _first_column_vanishes(matrix, q) and found > 1, name
    got = [_outcome(weights.is_phi_decomposable, *case) for case in cases]
    assert got == [_outcome(phi_report_by_sweep, *case) for case in cases]
    assert {report.decomposable for report in got
            if isinstance(report, weights.PhiReport)} == {True, False}


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(phi_inputs())
@example(([[1, 1], [0, 4]], 4, 3))
@example(([[0, 1], [-4, 5]], 4, 3))
@example(([[1, 0], [0, 1]], 1, 2))
def test_phi_report_matches_the_all_sweep_route(case):
    """Identical PhiReports, or identical refusals, from the adjugate
    route for simple weights and from the smith_kernel_basis sweep of
    every weight (tests/oracles.py)."""
    matrix, q, l = case
    assert (_outcome(weights.is_phi_decomposable, matrix, q, l)
            == _outcome(phi_report_by_sweep, matrix, q, l))
