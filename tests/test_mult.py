import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from koszulbench import hecke, mult
from koszulbench.laurent import LaurentPoly, unpack
from koszulbench.shapes import Partition

from oracles import (conjugate_partition, cup_rows, delta_ic, delta_ic_flag,
                     dominates, entry, from_pairs, grassmannian_permutations,
                     inverse, laurent_matrix_inverse, pair_scan_rows,
                     proj_delta_vector)


def v_poly(*pairs):
    return from_pairs(list(pairs))


def P(*parts):
    return Partition(parts)


def test_space_parsing():
    assert mult.Space.parse("gr(2,4)") == mult.Space.gr(2, 4)
    assert mult.Space.parse("gr:2,4") == mult.Space.gr(2, 4)
    assert mult.Space.parse("flag(3)") == mult.Space.flag(3)
    assert mult.Space.parse("flag:3") == mult.Space.flag(3)
    assert mult.Space.gr(2, 5).render() == "gr(2,5)"
    for text in ("proj:3", "gr(2,,4)", "gr:2,4,", "flag:3,", "gr:a,4",
                 "gr:2,1_0", "gr:\u0662,4", "flag(\u0663)"):
        with pytest.raises(ValueError, match=re.escape(
                "cannot parse space %r" % text)):
            mult.Space.parse(text)
    with pytest.raises(ValueError):
        mult.Space.gr(3, 3)


def test_space_labels_order():
    labels = mult.Space.gr(2, 4).labels()
    assert labels == [P(), P(1), P(2), P(1, 1), P(2, 1), P(2, 2)]
    flags = mult.Space.flag(3).labels()
    assert flags[0] == (1, 2, 3)
    assert flags[-1] == (3, 2, 1)
    assert [hecke.length(w) for w in flags] == [0, 1, 1, 2, 2, 3]


GR24_ENTRIES = [
    (P(), P(), v_poly((0, 1))),
    ((P(1)), P(), v_poly((-1, 1))),
    (P(2), P(), LaurentPoly.zero()),
    (P(1, 1), P(), LaurentPoly.zero()),
    (P(2, 1), P(), LaurentPoly.zero()),
    (P(2, 2), P(), v_poly((-2, 1))),
    (P(2), P(1), v_poly((-1, 1))),
    (P(1, 1), P(1), v_poly((-1, 1))),
    (P(2, 1), P(1), v_poly((-2, 1))),
    (P(2, 2), P(1), v_poly((-1, 1))),
    (P(2, 1), P(2), v_poly((-1, 1))),
    (P(2, 2), P(2), LaurentPoly.zero()),
    (P(2, 1), P(1, 1), v_poly((-1, 1))),
    (P(2, 2), P(1, 1), LaurentPoly.zero()),
    (P(2, 2), P(2, 1), v_poly((-1, 1))),
]


@pytest.mark.parametrize("lam,mu,want", GR24_ENTRIES)
def test_delta_ic_gr24(lam, mu, want):
    assert mult.delta_ic_gr(2, 4, lam, mu) == want


def test_delta_ic_gr_validates_box():
    with pytest.raises(ValueError):
        mult.delta_ic_gr(2, 4, P(3), P())
    with pytest.raises(ValueError):
        mult.delta_ic_gr(2, 4, P(2, 2), P(1, 1, 1))
    assert not mult.delta_ic_gr(2, 4, P(1), P(2))


def test_delta_ic_gr_accepts_tuples():
    assert mult.delta_ic_gr(2, 4, (2, 2), ()) == v_poly((-2, 1))


def test_graded_cartan_gr12_oracle():
    C = mult.graded_cartan(mult.Space.gr(1, 2))
    assert C.labels == [P(), P(1)]
    assert C.entries[0][0] == v_poly((0, 1), (-2, 1))
    assert C.entries[0][1] == v_poly((-1, 1))
    assert C.entries[1][0] == v_poly((-1, 1))
    assert C.entries[1][1] == v_poly((0, 1))


def test_graded_cartan_symmetric_unitriangular():
    for space in (mult.Space.gr(2, 4), mult.Space.gr(2, 5), mult.Space.flag(3)):
        C = mult.graded_cartan(space)
        size = len(C.labels)
        for i in range(size):
            assert dict(C.entries[i][i].items()).get(0, 0) == 1
            for e in dict(C.entries[i][i].items()):
                assert e <= 0
            for j in range(size):
                assert C.entries[i][j] == C.entries[j][i]
                for e, c in C.entries[i][j].items():
                    assert c > 0


def test_graded_cartan_gr24_spot_values():
    C = mult.graded_cartan(mult.Space.gr(2, 4))
    assert entry(C, P(), P()) == v_poly((0, 1), (-2, 1), (-4, 1))
    assert entry(C, P(1), P(1)) == v_poly((0, 1), (-2, 3), (-4, 1))
    assert entry(C, P(), P(1)) == v_poly((-1, 1), (-3, 1))
    assert entry(C, P(), P(2, 2)) == v_poly((-2, 1))
    assert entry(C, P(2, 2), P(2, 2)) == v_poly((0, 1))


def test_flag3_cartan_identity_entry():
    C = mult.graded_cartan(mult.Space.flag(3))
    e = (1, 2, 3)
    assert entry(C, e, e) == v_poly((0, 1), (-2, 2), (-4, 2), (-6, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_cartan_is_its_own_koszul_dual(n):
    """A second route to the flag Cartan matrix that needs no KL
    polynomial: C(-v)^-1 is C relabelled by x -> w0 x^-1 (Koszul
    self-duality of O_0, BGS 1996), and the relabelling matters."""
    C = mult.graded_cartan(mult.Space.flag(n))
    w0 = hecke.longest_element(n)
    dual = laurent_matrix_inverse(
        [[from_pairs([(e, -c if e % 2 else c) for e, c in p.items()])
          for p in row] for row in C.entries])
    pos = [C.labels.index(hecke.compose(w0, inverse(x))) for x in C.labels]
    assert dual == [[C.entries[i][j] for j in pos] for i in pos]
    assert dual != C.entries


def test_delta_ic_flag_socle_and_loewy():
    for n in (2, 3, 4):
        e = tuple(range(1, n + 1))
        for x in itertools.permutations(range(1, n + 1)):
            lx = hecke.length(x)
            bound = from_pairs([(-i, 1) for i in range(lx + 1)])
            assert delta_ic_flag(n, x, e)
            for y in itertools.permutations(range(1, n + 1)):
                p = delta_ic_flag(n, x, y)
                assert dominates(p, bound)


def test_delta_ic_flag_values():
    assert delta_ic_flag(3, (3, 2, 1), (1, 2, 3)) == v_poly((-3, 1))
    assert delta_ic_flag(3, (3, 2, 1), (3, 2, 1)) == v_poly((0, 1))
    assert delta_ic_flag(2, (2, 1), (1, 2)) == v_poly((-1, 1))
    assert not delta_ic_flag(3, (1, 2, 3), (3, 2, 1))
    got = delta_ic_flag(4, (4, 3, 2, 1), (1, 3, 2, 4))
    assert got == v_poly((-3, 1), (-5, 1))


def test_flag_agrees_with_gr_on_rank_two():
    C_gr = mult.graded_cartan(mult.Space.gr(1, 2))
    C_fl = mult.graded_cartan(mult.Space.flag(2))
    assert [[p for p in row] for row in C_fl.entries] == C_gr.entries


def test_proj_delta_vector():
    vec = proj_delta_vector(mult.Space.gr(2, 4), P())
    assert vec == {P(): v_poly((0, 1)), P(1): v_poly((-1, 1)),
                   P(2, 2): v_poly((-2, 1))}
    top = proj_delta_vector(mult.Space.gr(2, 4), P(2, 2))
    assert top == {P(2, 2): v_poly((0, 1))}


def test_transpose_box_invariance():
    for k, n in [(1, 3), (2, 5)]:
        a = mult.graded_cartan(mult.Space.gr(k, n))
        b = mult.graded_cartan(mult.Space.gr(n - k, n))
        mapping = {lam: conjugate_partition(lam) for lam in a.labels}
        for lam in a.labels:
            for mu in a.labels:
                assert entry(a, lam, mu) == entry(b, mapping[lam], mapping[mu])


def test_multiplicity_matrix_json_schema():
    C = mult.graded_cartan(mult.Space.gr(1, 2))
    doc = C.to_json_dict()
    assert doc["space"] == "gr(1,2)"
    assert doc["tag"] == "cartan"
    assert doc["labels"] == [[], [1]]
    assert doc["entries"][0][0] == {"0": 1, "-2": 1}
    json.dumps(doc)
    D = mult.delta_ic_matrix(mult.Space.flag(2))
    fdoc = D.to_json_dict()
    assert fdoc["labels"] == ["12", "21"]
    assert fdoc["tag"] == "delta_ic"


def test_kl_inversion_check_small():
    for k, n in [(1, 2), (1, 3), (2, 4)]:
        report = mult.kl_inversion_check(k, n)
        assert report.ok, (k, n, report.first_failure)
        assert report.render_text() == "pass"
    assert mult.kl_inversion_check(1, 2).to_json_dict() == {
        "space": "gr(1,2)", "ok": True}


def test_kl_inversion_check_passes_past_the_acceptance_range():
    """The acceptance criterion checks n <= 7, (2,8) and gr(k,9); this
    covers the rest of n = 8 and all of n = 10, the largest CLI case."""
    for k, n in [(k, 8) for k in range(1, 8) if k != 2] + \
            [(k, 10) for k in range(1, 10)]:
        report = mult.kl_inversion_check(k, n)
        assert report.ok, (k, n, report.first_failure)


def test_kl_inversion_check_preconditions():
    with pytest.raises(ValueError):
        mult.kl_inversion_check(2, 11)
    with pytest.raises(ValueError):
        mult.kl_inversion_check(4, 4)


def test_dyck_matrix_unitriangular():
    space = mult.Space.gr(2, 5)
    D = mult.delta_ic_matrix(space)
    labels = D.labels
    for i, lam in enumerate(labels):
        assert D.entries[i][i] == v_poly((0, 1))
        for j, mu in enumerate(labels):
            if lam.size < mu.size:
                assert not D.entries[i][j]


def test_flag_matrices_make_no_per_pair_call(monkeypatch):
    """delta_ic_matrix and graded_cartan read whole parabolic KL
    columns: they build no KLTable, so no per-pair route is reached.
    The per-pair test below compares the values."""
    def per_pair(*args):
        raise AssertionError("per-pair call")
    monkeypatch.setattr(hecke.KLTable, "__init__", per_pair)
    monkeypatch.setattr(hecke.KLTable, "inverse_kl", per_pair)
    space = mult.Space.flag(4)
    assert len(mult.delta_ic_matrix(space).entries) == 24
    assert len(mult.graded_cartan(space).entries) == 24


def test_matrix_paths_make_no_laurent_arithmetic(monkeypatch):
    """The matrix paths multiply and add packed ints, and build a
    LaurentPoly only for each distinct value they return."""
    def refuse(*args):
        raise AssertionError("LaurentPoly arithmetic")
    for attr in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, attr, refuse)
    assert len(mult.graded_cartan(mult.Space.gr(4, 8)).entries) == 70
    assert len(mult.graded_cartan(mult.Space.flag(4)).entries) == 24
    assert len(mult.delta_ic_matrix(mult.Space.flag(4)).entries) == 24
    assert mult.kl_inversion_check(3, 6).ok


def u_polys(bound):
    """Laurent polynomials in u = v^-1 of degree <= 40 with
    coefficients in [-bound, bound]."""
    return st.dictionaries(st.integers(0, 40),
                           st.integers(-bound, bound)).map(
        lambda terms: LaurentPoly({-e: c for e, c in terms.items()}))


def packed(poly, shift=0):
    """poly * u^shift at u = 2^_BITS, straight from the definition."""
    return sum(c << mult._BITS * (shift - e) for e, c in poly.items())


def unpacked(x, shift=0):
    """The reader the matrix paths use, at mult's digit width."""
    return unpack(x, mult._BITS, shift)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(u_polys(2 ** 40), u_polys(2 ** 40), u_polys(2 ** 16),
       u_polys(2 ** 16), st.integers(0, 40))
def test_packed_arithmetic_matches_laurent(a, b, c, d, shift):
    """Sums and products of packed values decode to the LaurentPoly
    sums and products, with and without the offset u^shift that
    kl_inversion_check puts on K. One factor of each product has
    coefficients below 2^16, so that every coefficient of a*c + b*d
    stays below the 2^63 that balanced 64-bit digits can hold."""
    assert unpacked(packed(a)) == a
    assert unpacked(packed(a) + packed(b)) == a + b
    assert unpacked(packed(a) * packed(c) + packed(b) * packed(d)) \
        == a * c + b * d
    # with the offset, v-exponents run up to shift
    up = LaurentPoly.monomial(shift)
    A, B = a * up, b * up
    assert unpacked(packed(A, shift) - packed(B, shift), shift) \
        == A - B
    assert unpacked(packed(c) * packed(A, shift)
                    + packed(d) * packed(B, shift), shift) \
        == c * A + d * B


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 2 ** 40), max_size=8), st.integers(0, 8))
def test_repack_matches_the_kl_entry(coeffs, extra):
    """_repack turns P packed at q into v^(-d) P(v^2) packed at u."""
    p = sum(c << hecke._BITS * e for e, c in enumerate(coeffs))
    d = 2 * max(len(coeffs) - 1, 0) + extra
    want = LaurentPoly({2 * e - d: c for e, c in enumerate(coeffs)})
    assert unpacked(mult._repack(p, d)) == want
    assert unpacked(-mult._repack(p, d)) == -want


def sparse_rows(n, entry):
    """n x n sparse matrices with no empty row, entries drawn from
    entry."""
    return st.lists(st.dictionaries(st.integers(0, n - 1), entry, min_size=1),
                    min_size=n, max_size=n)


def dense_defect(A, B, one):
    """The first (i, j, entry) of the dense product A*B off one times
    the identity, or None."""
    n = len(A)
    for i, j in itertools.product(range(n), repeat=2):
        x = sum(a * B[t].get(j, 0) for t, a in A[i].items())
        if x != (one if i == j else 0):
            return i, j, x
    return None


def unitriangular_inverse(D):
    """The inverse of an upper unitriangular int matrix, both as sparse
    rows: row i is e_i minus D[i][t] times row t, over t > i."""
    K = [None] * len(D)
    for i in reversed(range(len(D))):
        row = {i: 1}
        for t, a in D[i].items():
            if t != i:
                for j, b in K[t].items():
                    row[j] = row.get(j, 0) - a * b
        K[i] = {j: x for j, x in row.items() if x}
    return K


@pytest.mark.parametrize("monomial", [(True, True), (True, False),
                                      (False, False)])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.sampled_from([1, 1 << 64]))
def test_first_defect_matches_the_dense_product(monomial, data, one):
    """D given as shifts e, for its entries 2^e, and K as packed ints:
    the first entry of D*K off one times the identity, as the dense
    product finds it. monomial = (triangular, inverse): whether D is
    upper unitriangular, as the Dyck matrices are, and then whether K
    is one times its inverse with at most one entry changed, so that
    the product is checked in full; K is any matrix otherwise. Whenever
    D*K is one times the identity, so is K*D, which _first_defect
    therefore does not form."""
    triangular, inverse = monomial
    n = data.draw(st.integers(1, 4))
    if triangular:
        pairs = list(itertools.combinations(range(n), 2))
        above = data.draw(st.lists(st.none() | st.integers(0, 130),
                                   min_size=len(pairs), max_size=len(pairs)))
        shifts = [{i: 0} for i in range(n)]
        for (i, j), e in zip(pairs, above):
            if e is not None:
                shifts[i][j] = e
    else:
        shifts = data.draw(sparse_rows(n, st.integers(0, 130)))
    D = [{j: 1 << e for j, e in row.items()} for row in shifts]
    if inverse:
        K = [{j: one * x for j, x in row.items()}
             for row in unitriangular_inverse(D)]
        i, j, delta = data.draw(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1),
                                          st.integers(-2, 2)))
        K[i][j] = K[i].get(j, 0) + delta
    else:
        K = data.draw(sparse_rows(n, st.integers(-50, 50)))
    want = dense_defect(D, K, one)
    assert mult._first_defect(shifts, K, one) == want
    if want is None:
        assert dense_defect(K, D, one) is None


# -- sparse Dyck rows and the coset-sized inversion check -------------------


def first_difference(got: str, want: str):
    """(line number, got's line, want's line) at the first line where
    the two texts differ, a missing line read as None; None when they
    are equal. A failure reports one line at once, where pytest would
    diff two renders of 63,504 cells for minutes."""
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((i,) + pair for i, pair in enumerate(pairs, 1)
                 if pair[0] != pair[1]), None)


def per_pair_delta_ic_matrix(space):
    """One delta_ic call per entry."""
    labels = space.labels()
    entries = [[delta_ic(space, nu, lam) for lam in labels]
               for nu in labels]
    return mult.MultiplicityMatrix(space, "delta_ic", labels, entries)


def per_pair_graded_cartan(space):
    """Entry (lam, mu) = sum_nu [Delta_nu:IC_mu][Delta_nu:IC_lam] from
    one delta_ic call per pair, summed as Laurent polynomials."""
    labels = space.labels()
    size = len(labels)
    acc = [[LaurentPoly.zero() for _ in range(size)] for _ in range(size)]
    for nu in labels:
        row = [(i, delta_ic(space, nu, lam))
               for i, lam in enumerate(labels)]
        row = [(i, p) for i, p in row if p]
        for ia, pa in row:
            for ib, pb in row:
                acc[ia][ib] = acc[ia][ib] + pa * pb
    return mult.MultiplicityMatrix(space, "cartan", labels, acc)


def test_dyck_rows_match_delta_ic_gr_on_every_pair():
    for n in range(2, 9):
        for k in range(1, n):
            labels = mult.Space.gr(k, n).labels()
            rows = mult.dyck_rows(k, n)
            assert len(rows) == len(labels)
            for row, lam in zip(rows, labels):
                for j, mu in enumerate(labels):
                    want = mult.delta_ic_gr(k, n, lam, mu)
                    got = (LaurentPoly.monomial(-row[j]) if j in row
                           else LaurentPoly.zero())
                    assert got == want, (lam, mu)
                    assert (j in row) == bool(want)


def test_dyck_rows_match_the_pair_scan():
    for n in range(2, 11):
        for k in range(1, n):
            assert mult.dyck_rows(k, n) == pair_scan_rows(k, n), (k, n)


def test_dyck_rows_match_cup_diagrams():
    """The bit encoding of dyck_rows against the same cup rule on lists
    of steps and subsets of cups, up to n = 11, one past Space.gr. The
    independent Dyck routes to D are the pair scan and delta_ic_gr."""
    for n in range(2, 12):
        for k in range(1, n):
            assert mult.dyck_rows(k, n) == cup_rows(k, n), (k, n)


@pytest.mark.parametrize("space,build,oracle", [
    (mult.Space.gr(5, 10), mult.graded_cartan, per_pair_graded_cartan),
    (mult.Space.gr(4, 8), mult.delta_ic_matrix, per_pair_delta_ic_matrix),
    (mult.Space.flag(4), mult.graded_cartan, per_pair_graded_cartan),
    (mult.Space.flag(4), mult.delta_ic_matrix, per_pair_delta_ic_matrix),
], ids=["cartan-gr5-10", "delta_ic-gr4-8", "cartan-flag4",
        "delta_ic-flag4"])
def test_matrices_render_like_the_per_pair_path(space, build, oracle):
    got, want = build(space), oracle(space)
    assert first_difference(got.render_text(), want.render_text()) is None
    # indent=0 puts each value on a line of its own; the two documents
    # are equal with it exactly when they are equal without it
    assert first_difference(
        json.dumps(got.to_json_dict(), sort_keys=True, indent=0),
        json.dumps(want.to_json_dict(), sort_keys=True, indent=0)) is None


@pytest.mark.parametrize("k,n,lam,mu", [
    (2, 4, (2, 2), (1,)),
    (2, 4, (1,), (1,)),
    (2, 4, (1, 1), (2,)),
    (3, 6, (3, 2, 1), (1,)),
    (4, 8, (4, 3, 3, 1), (2, 1)),
    (5, 10, (5, 4, 2, 2, 1), (3, 1)),
])
def test_kl_inversion_check_reports_a_corrupted_entry(k, n, lam, mu,
                                                      monkeypatch):
    """Add q to the parabolic entry behind K[lam][mu] (zero for mu not
    inside lam). D is unitriangular, so the rows of D*K above lam and
    the rest of row lam keep their values, and (lam, mu) must be the
    first failure, with the added term as its entry."""
    lam, mu = Partition(lam), Partition(mu)
    perms = dict(grassmannian_permutations(k, n))

    def mask(nu):
        # the k-subset of w0 x_nu
        return sum(1 << (n - t) for t in perms[nu][:k])

    clean = hecke.parabolic_kl

    def corrupted(composition):
        cols = clean(composition)
        col = cols[mask(mu)]
        col[mask(lam)] = col.get(mask(lam), 0) + (1 << hecke._BITS)
        return cols

    monkeypatch.setattr(hecke, "parabolic_kl", corrupted)
    report = mult.kl_inversion_check(k, n)
    d = lam.size - mu.size
    added = LaurentPoly.monomial(2 - d, (-1) ** d)
    assert not report.ok
    assert report.first_failure == (
        lam, mu, added + (1 if lam == mu else 0))
    assert report.render_text().startswith("FAIL at (%s, %s)" % (lam, mu))


def test_failing_inversion_report_json():
    got = from_pairs([(0, 1), (1, -2)])
    report = mult.InversionReport(2, 4, False, (Partition((2, 1)),
                                                Partition((1,)), got))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc == {"space": "gr(2,4)", "ok": False,
                   "first_failure": {"row": [2, 1], "col": [1],
                                     "entry": {"0": 1, "1": -2}}}
