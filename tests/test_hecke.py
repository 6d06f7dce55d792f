import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from koszulbench import hecke
from koszulbench.hecke import KLTable
from koszulbench.laurent import LaurentPoly, digits
from koszulbench.shapes import Partition

from oracles import (FullKLTable, first_descent, from_pairs,
                     grassmannian_permutations, inverse, is_smooth, mul_s)


def q_poly(*coeffs):
    """LaurentPoly in q from ascending coefficients."""
    return from_pairs(list(enumerate(coeffs)))


def _inv(w):
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w))
               if w[a] > w[b])


def _swap(w, i):
    return w[:i] + (w[i + 1], w[i]) + w[i + 2:]


def _plus(p, r, m, k):
    """p + m * q^k * r on ascending coefficient tuples."""
    out = list(p) + [0] * max(0, len(r) + k - len(p))
    for e, c in enumerate(r):
        out[e + k] += m * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def textbook_kl(n):
    """{w: {x: P_{x,w}}} on all of S_n by the defining recursion

        P_{x,w} = q^(1-c) P_{xs,v} + q^c P_{x,v}
                  - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

    s the first descent of w, v = ws, c = 1 when xs < x, z over zs < z.
    It runs over every x, with no Bruhat test and no smooth, w0 or
    inverse shortcut: P_{x,w} = 0 off [e, w] comes out of the recursion.
    """
    perms = sorted(itertools.permutations(range(1, n + 1)), key=_inv)
    e = perms[0]
    table = {e: {x: (1,) if x == e else () for x in perms}}
    for w in perms[1:]:
        i = next(a for a in range(n - 1) if w[a] > w[a + 1])
        colv = table[_swap(w, i)]
        lw = _inv(w)
        muz = []
        for z in perms:
            gap, pz = lw - 1 - _inv(z), colv[z]
            if (z[i] > z[i + 1] and gap > 0 and gap % 2
                    and len(pz) == (gap + 1) // 2):
                muz.append((table[z], pz[-1], (lw - _inv(z)) // 2))
        col = table[w] = {}
        for x in perms:
            c = 1 if x[i] > x[i + 1] else 0
            p = _plus(_plus((), colv[_swap(x, i)], 1, 1 - c), colv[x], 1, c)
            for colz, m, half in muz:
                p = _plus(p, colz[x], -m, half)
            col[x] = p
    return table


def flag_word(w):
    """The word of the permutation w under the composition (1^n)."""
    return hecke.coset_word([(a,) for a in w])


def maximal_representatives(composition):
    """{word: maximal representative} over the cosets of the Young
    subgroup of composition: every way to deal the values into the
    blocks, each block's values listed decreasing."""
    out = {}

    def deal(rest, blocks):
        if len(blocks) == len(composition):
            out[hecke.coset_word(blocks)] = tuple(
                j for block in blocks for j in sorted(block, reverse=True))
            return
        for block in itertools.combinations(sorted(rest),
                                            composition[len(blocks)]):
            deal(rest - set(block), blocks + [block])

    deal(set(range(1, sum(composition) + 1)), [])
    return out


def test_textbook_recursion_matches_table_on_s5():
    table = KLTable(5)
    cols = hecke.parabolic_kl((1,) * 5)
    assert len(cols) == 120
    for w, col in textbook_kl(5).items():
        for x, p in col.items():
            assert table.kl_polynomial(x, w) == q_poly(*p), (x, w)
        # the parabolic column of (1^5): exactly the x <= w, packed
        got = cols[flag_word(w)]
        assert set(got) == {flag_word(x) for x in col
                            if hecke.bruhat_leq(x, w)}, w
        for x, p in col.items():
            assert tuple(digits(got.get(flag_word(x), 0),
                                hecke._BITS)) == p, (x, w)


def test_columns_match_under_inverse_and_w0_conjugation_on_s6():
    """P_{x,w} = P_{x^-1,w^-1} = P_{w0 x w0, w0 w w0} for every x <= w
    of S_6, whole parabolic columns of (1^6) at a time. Inversion and
    conjugation move the left descents of w, so the recursion reaches
    the two sides of each comparison by different paths."""
    n = 6
    w0 = hecke.longest_element(n)

    def conjugate(x):
        return hecke.compose(hecke.compose(w0, x), w0)

    perms = list(itertools.permutations(range(1, n + 1)))
    cols = hecke.parabolic_kl((1,) * n)
    assert sorted(cols) == sorted(map(flag_word, perms))
    for move in (inverse, conjugate):
        # the move on words
        moved = {flag_word(x): flag_word(move(x)) for x in perms}
        for w, col in cols.items():
            assert ({moved[x]: p for x, p in col.items()}
                    == cols[moved[w]]), (move, w)


@pytest.fixture(scope="module")
def tables():
    return {n: KLTable(n) for n in range(1, 8)}


@pytest.fixture(scope="module")
def full_tables():
    return {n: FullKLTable(n) for n in range(1, 8)}


@st.composite
def comparable_pairs(draw):
    """(x, w) in S_6 or S_7: w random, x random or below w by a chain
    of swaps of inverted pairs."""
    n = draw(st.sampled_from([6, 7]))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(1, n + 1)))), w
    x = list(w)
    for _ in range(draw(st.integers(0, 6))):
        inverted = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if x[a] > x[b]]
        if not inverted:
            break
        a, b = draw(st.sampled_from(inverted))
        x[a], x[b] = x[b], x[a]
    return tuple(x), w


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(comparable_pairs())
def test_kl_symmetries_and_support(tables, pair):
    x, w = pair
    n = len(w)
    table = tables[n]
    w0 = hecke.longest_element(n)
    p = table.kl_polynomial(x, w)
    assert p == table.kl_polynomial(inverse(x), inverse(w))
    assert p == table.kl_polynomial(hecke.compose(hecke.compose(w0, x), w0),
                                    hecke.compose(hecke.compose(w0, w), w0))
    assert bool(p) == hecke.bruhat_leq(x, w)


def test_parse_and_render():
    assert hecke.parse_permutation("3412") == (3, 4, 1, 2)
    assert hecke.parse_permutation("3,4,1,2") == (3, 4, 1, 2)
    assert hecke.parse_permutation("10,9,8,7,6,5,4,3,2,1") == tuple(range(10, 0, -1))
    assert hecke.render_permutation((3, 4, 1, 2)) == "3412"
    assert hecke.render_permutation(tuple(range(10, 0, -1))).count(",") == 9
    with pytest.raises(ValueError):
        hecke.parse_permutation("3411")
    with pytest.raises(ValueError):
        hecke.parse_permutation("340")
    # int() alone would read 1_0 as 10 and Arabic-Indic digits as 1234
    for text in ("12a4", "1,2,,3", "1,2,1_0", "\u0661\u0662\u0663\u0664"):
        with pytest.raises(ValueError, match=re.escape(
                "cannot parse permutation %r" % text)):
            hecke.parse_permutation(text)


def test_integer_reads_ascii_text_without_underscores():
    for text in (" 4 ", "+2", "-1", "007"):
        assert hecke.integer(text) == int(text)
    # int() alone reads 1_0 as 10 and the Arabic-Indic two as 2
    for text in ("1_0", "\u0662", "", "4.0", "0x10", "1e3"):
        with pytest.raises(ValueError):
            hecke.integer(text)


def test_length_compose_inverse():
    w0 = hecke.longest_element(4)
    assert w0 == (4, 3, 2, 1)
    assert hecke.length(w0) == 6
    assert hecke.length((1, 2, 3, 4)) == 0
    for w in itertools.permutations(range(1, 5)):
        assert hecke.length(inverse(w)) == hecke.length(w)
        assert hecke.compose(w, inverse(w)) == (1, 2, 3, 4)


def test_mul_s_and_descent():
    w = (2, 1, 4, 3)
    assert mul_s(w, 0) == (1, 2, 4, 3)
    assert first_descent((1, 2, 3, 4)) == -1
    assert first_descent(w) == 0


def test_bruhat_order():
    e = (1, 2, 3, 4)
    w0 = (4, 3, 2, 1)
    for w in itertools.permutations(range(1, 5)):
        assert hecke.bruhat_leq(e, w)
        assert hecke.bruhat_leq(w, w0)
        assert hecke.bruhat_leq(w, w)
    assert hecke.bruhat_leq((2, 1, 3, 4), (3, 1, 2, 4))
    assert not hecke.bruhat_leq((3, 4, 1, 2), (4, 1, 2, 3))
    with pytest.raises(ValueError, match="rank mismatch"):
        hecke.bruhat_leq((1, 2, 3), (1, 2, 3, 4))


def test_smoothness_pattern_avoidance():
    assert not is_smooth((3, 4, 1, 2))
    assert not is_smooth((4, 2, 3, 1))
    assert is_smooth((4, 3, 2, 1))
    assert is_smooth((2, 4, 1, 3))
    assert not is_smooth((5, 3, 4, 1, 2))
    # S_6: 5623 is a 3412 pattern, and P_{e,w} is not 1; 142635 avoids
    # 3412 and 4231, and P_{x,w} is 1 on every x below it
    table = KLTable(6)
    e = (1, 2, 3, 4, 5, 6)
    singular, smooth = (1, 5, 6, 2, 3, 4), (1, 4, 2, 6, 3, 5)
    assert not is_smooth(singular)
    assert table.kl_polynomial(e, singular) != 1
    assert is_smooth(smooth)
    assert all(table.kl_polynomial(x, smooth) == 1
               for x in itertools.permutations(e)
               if hecke.bruhat_leq(x, smooth))


def test_s3_all_trivial():
    table = KLTable(3)
    for x in itertools.permutations((1, 2, 3)):
        for w in itertools.permutations((1, 2, 3)):
            p = table.kl_polynomial(x, w)
            if hecke.bruhat_leq(x, w):
                assert p == 1
            else:
                assert not p


S4_HAND_VALUES = [
    (("1234", "3412"), q_poly(1, 1)),
    (("1234", "4231"), q_poly(1, 1)),
    (("2143", "4231"), q_poly(1, 1)),
    (("1324", "4231"), q_poly(1)),
    (("1423", "4231"), q_poly(1)),
    (("2314", "4231"), q_poly(1)),
    (("2413", "4231"), q_poly(1)),
    (("3142", "4231"), q_poly(1)),
    (("1234", "4321"), q_poly(1)),
    (("2143", "3412"), q_poly(1)),
]


@pytest.mark.parametrize("pair,want", S4_HAND_VALUES)
def test_s4_hand_values(pair, want):
    table = KLTable(4)
    x = hecke.parse_permutation(pair[0])
    w = hecke.parse_permutation(pair[1])
    assert table.kl_polynomial(x, w) == want


def test_longest_element_column_is_trivial():
    table = KLTable(5)
    w0 = hecke.longest_element(5)
    for x in itertools.permutations(range(1, 6)):
        assert table.kl_polynomial(x, w0) == 1


def test_degree_bound_and_constant_term():
    table = KLTable(5)
    rng = random.Random(55)
    perms = list(itertools.permutations(range(1, 6)))
    for _ in range(200):
        x = rng.choice(perms)
        w = rng.choice(perms)
        p = table.kl_polynomial(x, w)
        if not hecke.bruhat_leq(x, w):
            assert not p
            continue
        assert dict(p.items()).get(0, 0) == 1
        gap = hecke.length(w) - hecke.length(x)
        for e in dict(p.items()):
            assert 0 <= 2 * e <= max(gap - 1, 0)


def test_inversion_symmetry():
    table = KLTable(4)
    for x in itertools.permutations(range(1, 5)):
        for w in itertools.permutations(range(1, 5)):
            p = table.kl_polynomial(x, w)
            q = table.kl_polynomial(inverse(x), inverse(w))
            assert p == q


def full_inversion_identity(table, n, triples):
    perms = list(itertools.permutations(range(1, n + 1)))
    for x, z in triples:
        total = LaurentPoly.zero()
        for y in perms:
            p = table.kl_polynomial(x, y)
            if not p:
                continue
            q = table.inverse_kl(y, z)
            if not q:
                continue
            sign = -1 if (hecke.length(x) + hecke.length(y)) % 2 else 1
            total = total + sign * (p * q)
        want = LaurentPoly.monomial(0) if x == z else LaurentPoly.zero()
        assert total == want, (x, z, total)


def test_full_inversion_identity_s3_s4():
    for n in (3, 4):
        table = KLTable(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        full_inversion_identity(table, n, itertools.product(perms, perms))


def test_full_inversion_identity_s5_random():
    table = KLTable(5)
    rng = random.Random(505)
    perms = list(itertools.permutations(range(1, 6)))
    triples = [(rng.choice(perms), rng.choice(perms)) for _ in range(30)]
    triples += [(p, p) for p in rng.sample(perms, 10)]
    full_inversion_identity(table, 5, triples)


def test_mu_values():
    """mu(x, w), the coefficient of q^((l(w)-l(x)-1)/2) in P_{x,w},
    from the oracle's whole Bruhat columns; the last line reads the
    third one's polynomial from the library."""
    table = FullKLTable(4)
    e = (1, 2, 3, 4)
    assert table.mu(e, (2, 1, 3, 4)) == 1
    assert table.mu(e, (3, 4, 1, 2)) == 0
    assert table.mu((1, 3, 2, 4), (3, 4, 1, 2)) == 1
    assert table.kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == q_poly(1, 1)


def test_rank_caps():
    for n in (0, 10, True):  # bool refused
        with pytest.raises(ValueError, match="limit 9"):
            KLTable(n)
    with pytest.raises(ValueError, match=re.escape("rank 4.0 is outside "
                                                   "1..9 (the limit 9)")):
        KLTable(4.0)
    assert KLTable(8).n == 8
    table = KLTable(3)
    with pytest.raises(ValueError):
        table.kl_polynomial((1, 2, 3, 4), (4, 3, 2, 1))


def test_grassmannian_permutations():
    pairs = dict(grassmannian_permutations(2, 4))
    assert pairs[Partition(())] == (1, 2, 3, 4)
    assert pairs[Partition((1,))] == (1, 3, 2, 4)
    assert pairs[Partition((2,))] == (1, 4, 2, 3)
    assert pairs[Partition((1, 1))] == (2, 3, 1, 4)
    assert pairs[Partition((2, 1))] == (2, 4, 1, 3)
    assert pairs[Partition((2, 2))] == (3, 4, 1, 2)
    for lam, w in grassmannian_permutations(3, 6):
        assert hecke.length(w) == lam.size


# -- the quotient engine against the full route ---------------------------


def test_table_matches_full_route_on_s5():
    """kl_polynomial and inverse_kl agree with whole Bruhat columns on
    all 14,400 pairs of S_5."""
    perms = list(itertools.permutations(range(1, 6)))
    table, full = KLTable(5), FullKLTable(5)
    for w in perms:
        for x in perms:
            assert table.kl_polynomial(x, w) == full.kl_polynomial(x, w), \
                (x, w)
            assert table.inverse_kl(x, w) == full.inverse_kl(x, w), (x, w)


@st.composite
def queries(draw):
    """(x, w) in S_6, S_7 or S_8, w smooth or singular: x random or
    below w by a chain of swaps of inverted pairs, then moved inside its
    coset x W_J, J = D_R(w), by right descents of w, so that it is
    seldom the maximal representative the quotient engine stores."""
    n = draw(st.sampled_from([6, 7, 8]))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    x = list(w)
    if draw(st.booleans()):
        x = list(draw(st.permutations(range(1, n + 1))))
    else:
        for _ in range(draw(st.integers(0, 6))):
            inverted = [(a, b) for a in range(n) for b in range(a + 1, n)
                        if x[a] > x[b]]
            if not inverted:
                break
            a, b = draw(st.sampled_from(inverted))
            x[a], x[b] = x[b], x[a]
    descents = [i for i in range(n - 1) if w[i] > w[i + 1]]
    if descents:  # w = e has none
        for i in draw(st.lists(st.sampled_from(descents), max_size=3)):
            x = list(mul_s(x, i))
    return tuple(x), w


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(queries())
# e is in the coset of 13245768 < w = 34127856 but is not its maximal
# representative
@example(((1, 2, 3, 4, 5, 6, 7, 8), (3, 4, 1, 2, 7, 8, 5, 6)))
# x not below w
@example(((4, 1, 2, 3, 8, 5, 6, 7), (1, 2, 3, 4, 7, 8, 5, 6)))
def test_table_matches_full_route_on_random_queries(pair):
    """inverse_kl only renames the pair, and the S_5 test covers it."""
    x, w = pair
    n = len(w)
    table, full = KLTable(n), FullKLTable(n)
    assert table.kl_polynomial(x, w) == full.kl_polynomial(x, w)


def test_smooth_w_reads_all_ones_from_the_quotient_engine(monkeypatch):
    """For smooth w (avoiding 3412 and 4231) P_{x,w} is 1 on [e, w] and
    0 elsewhere (Lakshmibai-Sandhya). The expected values come from
    bruhat_leq; KLTable must give them with bruhat_leq patched to
    raise, so smooth w go through the quotient engine like the rest."""
    rng = random.Random(19)
    cases = []
    for n in (7, 8, 9):
        ws = [(5, 6, 7, 4, 8, 3, 9, 2, 1)] if n == 9 else []
        while len(ws) < 3:
            w = tuple(rng.sample(range(1, n + 1), n))
            if is_smooth(w):
                ws.append(w)
        for w in ws:
            xs = [tuple(range(1, n + 1)), w]
            xs += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(20)]
            for _ in range(20):
                # below w: swap inverted pairs
                x = list(w)
                for _ in range(rng.randint(1, 6)):
                    inverted = [(a, b) for a in range(n)
                                for b in range(a + 1, n) if x[a] > x[b]]
                    if inverted:
                        a, b = rng.choice(inverted)
                        x[a], x[b] = x[b], x[a]
                xs.append(tuple(x))
            for x in xs:
                cases.append((x, w, hecke.bruhat_leq(x, w)))
    assert {below for _, _, below in cases} == {False, True}

    def refuse(x, w):
        raise AssertionError("bruhat_leq called")

    monkeypatch.setattr(hecke, "bruhat_leq", refuse)
    tables = {n: KLTable(n) for n in (7, 8, 9)}
    for x, w, below in cases:
        want = LaurentPoly.monomial(0) if below else LaurentPoly.zero()
        assert tables[len(w)].kl_polynomial(x, w) == want, (x, w)


def test_rank_9_query_stores_quotient_columns_only():
    """P_{e,978563412}, the slowest rank-9 query of the whole-column
    engine (millions of stored entries), reads the quotient by
    J = D_R(w), composition (2, 2, 2, 2, 1): a pinned count of stored
    columns and entries guards the memory without timing it."""
    table = KLTable(9)
    w = hecke.parse_permutation("978563412")
    assert (table.kl_polynomial(tuple(range(1, 10)), w)
            == q_poly(1, 6, 18, 35, 45, 36, 14))
    (composition, quotient), = table._quotients.items()
    assert composition == (2, 2, 2, 2, 1)
    assert len(quotient.cols) == 811
    assert sum(map(len, quotient.cols.values())) == 560105


# -- parabolic KL against the full route ------------------------------------


def _unpack(p):
    return LaurentPoly(dict(enumerate(digits(p, hecke._BITS))))


# every (k, n - k) with n <= 8, (1^n) with n <= 5, and some longer ones
FULL_TABLE_COMPOSITIONS = sorted(
    [(k, n - k) for n in range(2, 9) for k in range(1, n)]
    + [(1,) * n for n in range(1, 6)]
    + [(2, 1, 2), (1, 3, 2), (1, 2, 1, 2), (1, 1, 4, 1)],
    key=lambda c: (sum(c), c))


def full_table_value(table, composition, x, w):
    """P_{x,w} from the S_n table for maximal representatives x, w of
    composition. For a composition later than its reverse, the value
    is read as P_{w0 x w0, w0 w w0}: conjugation by w0 maps the
    maximal representatives onto those of the reverse, which comes
    first, so the table reuses its columns."""
    if tuple(reversed(composition)) < composition:
        w0 = hecke.longest_element(table.n)
        x = hecke.compose(hecke.compose(w0, x), w0)
        w = hecke.compose(hecke.compose(w0, w), w0)
    return table.kl_polynomial(x, w)


def test_parabolic_kl_matches_full_table():
    """For every composition above and every pair x, w of maximal
    coset representatives, P_{x,w} from the parabolic recursion equals
    P_{x,w} from whole Bruhat columns of S_n, zeros included."""
    tables = {}
    for composition in FULL_TABLE_COMPOSITIONS:
        n = sum(composition)
        table = tables.setdefault(n, FullKLTable(n))
        reps = maximal_representatives(composition)
        cols = hecke.parabolic_kl(composition)
        assert sorted(cols) == sorted(reps), composition
        for w, rw in reps.items():
            for x, rx in reps.items():
                got = _unpack(cols[w].get(x, 0))
                want = full_table_value(table, composition, rx, rw)
                assert got == want, (composition, rx, rw)


@st.composite
def compositions(draw):
    """Compositions of n <= 7: any of n <= 6, and those of 7 in at
    most four parts, which have at most 630 cosets."""
    n = draw(st.integers(2, 7))
    cut = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    if n == 7:
        for b in draw(st.permutations(range(6)))[3:]:
            cut[b] = False
    parts = [1]
    for c in cut:
        if c:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(compositions(), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                max_size=3))
@example((1, 2, 3, 1), [0, 210, 419])
def test_parabolic_kl_matches_full_table_on_random_compositions(
        full_tables, composition, picks):
    """Whole columns of random compositions, zeros included: the same
    differential check as above, with the tables shared between
    examples."""
    reps = maximal_representatives(composition)
    cols = hecke.parabolic_kl(composition)
    assert sorted(cols) == sorted(reps)
    table = full_tables[sum(composition)]
    words = sorted(reps)
    for pick in picks:
        w = words[pick % len(words)]
        for x, rx in reps.items():
            assert (_unpack(cols[w].get(x, 0))
                    == table.kl_polynomial(rx, reps[w])), (composition, x, w)


def test_parabolic_kl_columns():
    cols = hecke.parabolic_kl((2, 2))
    # S = {1, 2} is the bottom coset, S = {3, 4} the top one
    assert cols[0b0011] == {0b0011: 1}
    assert len(cols[0b1100]) == 6
    # S = {1, 2} belongs to w0 x_(2,2) and S = {2, 4} to w0 x_(1), so
    # this is Q_{x_(1),x_(2,2)}
    assert _unpack(cols[0b1010][0b0011]) == q_poly(1, 1)
    # a single block is a single coset
    assert hecke.parabolic_kl((4,)) == {0: {0: 1}}
    assert hecke.parabolic_kl([1]) == {0: {0: 1}}
    # dim G/P = (n^2 - sum n_i^2) / 2 must stay below 64: (1, 63) has
    # 63, (1, 64) and (8, 8) have 64
    assert len(hecke.parabolic_kl((1, 63))) == 64
    for bad in ((), (2, 0, 2), (3, -1), (1, 64), (8, 8), (1,) * 12):
        with pytest.raises(ValueError):
            hecke.parabolic_kl(bad)


def test_coset_word():
    # (k, n - k): the bitmask of the first block
    assert hecke.coset_word(({2, 4}, {1, 3})) == 0b1010
    assert hecke.coset_word(({2, 4}, ())) == 0b1010
    # three-bit letters r - 1 - i for five blocks
    assert hecke.coset_word([(2,), (1,), (3,), (5,), (4,)]) == (
        3 | 4 << 3 | 2 << 6 | 0 << 9 | 1 << 12)
    assert hecke.coset_word([(1, 3), (2,)]) == 0b101


def test_kl_polynomial_refuses_what_is_not_a_permutation_of_its_rank():
    """x is checked on every query, w when its column is first read: a
    warm w does not let a bad x through."""
    table = KLTable(4)
    w = (4, 2, 3, 1)
    assert table.kl_polynomial((1, 2, 3, 4), w) == q_poly(1, 1)
    for x, wrong, message in (
            ((1, 2, 3), w, "expected a permutation of rank 4, got (1, 2, 3)"),
            ((1, 1, 2, 3), w, "(1, 1, 2, 3) is not a permutation of 1..4"),
            ((1, 2, 3, 4), (1, 2, 2, 4),
             "(1, 2, 2, 4) is not a permutation of 1..4"),
            ((1, 2, 3, 4), (0, 1, 2, 3),
             "(0, 1, 2, 3) is not a permutation of 1..4")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            table.kl_polynomial(x, wrong)
    assert table.kl_polynomial((1, 2, 3, 4), w) == q_poly(1, 1)


def test_kl_polynomial_values_are_equal_across_tables_and_repeats():
    """Each table shares one LaurentPoly per distinct value, so a
    repeated query returns the same object; a second table, built
    cold, returns equal ones, in another order of queries."""
    pairs = [(x, w) for w in itertools.permutations(range(1, 6))
             for x in itertools.permutations(range(1, 6))
             if hecke.bruhat_leq(x, w)]
    first, second = KLTable(5), KLTable(5)
    got = [first.kl_polynomial(x, w) for x, w in pairs]
    assert [second.kl_polynomial(x, w) for x, w in reversed(pairs)] == got[::-1]
    assert all(first.kl_polynomial(x, w) is p for (x, w), p in zip(pairs, got))
    assert len({id(p) for p in got}) == len(set(got)) > 1


def test_quotient_word_is_the_coset_word():
    """_Quotient.word reads a word off a table of shifted letters; it
    agrees with coset_word on every permutation of S_5 for every
    composition of 5."""
    for size in range(1, 6):
        for cuts in itertools.combinations(range(1, 5), size - 1):
            ends = list(cuts) + [5]
            comp = tuple(b - a for a, b in zip([0] + ends, ends))
            quotient = hecke._Quotient(comp)
            for x in itertools.permutations(range(1, 6)):
                blocks = [x[a:b] for a, b in zip([0] + ends, ends)]
                assert quotient.word(x) == hecke.coset_word(blocks), (comp, x)
