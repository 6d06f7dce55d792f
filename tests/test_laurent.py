import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulbench.laurent import LaurentPoly, digits, unpack

from oracles import dominates, from_pairs, involute


def rand_poly(rng, span=6, terms=4):
    pairs = [(rng.randint(-span, span), rng.randint(-5, 5))
             for _ in range(rng.randint(0, terms))]
    return from_pairs(pairs)


def test_zero_one_monomial():
    assert not LaurentPoly.zero()
    assert LaurentPoly.monomial(0) == 1
    m = LaurentPoly.monomial(-3, 2)
    assert dict(m.items()).get(-3, 0) == 2
    assert dict(m.items()).get(0, 0) == 0
    assert m.support() == [-3]


def test_canonical_no_zero_coeffs():
    p = from_pairs([(1, 1), (1, -1), (0, 3)])
    assert p.support() == [0]
    assert p == 3


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.monomial(0) == a
        assert a - a == LaurentPoly.zero()


POLY = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5),
                       max_size=4).map(LaurentPoly)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(POLY, POLY.filter(bool))
def test_divmod_is_division_with_remainder(a, b):
    q, r = divmod(a, b)
    assert a == q * b + r
    assert divmod(a * b, b) == (a, 0)
    assert divmod(a, 1) == (a, 0)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(LaurentPoly.monomial(0), LaurentPoly.zero())


def test_int_coercion_both_sides():
    p = LaurentPoly.monomial(2)
    assert 1 + p == p + 1
    assert 2 * p == p * 2
    assert (1 - p) + (p - 1) == 0
    assert p != "v^2"


def test_shift_and_inflate():
    """A monomial v^k shifts every exponent by k. Of the substitutions
    v -> v^k the tests keep one, the bar involution (k = -1)."""
    p = from_pairs([(0, 1), (2, 1)])
    assert p * LaurentPoly.monomial(-1) == from_pairs([(-1, 1), (1, 1)])
    assert p * LaurentPoly.monomial(0) == p
    assert involute(p) == from_pairs([(0, 1), (-2, 1)])


def test_digits_lowest_first():
    assert list(digits(0, 8)) == []
    assert list(digits(5 + (7 << 16), 8)) == [5, 0, 7]
    assert list(digits(2 ** 64 - 1, 64)) == [2 ** 64 - 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 70).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.dictionaries(st.integers(0, 12),
                    st.integers(1 - 2 ** (bits - 1), 2 ** (bits - 1) - 1)))),
       st.integers(-12, 12))
def test_unpack_reads_balanced_digits(case, shift):
    """unpack takes back u^shift P for P with coefficients in
    [-2^(bits-1), 2^(bits-1)), packed at u = v^-1 = 2^bits, borrows
    between signed digits included."""
    bits, terms = case
    poly = LaurentPoly({shift - e: c for e, c in terms.items()})
    packed = sum(c << bits * e for e, c in terms.items())
    assert unpack(packed, bits, shift) == poly
    assert unpack(-packed, bits, shift) == -poly
    assert unpack(0, bits, shift) == 0
    # the ends of the digit range: 3 = 4 - 1 and -2 are digits at 2^2
    assert unpack(3, 2).render() == "-1 + v^-1"
    assert unpack(-2 - (2 << 2), 2, 1).render() == "-2*v - 2"


def test_involution_is_ring_automorphism():
    rng = random.Random(202)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert involute(a + b) == involute(a) + involute(b)
        assert involute(a * b) == involute(a) * involute(b)
        assert involute(involute(a)) == a


def test_dominates_is_a_preorder():
    rng = random.Random(303)
    polys = [rand_poly(rng) for _ in range(40)]
    for a in polys:
        assert dominates(a, a)
    for a in polys:
        for b in polys:
            for c in polys:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_dominates_meaning():
    big = from_pairs([(0, 1), (-1, 2), (-2, 1)])
    small = from_pairs([(0, 5), (-2, 1)])
    assert dominates(small, big)
    assert not dominates(big, small)
    assert dominates(LaurentPoly.zero(), big)
    assert not dominates(big, LaurentPoly.zero())


def test_render_descending():
    p = from_pairs([(-2, 1), (0, 1), (1, 3)])
    assert p.render() == "3*v + 1 + v^-2"
    assert LaurentPoly.zero().render() == "0"
    assert from_pairs([(1, -1)]).render(var="q") == "-q"


@pytest.mark.parametrize("coeffs", [{0.7: 1}, {0: 0.5}, {True: 3},
                                    {0: False}, {"1": 2}, {0: 1, 1: 2.0}])
def test_non_integer_terms_are_refused(coeffs):
    """{0.7: 1} used to become 1, {True: 3} 3*v, and {0: 0.5} kept its
    float coefficient; a zero coefficient is checked as well."""
    with pytest.raises(ValueError, match="not an integer"):
        LaurentPoly(coeffs)


def test_hashable_and_equal():
    a = from_pairs([(1, 1), (0, 2)])
    b = from_pairs([(0, 2), (1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("c", [0, 1, -3, 2 ** 70])
def test_a_constant_hashes_like_the_int_it_equals(c):
    p = from_pairs([(0, c)])
    assert p == c and c == p
    assert hash(p) == hash(c)
    assert len({c, p}) == 1
    assert {p: "poly"}[c] == "poly"
    assert {c: "int"}[p] == "int"
    # the hash is computed once and kept
    assert hash(p) == hash(p) == p._hash
