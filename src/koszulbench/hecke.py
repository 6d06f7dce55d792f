"""Symmetric group combinatorics and Kazhdan-Lusztig polynomials.

A permutation is a tuple of images in one-line notation, so (2, 3, 1)
sends 1 to 2. KL polynomials are polynomials in q (v squared elsewhere
in the package), packed into one int (see _BITS).

One engine computes them all: Deodhar's parabolic recursion on the
cosets of a Young subgroup, the Borel orbits of a partial flag variety
((1^n) gives the full flags, (k, n-k) gr(k, n)), run lazily on coset
words (_Quotient). parabolic_kl, behind every multiplicity matrix,
returns every column of one composition. KLTable answers single
queries on S_n in the quotient by the right descents of w, where
P_{x,w} is constant on cosets (Kazhdan-Lusztig 1979), so only the
columns of that quotient are stored. Smooth w take the same route.
"""

from __future__ import annotations

from bisect import insort

from .laurent import LaurentPoly, digits


def parse_permutation(text: str, n=None):
    """Parse one-line notation, either '3412' or '3,4,1,2'."""
    try:
        if "_" in text or not text.isascii():
            raise ValueError  # int() reads 1_0 and non-ASCII digits
        t = text.strip()
        images = tuple(map(int, t.split(",") if "," in t else t))
    except ValueError:
        raise ValueError("cannot parse permutation %r" % text)
    check_permutation(images, n)
    return images


def check_permutation(w, n=None):
    if n is not None and len(w) != n:
        raise ValueError("expected a permutation of rank %d, got %r" % (n, w))
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (w, len(w)))
    return w


def render_permutation(w) -> str:
    if len(w) <= 9:
        return "".join(str(i) for i in w)
    return ",".join(str(i) for i in w)


def length(w) -> int:
    """Inversion count."""
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def longest_element(n):
    return tuple(range(n, 0, -1))


def compose(a, b):
    """(a after b): the product a*b acting as a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def bruhat_leq(x, w) -> bool:
    """Bruhat order via the sorted-prefix dominance criterion."""
    if len(x) != len(w):
        raise ValueError("rank mismatch: %r vs %r" % (x, w))
    if x == w:
        return True
    sx = []
    sw = []
    for i in range(len(x) - 1):
        insort(sx, x[i])
        insort(sw, w[i])
        for a, b in zip(sx, sw):
            if a > b:
                return False
    return True


# Inside the engine a polynomial in q is one int, its value at
# q = 2^_BITS: coefficient e fills bits [_BITS e, _BITS (e + 1)). This
# is exact because the coefficients of P_{x,w} are nonnegative and the
# mu terms only subtract, so each is at most the sum of two entries of
# the column of v = sw: below 2^l(w) <= 2^36 under the rank limit 9.
_BITS = 64


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials for one symmetric group.

    P_{x,w} = P_{xs,w} for every right descent s of w, so P_{x,w} only
    depends on the coset x W_J, J = D_R(w), and for the maximal
    representative of that coset it is Deodhar's parabolic polynomial.
    A query on w therefore reads the column of w in the quotient by J,
    the Young subgroup of the composition formed by w's runs of
    descents, and projects x onto its coset word (see coset_word). The
    table keeps one _Quotient per composition it met, each with the
    columns its recursions reached, and per w its quotient and column,
    so a warm query costs one dict lookup and one word. A smooth w
    (avoiding 3412 and 4231) takes the same route; its column is all
    ones.

    Nothing is precomputed, so building a table is O(1). Growth is
    bounded by the rank limit 9. Confine one table to one thread; every
    computed value is deterministic, so duplicated work between tables
    is harmless.
    """

    def __init__(self, n: int):
        if not 1 <= n <= 9:
            raise ValueError("rank %d is outside 1..9 (the limit 9)" % n)
        self.n = n
        self._w0 = longest_element(n)
        self._queries = {}
        self._quotients = {}

    # -- public API ------------------------------------------------------

    def kl_polynomial(self, x, w) -> LaurentPoly:
        """P_{x,w} as a polynomial in q (exponents are q powers)."""
        p = self._value(x, w)
        return LaurentPoly(dict(enumerate(digits(p, _BITS))))

    def inverse_kl(self, y, w) -> LaurentPoly:
        """Q_{y,w} := P_{w0 w, w0 y}, the inverse KL polynomial."""
        check_permutation(y, self.n)
        check_permutation(w, self.n)
        w0 = self._w0
        return self.kl_polynomial(compose(w0, w), compose(w0, y))

    # -- engine ----------------------------------------------------------

    def _value(self, x, w):
        """P_{x,w} packed into one int (see _BITS); 0 off [e, w]."""
        check_permutation(x, self.n)
        query = self._queries.get(w)
        if query is None:
            query = self._queries[w] = self._query(
                check_permutation(w, self.n))
        quotient, col = query
        return col.get(quotient.word(x), 0)

    def _query(self, w):
        """(quotient, column of w)."""
        # J = D_R(w): a block of positions ends at each ascent of w
        ends = [i for i in range(1, self.n) if w[i - 1] < w[i]] + [self.n]
        comp = tuple(b - a for a, b in zip([0] + ends, ends))
        quotient = self._quotients.get(comp)
        if quotient is None:
            quotient = self._quotients[comp] = _Quotient(comp)
        return quotient, quotient.column(quotient.word(w))


def coset_word(blocks):
    """The word of the coset w W_J, W_J the Young subgroup of a
    composition (n_1, ..., n_r): blocks[i] holds the values of w on the
    positions of block i. The value j gets the letter r - 1 - i, in bits
    [W (j-1), W j) of one int, W = max(1, (r-1).bit_length()); the last
    block, letter 0, may be left out. For (k, n-k) the word is the
    bitmask of w({1..k}), and for (1^n) it fixes w."""
    r = len(blocks)
    width = max(1, (r - 1).bit_length())
    return sum((r - 1 - i) << width * (j - 1)
               for i, block in enumerate(blocks) for j in block)


class _Quotient:
    """Deodhar's parabolic recursion on the cosets w W_J in S_n, W_J
    the Young subgroup of a composition of n, computed lazily: column(w)
    builds the column of w and every column its recursion reaches, and
    keeps them. A column is a dict from the word (see coset_word) of
    every x <= w to P_{x,w} packed into one int (see _BITS), x and w
    taken as maximal representatives (each block's values decreasing).

    Left multiplication by s = s_{b+1} swaps the letters b and b + 1 of
    a word; it lowers the coset when letter b < letter b + 1 and fixes
    it when they are equal. The column of w is built from that of
    v = s w < w, for the descent s of w with the smallest column built
    so far (the first descent when none is built):

        P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

    c = 1 when s x < x, z < v over s z <= z. As v is maximal, P_{y,v}
    depends only on the coset of y, so P_{sx,v} = P_{x,v} when s fixes
    the coset of x; and z = v t, t in W_J, z < v, has s z = w t > z.
    Lengths count from the lowest coset, whose letters never increase.
    A coefficient is at most the sum of two in the column below, so
    below 2^dim, dim = (n^2 - sum n_i^2) / 2 the greatest length; the
    packing is exact for dim < _BITS.
    """

    def __init__(self, composition):
        comp = tuple(composition)
        if not comp or min(comp) < 1:
            raise ValueError("need a composition of positive parts: %r"
                             % (comp,))
        n = sum(comp)
        dim = (n * n - sum(p * p for p in comp)) // 2
        if dim >= _BITS:
            raise ValueError("dim G/P = %d is too large to pack" % dim)
        self.n = n
        self.width = max(1, (len(comp) - 1).bit_length())
        # the letter of each position: r - 1 minus its block
        self.letters = tuple(len(comp) - 1 - i
                             for i, p in enumerate(comp) for _ in range(p))
        low = self.word(range(1, n + 1))
        self.cols = {low: {low: 1}}
        self.length = {low: 0}

    def word(self, x):
        """The word of the coset x W_J of the permutation x."""
        width = self.width
        return sum(a << width * (j - 1) for a, j in zip(self.letters, x))

    def column(self, w):
        col = self.cols.get(w)
        if col is not None:
            return col
        cols = self.cols
        width = self.width
        letter = (1 << width) - 1
        pair = 1 | 1 << width
        # v = s w < w for the descent s whose column is the smallest
        # built so far (less to copy and to scatter), else the first
        best = None
        for pos in range(0, width * (self.n - 1), width):
            lo, hi = w >> pos & letter, w >> pos + width & letter
            if lo < hi:
                u = w ^ (lo ^ hi) * pair << pos
                size = len(cols.get(u, ())) or float("inf")  # inf: unbuilt
                if best is None or size < best:
                    best, at, v = size, pos, u
        colv = self.column(v)
        length = self.length
        lw = length[w] = length[v] + 1
        mask = letter << at  # letter b of a word, in place
        col = {}
        for y, py in colv.items():
            lo, hi = y & mask, y >> width & mask
            if lo == hi:
                # s fixes the coset of y: P_{sy,v} = P_{y,v}
                col[y] = py + (py << _BITS)
            elif lo > hi:
                # s y > y: both are <= w by lifting, with the same value
                # (when s y < y, s y sets both)
                ys = y ^ (lo ^ hi) * pair
                pys = colv.get(ys)
                if pys is None:
                    col[y] = col[ys] = py
                    length[ys] = length[y] + 1
                else:
                    col[y] = col[ys] = py + (pys << _BITS)
        for z, pz in colv.items():
            # z < v with s z <= z and an odd gap; m is then mu(z, v)
            if z & mask <= z >> width & mask:
                gap = lw - 1 - length[z]
                if gap % 2:
                    m = pz >> (_BITS * (gap >> 1))
                    if m:
                        shift = _BITS * ((gap + 1) >> 1)
                        for x, p in self.column(z).items():
                            col[x] -= m * p << shift
        self.cols[w] = col
        return col


def parabolic_kl(composition):
    """P_{x,w} for every pair x <= w of maximal representatives of the
    cosets w W_J in S_n, W_J the Young subgroup of a composition of n:
    a dict from the word of w (see coset_word) to its column, a dict
    from the word of every x <= w to P_{x,w} packed into one int (see
    _BITS). The columns are built level by level up from the lowest
    coset; see _Quotient for the recursion."""
    quotient = _Quotient(composition)
    width = quotient.width
    letter = (1 << width) - 1
    cols = {}
    level = list(quotient.cols)
    while level:
        # every s w < w has its column when w is built
        above = {}
        for v in level:
            cols[v] = quotient.column(v)
            for at in range(0, width * (quotient.n - 1), width):
                lo, hi = v >> at & letter, v >> at + width & letter
                if lo > hi:
                    above[v ^ (lo ^ hi) * (1 | 1 << width) << at] = None
        level = list(above)
    return cols
