"""Symmetric group combinatorics and Kazhdan-Lusztig polynomials.

A permutation is a tuple of images in one-line notation, so (2, 3, 1)
sends 1 to 2. KL polynomials are polynomials in q (v squared elsewhere
in the package), packed into one int (see _BITS). parabolic_kl, the
engine of every multiplicity matrix, computes them between maximal
representatives of the cosets of a Young subgroup, the Borel orbits of
a partial flag variety: (1^n) gives the full flags, (k, n-k) gr(k, n).

KLTable answers single queries on S_n, whole Bruhat columns at a time;
the tests compare the two engines. Three classical facts keep it small:
P_{x,w} = 1 whenever l(w) - l(x) <= 2; every column of a permutation
avoiding 3412 and 4231 is identically 1 (smooth Schubert variety); and
when v = ws < w, [e, w] is [e, v] together with [e, v] s (lifting).
"""

from __future__ import annotations

import itertools
from bisect import insort

from .laurent import LaurentPoly


def parse_permutation(text: str, n=None):
    """Parse one-line notation, either '3412' or '3,4,1,2'."""
    text = text.strip()
    if "," in text:
        images = tuple(int(p) for p in text.split(","))
    else:
        images = tuple(int(ch) for ch in text)
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


def inverse(w):
    out = [0] * len(w)
    for i, im in enumerate(w):
        out[im - 1] = i + 1
    return tuple(out)


def mul_s(w, i):
    """Right multiply by the simple transposition s_{i+1} (0-based i)."""
    l = list(w)
    l[i], l[i + 1] = l[i + 1], l[i]
    return tuple(l)


def first_descent(w):
    """0-based index of the first right descent, or -1 for identity."""
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            return i
    return -1


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


def is_smooth(w) -> bool:
    """Pattern avoidance of 3412 and 4231, which for type A is
    equivalent to every P_{x,w} being 1."""
    for a, b, c, d in itertools.combinations(w, 4):
        if c < d < a < b or d < b < c < a:
            return False
    return True


# Inside the engine a polynomial in q is one int, its value at
# q = 2^_BITS: coefficient e fills bits [_BITS e, _BITS (e + 1)). This
# is exact because the coefficients of P_{x,w} are nonnegative and the
# mu terms only subtract, so each is at most the sum of two entries of
# the column of v = ws: below 2^l(w) <= 2^36 under the rank limit 9.
_BITS = 64
_MASK = (1 << _BITS) - 1


def _coeffs(p):
    """Ascending coefficients of an engine polynomial."""
    out = []
    while p:
        out.append(p & _MASK)
        p >>= _BITS
    return out


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials for one symmetric group.

    The public methods take permutation tuples; the engine works on
    small-int ids, private to the table. A permutation is interned the
    first time the table touches it, and the table keeps by id its
    tuple, length, first descent, smoothness flag (worked out when
    first asked) and neighbour under each right s_i (filled in when
    first stepped to). Nothing is precomputed, so building a table is
    O(1) and a query interns only what its recursion reaches.

    The memo holds whole columns keyed by the id of w: a dict from the
    id of x to P_{x,w} packed into one int (see _BITS), with an entry
    for every x in [e, w]. Growth is bounded by the rank limit 9.
    Confine one table to one thread; every computed value is
    deterministic, so duplicated work between tables is harmless.
    """

    def __init__(self, n: int):
        if not 1 <= n <= 9:
            raise ValueError("rank %d is outside 1..9 (the limit 9)" % n)
        self.n = n
        self._ids = {}
        self._perm = []
        self._len = []
        self._desc = []
        self._smooth = []
        self._nbr = [[] for _ in range(n - 1)]
        self._cols = {}
        self._w0 = longest_element(n)

    # -- public API ------------------------------------------------------

    def kl_polynomial(self, x, w) -> LaurentPoly:
        """P_{x,w} as a polynomial in q (exponents are q powers)."""
        p = self._value(self._id(x), self._id(w))
        return LaurentPoly({e: c for e, c in enumerate(_coeffs(p)) if c})

    def inverse_kl(self, y, w) -> LaurentPoly:
        """Q_{y,w} := P_{w0 w, w0 y}, the inverse KL polynomial."""
        check_permutation(y, self.n)
        check_permutation(w, self.n)
        w0 = self._w0
        return self.kl_polynomial(compose(w0, w), compose(w0, y))

    def mu(self, x, w) -> int:
        """The coefficient of q^((l(w)-l(x)-1)/2) in P_{x,w}."""
        x, w = self._id(x), self._id(w)
        gap = self._len[w] - self._len[x]
        if gap < 0 or gap % 2 == 0:
            return 0
        return self._value(x, w) >> (_BITS * (gap >> 1))

    # -- ids -------------------------------------------------------------

    def _id(self, w) -> int:
        check_permutation(w, self.n)
        return self._intern(w)

    def _intern(self, w, lw=None) -> int:
        k = self._ids.get(w)
        if k is None:
            k = self._ids[w] = len(self._perm)
            self._perm.append(w)
            self._len.append(length(w) if lw is None else lw)
            self._desc.append(first_descent(w))
            self._smooth.append(None)
            for nbr in self._nbr:
                nbr.append(-1)
        return k

    def _step(self, x, i) -> int:
        """Id of x * s_{i+1} (0-based i)."""
        y = self._nbr[i][x]
        if y < 0:
            p = self._perm[x]
            y = self._intern(mul_s(p, i),
                             self._len[x] + (1 if p[i] < p[i + 1] else -1))
            self._nbr[i][x] = y
            self._nbr[i][y] = x
        return y

    def _is_smooth(self, w) -> bool:
        if self._smooth[w] is None:
            self._smooth[w] = is_smooth(self._perm[w])
        return self._smooth[w]

    # -- engine ----------------------------------------------------------

    def _value(self, x, w):
        """P_{x,w} for ids, as an engine polynomial; 0 off [e, w]."""
        lx = self._len[x]
        lw = self._len[w]
        if lx >= lw:
            return int(x == w)
        col = self._cols.get(w)
        if col is not None:
            return col.get(x, 0)
        if lw - lx <= 2 or self._is_smooth(w):
            return int(bruhat_leq(self._perm[x], self._perm[w]))
        return self._column(w).get(x, 0)

    def _column(self, w):
        """The column of w, built from the column of v = ws < w with s
        the first right descent of w."""
        col = self._cols.get(w)
        if col is not None:
            return col
        i = self._desc[w]
        if i < 0:
            col = self._cols[w] = {w: 1}
            return col
        colv = self._column(self._step(w, i))
        nbr = self._nbr[i]
        for y in colv:
            if nbr[y] < 0:
                self._step(y, i)
        if self._is_smooth(w):
            # lifting property: [e, w] is [e, v] together with [e, v] s
            col = dict.fromkeys(colv, 1)
            col.update(dict.fromkeys((nbr[y] for y in colv), 1))
            self._cols[w] = col
            return col
        # P_{x,w} = q^(1-c) P_{xs,v} + q^c P_{x,v}
        #           - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},
        # c = 1 when xs < x, z < v over zs < z. First the two terms of
        # v: each y <= v gives x = y, and also x = ys when ys is not
        # <= v; then ys lies above y, so c = 0 at y, and x <= w by
        # lifting, with P_{x,w} = P_{y,v}.
        L = self._len
        col = {}
        for y, py in colv.items():
            ys = nbr[y]
            pys = colv.get(ys)
            if pys is None:
                col[y] = col[ys] = py
            elif L[ys] > L[y]:
                col[y] = py + (pys << _BITS)
            else:
                col[y] = pys + (py << _BITS)
        # Then each mu term, scattered over the column of z: every x in
        # it is <= z < v, so already a key of col.
        lw = L[w]
        for z, pz in colv.items():
            gap = lw - 1 - L[z]
            if gap % 2 and L[nbr[z]] < L[z]:
                m = pz >> (_BITS * (gap >> 1))
                if m:
                    shift = _BITS * ((gap + 1) >> 1)
                    for x, p in self._column(z).items():
                        col[x] -= m * p << shift
        self._cols[w] = col
        return col


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


def parabolic_kl(composition):
    """P_{x,w} for every pair x <= w of maximal representatives (each
    block's values decreasing) of the cosets w W_J in S_n, W_J the Young
    subgroup of a composition of n, by Deodhar's parabolic recursion: a
    dict from the word of w (see coset_word) to its column, a dict from
    the word of every x <= w to P_{x,w} packed into one int (see _BITS).

    Left multiplication by s = s_{b+1} swaps the letters b and b + 1 of
    a word; it lowers the coset when letter b < letter b + 1 and fixes
    it when they are equal. The cosets are generated level by level
    from the lowest word, whose letters never increase: each w one
    level up is s v for some v with letter b > letter b + 1, which
    gives its length and a descent, v = s w < w. Then

        P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

    c = 1 when s x < x, z < v over s z <= z. As v is maximal, P_{y,v}
    depends only on the coset of y, so P_{sx,v} = P_{x,v} when s fixes
    the coset of x; and z = v t, t in W_J, z < v, has s z = w t > z.
    A coefficient is at most the sum of two in the column below, so
    below 2^dim, dim = (n^2 - sum n_i^2) / 2 the greatest length; the
    packing is exact for dim < _BITS.
    """
    comp = tuple(composition)
    if not comp or min(comp) < 1:
        raise ValueError("need a composition of positive parts: %r" % (comp,))
    n = sum(comp)
    dim = (n * n - sum(p * p for p in comp)) // 2
    if dim >= _BITS:
        raise ValueError("dim G/P = %d is too large to pack" % dim)
    width = max(1, (len(comp) - 1).bit_length())
    letter = (1 << width) - 1
    pair = 1 | 1 << width
    ends = list(itertools.accumulate(comp))
    low = coset_word([range(e - p + 1, e + 1) for p, e in zip(comp, ends)])
    length = {low: 0}
    cols = {low: {low: 1}}
    level = [low]
    for lw in range(1, dim + 1):
        above = {}
        for v in level:
            for b in range(n - 1):
                t = v >> width * b
                lo, hi = t & letter, t >> width & letter
                if lo > hi:
                    above.setdefault(v ^ (lo ^ hi) * pair << width * b,
                                    (v, b))
        for w, (v, b) in above.items():
            length[w] = lw
            at = width * b  # the bit of letter b
            colv = cols[v]
            col = {}
            for y, py in colv.items():
                t = y >> at
                lo, hi = t & letter, t >> width & letter
                if lo == hi:
                    # s fixes the coset of y: P_{sy,v} = P_{y,v}
                    col[y] = py + (py << _BITS)
                elif lo > hi:
                    # s y > y: both are <= w by lifting, with the same
                    # value (when s y < y, s y sets both)
                    ys = y ^ (lo ^ hi) * pair << at
                    col[y] = col[ys] = py + (colv.get(ys, 0) << _BITS)
            for z, pz in colv.items():
                gap = lw - 1 - length[z]
                # z < v with s z <= z and an odd gap; m is then mu(z, v)
                if gap % 2 and (z >> at & letter
                                <= z >> at + width & letter):
                    m = pz >> (_BITS * (gap >> 1))
                    if m:
                        shift = _BITS * ((gap + 1) >> 1)
                        for x, p in cols[z].items():
                            col[x] -= m * p << shift
            cols[w] = col
        level = list(above)
    return cols
