"""Symmetric group combinatorics and Kazhdan-Lusztig polynomials.

A permutation is a tuple of images in one-line notation, so (2, 3, 1)
sends 1 to 2. KL polynomials are computed by KLTable with the descent
recursion and mu corrections, whole Bruhat columns at a time, on
per-table integer ids of permutations. They are stored as polynomials
in q (one LaurentPoly exponent per power of q; q is v squared
everywhere else in the package); KLTable.column hands out a whole
column packed (see _BITS). Every memo belongs to one KLTable.

Three classical facts keep the recursion small: P_{x,w} = 1 whenever
l(w) - l(x) <= 2; every column of a permutation avoiding the patterns
3412 and 4231 is identically 1 (smooth Schubert variety); and when
v = ws < w, the interval [e, w] is [e, v] together with [e, v] s
(lifting property), so a smooth column is read off the column of v.

parabolic_kl computes, for one Grassmannian, only the polynomials
between maximal coset representatives, with no table of S_n; it is an
independent route to the same values, which the tests compare.
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

    def column(self, w):
        """P_{x,w} for every x <= w: a dict from the permutation x to
        the polynomial packed into one int (see _BITS), the format
        parabolic_kl returns."""
        perm = self._perm
        return {perm[x]: p for x, p in self._column(self._id(w)).items()}

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


def parabolic_kl(k: int, n: int):
    """P_{x,w} for every pair x <= w of maximal representatives of the
    cosets w (S_k x S_{n-k}) in S_n, by Deodhar's parabolic recursion.

    A maximal representative is fixed by its k-subset S = w({1..k}),
    here a bitmask with bit j - 1 for the value j; w lists S and then
    its complement, both decreasing. Returns a dict from the mask of w
    to its column, a dict from the mask of every x <= w to P_{x,w}
    packed into one int (see _BITS). Nothing is kept between calls.

    The column of w comes from the left-descent form of the recursion,

        P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

    v = s w < w, c = 1 when s x < x, z < v over s z < z, with s = s_i
    for some i + 1 in S, i not in S, so that v is maximal too. Two facts keep it inside the maximal representatives:
    P_{y,v} depends only on the coset of y, as v is maximal, so
    P_{sx,v} = P_{x,v} when s fixes the coset of x; and a z = v t with
    t in S_k x S_{n-k}, z < v, has s z = w t > z, so every z of the mu
    terms is maximal.

    Each coefficient of a column is at most the sum of two entries of
    the column below it, so below 2^(k(n-k)); the packing is exact for
    k(n-k) < _BITS, far beyond what fits in time.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if k * (n - k) >= _BITS:
        raise ValueError("gr(%d,%d) is too large for packed polynomials"
                         % (k, n))
    # length of the maximal representative, up to the constant length
    # of the longest element of S_k x S_{n-k}
    length = {}
    for subset in itertools.combinations(range(n), k):
        mask = sum(1 << j for j in subset)
        length[mask] = sum(1 for a in subset for b in range(a)
                           if not mask >> b & 1)
    cols = {}
    for w in sorted(length, key=length.get):
        # the lowest b with value b + 2 in S and value b + 1 not in it
        low = (w >> 1) & ~w
        if not low:
            cols[w] = {w: 1}
            continue
        b = (low & -low).bit_length() - 1
        swap = 3 << b
        colv = cols[w ^ swap]
        col = {}
        for x in list(colv) + [y ^ swap for y in colv
                               if (y >> b & 3) in (1, 2)]:
            px = colv.get(x, 0)
            side = x >> b & 3
            if side in (0, 3):
                # s fixes the coset of x: P_{sx,v} = P_{x,v}
                col[x] = px + (px << _BITS)
            elif side == 2:
                # s x < x
                col[x] = colv.get(x ^ swap, 0) + (px << _BITS)
            else:
                col[x] = (colv.get(x ^ swap, 0) << _BITS) + px
        lw = length[w]
        for z, pz in colv.items():
            gap = lw - 1 - length[z]
            # z < v with s z < z and an odd gap; m is then mu(z, v)
            if gap % 2 and (z >> b & 3) != 1:
                m = pz >> (_BITS * (gap >> 1))
                if m:
                    shift = _BITS * ((gap + 1) >> 1)
                    for x, p in cols[z].items():
                        col[x] -= m * p << shift
        cols[w] = col
    return cols
