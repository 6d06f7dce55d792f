"""Exact linear algebra helpers: one incremental row echelon form on
sparse int rows over Q and F_p, integer characteristic polynomials
together with the adjugate terms of tI - A from the same pass,
saturated integer kernels by unimodular column operations, and one
fraction-free (Bareiss) elimination that gives determinants and
adjugates. The library runs it on ints only (koszul.cartan_inverse
packs its Laurent matrix into ints first); it is generic over any
ring with an exact divmod, and the tests also run it on LaurentPoly
matrices.

The echelon form and kernel_basis, which the minimal resolutions run
on, take sparse vectors: dicts {index: int} that store nonzero
entries only (residues mod p over F_p). Their matrices have thousands
of entries of which a few percent are nonzero, and most columns of a
kernel are zero or hold one entry: kernel_basis stores those as final
rows without reducing them, and Echelon.add does not rescale a row
whose lead is already 1 (+-1 over Q). The other helpers are
dense and sized for the small matrices the rest of the package
produces (ranks in the dozens at most).
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul


def is_prime(n: int) -> bool:
    """Primality by trial division. Raises ValueError for n >= 2**31,
    before any division, so an oversized input fails at once."""
    if n >= 2 ** 31:
        raise ValueError("%d is too large; primes must be below 2^31" % n)
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class FieldQ:
    """The rationals. Vectors over Q are kept as primitive integer
    vectors, so no fraction is ever built."""
    name = "Q"
    p = 0


class FieldF:
    """The prime field with p elements, residues stored as ints."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.name = "F%d" % p


class Echelon:
    """Incremental row echelon form on sparse int vectors, keyed by
    leading (least) index. Over F_p (p prime) entries are residues and
    every row has leading entry 1; over Q (p = 0) every row is a
    primitive integer vector, reduced fraction-free and divided by the
    gcd of its entries.

    Work that changes nothing is skipped: add stores a vector whose
    lead is already 1 over F_p, or +-1 over Q, without rescaling it or
    taking its content, and over Q reduce takes the content only after
    a step that scaled the vector."""

    def __init__(self, p: int):
        self.p = p
        self.rows = {}

    def reduce(self, vec):
        """(lead, reduced vec) with rows[lead] free, or None when vec
        lies in the span. vec itself is left unchanged: it is copied
        once, at the first reduction, and the copy reduced in place.
        Over Q a step by a row whose lead divides the vector's (a = 1
        below) subtracts in place and keeps any content, so the vector
        returned is a positive multiple of the fully divided one, and
        add stores the same primitive row."""
        rows, p = self.rows, self.p
        copied = False
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                return lead, vec
            # a * vec - b * row; a = 1 over F_p, where rows are monic
            a, b = row[lead], vec[lead]
            scaled = False
            if not p:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    vec = {i: a * x for i, x in vec.items()}
                    copied = scaled = True
            if not copied:
                vec, copied = dict(vec), True
            for i, y in row.items():
                x = vec.get(i, 0) - b * y
                if p:
                    x %= p
                if x:
                    vec[i] = x
                else:
                    del vec[i]
            if scaled:
                g = gcd(*vec.values())
                if g > 1:
                    vec = {i: x // g for i, x in vec.items()}
        return None

    def add(self, vec) -> bool:
        """Insert vec; True when it enlarged the span. The stored row
        may be vec itself, over F_p too when vec needs no reduction and
        its lead is already 1, so vec must not change afterwards."""
        red = self.reduce(vec)
        if red is None:
            return False
        lead, vec = red
        p, c = self.p, vec[lead]
        if p:
            if c != 1:
                inv = pow(c, p - 2, p)
                vec = {i: x * inv % p for i, x in vec.items()}
        elif c != 1 and c != -1:
            g = gcd(*vec.values())
            if g > 1:
                vec = {i: x // g for i, x in vec.items()}
        self.rows[lead] = vec
        return True


def kernel_basis(columns, nrows, field):
    """Kernel of the linear map sending unit vector j to columns[j]
    (each a sparse int vector with indices below nrows). Each
    [columns[j] | e_j] goes through one Echelon; the rows whose lead
    lies past nrows are a kernel basis, returned as their tails,
    sparse and indexed by column.

    A column that is zero, or has one entry x at an index i with no
    row yet, is stored as its final row directly: {nrows + j: 1}, or
    {i: 1, nrows + j: 1/x} over F_p and {i: x, nrows + j: 1} over Q.
    No earlier row has an entry at nrows + j, so nothing reduces them."""
    p = field.p
    ech = Echelon(p)
    rows = ech.rows
    for j, col in enumerate(columns):
        if p:
            col = {i: r for i, x in col.items() if (r := x % p)}
        tail = nrows + j
        if not col:
            rows[tail] = {tail: 1}
            continue
        if len(col) == 1:
            (i, x), = col.items()
            if i not in rows:
                rows[i] = ({i: 1, tail: pow(x, p - 2, p)} if p
                           else {i: x, tail: 1})
                continue
        vec = col if p else dict(col)
        vec[tail] = 1
        ech.add(vec)
    # a row led past nrows has no entry below it
    return [{i - nrows: x for i, x in row.items()}
            for row in map(rows.get, range(nrows, nrows + len(columns)))
            if row]


def char_poly(matrix):
    """Characteristic polynomial det(tI - A) of an integer matrix A,
    monic, coefficients ascending, with the terms [M_1, ..., M_n] of
    adj(tI - A) = sum_k M_k t^(n-k) (Gantmacher, The Theory of Matrices
    I, Ch. IV), from one Faddeev-LeVerrier pass: M_1 = I,
    M_k = A M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k. A M_1 is
    A and only the trace of A M_n is read, so it takes n - 2 products.
    Returns (coefficients, terms)."""
    n = len(matrix)
    coeffs = [0] * n + [1]
    terms = []
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        terms.append(M)
        if k == n:
            trace = sum(sum(map(mul, matrix[i], (row[i] for row in M)))
                        for i in range(n))
        else:
            M = mat_mul(matrix, M) if k > 1 else [list(r) for r in matrix]
            trace = sum(M[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError("trace %d of step %d is not divisible by %d"
                                  % (trace, k, k))
        coeffs[n - k] = -trace // k
    return coeffs, terms


def mat_mul(a, b):
    """Product of two square matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def poly_div_linear(coeffs, r):
    """Divide the polynomial by (t - r). Returns (quotient, remainder)."""
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * r + coeffs[i]
        quot[i - 1] = acc
    rem = acc * r + coeffs[0]
    return quot, rem


def bareiss(rows):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the first
    n = len(rows) columns of rows, over the ints (or any ring whose
    divmod divides exactly, LaurentPoly in the tests); every division
    is exact, and an inexact one raises ArithmeticError.

    The pass ends at [d I | R] with d the last pivot, d = +-det by the
    row swaps. Returns det and the columns past n of +-[d I | R], signed
    so that for rows [M | I] they are det M^-1, the adjugate. A singular
    matrix stops at its zero pivot and returns it, the zero of the
    entries' ring, with None. Only columns past the pivot are updated,
    so the row width sets the cost: a determinant appends no columns."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return m[k][k], None
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, mk = m[k][k], m[k]
        for i in range(n):
            if i != k:
                mi, c = m[i], m[i][k]
                # columns up to k are not read again
                for j in range(k + 1, len(mi)):
                    q, r = divmod(pivot * mi[j] - c * mk[j], prev)
                    if r:
                        raise ArithmeticError("inexact Bareiss step: %r "
                                              "leaves %r" % (prev, r))
                    mi[j] = q
        prev = pivot
    if sign > 0:
        return prev, [row[n:] for row in m]
    return -prev, [[-x for x in row[n:]] for row in m]


def det_bareiss(matrix):
    """Exact determinant of an integer matrix (of a LaurentPoly one
    too, in the tests)."""
    return bareiss(matrix)[0]


def smith_kernel_basis(matrix, ncols):
    """Saturated integer kernel of an integer matrix (a list of rows of
    length ncols): a basis of the lattice {v in Z^ncols : matrix v = 0}.

    Each work column is a matrix column over the matching identity
    column. Row by row, the columns left that are nonzero there are
    reduced by floor quotients against the one of smallest absolute
    entry until one remains, which becomes a pivot and leaves. The
    pivots are triangular, so their images are independent; the
    operations are unimodular, so the identity parts left span the
    whole integer kernel, which is saturated by definition.
    """
    nrows = len(matrix)
    cols = [[row[j] for row in matrix] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]
    for r in range(nrows):
        live = [j for j, col in enumerate(cols) if col[r]]
        while len(live) > 1:
            p = min((abs(cols[j][r]), j) for j in live)[1]
            piv = cols[p]
            for j in live:
                if j != p:
                    f = cols[j][r] // piv[r]
                    cols[j] = [x - f * y for x, y in zip(cols[j], piv)]
            live = [j for j in live if cols[j][r]]
        if live:
            del cols[live[0]]
    return [col[nrows:] for col in cols]
