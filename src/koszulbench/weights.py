"""Frobenius weight combinatorics.

Three layers:

* wt_space: the minimal weight support of the graded Cartan matrix
  C = D^T D, the smallest integer set containing 0 into which every
  entry's support embeds by translation. On every Space it is
  {0, ..., m}, the support of C[0][0] at labels()[0], and wt_space
  reads that entry alone: sum_nu D[nu][0]^2, summed as packed ints
  over the rows of mult._delta_rows. Each D[nu][0] is a monomial in
  N[v^-1] (below), so digit e of the sum is the coefficient of v^-e,
  e is even, and e // 2 is its q-degree. On gr(k, n), m = min(k, n-k):
  a D entry is v^-d with d the number of reversed cups, at most m, so
  every entry of C has v-exponents of one parity in [-2m, 0], a q-span
  of at most m; C at the empty partition sums v^(-2 depth(lam)), and
  the d x d square has depth d, so its support is all of 0..m. On
  flag(n), m = n(n-1)/2: every D entry lies in N[v^-1] with exponents
  in [-m, 0], and D[x][e] = v^-l(x), so C[e][e] is the Poincare
  polynomial, 0..m. Lascoux-Schutzenberger 1981 and Brundan-Stroppel I
  2011 give the cup diagrams behind D. wt_from_blocks answers a set of
  blocks in which one block covers the others; no library route calls
  it, and it stays because the benchmark's tracer wraps it by name.

* separation: whether the residues q^e mod l are pairwise distinct
  for e in a weight set, and the search for a separating prime q.

* lattice splitting: for an integer matrix with q-power eigenvalues,
  whether the saturated weight sublattices sum to the full lattice
  over Z_(l).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import _linalg
from . import mult
from .laurent import digits


def _normalize_block(block):
    vals = sorted(set(block))
    if not vals:
        raise ValueError("empty block")
    base = vals[0]
    return tuple(x - base for x in vals)


def wt_from_blocks(blocks):
    """Smallest set of integers (up to translation, reported with min
    0) admitting a translated copy of every block: the block that
    covers every other one.

    This is exact. If a block B of greatest size holds a translate of
    every block, every such set has at least |B| elements, B is one,
    and one of |B| elements is a translate of B, so B is the unique
    answer. If no block covers the others, a set of max |B| elements
    would be a translate of a largest block, which would then cover
    them; so the minimum is larger, and ValueError is raised. No Space
    reaches that error (see the module docstring).
    """
    norm = {_normalize_block(b) for b in blocks}
    if not norm:
        return (0,)
    top = max(norm, key=len)
    cover = set(top)
    for b in norm:
        if not any(all(x + off in cover for x in b)
                   for off in range(top[-1] - b[-1] + 1)):
            raise ValueError("no single block covers the others")
    return top


def wt_space(space) -> tuple:
    """wt of a Grassmannian or full flag space, as sorted q-exponents
    with minimum 0: the support of C[0][0] (see the module docstring)."""
    if isinstance(space, str):
        space = mult.Space.parse(space)
    corner = sum(row.get(0, 0) ** 2
                 for row in mult._delta_rows(space, space.labels()))
    return tuple(e // 2 for e, c in enumerate(digits(corner, mult._BITS))
                 if c)


def render_wt(weights) -> str:
    def mono(e):
        if e == 0:
            return "1"
        if e == 1:
            return "q"
        return "q^%d" % e
    return "{%s}" % ",".join(mono(e) for e in weights)


def separation_residues(weights, q: int, l: int) -> list:
    if l < 2:
        raise ValueError("l must be at least 2")
    if q % l == 0:
        raise ValueError("q = %d is divisible by l = %d" % (q, l))
    return [pow(q, e, l) for e in sorted(set(weights))]


def is_separated(weights, q: int, l: int) -> bool:
    """Whether q^e mod l are pairwise distinct over e in weights."""
    res = separation_residues(weights, q, l)
    return len(set(res)) == len(res)


@dataclass(frozen=True)
class PrimeSearch:
    status: str
    prime: int | None
    residues: tuple | None

    def render_text(self) -> str:
        if self.status == "found":
            return "p = %d" % self.prime
        if self.status == "none_exists":
            return "no separating prime exists"
        return "no separating prime up to the bound (raise it)"

    def to_json_dict(self):
        out = {"status": self.status}
        if self.prime is not None:
            out["prime"] = self.prime
        if self.residues is not None:
            out["residues"] = list(self.residues)
        return out


def find_separating_prime(weights, l: int, bound: int = 100) -> PrimeSearch:
    """Search for a prime q <= bound with q^e mod l pairwise distinct.

    The answer is decidable: if two exponents agree mod l-1 then
    q^e = q^e' for every q prime to l (Fermat), so no prime works;
    otherwise any prime congruent to a primitive root mod l
    separates, and such primes exist, so exhausting the bound only
    means the bound is too small.
    """
    if not _linalg.is_prime(l):
        raise ValueError("l = %d is not prime" % l)
    ws = sorted(set(weights))
    seen = {}
    for e in ws:
        r = e % (l - 1) if l > 2 else 0
        if r in seen:
            return PrimeSearch("none_exists", None, None)
        seen[r] = e
    for p in range(2, bound + 1):
        if p == l or not _linalg.is_prime(p):
            continue
        res = separation_residues(ws, p, l)
        if len(set(res)) == len(res):
            return PrimeSearch("found", p, tuple(res))
    return PrimeSearch("bound_too_small", None, None)


def _mat_sub_scalar(matrix, s):
    n = len(matrix)
    return [[matrix[i][j] - (s if i == j else 0) for j in range(n)]
            for i in range(n)]


def _mat_pow(matrix, e):
    """matrix ** e for e >= 1, squaring from the top bit of e down."""
    if e < 1:
        raise ValueError("exponent %d is below 1" % e)
    out = matrix
    for bit in bin(e)[3:]:
        out = _linalg.mat_mul(out, out)
        if bit == "1":
            out = _linalg.mat_mul(out, matrix)
    return out


def _split(rem, q: int):
    """Whether the monic polynomial with coefficients rem (ascending)
    splits as a product of (t - q^i) with i >= 0. Returns
    (True, {i: multiplicity}) or (False, None)."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    cauchy = 1 + max(abs(c) for c in rem)  # every root lies below it
    weights = {}
    i = 0
    # a quotient has no root that rem lacks, so i never goes back; an
    # integer root divides rem[0], so once q^i does not, no later one does
    while len(rem) > 1 and q ** i <= cauchy and rem[0] % q ** i == 0:
        quot, r = _linalg.poly_div_linear(rem, q ** i)
        if r == 0:
            rem = quot
            weights[i] = weights.get(i, 0) + 1
        elif q == 1:
            break  # q^i is 1 for every i
        else:
            i += 1
    if len(rem) > 1:
        return False, None
    return True, weights


@dataclass(frozen=True)
class PhiReport:
    applicable: bool
    weights: dict | None
    decomposable: bool | None
    index: int | None
    residues: tuple | None

    def render_text(self) -> str:
        if not self.applicable:
            return "not applicable: eigenvalues are not all powers of q"
        ws = ", ".join("q^%d x%d" % (i, m) if m > 1 else "q^%d" % i
                       for i, m in sorted(self.weights.items()))
        verdict = "decomposable" if self.decomposable else "NOT decomposable"
        return "weights: %s\nlattice index: %d\n%s" % (ws, self.index, verdict)

    def to_json_dict(self):
        out = {"applicable": self.applicable}
        if self.applicable:
            out["weights"] = {str(i): m for i, m in sorted(self.weights.items())}
            out["decomposable"] = self.decomposable
            out["index"] = self.index
            out["residues"] = list(self.residues)
        return out


def _simple_kernel(terms, lam):
    """The primitive vector spanning the kernel of A - lam I when lam is
    a simple eigenvalue of A. Then adj(lam I - A) = sum_k M_k
    lam^(n-k) has rank 1 and its columns span the kernel, so the first
    nonzero one, found by Horner's rule column by column and divided by
    the gcd of its entries, is the kernel's generator up to sign."""
    n = len(terms)
    for j in range(n):
        col = [0] * n
        for M in terms:
            col = [c * lam + row[j] for c, row in zip(col, M)]
        if any(col):
            g = gcd(*col)
            return [c // g for c in col]
    raise RuntimeError("the adjugate vanishes at the simple eigenvalue %d"
                       % lam)


def is_phi_decomposable(matrix, q: int, l: int) -> PhiReport:
    """Whether the saturated weight sublattices of an integer matrix
    with q-power eigenvalues span the lattice after localizing at l.

    The matrix must be invertible mod l (an automorphism of the local
    lattice) and l must be prime and prime to q. The cost grows fast
    with the size and the entries (docs/cli.md), so more than 16 rows, an
    entry that is not an int (bool and float included) or one of absolute
    value 2^31 or more is refused at once.

    One Faddeev-LeVerrier pass gives the characteristic polynomial, so
    the determinant and the weights, and the adjugate terms of tI - A.
    A weight of multiplicity 1 takes its kernel vector from the
    adjugate (_simple_kernel); a repeated weight i takes the saturated
    kernel of (A - q^i)^m_i from _linalg.smith_kernel_basis. The index
    is |det| of all the kernel vectors.
    """
    n = len(matrix)
    if n > 16:
        raise ValueError("matrix has %d rows, more than the limit of 16" % n)
    for r, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if not all(type(x) is int for x in row):  # bool and float refused
            raise ValueError("matrix row %d has an entry that is not an "
                             "integer: %r" % (r, row))
        if any(abs(x) >= 2 ** 31 for x in row):
            raise ValueError("matrix entries must lie between -2^31 and 2^31")
    if not _linalg.is_prime(l):
        raise ValueError("l = %d is not prime" % l)
    if q % l == 0:
        raise ValueError("q = %d is divisible by l = %d" % (q, l))
    coeffs, terms = _linalg.char_poly(matrix)
    if coeffs[0] % l == 0:  # det = (-1)^n c_0
        raise ValueError("matrix determinant is divisible by l = %d" % l)
    ok, weights = _split(coeffs, q)
    if not ok:
        return PhiReport(False, None, None, None, None)
    columns = []
    for i in sorted(weights):
        m_i = weights[i]
        if m_i == 1:
            columns.append(_simple_kernel(terms, q ** i))
        else:
            M = _mat_pow(_mat_sub_scalar(matrix, q ** i), m_i)
            columns.extend(_linalg.smith_kernel_basis(M, n))
    if len(columns) != n:
        # the characteristic polynomial splits, so Q^n is the sum of the
        # generalized eigenspaces, each saturated kernel of rank m_i
        raise RuntimeError("weight kernels have %d vectors, not %d"
                           % (len(columns), n))
    index = abs(_linalg.det_bareiss(columns))
    residues = tuple(pow(q, i, l) for i in sorted(weights))
    return PhiReport(True, weights, index % l != 0, index, residues)
