"""Graded multiplicity matrices and the graded Cartan matrix.

Strata are labeled by partitions in a k x (n-k) box (Grassmannian
case) or by permutations (full flag case). The standard-to-simple
multiplicity [Delta_x : IC_y] is a Laurent polynomial in v with
non-positive exponents; the graded Cartan entry (lam, mu) is
sum_nu [Delta_nu : IC_mu] * [Delta_nu : IC_lam].

Sign and normalization conventions: multiplicities live in N[v^-1]
(weights <= 0), so the Grassmannian entry is the monomial v^(-depth)
on Dyck shapes, and the flag entry is v^(-(l(x)-l(y))) Q_{y,x}(v^2)
with Q the longest-element twist of the KL table. Both are pinned by
requiring diagonal 1, entries in N[v^-1], and agreement between the
two descriptions of the projective line. Rows carry the standards
Delta and columns the simples IC, under the labels of Space.labels():
on gr(k, n) partitions, row lam holding lam's cup diagram (dyck_rows);
on flag(n) permutations, column y read from a parabolic KL column.
delta_ic_gr is a per-pair route through the Dyck evaluator.

The matrix paths (delta_ic_matrix, graded_cartan, kl_inversion_check)
compute on ints: each entry is packed at u = v^-1 = 2^64, so that sums
and products of matrices are int sums and products. A LaurentPoly is
built only for each distinct value returned, and shared between the
cells that hold it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .laurent import LaurentPoly, unpack
from .shapes import (Partition, SkewShape, dyck_depth,
                     enumerate_partitions_in_box, jump_sequence)
from . import hecke


@dataclass(frozen=True)
class Space:
    """A stratified space descriptor: gr(k, n) or flag(n)."""
    kind: str
    k: int
    n: int

    @staticmethod
    def gr(k: int, n: int) -> "Space":
        if not (type(k) is type(n) is int and 1 <= k < n <= 10):
            raise ValueError("gr(k,n) needs 1 <= k < n <= 10")
        return Space("gr", k, n)

    @staticmethod
    def flag(n: int) -> "Space":
        if not (type(n) is int and 1 <= n <= 5):
            raise ValueError("flag(n) needs 1 <= n <= 5")
        return Space("flag", 0, n)

    @staticmethod
    def parse(text: str) -> "Space":
        """Accepts 'gr(2,4)', 'gr:2,4', 'flag(3)', 'flag:3'."""
        t = text.strip().lower().replace(" ", "")
        for head in ("gr", "flag"):
            for a, b in ((head + "(", ")"), (head + ":", "")):
                if t.startswith(a) and t.endswith(b):
                    body = t[len(a):len(t) - len(b)]
                    try:
                        nums = [hecke.integer(p) for p in body.split(",")]
                    except ValueError:  # an empty or non-integer piece
                        nums = []
                    if head == "gr" and len(nums) == 2:
                        return Space.gr(*nums)
                    if head == "flag" and len(nums) == 1:
                        return Space.flag(nums[0])
        raise ValueError("cannot parse space %r" % text)

    def render(self) -> str:
        if self.kind == "gr":
            return "gr(%d,%d)" % (self.k, self.n)
        return "flag(%d)" % self.n

    def labels(self):
        """Strata in closure-friendly order: (dimension, then fixed
        lexicographic tie-break)."""
        if self.kind == "gr":
            return enumerate_partitions_in_box(self.k, self.n - self.k)
        return sorted(itertools.permutations(range(1, self.n + 1)),
                      key=lambda w: (hecke.length(w), w))


def _check_box(k: int, n: int, lam: Partition):
    if len(lam.parts) > k or (lam.parts and lam.parts[0] > n - k):
        raise ValueError("partition %s does not fit the %dx%d box"
                         % (lam, k, n - k))


def delta_ic_gr(k: int, n: int, lam, mu) -> LaurentPoly:
    """[Delta_lam : IC_mu] on gr(k,n): v^(-dp(lam-mu)) when the skew
    shape is Dyck, zero otherwise (including mu not inside lam)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    _check_box(k, n, lam)
    _check_box(k, n, mu)
    if not lam.contains(mu):
        return LaurentPoly.zero()
    verdict = dyck_depth(SkewShape(lam, mu))
    if not verdict.is_dyck:
        return LaurentPoly.zero()
    return LaurentPoly.monomial(-verdict.depth)


def dyck_rows(k: int, n: int):
    """The nonzero entries of the gr(k,n) multiplicity matrix, one row
    per label of Space.gr(k, n).labels(): row i maps j to the Dyck
    depth d of labels[i] / labels[j], so that [Delta_i : IC_j] is
    v^(-d), the value of delta_ic_gr.

    No pair is tested: the row is read off lam's cup diagram
    (Lascoux-Schutzenberger; Brundan-Stroppel, Khovanov's diagram
    algebra I). Walk lam's boundary path from the bottom left of the
    box to the top right, as one int with bit p set when step p goes
    east; part t of lam (from the top) closes with the north step
    p = lam_t + k - 1 - t. An east step opens a cup, and the next
    unmatched north step closes it. The labels at depth d below lam are
    exactly those whose path is lam's with d of its cups reversed
    (north first, then east). Reversing a cup flips its two bits, and
    no two cups share a bit, so the row is path ^ m over the 2^c sums m
    of lam's c cups, at the number of cups in m.
    """
    padded = [lam.parts + (0,) * (k - len(lam.parts))
              for lam in enumerate_partitions_in_box(k, n - k)]
    paths = [((1 << n) - 1) ^ sum(1 << a + k - 1 - t
                                  for t, a in enumerate(parts))
             for parts in padded]
    index = {path: i for i, path in enumerate(paths)}
    rows = []
    for path in paths:
        row, open_ = {path: 0}, []
        for p in range(n):
            if path >> p & 1:
                open_.append(p)
            elif open_:
                cup = 1 << open_.pop() | 1 << p
                row.update([(x ^ cup, d + 1) for x, d in row.items()])
        rows.append({index[x]: d for x, d in row.items()})
    return rows


# Packed entries. Inside the matrix paths every entry is one int, its
# value at u = v^-1 = 2^_BITS (the Kronecker substitution): the
# coefficient of v^-e fills digit e, and D, K and their products are
# plain int sums and products. Digits are signed, so a value is read
# back with balanced digits in [-2^63, 2^63), which is exact while
# every coefficient of the true product lies in that range. Under the
# rank limits each stays far below 2^63:
#   - gr(k, n), n <= 10: D has coefficient 1, and a Cartan entry sums
#     at most C(10, 5) = 252 of its monomials, so at most 252;
#   - flag(n), n <= 5: D has the coefficients of KL polynomials of S_5,
#     below 2^dim = 2^10 (see hecke.parabolic_kl) and at most 5 per
#     entry, so a Cartan coefficient sums at most 120 * 5 products of
#     two: below 2^30;
#   - kl_inversion_check: K has the coefficients of parabolic KL
#     polynomials, below 2^dim = 2^(k(n-k)) <= 2^25 (the same rule),
#     and a coefficient of D*K sums at most 252 of them: below 2^33.
# A flag entry v^(-d) q^e sits at digit d - 2e, which the KL degree
# bound keeps >= 0; kl_inversion_check multiplies K by u^S to keep
# that true for whatever its table holds.
_BITS = hecke._BITS
_MASK = (1 << _BITS) - 1


def _repack(p, d):
    """v^(-d) P(v^2) packed at u = v^-1, for P packed at q (see
    hecke._BITS); needs d >= 2 deg P."""
    x = 0
    while p:
        x += (p & _MASK) << (_BITS * d)
        p >>= _BITS
        d -= 2
    return x


def _delta_rows(space: Space, labels):
    """Sparse packed rows of delta_ic_matrix: row i maps j to the
    nonzero [Delta_labels[i] : IC_labels[j]]. On flag(n), that is
    v^(-(l(x)-l(y))) Q_{y,x}(v^2) for x, y = labels[i], labels[j], and
    Q_{y,x} = P_{w0 x, w0 y}."""
    if space.kind == "gr":
        return [{j: 1 << _BITS * d for j, d in row.items()}
                for row in dyck_rows(space.k, space.n)]
    n = space.n
    words = [hecke.coset_word([(n + 1 - a,) for a in x]) for x in labels]
    return _kl_rows((1,) * n, words, list(map(hecke.length, labels)))[0]


def _kl_rows(composition, words, lengths, signed=False):
    """(rows, S): hecke.parabolic_kl(composition) as sparse packed rows,
    one per coset of words: row i maps j to v^(-d) P(v^2) for every
    nonzero P = P_{words[i], words[j]}, d = lengths[i] - lengths[j].
    Unsigned rows (the flag D) have S = 0 by the KL degree bound, which
    _repack enforces. Signed rows (K) are times (-1)^d u^S, with S the
    least shift that leaves no positive power of v, whatever P holds."""
    length = dict(zip(words, lengths))
    cols = hecke.parabolic_kl(composition)
    shift = 0
    if signed:
        # v^(-d) q^e has the u-exponent d - 2e
        shift = max(0, max(2 * ((p.bit_length() - 1) // _BITS) - length[x]
                           + length[w] for w, col in cols.items()
                           for x, p in col.items()))
    index = {w: i for i, w in enumerate(words)}
    rows = [{} for _ in words]
    for w, col in cols.items():
        j, lw = index[w], length[w]
        for x, p in col.items():
            d = length[x] - lw
            entry = _repack(p, d + shift)
            rows[index[x]][j] = -entry if signed and d % 2 else entry
    return rows, shift


@dataclass
class MultiplicityMatrix:
    space: Space
    tag: str
    labels: list
    entries: list

    def render_label(self, label) -> str:
        if self.space.kind == "gr":
            return str(label)
        return hecke.render_permutation(label)

    def to_json_dict(self):
        return {
            "space": self.space.render(),
            "tag": self.tag,
            "labels": [list(l.parts) if self.space.kind == "gr"
                       else self.render_label(l) for l in self.labels],
            "entries": [[p.to_json_dict() for p in row] for row in self.entries],
        }

    def render_text(self) -> str:
        names = [self.render_label(l) for l in self.labels]
        # a large matrix holds few distinct entries: render each once
        texts = {p: p.render() for p in set().union(*self.entries)}
        width = max(map(len, names + list(texts.values())))
        cells = {p: text.rjust(width) for p, text in texts.items()}
        head = " " * (width + 2) + "  ".join(n.rjust(width) for n in names)
        lines = [head]
        for name, row in zip(names, self.entries):
            lines.append(name.rjust(width) + "  "
                         + "  ".join(map(cells.__getitem__, row)))
        return "\n".join(lines)


def _matrix(space: Space, tag: str, labels, rows) -> MultiplicityMatrix:
    """The matrix of sparse packed rows, one shared LaurentPoly per
    distinct value."""
    values = {x for row in rows for x in row.values()}
    polys = {x: unpack(x, _BITS) for x in values}
    zero = LaurentPoly.zero()
    entries = []
    for row in rows:
        line = [zero] * len(labels)
        for j, x in row.items():
            line[j] = polys[x]
        entries.append(line)
    return MultiplicityMatrix(space, tag, labels, entries)


def delta_ic_matrix(space: Space) -> MultiplicityMatrix:
    """Rows nu, columns lam, entry [Delta_nu : IC_lam]."""
    labels = space.labels()
    return _matrix(space, "delta_ic", labels, _delta_rows(space, labels))


def graded_cartan(space: Space) -> MultiplicityMatrix:
    """Entry (lam, mu) = sum_nu [Delta_nu:IC_mu][Delta_nu:IC_lam].

    Symmetric, diagonal constant term 1, all exponents <= 0.
    """
    labels = space.labels()
    # packed sums over the upper triangle, acc[ia][ib] for ia <= ib
    acc = [{} for _ in labels]
    for row in _delta_rows(space, labels):
        terms = sorted(row.items())
        for s, (ia, pa) in enumerate(terms):
            cell = acc[ia]
            for ib, pb in terms[s:]:
                cell[ib] = cell.get(ib, 0) + pa * pb
    for ia, cell in enumerate(acc):  # mirror into the lower triangle
        for ib, x in cell.items():
            if ib > ia:
                acc[ib][ia] = x
    return _matrix(space, "cartan", labels, acc)


@dataclass
class InversionReport:
    k: int
    n: int
    ok: bool
    first_failure: tuple | None

    def render_text(self) -> str:
        if self.ok:
            return "pass"
        lam, mu, got = self.first_failure
        return "FAIL at (%s, %s): got %s" % (lam, mu, got)

    def to_json_dict(self):
        out = {"space": "gr(%d,%d)" % (self.k, self.n), "ok": self.ok}
        if self.first_failure:
            lam, mu, got = self.first_failure
            out["first_failure"] = {"row": list(lam.parts), "col": list(mu.parts),
                                    "entry": got.to_json_dict()}
        return out


def kl_inversion_check(k: int, n: int) -> InversionReport:
    """Check that the Dyck-derived matrix inverts the signed,
    normalized KL matrix on Grassmannian permutations.

    D_{lam,mu} = v^(-dp) on Dyck shapes; K_{lam,mu} =
    (-1)^(|lam|-|mu|) v^(-(|lam|-|mu|)) Q_{x_mu,x_lam}(v^2). The
    report asserts D*K = identity, and names the first entry of D*K in
    row-major order that differs from it. D and K are square, so
    D*K = identity makes them two-sided inverses (see _first_defect).

    Q_{x_mu,x_lam} = P_{w0 x_lam, w0 x_mu}, and w0 x_lam is the maximal
    representative of its coset of S_k x S_{n-k}, so K comes from
    hecke.parabolic_kl (Deodhar's parabolic recursion), which stays
    inside the C(n, k) cosets; D comes from dyck_rows. K is held as
    sparse rows of packed entries and D as the shifts of its monomials,
    so the product is a sum of shifts. K is packed times u^S,
    with S the least shift that leaves no positive power of v in it
    (S = 0 when the KL degree bound holds), and compared with u^S.
    """
    labels = Space.gr(k, n).labels()  # refuses k, n outside its range
    # the first block of w0 x_lam, which fixes its coset
    words = [hecke.coset_word(({n + 1 - t for t in jump_sequence(lam, k)},
                               ())) for lam in labels]
    K, shift = _kl_rows((k, n - k), words, [lam.size for lam in labels],
                        signed=True)
    D = [{j: _BITS * d for j, d in row.items()} for row in dyck_rows(k, n)]
    failure = _first_defect(D, K, 1 << _BITS * shift)
    if failure is None:
        return InversionReport(k, n, True, None)
    i, j, x = failure
    return InversionReport(k, n, False, (labels[i], labels[j],
                                         unpack(x, _BITS, shift)))


# One product decides. D and K are square int matrices and one is a
# nonzero int (2^(_BITS S) in kl_inversion_check). If D*K = one*I, then
# D is invertible over Q with inverse K/one, so K*D = one*I too: K*D
# has no defect unless D*K has one.
def _first_defect(D, K, one):
    """The first (i, j, entry) of D*K in row-major order that differs
    from one times the identity matrix, or None. K is a list of sparse
    rows {column: packed entry}; D one of shifts {column: e} for its
    monomial entries u^d = 2^e, e = _BITS d, so each product with one
    of them is a shift."""
    n = len(K)
    for i in range(n):
        acc = [0] * n
        for t, e in D[i].items():
            for j, b in K[t].items():
                acc[j] += b << e
        acc[i] -= one
        for j, x in enumerate(acc):
            if x:
                return i, j, x + one if j == i else x
    return None
