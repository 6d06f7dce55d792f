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
two descriptions of the projective line. Matrices read whole Dyck
rows or KL columns; delta_ic_gr and delta_ic_flag are per-pair routes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

from .laurent import LaurentPoly
from .shapes import (Partition, SkewShape, _eval_encoded, dyck_depth,
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
        if not 1 <= k < n <= 10:
            raise ValueError("gr(k,n) needs 1 <= k < n <= 10")
        return Space("gr", k, n)

    @staticmethod
    def flag(n: int) -> "Space":
        if not 1 <= n <= 5:
            raise ValueError("flag(n) needs 1 <= n <= 5")
        return Space("flag", 0, n)

    @staticmethod
    def parse(text: str) -> "Space":
        """Accepts 'gr(2,4)', 'gr:2,4', 'flag(3)', 'flag:3'."""
        t = text.strip().lower().replace(" ", "")
        for head in ("gr", "flag"):
            for a, b in ((head + "(", ")"), (head + ":", "")):
                if t.startswith(a) and t.endswith(b):
                    body = t[len(a):len(t) - len(b) if b else len(t)]
                    nums = [int(p) for p in body.split(",") if p]
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
    per label of Space.gr(k, n).labels(): row i maps j to
    [Delta_i : IC_j], the value of delta_ic_gr.

    One pass over the padded part tuples: a pair whose inner tuple is
    not below the outer one is skipped, and every other pair goes to
    the Dyck evaluator as its rows (inner_j, outer_j].
    """
    labels = enumerate_partitions_in_box(k, n - k)
    padded = [lam.parts + (0,) * (k - len(lam.parts)) for lam in labels]
    sizes = [lam.size for lam in labels]
    monomials = {}
    rows = []
    for outer, size in zip(padded, sizes):
        row = {}
        # labels are sorted by size, and inner <= outer needs a smaller one
        for j in range(bisect_right(sizes, size)):
            inner = padded[j]
            enc = []
            for a, b in zip(inner, outer):
                if a > b:
                    break
                enc.append((a, b) if a < b else None)
            else:
                d = _eval_encoded(enc)
                if d >= 0:
                    p = monomials.get(d)
                    if p is None:
                        p = monomials[d] = LaurentPoly.monomial(-d)
                    row[j] = p
        rows.append(row)
    return rows


def delta_ic_flag(n: int, x, y) -> LaurentPoly:
    """[Delta_x : IC_y] on the full flag variety of rank n.

    Realized as v^(-(l(x)-l(y))) * Q_{y,x}(v^2) with Q the inverse KL
    polynomial; zero unless y <= x in Bruhat order. Each call builds
    its own KLTable; matrices read whole columns instead (_delta_rows).
    """
    hecke.check_permutation(x, n)
    hecke.check_permutation(y, n)
    # inverse_kl is 0 here too, but reaching it through the table costs more.
    if not hecke.bruhat_leq(y, x):
        return LaurentPoly.zero()
    q_poly = hecke.KLTable(n).inverse_kl(y, x)
    return q_poly.inflate(2).shift(-(hecke.length(x) - hecke.length(y)))


def _from_packed(p, d, sign=1) -> LaurentPoly:
    """sign * v^(-d) P(v^2) for P packed into one int (see hecke._BITS)."""
    return LaurentPoly({2 * e - d: sign * c
                        for e, c in enumerate(hecke._coeffs(p)) if c})


def _delta_rows(space: Space, labels):
    """Sparse rows of delta_ic_matrix: row i maps j to the nonzero
    [Delta_labels[i] : IC_labels[j]]. On flag(n), column j needs
    Q_{y,x} = P_{w0 x, w0 y} for y = labels[j] and every x >= y: the
    whole column of w0 y in a KLTable local to the call."""
    if space.kind == "gr":
        return dyck_rows(space.k, space.n)
    table = hecke.KLTable(space.n)
    w0 = hecke.longest_element(space.n)
    index = {hecke.compose(w0, x): i for i, x in enumerate(labels)}
    lengths = [hecke.length(x) for x in labels]
    rows = [{} for _ in labels]
    for j, y in enumerate(labels):
        for w0x, p in table.column(hecke.compose(w0, y)).items():
            i = index[w0x]
            rows[i][j] = _from_packed(p, lengths[i] - lengths[j])
    return rows


@dataclass
class MultiplicityMatrix:
    space: Space
    tag: str
    labels: list
    entries: list

    def entry(self, a, b) -> LaurentPoly:
        ia = self.labels.index(a)
        ib = self.labels.index(b)
        return self.entries[ia][ib]

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


def delta_ic_matrix(space: Space) -> MultiplicityMatrix:
    """Rows nu, columns lam, entry [Delta_nu : IC_lam]."""
    labels = space.labels()
    zero = LaurentPoly.zero()
    entries = [[row.get(j, zero) for j in range(len(labels))]
               for row in _delta_rows(space, labels)]
    return MultiplicityMatrix(space, "delta_ic", labels, entries)


def graded_cartan(space: Space) -> MultiplicityMatrix:
    """Entry (lam, mu) = sum_nu [Delta_nu:IC_mu][Delta_nu:IC_lam].

    Symmetric, diagonal constant term 1, all exponents <= 0.
    """
    labels = space.labels()
    # coefficient maps of the upper triangle; no term cancels, since
    # every multiplicity lies in N[v^-1]
    acc = {}
    for row in _delta_rows(space, labels):
        terms = [(j, list(p.items())) for j, p in row.items()]
        for ia, pa in terms:
            for ib, pb in terms:
                if ib < ia:
                    continue
                cell = acc.get((ia, ib))
                if cell is None:
                    cell = acc[ia, ib] = {}
                for ea, ca in pa:
                    for eb, cb in pb:
                        cell[ea + eb] = cell.get(ea + eb, 0) + ca * cb
    zero = LaurentPoly.zero()
    entries = [[zero] * len(labels) for _ in labels]
    for (ia, ib), cell in acc.items():
        entries[ia][ib] = entries[ib][ia] = LaurentPoly(cell)
    return MultiplicityMatrix(space, "cartan", labels, entries)


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
    report asserts D*K = K*D = identity, and names the first entry
    of D*K, then of K*D, in row-major order that differs from it.

    Q_{x_mu,x_lam} = P_{w0 x_lam, w0 x_mu}, and w0 x_lam is the maximal
    representative of its coset of S_k x S_{n-k}, so K comes from
    hecke.parabolic_kl (Deodhar's parabolic recursion), which stays
    inside the C(n, k) cosets; D comes from dyck_rows. Both products
    run over sparse rows.
    """
    if n > 10:
        raise ValueError("kl_inversion_check supports n <= 10")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    labels = enumerate_partitions_in_box(k, n - k)
    # the k-subset of w0 x_lam, which fixes its coset
    index = {sum(1 << (n - t) for t in jump_sequence(lam, k)): i
             for i, lam in enumerate(labels)}
    D = dyck_rows(k, n)
    K = [{} for _ in labels]
    for w, col in hecke.parabolic_kl(k, n).items():
        j = index[w]
        for x, p in col.items():
            i = index[x]
            d = labels[i].size - labels[j].size
            K[i][j] = _from_packed(p, d, -1 if d % 2 else 1)
    for A, B in ((D, K), (K, D)):
        failure = _first_defect(A, B)
        if failure is not None:
            i, j, s = failure
            return InversionReport(k, n, False, (labels[i], labels[j], s))
    return InversionReport(k, n, True, None)


def _first_defect(A, B):
    """The first (i, j, entry) of A*B in row-major order that differs
    from the identity matrix, or None; A and B are lists of sparse rows
    {column: LaurentPoly}."""
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for i, row in enumerate(A):
        acc = {}
        for t, a in row.items():
            for j, b in B[t].items():
                acc[j] = acc[j] + a * b if j in acc else a * b
        bad = [j for j, s in acc.items() if s != (one if j == i else zero)]
        if i not in acc:
            bad.append(i)
        if bad:
            j = min(bad)
            return i, j, acc.get(j, zero)
    return None
