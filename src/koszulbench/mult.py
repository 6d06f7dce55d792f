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
two descriptions of the projective line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .laurent import LaurentPoly
from .shapes import Partition, SkewShape, dyck_depth, enumerate_partitions_in_box
from . import hecke


@dataclass(frozen=True)
class Space:
    """A stratified space descriptor: gr(k, n) or flag(n)."""
    kind: str
    k: int
    n: int

    @staticmethod
    def gr(k: int, n: int) -> "Space":
        if not 1 <= k < n:
            raise ValueError("gr(k,n) needs 1 <= k < n")
        return Space("gr", k, n)

    @staticmethod
    def flag(n: int) -> "Space":
        if n < 1:
            raise ValueError("flag(n) needs n >= 1")
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
        perms = sorted(itertools.permutations(range(1, self.n + 1)),
                       key=lambda w: (hecke.length(w), w))
        return perms

    def dimension_of(self, label) -> int:
        if self.kind == "gr":
            return label.size
        return hecke.length(label)


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


_FLAG_TABLES = {}


def _flag_table(n: int) -> hecke.KLTable:
    table = _FLAG_TABLES.get(n)
    if table is None:
        table = hecke.KLTable(n, cap=max(7, n))
        _FLAG_TABLES[n] = table
    return table


def delta_ic_flag(n: int, x, y) -> LaurentPoly:
    """[Delta_x : IC_y] on the full flag variety of rank n.

    Realized as v^(-(l(x)-l(y))) * Q_{y,x}(v^2) with Q the inverse KL
    polynomial; zero unless y <= x in Bruhat order.
    """
    hecke.check_permutation(x, n)
    hecke.check_permutation(y, n)
    # inverse_kl is 0 here too, but reaching it through the table costs more.
    if not hecke.bruhat_leq(y, x):
        return LaurentPoly.zero()
    q_poly = _flag_table(n).inverse_kl(y, x)
    return q_poly.inflate(2).shift(-(hecke.length(x) - hecke.length(y)))


def delta_ic(space: Space, a, b) -> LaurentPoly:
    if space.kind == "gr":
        return delta_ic_gr(space.k, space.n, a, b)
    return delta_ic_flag(space.n, a, b)


def proj_delta_vector(space: Space, lam):
    """[P_lam : Delta_nu] for all nu, via BGG reciprocity equal to
    [Delta_nu : IC_lam]; only nonzero entries are returned."""
    out = {}
    for nu in space.labels():
        p = delta_ic(space, nu, lam)
        if p:
            out[nu] = p
    return out


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
        cells = [[p.render() for p in row] for row in self.entries]
        width = max([len(n) for n in names]
                    + [len(c) for row in cells for c in row])
        head = " " * (width + 2) + "  ".join(n.rjust(width) for n in names)
        lines = [head]
        for name, row in zip(names, cells):
            lines.append(name.rjust(width) + "  "
                         + "  ".join(c.rjust(width) for c in row))
        return "\n".join(lines)


def delta_ic_matrix(space: Space) -> MultiplicityMatrix:
    """Rows nu, columns lam, entry [Delta_nu : IC_lam]."""
    labels = space.labels()
    entries = [[delta_ic(space, nu, lam) for lam in labels] for nu in labels]
    return MultiplicityMatrix(space, "delta_ic", labels, entries)


def graded_cartan(space: Space) -> MultiplicityMatrix:
    """Entry (lam, mu) = sum_nu [Delta_nu:IC_mu][Delta_nu:IC_lam].

    Symmetric, diagonal constant term 1, all exponents <= 0.
    """
    labels = space.labels()
    index = {l: i for i, l in enumerate(labels)}
    size = len(labels)
    acc = [[LaurentPoly.zero() for _ in range(size)] for _ in range(size)]
    for nu in labels:
        row = []
        for lam in labels:
            p = delta_ic(space, nu, lam)
            if p:
                row.append((index[lam], p))
        for ia, pa in row:
            for ib, pb in row:
                if ib < ia:
                    continue
                prod = pa * pb
                acc[ia][ib] = acc[ia][ib] + prod
                if ib != ia:
                    acc[ib][ia] = acc[ib][ia] + prod
    return MultiplicityMatrix(space, "cartan", labels, acc)


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
    report asserts D*K = K*D = identity.
    """
    if n > 8:
        raise ValueError("kl_inversion_check supports n <= 8")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    labels = enumerate_partitions_in_box(k, n - k)
    perms = dict(hecke.grassmannian_permutations(k, n))
    table = hecke.KLTable(n, cap=max(7, n))
    size = len(labels)
    D = [[delta_ic_gr(k, n, lam, mu) for mu in labels] for lam in labels]
    K = []
    for lam in labels:
        xl = perms[lam]
        row = []
        for mu in labels:
            xm = perms[mu]
            q_poly = table.inverse_kl(xm, xl)
            if not q_poly:
                row.append(LaurentPoly.zero())
                continue
            d = lam.size - mu.size
            sign = -1 if d % 2 else 1
            row.append((sign * q_poly.inflate(2)).shift(-d))
        K.append(row)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for A, B in ((D, K), (K, D)):
        for i in range(size):
            for j in range(size):
                s = zero
                for t in range(size):
                    if A[i][t] and B[t][j]:
                        s = s + A[i][t] * B[t][j]
                want = one if i == j else zero
                if s != want:
                    return InversionReport(k, n, False, (labels[i], labels[j], s))
    return InversionReport(k, n, True, None)
