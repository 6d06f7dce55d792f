"""Reference constructions and helpers shared by the test modules.

The library no longer needs the constructions: the matrices read
parabolic KL columns and the sparse Dyck rows instead. The tests keep
them as independent routes to the same numbers.
"""

import itertools
from bisect import bisect_right

from koszulbench import hecke, mult
from koszulbench.laurent import LaurentPoly
from koszulbench.shapes import (_eval_encoded, enumerate_partitions_in_box,
                                jump_sequence)


def pair_scan_rows(k: int, n: int):
    """mult.dyck_rows by brute force: every pair of labels whose inner
    tuple is below the outer one goes to the Dyck evaluator as its rows
    (inner_j, outer_j]. Row i maps j to the Dyck depth."""
    labels = enumerate_partitions_in_box(k, n - k)
    padded = [lam.parts + (0,) * (k - len(lam.parts)) for lam in labels]
    sizes = [lam.size for lam in labels]
    rows = []
    for outer, size in zip(padded, sizes):
        row = {}
        # labels are sorted by size, and inner <= outer needs a smaller one
        for j in range(bisect_right(sizes, size)):
            enc = []
            for a, b in zip(padded[j], outer):
                if a > b:
                    break
                enc.append((a, b) if a < b else None)
            else:
                d = _eval_encoded(enc)
                if d >= 0:
                    row[j] = d
        rows.append(row)
    return rows


def cup_rows(k: int, n: int):
    """mult.dyck_rows from cup diagrams (Lascoux-Schutzenberger;
    Brundan-Stroppel, Khovanov's diagram algebra I). Walk the boundary
    path of lam from the bottom left of the box to the top right: an
    east step opens a cup, and the next unmatched north step closes it.
    Row lam maps mu to r when mu's path is lam's with r of its cups
    reversed (north first, then east)."""
    labels = enumerate_partitions_in_box(k, n - k)
    index = {lam.parts: i for i, lam in enumerate(labels)}
    rows = []
    for lam in labels:
        parts = lam.parts + (0,) * (k - len(lam.parts))
        path, col = [], 0  # True for an east step
        for part in reversed(parts):
            path += [True] * (part - col) + [False]
            col = part
        path += [True] * (n - k - col)
        cups, open_ = [], []
        for p, east in enumerate(path):
            if east:
                open_.append(p)
            elif open_:
                cups.append((open_.pop(), p))
        row = {}
        for r in range(len(cups) + 1):
            for chosen in itertools.combinations(cups, r):
                mu = list(path)
                for p, q in chosen:
                    mu[p], mu[q] = False, True
                # a north step closes the row of the easts before it
                ends = list(itertools.accumulate(mu))
                inner = [ends[p] for p, east in enumerate(mu) if not east]
                row[index[tuple(x for x in reversed(inner) if x)]] = r
        rows.append(row)
    return rows


def grassmannian_permutations(k: int, n: int):
    """Ordered (partition, permutation) pairs for the k x (n-k) box.

    The permutation is the minimal coset representative: w(i) is the
    jump sequence for i <= k and the complement in increasing order
    after that. Its length is the size of the partition.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    out = []
    for lam in enumerate_partitions_in_box(k, n - k):
        t = jump_sequence(lam, k)
        chosen = set(t)
        rest = tuple(j for j in range(1, n + 1) if j not in chosen)
        out.append((lam, t + rest))
    return out


def delta_ic_flag(n: int, x, y) -> LaurentPoly:
    """[Delta_x : IC_y] on the full flag variety of rank n.

    Realized as v^(-(l(x)-l(y))) * Q_{y,x}(v^2) with Q the inverse KL
    polynomial of a KLTable built for the call; zero unless y <= x in
    Bruhat order. The matrices of mult read parabolic KL columns
    instead.
    """
    hecke.check_permutation(x, n)
    hecke.check_permutation(y, n)
    # inverse_kl is 0 here too, but reaching it through the table costs more.
    if not hecke.bruhat_leq(y, x):
        return LaurentPoly.zero()
    q_poly = hecke.KLTable(n).inverse_kl(y, x)
    return q_poly.inflate(2).shift(-(hecke.length(x) - hecke.length(y)))


def delta_ic(space, a, b):
    """[Delta_a : IC_b] through the per-pair routes: mult.delta_ic_gr
    and delta_ic_flag."""
    if space.kind == "gr":
        return mult.delta_ic_gr(space.k, space.n, a, b)
    return delta_ic_flag(space.n, a, b)


def proj_delta_vector(space, lam):
    """[P_lam : Delta_nu] for all nu, via BGG reciprocity equal to
    [Delta_nu : IC_lam]; only nonzero entries are returned."""
    out = {}
    for nu in space.labels():
        p = delta_ic(space, nu, lam)
        if p:
            out[nu] = p
    return out


def sparse(row):
    """The sparse vector {index: entry} of a dense row: nonzero
    entries only, as _linalg.Echelon and kernel_basis take them."""
    return {i: x for i, x in enumerate(row) if x}
