"""Reference constructions and helpers shared by the test modules.

The library no longer needs the constructions: the matrices read
parabolic KL columns and the sparse Dyck rows instead, and an algebra's
products come from its right-action table. The tests keep them as
independent routes to the same numbers.
"""

import itertools
from bisect import bisect_right
from math import gcd

from koszulbench import _linalg, hecke, mult, weights
from koszulbench.laurent import LaurentPoly, digits
from koszulbench.shapes import (BoxScan, Partition, connected_components,
                                enumerate_partitions_in_box, is_border_strip,
                                is_dyck_cbs, jump_sequence,
                                outer_border_strip, shape_from_cells)


def from_pairs(pairs) -> LaurentPoly:
    """The LaurentPoly summing c * v^e over the pairs (e, c); an
    exponent may repeat."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return LaurentPoly(acc)


def involute(p) -> LaurentPoly:
    """The bar involution of a LaurentPoly, exchanging v and v^-1."""
    return LaurentPoly({-e: c for e, c in p.items()})


def dominates(p, q) -> bool:
    """Support dominance p preceq q: every exponent of p also appears
    in q. Reflexive and transitive, not antisymmetric."""
    return dict(p.items()).keys() <= dict(q.items()).keys()


def conjugate_partition(lam) -> Partition:
    """The conjugate (transposed) partition: part i counts the parts
    of lam that are at least i."""
    return Partition(sum(1 for p in lam.parts if p >= i)
                     for i in range(1, lam.part(1) + 1))


def width(shape) -> int:
    """The number of columns a SkewShape's cells span, 0 when empty."""
    cols = [i for i, _ in shape.cells]
    return max(cols) - min(cols) + 1 if cols else 0


def oracle_depth(shape, memo=None):
    """The four-rule recursion on SkewShape objects, or None when the
    shape is not Dyck. Built only from the object-level primitives, so
    it shares no code with the row-interval evaluators. memo, a dict
    shared between calls, keeps the depths of the shapes met so far;
    components and remainders repeat across the shapes of a box."""
    if shape.is_empty():
        return 0
    if memo is None:
        memo = {}
    if shape in memo:
        return memo[shape]
    comps = connected_components(shape)
    if len(comps) > 1:
        depths = [oracle_depth(c, memo) for c in comps]
        got = None if None in depths else sum(depths)
    elif is_border_strip(shape):
        got = 1 if is_dyck_cbs(shape) else None
    else:
        strip = oracle_depth(outer_border_strip(shape), memo)
        rest = None
        if strip is not None:
            cs = shape.cell_set()
            rest = oracle_depth(shape_from_cells(
                (i, j) for i, j in shape.cells if (i + 1, j + 1) in cs),
                memo)
        got = None if rest is None else strip + rest
    memo[shape] = got
    return got


def encode_shape(shape):
    """The row encoding of a shape, one entry per part of the outer
    partition: (inner_j, outer_j) for a nonempty row, else None."""
    outer = shape.outer.parts
    inner = shape.inner.parts + (0,) * (len(outer) - len(shape.inner.parts))
    return [(a, b) if a < b else None for a, b in zip(inner, outer)]


def eval_encoded(enc):
    """shapes.dyck_depth by a second route: a stack of row lists, one
    per remainder, instead of the levels read off the parts. The depth,
    or -1 when the shape is not Dyck.

    enc holds one entry per row, as encode_shape builds it: the pair
    (a, b) for the half-open column interval (a, b], or None for an
    empty row. Each component must pass the strip criteria (i) and
    (ii) of shapes; it adds one to the depth, and its remainder, the
    rows (a_t, b_{t+1} - 1] but the last, goes on the stack.
    """
    total = 0
    stack = [enc]
    while stack:
        rows = stack.pop()
        n = len(rows)
        j = 0
        while j < n:
            if rows[j] is None:
                j += 1
                continue
            pa, b0 = rows[j]
            rem = []
            t = 1
            # a row joins the component iff it overlaps the row above
            while j + t < n and rows[j + t] and rows[j + t][1] > pa:
                a, b = rows[j + t]
                if b + t - 1 < b0:
                    return -1
                rem.append((pa, b - 1) if b - 1 > pa else None)
                pa = a
                t += 1
            if pa + t != b0:
                return -1
            total += 1
            stack.append(rem)
            j += t
    return total


def encoding_parts(enc):
    """Inner and outer parts (a, b) with the rows of enc, for
    shapes._depth_by_levels: an empty row gets a = b = the right end of
    the next nonempty row below it (0 if there is none), which keeps
    both weakly decreasing whenever enc is a skew shape."""
    a, b = [0] * len(enc), [0] * len(enc)
    below = 0
    for t in range(len(enc) - 1, -1, -1):
        if enc[t] is None:
            a[t] = b[t] = below
        else:
            a[t], b[t] = enc[t]
            below = b[t]
    return tuple(a), tuple(b)


def box_encodings(rows: int, cols: int):
    """Every normalized nonempty skew shape in a rows x cols box, as a
    list of one entry per row in the format of encode_shape: the
    interval (a, b] or None. The first row is nonempty, some row starts
    at column 0, and a nonempty row lies directly below the previous
    nonempty one (a <= la, b <= lb) or, after one or more empty rows,
    strictly to its left (b <= la)."""
    buf = [None] * rows

    def rec(t, la, lb, gap, touched0):
        if t == rows:
            if touched0:
                yield list(buf)
            return
        buf[t] = None
        yield from rec(t + 1, la, lb, True, touched0)
        top = la if gap else lb
        for a in range(la + 1):
            for b in range(a + 1, top + 1):
                buf[t] = (a, b)
                yield from rec(t + 1, a, b, False, touched0 or a == 0)
        buf[t] = None

    for a in range(cols):
        for b in range(a + 1, cols + 1):
            buf[0] = (a, b)
            yield from rec(1, a, b, False, a == 0)


def box_shapes(rows: int, cols: int):
    """box_encodings as SkewShapes."""
    for enc in box_encodings(rows, cols):
        yield shape_from_cells((i, j + 1) for j, ab in enumerate(enc) if ab
                               for i in range(ab[0] + 1, ab[1] + 1))


def add_product(acc, p, q):
    """acc += p * q for depth polynomials, lists of counts indexed by
    depth; acc grows as needed."""
    need = len(p) + len(q) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(p):
        if c:
            for j, e in enumerate(q):
                acc[i + j] += c * e


def scan_box_by_lists(rows: int, cols: int):
    """shapes.scan_box by a second route: the shape total from a
    memoized recursion over pairs of row intervals that tracks whether
    a row starts at column 0, and the depth polynomials as lists of
    counts multiplied coefficient by coefficient."""
    K, M = rows, cols
    memo = {}

    def completions(depth, la, lb, gap, touched0):
        # fillings of rows depth.. after the nonempty row (la, lb] in
        # which some row starts at column 0. The next nonempty row
        # (a, b] lies directly below it (a <= la, b <= lb) or, after
        # one or more empty rows, strictly to its left (b <= la)
        if depth == K:
            return 1 if touched0 else 0
        key = (depth, la, lb, gap, touched0)
        n = memo.get(key)
        if n is None:
            n = completions(depth + 1, la, lb, True, touched0)
            top = la if gap else lb
            for a in range(la + 1):
                for b in range(a + 1, top + 1):
                    n += completions(depth + 1, a, b, False,
                                     touched0 or a == 0)
            memo[key] = n
        return n

    count = 0
    for a in range(M):
        for b in range(a + 1, M + 1):
            count += completions(1, a, b, False, a == 0)

    one = [1]
    rest_memo = {}

    def rest(k, top):
        # Dyck fillings of the last k rows of a remainder, its component
        # translated so that the last left end is 0 (and b_0 = r). By
        # (i) a row ends at column k or beyond, k counting the rows from
        # it on; every left end is at least 0; the next row ends at most
        # at column top. The sum runs over the right ends the strip
        # allows as well as over the left ends.
        if k == 0:
            return one
        key = (k, top)
        acc = rest_memo.get(key)
        if acc is None:
            acc = []
            for v in range(k, top + 1):
                # the next row ends at v: it is empty, its left end v
                # bounding the rows below it,
                add_product(acc, rest(k - 1, v), one)
                # or it opens a component of m rows. Its own (i) bounds
                # its right ends more tightly than the remainder's, so
                # they range over exactly those of comp[m]; by (ii) its
                # last left end is v - m, which the rows below it may
                # not pass.
                for m in range(1, k + 1):
                    add_product(acc, comp[m], rest(k - m, v - m))
            rest_memo[key] = acc
        return acc

    comp = [None]
    for m in range(1, min(K, M) + 1):
        # b_1 <= b_0 = m, so the remainder's first row ends at most at
        # m - 1; the strip adds one to the depth
        comp.append([0] + rest(m - 1, m - 1))

    below_memo = {}

    def below(t, bound):
        # Dyck fillings of rows t.. in which every row ends at or left
        # of column bound, the last left end of the previous component;
        # the shape must reach column 0
        if bound == 0:
            return one
        if t == K:
            return []
        key = (t, bound)
        acc = below_memo.get(key)
        if acc is None:
            acc = []
            add_product(acc, below(t + 1, bound), one)
            for b in range(1, bound + 1):
                for r in range(1, min(b, K - t) + 1):
                    add_product(acc, comp[r], below(t + r, b - r))
            below_memo[key] = acc
        return acc

    depths = [1]
    nviol = 0
    for b in range(1, M + 1):
        # the first row ends at b; no row ends right of it and one
        # starts at column 0, so b is the width
        first = []
        for r in range(1, min(b, K) + 1):
            add_product(first, comp[r], below(r, b - r))
        add_product(depths, first, one)
        nviol += sum(first[b + 1:])
    depth_counts = {d: c for d, c in enumerate(depths) if c}
    return BoxScan(rows=K, cols=M, shapes=count, dyck=sum(depths) - 1,
                   max_depth=max(depth_counts), depth_counts=depth_counts,
                   bound_violations=nviol)


def pair_scan_rows(k: int, n: int):
    """The Dyck depths of mult.dyck_rows by brute force, with no cup
    diagram: every pair of labels whose inner tuple is below the outer
    one goes to the stack evaluator (eval_encoded) as its rows
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
                d = eval_encoded(enc)
                if d >= 0:
                    row[j] = d
        rows.append(row)
    return rows


def cup_rows(k: int, n: int):
    """The cup-diagram rule of mult.dyck_rows in list-and-subset form
    (Lascoux-Schutzenberger; Brundan-Stroppel, Khovanov's diagram
    algebra I), where dyck_rows packs each path into one int and each cup
    into an XOR mask. Walk the boundary path of lam from the bottom left
    of the box to the top right as a list of steps: an east step opens a
    cup, and the next unmatched north step closes it. Row lam maps mu to
    r when mu's path is lam's with r of its cups reversed (north first,
    then east); mu is read back from its path, not looked up by it."""
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


def cup_depth(shape):
    """The depth of lam/mu by cup reversal, or None when it is not Dyck
    (Lascoux-Schutzenberger 1981; Brundan-Stroppel, Khovanov's diagram
    algebra I, 2011; Shigechi-Zinn-Justin 2012). Only the parts are
    read, neither the strip criteria nor the cells. With k = len(lam),
    walk lam's boundary from the bottom left to the top right: part t
    (from the top, zero-based) closes with the north step at
    lam_t + k - 1 - t, and the other steps go east. An east step opens a
    cup, and each north step closes the nearest open one. lam/mu is
    Dyck when mu's boundary, mu padded to k parts, is lam's with some
    cups reversed: each north step lam loses moves back to its cup's
    east step. The depth is the number of reversed cups."""
    lam, mu = shape.outer.parts, shape.inner.parts
    k = len(lam)
    mu = mu + (0,) * (k - len(mu))
    north = {part + k - 1 - t for t, part in enumerate(lam)}
    closes, open_ = {}, []
    for p in range(lam[0] + k if lam else 0):
        if p not in north:
            open_.append(p)
        elif open_:
            closes[p] = open_.pop()
    moved = {part + k - 1 - t for t, part in enumerate(mu)}
    lost = north - moved
    if {closes.get(p) for p in lost} != moved - north:
        return None
    return len(lost)


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


def inverse(w):
    """The inverse permutation, in one-line notation."""
    out = [0] * len(w)
    for i, im in enumerate(w):
        out[im - 1] = i + 1
    return tuple(out)


def mul_s(w, i):
    """Right multiply by the simple transposition s_{i+1} (0-based i)."""
    l = list(w)
    l[i], l[i + 1] = l[i + 1], l[i]
    return tuple(l)


def is_smooth(w) -> bool:
    """Pattern avoidance of 3412 and 4231, which for type A is
    equivalent to every P_{x,w} being 1 (Lakshmibai-Sandhya 1990)."""
    for a, b, c, d in itertools.combinations(w, 4):
        if c < d < a < b or d < b < c < a:
            return False
    return True


def first_descent(w):
    """0-based index of the first right descent, or -1 for identity."""
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            return i
    return -1


class FullKLTable:
    """hecke.KLTable by the full route: whole Bruhat columns of S_n.

    The engine works on small-int ids, interned the first time the
    table touches a permutation, with its tuple, length, first right
    descent, smoothness flag and neighbour under each right s_i. The
    column of w is a dict from the id of every x in [e, w] to P_{x,w}
    packed into one int (see hecke._BITS), built from the column of
    v = ws < w, s the first right descent of w; every mu column is
    scattered over the column of z. P_{x,w} = 1 whenever
    l(w) - l(x) <= 2; a column of a permutation avoiding 3412 and 4231
    is identically 1; and when v = ws < w, [e, w] is [e, v] together
    with [e, v] s (lifting). It shares no code with hecke's coset
    engine but the packing.
    """

    def __init__(self, n: int):
        self.n = n
        self._ids = {}
        self._perm = []
        self._len = []
        self._desc = []
        self._smooth = []
        self._nbr = [[] for _ in range(n - 1)]
        self._cols = {}
        self._w0 = hecke.longest_element(n)

    def kl_polynomial(self, x, w) -> LaurentPoly:
        p = self._value(self._id(x), self._id(w))
        return LaurentPoly(dict(enumerate(digits(p, hecke._BITS))))

    def inverse_kl(self, y, w) -> LaurentPoly:
        """Q_{y,w} := P_{w0 w, w0 y}."""
        w0 = self._w0
        return self.kl_polynomial(hecke.compose(w0, w), hecke.compose(w0, y))

    def mu(self, x, w) -> int:
        x, w = self._id(x), self._id(w)
        gap = self._len[w] - self._len[x]
        if gap < 0 or gap % 2 == 0:
            return 0
        return self._value(x, w) >> (hecke._BITS * (gap >> 1))

    def _id(self, w) -> int:
        hecke.check_permutation(w, self.n)
        return self._intern(w)

    def _intern(self, w, lw=None) -> int:
        k = self._ids.get(w)
        if k is None:
            k = self._ids[w] = len(self._perm)
            self._perm.append(w)
            self._len.append(hecke.length(w) if lw is None else lw)
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

    def _value(self, x, w):
        lx = self._len[x]
        lw = self._len[w]
        if lx >= lw:
            return int(x == w)
        col = self._cols.get(w)
        if col is not None:
            return col.get(x, 0)
        if lw - lx <= 2 or self._is_smooth(w):
            return int(hecke.bruhat_leq(self._perm[x], self._perm[w]))
        return self._column(w).get(x, 0)

    def _column(self, w):
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
            col = dict.fromkeys(colv, 1)
            col.update(dict.fromkeys((nbr[y] for y in colv), 1))
            self._cols[w] = col
            return col
        # P_{x,w} = q^(1-c) P_{xs,v} + q^c P_{x,v}
        #           - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z},
        # c = 1 when xs < x, z < v over zs < z. Each y <= v gives x = y,
        # and also x = ys when ys is not <= v, with P_{x,w} = P_{y,v}.
        bits = hecke._BITS
        L = self._len
        col = {}
        for y, py in colv.items():
            ys = nbr[y]
            pys = colv.get(ys)
            if pys is None:
                col[y] = col[ys] = py
            elif L[ys] > L[y]:
                col[y] = py + (pys << bits)
            else:
                col[y] = pys + (py << bits)
        lw = L[w]
        for z, pz in colv.items():
            gap = lw - 1 - L[z]
            if gap % 2 and L[nbr[z]] < L[z]:
                m = pz >> (bits * (gap >> 1))
                if m:
                    shift = bits * ((gap + 1) >> 1)
                    for x, p in self._column(z).items():
                        col[x] -= m * p << shift
        self._cols[w] = col
        return col


def delta_ic_flag(n: int, x, y) -> LaurentPoly:
    """[Delta_x : IC_y] on the full flag variety of rank n.

    Realized as v^(-(l(x)-l(y))) * Q_{y,x}(v^2) with Q the inverse KL
    polynomial of a FullKLTable built for the call; zero unless y <= x
    in Bruhat order. The matrices of mult read parabolic KL columns
    instead.
    """
    hecke.check_permutation(x, n)
    hecke.check_permutation(y, n)
    # inverse_kl is 0 here too, but reaching it through the table costs more.
    if not hecke.bruhat_leq(y, x):
        return LaurentPoly.zero()
    q_poly = FullKLTable(n).inverse_kl(y, x)
    shift = hecke.length(y) - hecke.length(x)
    return LaurentPoly({2 * e + shift: c for e, c in q_poly.items()})


def delta_ic(space, a, b):
    """[Delta_a : IC_b] through the per-pair routes: mult.delta_ic_gr
    and delta_ic_flag."""
    if space.kind == "gr":
        return mult.delta_ic_gr(space.k, space.n, a, b)
    return delta_ic_flag(space.n, a, b)


def entry(matrix, a, b) -> LaurentPoly:
    """The entry of a mult.MultiplicityMatrix in row label a, column b."""
    return matrix.entries[matrix.labels.index(a)][matrix.labels.index(b)]


def proj_delta_vector(space, lam):
    """[P_lam : Delta_nu] for all nu, via BGG reciprocity equal to
    [Delta_nu : IC_lam]; only nonzero entries are returned."""
    out = {}
    for nu in space.labels():
        p = delta_ic(space, nu, lam)
        if p:
            out[nu] = p
    return out


def cartan_blocks(space) -> list:
    """The exponent-support blocks of the distinct nonzero entries of
    the graded Cartan matrix, sorted, in q-degrees: each entry is
    parity-pure, so its v-degrees are shifted to even and halved. The
    whole-matrix route to weights.wt_space, through wt_brute."""
    blocks = []
    for p in set().union(*mult.graded_cartan(space).entries):
        if not p:
            continue
        exps = sorted(-e for e, _ in p.items())
        parity = exps[0] % 2
        if any(e % 2 != parity for e in exps):
            raise ValueError("mixed-parity Cartan entry %s" % p.render())
        blocks.append(tuple((e - parity) // 2 for e in exps))
    return sorted(blocks)


def wt_brute(blocks):
    """The minimal weight support of any block set, by exhaustion: the
    first set containing 0, by size and then lexicographically, that
    holds a translate of every block. weights.wt_from_blocks answers
    only the sets in which one block covers the others.

    The search stays inside 0..span - 1, span the sum of w + 1 over the
    distinct normalized blocks of width w. If a set's copies left an
    integer uncovered between two runs of them, sliding the runs above
    it down by one would give a lexicographically smaller set of the
    same size or a smaller one; so the first set has no such integer,
    and its copies lie inside span consecutive integers.
    """
    norm = {tuple(x - min(b) for x in sorted(set(b))) for b in blocks}
    if not norm:
        return (0,)
    masks = [(sum(1 << x for x in b), b[-1]) for b in norm]
    span = sum(b[-1] + 1 for b in norm)
    for size in itertools.count(max(map(len, norm))):
        for rest in itertools.combinations(range(1, span), size - 1):
            top = rest[-1] if rest else 0
            got = sum(1 << x for x in rest) | 1
            if all(any(got >> off & mask == mask
                       for off in range(top - width + 1))
                   for mask, width in masks):
                return (0,) + rest


def has_weights_in(matrix, q: int):
    """Whether the characteristic polynomial splits as a product of
    (t - q^i) with i >= 0. Returns (True, {i: multiplicity}) or
    (False, None).

    Found without the characteristic polynomial, so it is a second
    route to weights._split: every eigenvalue lies within the largest
    absolute row sum of A (an induced norm), so only the q^i up to it
    are tried. q^i is an eigenvalue when det(A - q^i) = 0, and then its
    algebraic multiplicity is the nullity of (A - q^i)^n. The
    polynomial splits into powers of q exactly when the multiplicities
    sum to n."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    n = len(matrix)
    norm = max((sum(map(abs, row)) for row in matrix), default=0)
    found = {}
    i, root = 0, 1  # root = q^i
    while root <= norm:
        shifted = weights._mat_sub_scalar(matrix, root)
        if _linalg.det_bareiss(shifted) == 0:
            found[i] = len(_linalg.smith_kernel_basis(
                weights._mat_pow(shifted, n), n))
        if q == 1:
            break  # q^i is 1 for every i
        i, root = i + 1, root * q
    if sum(found.values()) != n:
        return False, None
    return True, found


def phi_report_by_sweep(matrix, q: int, l: int):
    """weights.is_phi_decomposable by the all-sweep route: the
    determinant by Bareiss elimination, and for every weight i, simple
    or repeated, the saturated kernel of (A - q^i)^m_i from
    _linalg.smith_kernel_basis. l dividing q or the determinant, and
    q < 1, are refused with the library's ValueErrors; the primality
    and size checks are left to the library."""
    n = len(matrix)
    if q % l == 0:
        raise ValueError("q = %d is divisible by l = %d" % (q, l))
    if _linalg.det_bareiss(matrix) % l == 0:
        raise ValueError("matrix determinant is divisible by l = %d" % l)
    ok, wts = has_weights_in(matrix, q)
    if not ok:
        return weights.PhiReport(False, None, None, None, None)
    columns = [vec for i in sorted(wts)
               for vec in _linalg.smith_kernel_basis(weights._mat_pow(
                   weights._mat_sub_scalar(matrix, q ** i), wts[i]), n)]
    assert len(columns) == n
    index = abs(_linalg.det_bareiss(columns))
    return weights.PhiReport(True, wts, index % l != 0, index,
                             tuple(pow(q, i, l) for i in sorted(wts)))


def product(algebra, x, y):
    """Structure constants of x * y as {name: int}, read off the
    algebra's right-action table."""
    return dict(algebra.right[y].get(x, ()))


def product_by_rules(algebra, x, y):
    """Structure constants of x * y as {name: int} from the rules
    rather than from algebra.right: an idempotent on either side keeps
    the other element when the endpoints meet, two other elements
    multiply only when composable, and then as listed in mult. The
    idempotents are the basis elements of degree 0."""
    xsrc, xtgt, xdeg = algebra.basis[x]
    ysrc, _, ydeg = algebra.basis[y]
    if xdeg == 0:
        return {y: 1} if ysrc == xsrc else {}
    if ydeg == 0:
        return {x: 1} if xtgt == ysrc else {}
    if xtgt != ysrc:
        return {}
    return dict(algebra.mult.get((x, y), {}))


def sparse(row):
    """The sparse vector {index: entry} of a dense row: nonzero
    entries only, as _linalg.Echelon and kernel_basis take them."""
    return {i: x for i, x in enumerate(row) if x}


class PlainEchelon:
    """_linalg.Echelon as it was before it skipped work: every vector
    is copied at each reduction step, divided by its content after
    every step over Q, and rescaled or divided by its content when
    stored, whatever its lead. Rows and vectors as in _linalg.Echelon."""

    def __init__(self, p: int):
        self.p = p
        self.rows = {}

    def reduce(self, vec):
        rows, p = self.rows, self.p
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                return lead, vec
            a, b = row[lead], vec[lead]
            if not p:
                g = gcd(a, b)
                a, b = a // g, b // g
            vec = {i: a * x for i, x in vec.items()}
            for i, y in row.items():
                x = vec.get(i, 0) - b * y
                if p:
                    x %= p
                if x:
                    vec[i] = x
                else:
                    del vec[i]
            if not p:
                g = gcd(*vec.values())
                if g > 1:
                    vec = {i: x // g for i, x in vec.items()}
        return None

    def add(self, vec) -> bool:
        red = self.reduce(vec)
        if red is None:
            return False
        lead, vec = red
        p = self.p
        if p:
            inv = pow(vec[lead], p - 2, p)
            vec = {i: x * inv % p for i, x in vec.items()}
        else:
            g = gcd(*vec.values())
            if g > 1:
                vec = {i: x // g for i, x in vec.items()}
        self.rows[lead] = vec
        return True


def plain_kernel_echelon(columns, nrows, p: int):
    """The PlainEchelon of every [columns[j] | e_j], zero and one-entry
    columns included, as _linalg.kernel_basis built it before it stored
    those directly."""
    ech = PlainEchelon(p)
    for j, col in enumerate(columns):
        vec = {i: x % p for i, x in col.items() if x % p} if p else dict(col)
        vec[nrows + j] = 1
        ech.add(vec)
    return ech


def plain_kernel_basis(columns, nrows, p: int):
    """_linalg.kernel_basis through plain_kernel_echelon."""
    rows = plain_kernel_echelon(columns, nrows, p).rows
    return [{i - nrows: x for i, x in row.items() if i >= nrows}
            for lead, row in sorted(rows.items()) if lead >= nrows]


def quadratic_dual_dims(algebra, p: int, i_max: int):
    """dim e_lam (A^!)_i e_mu for 0 <= i <= i_max over F_p (Q when
    p = 0), as {(i, lam, mu): dim} with zero dimensions left out: the
    diagonal dim Ext^i(L_lam, L_mu)_{-i} of any such algebra (Priddy
    1970; Beilinson-Ginzburg-Soergel 1996, section 2; Polishchuk-
    Positselski 2005, chapter 1), counted without a resolution.

    V is the span of the degree -1 basis elements. (A^!)_i is dual to
    K_i, the intersection of the V^j (x) R (x) V^(i-2-j) in V^(x)i, where
    R is the kernel of the product V (x) V -> A_(-2). So dim K_i is the
    number of composable paths of i elements of V from lam to mu, less
    the rank of the map that multiplies each adjacent pair in turn,
    taken by PlainEchelon."""
    basis = algebra.basis
    arrows = [b for b in algebra.basis_order if basis[b][2] == -1]
    out = {}
    for lam in algebra.vertices:
        out[(0, lam, lam)] = 1
        paths = [(x,) for x in arrows if basis[x][0] == lam]
        for i in range(1, i_max + 1):
            by_end = {}
            for path in paths:
                by_end.setdefault(basis[path[-1]][1], []).append(path)
            for mu, group in by_end.items():
                index, span = {}, PlainEchelon(p)
                for path in group:
                    image = {}
                    for j in range(i - 1):
                        prod = product_by_rules(algebra, path[j], path[j + 1])
                        for z, k in prod.items():
                            key = (j, path[:j], z, path[j + 2:])
                            image[index.setdefault(key, len(index))] = (
                                k % p if p else k)
                    span.add({n: k for n, k in image.items() if k})
                dim = len(group) - len(span.rows)
                if dim:
                    out[(i, lam, mu)] = dim
            paths = [path + (y,) for path in paths for y in arrows
                     if basis[y][0] == basis[path[-1]][1]]
    return out


def laurent_matrix_inverse(rows):
    """Exact inverse of a Laurent-polynomial matrix whose determinant
    is a unit monomial +-v^k, by _linalg.bareiss on the LaurentPoly
    entries: koszul.cartan_inverse by a second route, with no packing
    and no digit width, each division a LaurentPoly long division."""
    n = len(rows)
    one, zero = LaurentPoly.monomial(0), LaurentPoly.zero()
    det, adj = _linalg.bareiss([list(row) + [one if c == r else zero
                                             for c in range(n)]
                                for r, row in enumerate(rows)])
    items = list(det.items())
    if len(items) != 1 or items[0][1] not in (1, -1):
        raise ValueError("determinant %s is not a unit Laurent monomial"
                         % det.render())
    exp, coeff = items[0]
    det_inv = LaurentPoly.monomial(-exp, coeff)
    return [[p * det_inv for p in row] for row in adj]


def graded_dims(algebra):
    """dict (src, tgt) -> LaurentPoly counting the basis elements of an
    algebra by degree: its graded Cartan matrix C, which
    koszul.cartan_inverse packs into ints instead."""
    out = {pair: LaurentPoly.zero()
           for pair in itertools.product(algebra.vertices, repeat=2)}
    for src, tgt, deg in algebra.basis.values():
        out[(src, tgt)] += LaurentPoly.monomial(deg)
    return out


def euler_matrix(table):
    """(lam, mu) -> sum_i (-1)^i sum_s dim * v^s over the resolutions
    of a koszul.ExtTable: the inverse of the graded Cartan matrix, a
    second route to koszul.cartan_inverse. Raises ValueError unless
    every resolution terminated."""
    if not all(r.finished for r in table.resolutions.values()):
        raise ValueError("resolution did not terminate within i_max")
    out = {}
    for lam, res in table.resolutions.items():
        for i, step in enumerate(res.steps):
            for mu, s in step:
                out.setdefault((lam, mu), []).append((s, -1 if i % 2 else 1))
    return {key: from_pairs(pairs) for key, pairs in out.items()}


def koszul_violation(table):
    """The first summand (i, lam, mu, s) with s != -i of a
    koszul.ExtTable, scanning steps in homological order, or None: the
    verdict of koszul.is_koszul read off whole resolutions."""
    for i in range(1, table.i_max + 1):
        for lam, res in table.resolutions.items():
            if i >= len(res.steps):
                continue
            for (mu, s) in res.steps[i]:
                if s != -i:
                    return (i, lam, mu, s)
    return None


def cartan_inverse_by_laurent(algebra):
    """koszul.cartan_inverse through laurent_matrix_inverse on the
    graded dimension table."""
    dims = graded_dims(algebra)
    return laurent_matrix_inverse([[dims[(a, b)] for b in algebra.vertices]
                                   for a in algebra.vertices])
