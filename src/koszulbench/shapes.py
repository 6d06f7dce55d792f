"""Partitions, skew shapes, border strips, and Dyck depth.

Cells are pairs (i, j) with i the column and j the row, both starting
at 1: the diagram of a partition lam is {(i, j) : 1 <= i <= lam_j}.
The level of a cell (i, j) is i + j. A skew shape lam - mu is the
difference of two nested diagrams; the Dyck property and its depth are
invariant under translating the cell set. Dyck depth is evaluated on
the per-row column intervals (mu_j, lam_j] of the shape as given: the
evaluator compares levels only within one shape, so no normalization
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from operator import le

from .laurent import digits

# Most rows dyck_depth accepts; its cost is at most rows times levels,
# and a square is the worst case. See docs/cli.md.
MAX_DEPTH_ROWS = 2048


def _clean_parts(parts):
    parts = tuple(parts)  # the messages quote a generator's parts too
    prev = None  # the last nonzero part
    zero = False
    for p in parts:
        if type(p) is not int:  # bool, float and str refused
            raise ValueError("part %r is not an integer" % (p,))
        if p > 0:
            if prev is not None and p > prev:
                raise ValueError("parts not weakly decreasing: %r"
                                 % (parts,))
            prev = p
        elif p:
            raise ValueError("negative part %d" % p)
        else:
            zero = True
    if not zero:
        return parts
    # zeros are allowed only as trailing padding; any other bad part,
    # even a later one, is reported first
    cut = parts.index(0)
    if any(parts[cut:]):
        raise ValueError("interior zero part in %r" % (parts,))
    return parts[:cut]


class Partition:
    """A weakly decreasing tuple of positive parts. Trailing zeros drop."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        object.__setattr__(self, "parts", _clean_parts(parts))

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def part(self, j: int) -> int:
        """1-based part access, zero beyond the last part."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """other_j <= self_j for every j; a longer other fails, since
        self_j is zero beyond self's last part."""
        return (len(other.parts) <= len(self.parts)
                and all(map(le, other.parts, self.parts)))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")" if self.parts else "()"


def enumerate_partitions_in_box(k: int, m: int):
    """All partitions with at most k parts, each at most m.

    Ordered by size, and within a size with larger leading parts first,
    so the Gr(2,4) box lists as (), (1), (2), (1,1), (2,1), (2,2).
    """
    if k < 1 or m < 1:
        raise ValueError("box dimensions must be positive")
    # k parts from m down to 0, weakly decreasing; Partition drops zeros
    return sorted(map(Partition,
                      combinations_with_replacement(range(m, -1, -1), k)),
                  key=lambda lam: (lam.size, tuple(-p for p in lam.parts)))


def jump_sequence(lam: Partition, k: int):
    """The strictly increasing sequence t_i = lam_{k+1-i} + i."""
    if len(lam.parts) > k:
        raise ValueError("partition %s has more than %d parts" % (lam, k))
    return tuple(lam.part(k + 1 - i) + i for i in range(1, k + 1))


class SkewShape:
    """The skew shape outer - inner; its cell set is built on first use."""

    __slots__ = ("outer", "inner", "_cells")

    def __init__(self, outer, inner=()):
        outer = outer if isinstance(outer, Partition) else Partition(outer)
        inner = inner if isinstance(inner, Partition) else Partition(inner)
        if not outer.contains(inner):
            raise ValueError("inner %s not contained in outer %s" % (inner, outer))
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_cells", None)

    def __setattr__(self, *a):
        raise AttributeError("SkewShape is immutable")

    @property
    def cells(self):
        """The cells (i, j), sorted."""
        if self._cells is None:
            outer, inner = self.outer, self.inner
            object.__setattr__(self, "_cells", tuple(sorted(
                (i, j) for j in range(1, len(outer.parts) + 1)
                for i in range(inner.part(j) + 1, outer.part(j) + 1))))
        return self._cells

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def is_empty(self) -> bool:
        return self.size == 0

    def cell_set(self):
        return frozenset(self.cells)

    def __eq__(self, other):
        return (isinstance(other, SkewShape)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return "SkewShape(%r, %r)" % (self.outer.parts, self.inner.parts)


def shape_from_cells(cells) -> SkewShape:
    """Rebuild the canonical (outer, inner) pair from a skew cell set.

    The cells must form a valid skew shape whose rows are intervals.
    Empty rows below the last populated row are padded so both
    partitions stay weakly decreasing.
    """
    cells = sorted(set(cells))
    if not cells:
        return SkewShape((), ())
    rows = {}
    for i, j in cells:
        rows.setdefault(j, []).append(i)
    maxrow = max(rows)
    outer = [0] * maxrow
    inner = [0] * maxrow
    for j in range(maxrow, 0, -1):
        if j in rows:
            cols = rows[j]
            a, b = min(cols) - 1, max(cols)
            if len(cols) != b - a:
                raise ValueError("row %d is not an interval" % j)
            outer[j - 1] = b
            inner[j - 1] = a
        else:
            nxt = outer[j] if j < maxrow else 0
            outer[j - 1] = nxt
            inner[j - 1] = nxt
    return SkewShape(tuple(outer), tuple(inner))


def normal_form(shape: SkewShape) -> SkewShape:
    """Translate the cell set as close to the origin as possible."""
    if not shape.cells:
        return SkewShape((), ()) if (shape.outer.parts or shape.inner.parts) else shape
    di = 1 - min(i for i, _ in shape.cells)
    dj = 1 - min(j for _, j in shape.cells)
    if di == 0 and dj == 0 and shape.outer.part(1) != shape.inner.part(1):
        return shape
    return shape_from_cells((i + di, j + dj) for i, j in shape.cells)


def connected_components(shape: SkewShape):
    """Maximal edge-connected cell groups, each in normal form.

    Cells touching only at a corner are not adjacent. The empty shape
    has zero components. Components are ordered by their smallest cell.
    """
    remaining = set(shape.cells)
    comps = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = {seed}
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    comps.sort(key=min)
    return [normal_form(shape_from_cells(c)) for c in comps]


def is_border_strip(shape: SkewShape) -> bool:
    """True iff no 2x2 block of cells lies inside the shape."""
    cs = set(shape.cells)
    return not any((i + 1, j) in cs and (i, j + 1) in cs and (i + 1, j + 1) in cs
                   for i, j in cs)


def outer_border_strip(shape: SkewShape) -> SkewShape:
    """The largest final segment of the shape that is a border strip.

    A final segment is lam - nu for inner <= nu <= lam. The largest
    border-strip one consists exactly of the cells whose upper-right
    diagonal neighbor is outside the shape. May be disconnected.
    """
    if not shape.cells:
        raise ValueError("outer_border_strip of an empty shape")
    cs = shape.cell_set()
    strip = [(i, j) for i, j in shape.cells if (i + 1, j + 1) not in cs]
    return normal_form(shape_from_cells(strip))


def _path_ends(cells):
    """Endpoints of the Hamiltonian path of a connected border strip."""
    cs = set(cells)
    ends = []
    for i, j in cells:
        deg = sum(1 for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
                  if nb in cs)
        if deg <= 1:
            ends.append((i, j))
    if len(cells) == 1:
        return cells[0], cells[0]
    if len(ends) != 2:
        raise ValueError("cells do not form a single path")
    return ends[0], ends[1]


def is_dyck_cbs(shape: SkewShape) -> bool:
    """Dyck test for a connected border strip.

    The two endpoint cells of the strip's path must share the same
    level i + j, and no cell of the strip may have a strictly smaller
    level. Raises ValueError when the input is not a connected border
    strip.
    """
    if not shape.cells:
        raise ValueError("empty shape is not a connected border strip")
    if not is_border_strip(shape):
        raise ValueError("shape is not a border strip")
    if len(connected_components(shape)) != 1:
        raise ValueError("shape is not connected")
    e1, e2 = _path_ends(shape.cells)
    lev = e1[0] + e1[1]
    if lev != e2[0] + e2[1]:
        return False
    return all(i + j >= lev for i, j in shape.cells)


# slotted but not frozen: a frozen dataclass sets each field through
# object.__setattr__, which more than doubles the cost of building
# one, and dyck_depth builds one per call
@dataclass(slots=True)
class DyckVerdict:
    is_dyck: bool
    depth: int


def dyck_depth(shape: SkewShape) -> DyckVerdict:
    """The four-rule recursion: empty has depth 0, a Dyck connected
    border strip has depth 1, a disconnected shape sums over its
    components, and a connected shape splits into its outer border
    strip plus the rest, both of which must be Dyck. Evaluated level
    by level by _depth_by_levels, straight from the parts: each level
    peels the outer strip of every component at once and checks it
    with the strip criteria (i) and (ii) below, the same rule scan_box
    counts with. Each level sweeps only the rows of the previous
    level's components, so the cost is at most rows times levels (a
    square of side n takes n(n+1)/2 row steps), and a shape may have
    at most MAX_DEPTH_ROWS rows; a longer one raises ValueError before
    any work."""
    outer = shape.outer.parts
    n = len(outer)
    if n > MAX_DEPTH_ROWS:
        raise ValueError("shape has %d rows, more than the limit of %d"
                         % (n, MAX_DEPTH_ROWS))
    inner = shape.inner.parts
    d = _depth_by_levels(inner + (0,) * (n - len(inner)), outer)
    return DyckVerdict(d >= 0, d if d >= 0 else 0)


def transpose(shape: SkewShape) -> SkewShape:
    """Reflect cells across the main diagonal, (i, j) -> (j, i)."""
    if not shape.cells:
        return shape
    return shape_from_cells((j, i) for i, j in shape.cells)


# ---------------------------------------------------------------------------
# Row-interval evaluator and box scanner.
#
# Both apply one rule, the strip criteria (i) and (ii) below:
# _depth_by_levels checks them on each component of a shape, level by
# level, and scan_box builds exactly the components that pass them.
# The evaluator reads the parts themselves, never cell sets, and the
# criteria are relative to a component's top row, so it needs neither
# normalization nor a bound on the width. Tests check it against the
# object-level four-rule recursion and against a stack evaluator on
# row lists (tests/oracles.py).
#
# The scanner never lists shapes. It counts them with a transfer over
# row intervals whose steps read 2-D prefix sums, and it counts the
# Dyck ones by depth as polynomials in u packed into one int at
# u = 2^B (Kronecker substitution, as in mult), so that a product of
# depth polynomials is one int product. Tests check it against a
# route of memoized recursions and coefficient lists, and against
# the evaluator on every shape of the small boxes.
#
# Strip-plus-remainder decomposition. Let a connected component have
# the rows (a_0, b_0], ..., (a_{r-1}, b_{r-1}], top to bottom. Its rows
# overlap, b_{t+1} > a_t, so its outer border strip has the rows
# (b_{t+1} - 1, b_t] for t < r - 1 and (a_{r-1}, b_{r-1}] last. Each is
# nonempty and meets the next in exactly one column, so the strip is
# one connected border strip, checked as a single piece. The remainder
# is what the strip leaves of rows 0..r-2: the rows (a_t, c_t] with
# c_t = b_{t+1} - 1. Its right ends are fixed by the strip, since the
# strip takes every cell of row t from the column where row t + 1 ends;
# only the left ends are free, and row t of the remainder is empty iff
# a_t = c_t. The component is Dyck iff its strip is Dyck and every
# component of its remainder is Dyck, and then its depth is 1 plus the
# remainder's depth.
#
# Relative to the component's top row, the strip's end cells (b_0, 0)
# and (a_{r-1} + 1, r - 1) must share the level b_0, and no cell may
# lie below that level; the lowest cell of strip row t - 1 is
# (b_t, t - 1). So the strip is Dyck iff
#   (i)  b_t + t - 1 >= b_0 for every 1 <= t < r, and
#   (ii) a_{r-1} + r == b_0.
# By (ii) a Dyck component with r rows spans exactly the r columns
# (b_0 - r, b_0]. By (i) its remainder's right ends satisfy
# c_t >= b_0 - t - 1, and every left end is at least a_{r-1}.
# ---------------------------------------------------------------------------


# Level by level. Let a and b be the inner and outer parts, a padded
# with zeros to the length n of b, and call level k the rows
# (a_t, b_{t+k} - k] for t + k < n; level 0 is the shape. Level k is
# what k rounds of strip peeling leave, and its components are those
# of the remainders. By induction on k: a component of level k with
# the rows t..t+r-1 leaves the remainder rows (a_u, b_{u+1+k} - k - 1]
# for t <= u < t + r - 1, which are level k + 1's rows there, and the
# rest of level k + 1 is empty, with no row joining two remainders:
#   - the component's last row u = t + r - 1 is empty at level k + 1:
#     row u + 1 is absent, empty or misses row u at level k, so
#     b_{u+1+k} - k <= a_u, since a weakly decreases;
#   - a row empty at level k stays empty, b_{t+k+1} - 1 <= b_{t+k}
#     <= a_t + k, since b weakly decreases;
#   - rows of different components never merge: rows u and u + 1 lie
#     in different components iff b_{u+1+k} - k <= a_u, and then
#     b_{u+2+k} - k - 1 < a_u as well.
# So the depth is the number of components summed over the levels, and
# the shape is Dyck iff every component at every level passes (i) and
# (ii). With the component's top row t and u = t + 1, ..., t + r - 1
# they read
#   (i)  b_{u+k} + u >= b_{t+k} + t + 1, and
#   (ii) a_{t+r-1} + k + r == b_{t+k}.
# So level k + 1 is swept only over the rows t..t+r-2 of each live
# component of level k, one with r >= 2 rows: a component of one row
# leaves nothing, and the rows between components stay empty. Each such
# range ends at least one row before the range of level k that held
# it, so t + k < n holds throughout, and the evaluation stops at the
# first level with no live component.


def _depth_by_levels(a, b):
    """Dyck depth of the shape with the rows (a_t, b_t], or -1 when it
    is not Dyck; a is padded to the length of b. Counts the components
    of every level, as above, without building a row list."""
    total = 0
    live = [(0, len(b))]
    k = 0
    while live:
        spans, live = live, []
        for t, hi in spans:
            while t < hi:
                b0 = b[t + k]
                pk = a[t] + k  # the left end of row t, shifted by k
                if b0 <= pk:  # an empty row
                    t += 1
                    continue
                total += 1
                lim = b0 + t + 1
                u = t + 1
                # a row joins the component iff it overlaps the row above
                while u < hi:
                    c = b[u + k]
                    if c <= pk:
                        break
                    if c + u < lim:  # (i)
                        return -1
                    pk = a[u] + k
                    u += 1
                if pk + u - t != b0:  # (ii)
                    return -1
                if u - t > 1:  # its remainder lies in rows t..u-2
                    live.append((t, u - 1))
                t = u
        k += 1
    return total


@dataclass
class BoxScan:
    rows: int
    cols: int
    shapes: int
    dyck: int
    max_depth: int
    depth_counts: dict
    bound_violations: int


def scan_box(rows: int, cols: int) -> BoxScan:
    """Sweep every normalized skew shape inside a rows x cols box.

    Counts shapes and Dyck shapes, tallies depths, and counts
    violations of the bound depth <= width. The empty shape is
    included (depth 0). Box sides must be ints in 1..15, the range the
    tests cover; the scan's cost grows only polynomially with the
    sides (the 15x15 box takes about 3 ms).

    The shape total comes from a transfer matrix over row intervals,
    one row at a time in O(M^2) steps through 2-D prefix sums (Stanley,
    EC1, section 4.7). No shape is evaluated one by one: the Dyck
    shapes are counted as depth polynomials, built from the
    strip-plus-remainder decomposition above and packed into ints. A
    Dyck component is its Dyck strip plus a Dyck remainder, and the
    remainder's components are again Dyck components of fewer rows, so
    comp[m], the depth polynomial of the Dyck components with m rows,
    follows from comp[1..m-1]. A shape is a column of components
    stacked from the top right to the bottom left, with empty rows
    anywhere between them. Every table is a running sum over the
    right ends its rows may take.
    """
    for side in (rows, cols):
        if type(side) is not int:  # bool and float refused
            raise ValueError("box side %r is not an integer" % (side,))
    if rows < 1 or cols < 1:
        raise ValueError("box dimensions must be positive")
    if cols >= 16 or rows >= 16:
        raise ValueError("scanner supports boxes up to 15x15")
    K, M = rows, cols

    # The shape total, one row up at a time. after[a][b] counts the
    # fillings of the rows below a nonempty row (a, b] (zero unless
    # a < b), gap[a] those of the rows below an empty row whose last
    # nonempty row starts at a. prefix[a][t] sums after[a'][b'] over
    # a' <= a and b' <= t: the next nonempty row lies directly below,
    # within prefix[a][b], or after an empty row, within prefix[a][a].
    span = range(M + 1)
    after = [[int(a < b) for b in span] for a in span]
    gap = [1] * (M + 1)
    for _ in range(K - 1):
        prefix, acc = [], [0] * (M + 1)
        for a in span:
            acc = [x + y for x, y in zip(acc, accumulate(after[a]))]
            prefix.append(acc)
        after = [[gap[a] + prefix[a][b] if a < b else 0 for b in span]
                 for a in span]
        gap = [gap[a] + prefix[a][a] for a in span]
    # the first rows (a, b] in [0, M] give T(K, M); the counts below a
    # row do not depend on M, so T(K, M) - T(K, M - 1), the normalized
    # total, sums over the first rows that end at M
    count = sum(after[a][M] for a in range(M))

    # Depth polynomials, packed: sum c_d u^d is the int sum c_d 2^(B d).
    # A coefficient counts fillings of at most K rows, each row empty
    # or an interval of (0, M], so it is below (M(M+1)/2 + 1)^K <= 2^B
    # and no digit carries into the next.
    B = K * (M * (M + 1) // 2 + 1).bit_length()

    # rest[k][top]: the Dyck fillings of the last k rows of a
    # remainder, its component translated so that the last left end is
    # 0 (and b_0 = r). By (i) a row ends at column k or beyond, k
    # counting the rows from it on; every left end is at least 0; the
    # next row ends at most at column top, so rest[k] sums over the
    # right ends v <= top. The row ending at v is empty, its left end v
    # bounding the rows below it, or it opens a component of m rows.
    # Its own (i) bounds its right ends more tightly than the
    # remainder's, so they range over exactly those of comp[m]; by (ii)
    # its last left end is v - m, which the rows below it may not pass.
    # b_1 <= b_0 = m, so the remainder of an m-row component has its
    # first row end at most at m - 1; the strip adds one to the depth.
    n = min(K, M)
    comp, rest = [0], [[1] * n]
    for k in range(1, n + 1):
        comp.append(rest[k - 1][k - 1] << B)
        row, acc = [0] * k, 0
        for v in range(k, n):
            acc += rest[k - 1][v] + sum(comp[m] * rest[k - m][v - m]
                                        for m in range(1, k + 1))
            row.append(acc)
        rest.append(row)

    def opening(t, b):
        # the Dyck fillings of rows t.. whose first component starts in
        # row t and ends at column b
        return sum(comp[r] * below[t + r][b - r]
                   for r in range(1, min(b, K - t) + 1))

    # below[t][bound]: the Dyck fillings of rows t.. in which every row
    # ends at or left of column bound, the last left end of the
    # previous component; the shape must reach column 0
    below = [None] * K + [[1] + [0] * (M - 1)]
    for t in range(K - 1, 0, -1):
        row, acc = [1], 0
        for bound in range(1, M):
            acc += opening(t, bound)
            row.append(below[t + 1][bound] + acc)
        below[t] = row

    depths = 1
    nviol = 0
    for b in range(1, M + 1):
        # the first row ends at b; no row ends right of it and one
        # starts at column 0, so b is the width
        first = opening(0, b)
        depths += first
        nviol += sum(digits(first >> B * (b + 1), B))
    depth_counts = {d: c for d, c in enumerate(digits(depths, B)) if c}
    return BoxScan(rows=K, cols=M, shapes=count,
                   dyck=sum(depth_counts.values()) - 1,
                   max_depth=max(depth_counts), depth_counts=depth_counts,
                   bound_violations=nviol)
