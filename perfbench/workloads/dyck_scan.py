"""dyck-scan: bulk work in koszulbench.shapes.

Jobs:
  * scan_box on every k x m box with k + m <= 12; boxes with a side of
    1 or 2 are batched (each is far below a millisecond), the rest run
    one box per job;
  * scan_box on the 7x7 box;
  * batches of seeded random skew shapes, up to 24 columns wide, through
    dyck_depth (the packed scanner stops at 15 columns).

Checks: each box's shape total against a transfer-matrix count written
here, the depth set {0..min(k,m)} with no bound violations, transpose
symmetry between the k x m and m x k boxes, frozen counts for 4x4 and
7x7, and every random shape against an object-level oracle and its
transpose.
"""

from __future__ import annotations

import random

from koszulbench import shapes
from koszulbench.shapes import SkewShape

from .common import Job

MAX_SUM = 12
BATCHES = 100
SHAPES_PER_BATCH = 32
MAX_WIDTH = 24

# Recorded once from scan_box; the 4x4 numbers are also pinned by the
# golden transcript docs/golden/dyck-enumerate.txt.
FROZEN = {
    (4, 4): {"shapes": 618, "dyck": 112,
             "depth_counts": {0: 1, 1: 9, 2: 42, 3: 47, 4: 14}},
    (7, 7): {"shapes": 976501, "dyck": 27104,
             "depth_counts": {0: 1, 1: 197, 2: 1670, 3: 5612, 4: 9043,
                              5: 7304, 6: 2849, 7: 429}},
}


def _scan(boxes):
    out = []
    for k, m in boxes:
        scan = shapes.scan_box(k, m)
        out.append([scan.shapes, scan.dyck, scan.max_depth,
                    sorted(scan.depth_counts.items()),
                    scan.bound_violations])
    return out


def _depths(batch):
    out = []
    for shape in batch:
        verdict = shapes.dyck_depth(shape)
        out.append([verdict.is_dyck, verdict.depth])
    return out


# -- seeded random shapes ------------------------------------------------


def _thin_shape(rng):
    """A random skew shape whose rows overlap their neighbours by a
    few cells: wide, mostly not Dyck."""
    rows = rng.randint(2, 8)
    width = rng.randint(16, MAX_WIDTH)
    outer = sorted([width] + [rng.randint(1, width) for _ in range(rows - 1)],
                   reverse=True)
    inner = []
    for j in range(rows):
        below = outer[j + 1] if j + 1 < rows else 0
        hi = outer[j] - 1
        lo = min(max(0, below - rng.randint(1, 3)), hi)
        a = rng.randint(lo, hi)
        if inner:
            a = min(a, inner[-1])
        inner.append(a)
    return SkewShape(outer, inner), None


def _ribbon(rng, semilength):
    """Cells of a Dyck border strip: from the top-right cell the path
    steps down (level +1) or left (level -1) and never drops below the
    level it started at. Depth 1."""
    cells = [(semilength + 1, 1)]
    i, j = semilength + 1, 1
    height = 0
    downs = 0
    for _ in range(2 * semilength):
        if downs < semilength and (height == 0 or rng.random() < 0.5):
            j += 1
            height += 1
            downs += 1
        else:
            i -= 1
            height -= 1
        cells.append((i, j))
    return cells


def _chain_shape(rng):
    """Disjoint squares (depth = side) and Dyck ribbons (depth 1) laid
    out from the top right to the bottom left. The depth is known by
    construction: the sum over the pieces."""
    budget = rng.randint(16, MAX_WIDTH)
    pieces = []
    used = 0
    while used < budget:
        if rng.random() < 0.5:
            side = rng.randint(1, 5)
            cells = [(i, j) for i in range(1, side + 1)
                     for j in range(1, side + 1)]
            depth = side
        else:
            cells = _ribbon(rng, rng.randint(1, 6))
            depth = 1
        width = max(i for i, _ in cells)
        gap = rng.randint(0, 1) if pieces else 0
        if pieces and used + gap + width > budget:
            break
        pieces.append((cells, width, depth, gap))
        used += gap + width
    # piece t fills columns (right - width, right]; the next one starts
    # `gap` columns further left and zero or one rows below
    right = used
    top = 1
    placed = []
    for cells, width, depth, gap in pieces:
        right -= gap
        placed.extend((i + right - width, j + top - 1) for i, j in cells)
        right -= width
        top += max(j for _, j in cells) + rng.randint(0, 1)
    return shapes.shape_from_cells(placed), sum(p[2] for p in pieces)


def make_jobs(seed: int):
    rng = random.Random(seed)
    boxes = [(k, s - k) for s in range(2, MAX_SUM + 1) for k in range(1, s)]
    jobs = [Job("scan", "boxes with a side of 1", _scan,
                ([b for b in boxes if min(b) == 1],)),
            Job("scan", "boxes with a side of 2", _scan,
                ([b for b in boxes if min(b) == 2],))]
    for box in boxes:
        if min(box) >= 3:
            jobs.append(Job("scan", "box %dx%d" % box, _scan, ([box],)))
    # the 7x7 scan is most of a pass; in the middle of the scans, the
    # random-shape batches run on both sides of it once interleaved
    jobs.insert(len(jobs) // 2, Job("scan", "box 7x7", _scan, ([(7, 7)],)))
    for b in range(BATCHES):
        batch, known = [], []
        for t in range(SHAPES_PER_BATCH):
            shape, depth = (_thin_shape if t % 2 else _chain_shape)(rng)
            batch.append(shape)
            known.append(depth)
        jobs.append(Job("depth", "random shapes batch %d" % b, _depths,
                        (batch,), {"known": known}))
    return jobs


# -- checks --------------------------------------------------------------


def count_box_shapes(rows: int, cols: int) -> int:
    """Nonempty skew shapes that fit in a rows x cols box, counted up to
    translation by a transfer matrix over row intervals.

    A shape is a run of rows, the first and last nonempty, each
    nonempty row a column interval (a, b] inside [0, cols], with some
    row starting at a = 0. Adjacent nonempty rows need a2 <= a1 and
    b2 <= b1 (inner and outer partitions weakly decrease); across one
    or more empty rows the lower piece lies strictly to the left,
    b2 <= a1.
    """
    memo = {}

    def tails(left, a, b, touched):
        key = (left, a, b, touched)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 1 if touched else 0
        if left >= 1:
            for a2 in range(a + 1):
                for b2 in range(a2 + 1, b + 1):
                    total += tails(left - 1, a2, b2, touched or a2 == 0)
        for skip in range(1, left):
            for a2 in range(a):
                for b2 in range(a2 + 1, a + 1):
                    total += tails(left - 1 - skip, a2, b2,
                                   touched or a2 == 0)
        memo[key] = total
        return total

    return sum(tails(rows - 1, a, b, a == 0)
               for a in range(cols) for b in range(a + 1, cols + 1))


def oracle_depth(shape: SkewShape):
    """The four-rule recursion on SkewShape objects, or None when the
    shape is not Dyck. Slow, and independent of the memoized cell-set
    evaluator behind dyck_depth."""
    if shape.is_empty():
        return 0
    comps = shapes.connected_components(shape)
    if len(comps) > 1:
        total = 0
        for comp in comps:
            d = oracle_depth(comp)
            if d is None:
                return None
            total += d
        return total
    if shapes.is_border_strip(shape):
        return 1 if shapes.is_dyck_cbs(shape) else None
    strip = oracle_depth(shapes.outer_border_strip(shape))
    if strip is None:
        return None
    cs = shape.cell_set()
    rest = shapes.shape_from_cells(
        (i, j) for i, j in shape.cells if (i + 1, j + 1) in cs)
    rest_depth = oracle_depth(rest)
    return None if rest_depth is None else strip + rest_depth


def _box_ok(box, got, by_box, counts):
    k, m = box
    n_shapes, n_dyck, max_depth, depth_counts, violations = got
    depths = dict(depth_counts)
    if box not in counts:
        counts[box] = count_box_shapes(k, m)
    if n_shapes != counts[box]:
        return False
    if set(depths) != set(range(min(k, m) + 1)) or violations != 0:
        return False
    if max_depth != min(k, m) or n_dyck != sum(depths.values()) - 1:
        return False
    frozen = FROZEN.get(box)
    if frozen and (n_shapes != frozen["shapes"] or n_dyck != frozen["dyck"]
                   or depths != frozen["depth_counts"]):
        return False
    mirror = by_box.get((m, k))
    return mirror is None or (mirror[0] == n_shapes
                              and mirror[3] == depth_counts)


def make_checker(jobs, results):
    by_box = {}
    for job, res in zip(jobs, results):
        if job.kind == "scan" and res is not None:
            for box, got in zip(job.args[0], res):
                by_box[box] = got
    counts = {}

    def check(i, result):
        job = jobs[i]
        if job.kind == "scan":
            boxes = job.args[0]
            return (len(result) == len(boxes)
                    and all(_box_ok(box, got, by_box, counts)
                            for box, got in zip(boxes, result)))
        batch = job.args[0]
        if len(result) != len(batch):
            return False
        for shape, known, (is_dyck, depth) in zip(batch, job.meta["known"],
                                                  result):
            want = oracle_depth(shape)
            if known is not None and want != known:
                return False
            if is_dyck != (want is not None) or depth != (want or 0):
                return False
            mirrored = shapes.dyck_depth(shapes.transpose(shape))
            if [mirrored.is_dyck, mirrored.depth] != [is_dyck, depth]:
                return False
        return True

    return check
