import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from koszulbench.shapes import (
    BoxScan,
    Partition,
    SkewShape,
    connected_components,
    dyck_depth,
    enumerate_partitions_in_box,
    is_border_strip,
    is_dyck_cbs,
    jump_sequence,
    normal_form,
    outer_border_strip,
    scan_box,
    shape_from_cells,
    transpose,
    _depth_by_levels,
)
from koszulbench import shapes

from oracles import (box_encodings, box_shapes, conjugate_partition,
                     cup_depth, encode_shape, encoding_parts, eval_encoded,
                     oracle_depth, scan_box_by_lists, width)


def sh(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


def levels(enc):
    """The library evaluator on a row encoding."""
    return _depth_by_levels(*encoding_parts(enc))


def assert_matches_every_route(shape):
    """dyck_depth against the stack of row lists, the object-level
    recursion and cup reversal."""
    want = eval_encoded(encode_shape(shape))
    assert oracle_depth(shape) == (want if want >= 0 else None), shape
    assert cup_depth(shape) == (want if want >= 0 else None), shape
    v = dyck_depth(shape)
    assert (v.is_dyck, v.depth) == (want >= 0, max(want, 0)), shape


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_from_a_generator_checks_like_a_tuple():
    assert Partition(p for p in (3, 1, 0)).parts == (3, 1)
    for parts in ((2, 0, 1), (1, 2)):
        with pytest.raises(ValueError, match=r"\(%d, %d" % parts[:2]):
            Partition(p for p in parts)


# Each bad input with the whole message: a part out of order, negative
# or not an int is reported before an interior zero, even one that
# comes earlier.
PART_MESSAGES = [
    ((1, 0, 2), "parts not weakly decreasing: (1, 0, 2)"),
    ((2, 0, 1), "interior zero part in (2, 0, 1)"),
    ((1, -1), "negative part -1"),
    ((1.0,), "part 1.0 is not an integer"),
    ((True,), "part True is not an integer"),
    ((2, 0, 1, -1), "negative part -1"),
    ((2, 0, 1, 1.5), "part 1.5 is not an integer"),
    ((p for p in (3, 0, 1)), "interior zero part in (3, 0, 1)"),
]


@pytest.mark.parametrize("parts, message", PART_MESSAGES,
                         ids=["up", "interior-zero", "negative", "float",
                              "bool", "negative-after-zero",
                              "float-after-zero", "generator"])
def test_partition_messages_and_their_precedence(parts, message):
    with pytest.raises(ValueError) as caught:
        Partition(parts)
    assert str(caught.value) == message


@pytest.mark.parametrize("parts", [(2.9, 1.2), (2.0,), (True,), ("2",),
                                   (3, False)])
def test_partition_refuses_non_integral_parts(parts):
    with pytest.raises(ValueError, match="not an integer"):
        Partition(parts)
    with pytest.raises(ValueError, match="not an integer"):
        dyck_depth(SkewShape(parts, ()))


def test_partition_parts_and_transpose():
    lam = Partition((4, 2, 1))
    assert lam.part(1) == 4
    assert lam.part(3) == 1
    assert lam.part(7) == 0
    assert lam.size == 7
    assert conjugate_partition(lam) == Partition((3, 2, 1, 1))
    assert conjugate_partition(conjugate_partition(lam)) == lam
    assert Partition((3, 1)).contains(Partition((2, 1)))
    assert not Partition((3, 1)).contains(Partition((1, 1, 1)))


def partition_parts(max_len):
    """Weakly decreasing positive parts, at most max_len of them."""
    return st.lists(st.integers(1, 6), max_size=max_len).map(
        lambda ps: sorted(ps, reverse=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(partition_parts(6), partition_parts(8))
def test_contains_matches_the_per_index_definition(outer, inner):
    """contains against other_j <= self_j at every index of other, with
    zero beyond the last part; inner may be longer than outer."""
    lam, mu = Partition(outer), Partition(inner)
    want = all(mu.part(j) <= lam.part(j) for j in range(1, len(mu) + 1))
    assert lam.contains(mu) == want
    assert lam.contains(lam) and lam.contains(Partition(()))


def test_enumerate_partitions_order():
    got = enumerate_partitions_in_box(2, 2)
    want = [Partition(()), Partition((1,)), Partition((2,)),
            Partition((1, 1)), Partition((2, 1)), Partition((2, 2))]
    assert got == want
    assert len(enumerate_partitions_in_box(2, 3)) == 10
    assert len(enumerate_partitions_in_box(5, 5)) == 252


def test_jump_sequence():
    assert jump_sequence(Partition((2, 1)), 2) == (2, 4)
    assert jump_sequence(Partition(()), 2) == (1, 2)
    with pytest.raises(ValueError):
        jump_sequence(Partition((1, 1, 1)), 2)


def test_skew_shape_cells():
    theta = sh((3, 3, 3), (2, 2))
    assert theta.size == 5
    assert (3, 1) in theta.cell_set()
    assert (1, 1) not in theta.cell_set()
    with pytest.raises(ValueError):
        sh((2, 1), (3,))


def test_skew_shape_derived_values_on_every_pair():
    """Cells are built on first access, with the same values as the
    cell set read straight off the two diagrams."""
    for k, m in ((4, 4), (2, 6)):
        labels = enumerate_partitions_in_box(k, m)
        for lam in labels:
            for mu in labels:
                if not lam.contains(mu):
                    continue
                ref = {(i, j) for j, p in enumerate(lam.parts, 1)
                       for i in range(mu.part(j) + 1, p + 1)}
                shape = SkewShape(lam, mu)
                assert shape._cells is None
                assert shape.size == len(ref)
                assert shape.is_empty() == (not ref)
                assert shape.cells == tuple(sorted(ref))
                assert shape.cell_set() == frozenset(ref)
                for attr in ("outer", "cells", "_cells"):
                    with pytest.raises(AttributeError):
                        setattr(shape, attr, None)
                assert shape.cells is shape.cells


def test_shape_from_cells_round_trip():
    for outer, inner in [((3, 3, 2), (2, 1)), ((5, 5, 5, 3, 3), (2, 2)),
                         ((4, 4, 2, 2), (3, 1, 1)), ((1,), ())]:
        shape = sh(outer, inner)
        assert shape_from_cells(shape.cells) == normal_form(shape)


def test_shape_from_cells_pads_empty_rows():
    cells = [(1, 1), (3, 3)]
    with pytest.raises(ValueError):
        shape_from_cells(cells)


def test_normal_form_translates():
    shape = sh((4, 4), (3, 3))
    normal = normal_form(shape)
    assert normal == sh((1, 1))
    assert normal_form(normal) == normal


def test_connected_components():
    theta = sh((3, 3, 1), (2, 2))
    comps = connected_components(theta)
    assert comps == [sh((1,)), sh((1, 1))]
    assert connected_components(sh(())) == []
    assert len(connected_components(sh((3, 3, 3), (2, 2)))) == 1


def test_corner_contact_does_not_connect():
    theta = sh((2, 1), (1,))
    assert len(connected_components(theta)) == 2


def test_border_strip():
    assert is_border_strip(sh((3, 3, 3), (2, 2)))
    assert not is_border_strip(sh((2, 2)))
    assert is_border_strip(sh((1,)))


def test_outer_border_strip():
    theta = sh((3, 3, 3))
    strip = outer_border_strip(theta)
    assert strip == normal_form(sh((3, 3, 3), (2, 2)))
    with pytest.raises(ValueError):
        outer_border_strip(sh(()))


def test_outer_border_strip_is_maximal_final_segment():
    theta = sh((4, 3, 2, 2), (2, 2))
    strip = outer_border_strip(theta)
    assert is_border_strip(strip)
    strip_cells = normal_form(strip).cells
    remainder = [c for c in theta.cells
                 if (c[0] + 1, c[1] + 1) in theta.cell_set()]
    rest = shape_from_cells(remainder) if remainder else sh(())
    assert rest.size + strip.size == theta.size


DYCK_EXAMPLES = [
    ((3, 3, 3), (2, 2), True),
    ((3, 3, 2), (2, 1), True),
    ((3, 3, 2, 1), (2, 1), False),
    ((4, 4, 2, 2), (3, 1, 1), False),
]


@pytest.mark.parametrize("outer,inner,want", DYCK_EXAMPLES)
def test_is_dyck_cbs_examples(outer, inner, want):
    assert is_dyck_cbs(sh(outer, inner)) is want


def test_is_dyck_cbs_rejects_non_strips():
    with pytest.raises(ValueError):
        is_dyck_cbs(sh((2, 2)))
    with pytest.raises(ValueError):
        is_dyck_cbs(sh(()))
    with pytest.raises(ValueError):
        is_dyck_cbs(sh((3, 3, 1), (2, 2)))


def test_dyck_depth_examples():
    v = dyck_depth(sh((5, 5, 5, 3, 3), (2, 2)))
    assert v.is_dyck and v.depth == 5
    v = dyck_depth(sh((4, 4, 4, 3)))
    assert not v.is_dyck
    v = dyck_depth(sh(()))
    assert v.is_dyck and v.depth == 0
    v = dyck_depth(sh((1,)))
    assert v.is_dyck and v.depth == 1


def test_dyck_verdict_compares_by_value_and_reprs_its_fields():
    v = dyck_depth(sh((5, 5, 5, 3, 3), (2, 2)))
    assert v == shapes.DyckVerdict(True, 5)
    assert v == shapes.DyckVerdict(is_dyck=True, depth=5)
    assert v != shapes.DyckVerdict(True, 4)
    assert v != shapes.DyckVerdict(False, 5)
    assert v != (True, 5)
    assert repr(v) == "DyckVerdict(is_dyck=True, depth=5)"
    assert repr(dyck_depth(sh((4, 4, 4, 3)))) == (
        "DyckVerdict(is_dyck=False, depth=0)")


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_square_has_depth_i(i):
    v = dyck_depth(sh((i,) * i))
    assert v.is_dyck and v.depth == i


def test_depth_invariant_under_translation():
    assert dyck_depth(sh((4, 4), (3, 3))) == dyck_depth(sh((1, 1)))
    # both evaluators read each component relative to its top row, so
    # empty rows before or after a shape and a shift of its columns
    # leave the result alone
    for shape in box_shapes(4, 4):
        enc = encode_shape(shape)
        want = eval_encoded(enc)
        assert levels(enc) == want, shape
        for pad in (1, 2):
            for moved in ([None] * pad + enc, enc + [None] * pad):
                assert eval_encoded(moved) == want, shape
                assert levels(moved) == want, shape
        for c in (1, 2, 3):
            shifted = [None if e is None else (e[0] + c, e[1] + c)
                       for e in enc]
            assert eval_encoded(shifted) == want, shape
            assert levels(shifted) == want, shape


def test_levels_match_the_stack_route_and_the_oracle_on_every_small_box():
    """The level evaluator, through dyck_depth and on the row encoding,
    against the stack of row lists and the object-level recursion on
    every normalized shape of the boxes with k + m <= 10."""
    memo = {}
    seen = dyck = 0
    for k in range(1, 10):
        for m in range(1, 11 - k):
            for enc, shape in zip(box_encodings(k, m), box_shapes(k, m)):
                want = eval_encoded(enc)
                assert levels(enc) == want, enc
                v = dyck_depth(shape)
                assert (v.is_dyck, v.depth) == (want >= 0, max(want, 0)), enc
                assert oracle_depth(shape, memo) == (want if want >= 0
                                                     else None), enc
                seen += 1
                dyck += want >= 0
    assert (seen, dyck) == (27769, sum(
        scan_box(k, m).dyck for k in range(1, 10) for m in range(1, 11 - k)))


def test_depth_transpose_symmetry_small_boxes():
    for rows, cols in [(3, 3), (2, 4)]:
        for shape in box_shapes(rows, cols):
            assert dyck_depth(transpose(shape)) == dyck_depth(shape)


def test_depth_parity_and_width_bound():
    for shape in box_shapes(4, 4):
        v = dyck_depth(shape)
        if v.is_dyck:
            assert v.depth <= width(shape)
            assert (v.depth - shape.size) % 2 == 0


def test_scanner_agrees_with_recursion():
    for rows, cols in [(2, 2), (3, 3), (2, 5), (4, 3)]:
        shapes = 0
        dyck = 0
        counts = {0: 1}
        for shape in box_shapes(rows, cols):
            shapes += 1
            d = oracle_depth(shape)
            if d is not None:
                dyck += 1
                counts[d] = counts.get(d, 0) + 1
        scan = scan_box(rows, cols)
        assert scan.shapes == shapes
        assert scan.dyck == dyck
        assert scan.depth_counts == counts
        assert scan.bound_violations == 0


def test_scan_box_frozen_counts():
    scan4 = scan_box(4, 4)
    assert (scan4.shapes, scan4.dyck, scan4.max_depth) == (618, 112, 4)
    scan6 = scan_box(6, 6)
    assert (scan6.shapes, scan6.dyck, scan6.max_depth) == (79931, 4192, 6)
    assert scan6.bound_violations == 0
    scan7 = scan_box(7, 7)
    assert (scan7.shapes, scan7.dyck, scan7.max_depth) == (976501, 27104, 7)
    assert scan7.depth_counts == {0: 1, 1: 197, 2: 1670, 3: 5612, 4: 9043,
                                  5: 7304, 6: 2849, 7: 429}
    assert scan7.bound_violations == 0


def brute_scan_box(rows, cols):
    """Every normalized shape in the box through _depth_by_levels, with
    no counter and no depth polynomials: one evaluation per shape of
    box_encodings."""
    count = ndyck = maxdp = nviol = 0
    depth_counts = {0: 1}
    for enc in box_encodings(rows, cols):
        count += 1
        d = levels(enc)
        if d >= 0:
            ndyck += 1
            depth_counts[d] = depth_counts.get(d, 0) + 1
            maxdp = max(maxdp, d)
            # a row starts at column 0, so the width is the last column
            if d > max(ab[1] for ab in enc if ab):
                nviol += 1
    return BoxScan(rows=rows, cols=cols, shapes=count, dyck=ndyck,
                   max_depth=maxdp,
                   depth_counts=dict(sorted(depth_counts.items())),
                   bound_violations=nviol)


def test_scan_box_matches_brute_force_on_every_small_box():
    for k in range(1, 12):
        for m in range(1, 13 - k):
            assert scan_box(k, m) == brute_scan_box(k, m), (k, m)


def test_scan_box_9x9():
    """Beyond the frozen 8x8 box. The shape total is the transfer-matrix
    counter's; the Dyck counts were first derived by a separate
    recursion over fixed right-end profiles, with the same result."""
    scan = scan_box(9, 9)
    assert scan.shapes == 159420064
    assert (scan.dyck, scan.max_depth, scan.bound_violations) == (
        1215558, 9, 0)
    assert scan.depth_counts == {0: 1, 1: 2056, 2: 21219, 3: 95838,
                                 4: 238880, 5: 349812, 6: 305109,
                                 7: 155246, 8: 42536, 9: 4862}


@pytest.mark.parametrize("k,m", [(8, 12), (9, 11)])
def test_scan_box_transpose_symmetry(k, m):
    """Transposing a shape keeps it Dyck at the same depth, so the k x m
    and m x k boxes agree; scan_box treats rows and columns
    differently, so this is not a tautology."""
    wide, tall = scan_box(k, m), scan_box(m, k)
    assert (tall.rows, tall.cols) == (m, k)
    assert dataclasses.replace(wide, rows=m, cols=k) == tall


def test_full_depth_count_is_catalan():
    for n in range(1, 10):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert scan_box(n, n).depth_counts[n] == catalan, n


def test_scan_box_evaluates_no_shape(monkeypatch):
    def refuse(a, b):
        raise AssertionError("scan_box evaluated %r / %r" % (b, a))

    monkeypatch.setattr(shapes, "_depth_by_levels", refuse)
    scan = scan_box(7, 7)
    assert (scan.shapes, scan.dyck) == (976501, 27104)


def component_rows(comp):
    """The row intervals (a, b] of a connected shape, top to bottom."""
    by_row = {}
    for i, j in comp.cells:
        by_row.setdefault(j, []).append(i)
    return [(min(cols) - 1, max(cols)) for _, cols in sorted(by_row.items())]


@pytest.mark.parametrize("k,m", [(4, 4), (3, 5), (5, 3)])
def test_pruning_lemma_holds_on_dyck_shapes(k, m):
    """Every component of a Dyck shape satisfies the strip conditions
    (i) and (ii) in shapes.py, on which scan_box builds its components;
    the components and the depths come from the object-level code, not
    from the row-interval evaluator."""
    seen = 0
    for shape in box_shapes(k, m):
        if oracle_depth(shape) is None:
            continue
        for comp in connected_components(shape):
            rows = component_rows(comp)
            r = len(rows)
            b0 = rows[0][1]
            assert all(rows[t][1] + t - 1 >= b0 for t in range(1, r)), shape
            assert rows[-1][0] + r == b0, shape
            seen += 1
    assert seen > 0


def test_scan_box_rejects_bad_sizes():
    with pytest.raises(ValueError):
        scan_box(0, 4)
    with pytest.raises(ValueError):
        scan_box(16, 2)


@pytest.mark.parametrize("rows,cols", [(2.5, 3), (3, 2.0), (True, True),
                                       (4, False), ("4", 4)])
def test_scan_box_refuses_non_integer_sides(rows, cols):
    """A float side once recursed until RecursionError, and True x True
    scanned a 1x1 box with rows=True; both are refused before any
    work."""
    with pytest.raises(ValueError, match="not an integer"):
        scan_box(rows, cols)


SIDES = (1, 2, 4, 8, 11, 15)


@pytest.mark.parametrize("k", SIDES)
def test_scan_box_matches_the_list_route(k):
    """The prefix-sum count and the packed depth polynomials against
    the memoized recursion and the list polynomials, up to the 15-side
    boxes, where the packed digits are widest and brute force cannot
    reach."""
    for m in SIDES:
        assert scan_box(k, m) == scan_box_by_lists(k, m), (k, m)


def test_encode_shape_rows():
    assert encode_shape(sh((3, 3, 2), (2, 1))) == [(2, 3), (1, 3), (0, 2)]
    # a translate keeps its columns; empty rows, leading or in the
    # middle, encode as None
    assert encode_shape(sh((4, 4), (3, 3))) == [(3, 4), (3, 4)]
    assert encode_shape(sh((5, 5, 4), (5, 3))) == [None, (3, 5), (0, 4)]
    assert encode_shape(sh((3, 2, 2), (2, 2, 1))) == [(2, 3), None, (1, 2)]
    assert encode_shape(sh(())) == []


@pytest.mark.parametrize("k,m", [(4, 4), (3, 5), (5, 3)])
def test_dyck_depth_matches_oracle_on_every_skew_pair(k, m):
    parts = enumerate_partitions_in_box(k, m)
    for lam in parts:
        for mu in parts:
            if lam.contains(mu):
                assert_matches_every_route(SkewShape(lam, mu))


def test_cup_reversal_matches_dyck_depth_on_every_small_box():
    """Every pair lam >= mu in every box with k + m <= 9: each such box
    lies in the k x (9 - k) box."""
    pairs = {(lam, mu) for k in range(1, 9)
             for lam in enumerate_partitions_in_box(k, 9 - k)
             for mu in enumerate_partitions_in_box(k, 9 - k)
             if lam.contains(mu)}
    assert len(pairs) == 11934
    for lam, mu in pairs:
        shape = SkewShape(lam, mu)
        verdict = dyck_depth(shape)
        assert cup_depth(shape) == (verdict.depth if verdict.is_dyck
                                    else None), shape


@st.composite
def wide_skew_shapes(draw):
    """lam/mu exactly 16-24 columns wide: the first row reaches the
    last column and the last row starts in the first."""
    width = draw(st.integers(16, 24))
    rows = draw(st.integers(1, 6))
    outer = sorted(draw(st.lists(st.integers(1, width), min_size=rows - 1,
                                 max_size=rows - 1)) + [width], reverse=True)
    inner = [draw(st.integers(0, width - 1))]
    for j in range(1, rows):
        inner.append(draw(st.integers(0, min(inner[-1], outer[j]))))
    inner[-1] = 0
    return sh(outer, inner)


SMALL_SHAPES = list(box_shapes(3, 3))


def dyck_ribbon(choices, n):
    """Cells of the border strip walked along a Dyck path with n right
    steps, from its south-west end: a right step raises the level
    i + j by one and an up step lowers it. choices[t] asks for a right
    step at step t; the path stays at or above its starting level."""
    steps = []
    level = 0
    for right in choices:
        if (right or level == 0) and steps.count(True) < n:
            steps.append(True)
            level += 1
        elif level > 0:
            steps.append(False)
            level -= 1
    missing = n - steps.count(True)
    steps += [True] * missing + [False] * (level + missing)
    i, j = 1, n + 1
    cells = [(i, j)]
    for right in steps:
        i, j = (i + 1, j) if right else (i, j - 1)
        cells.append((i, j))
    return cells


@st.composite
def dyck_piece(draw, room):
    """Normalized cells of a Dyck ribbon, a square, or any small shape,
    at most room columns wide."""
    kind = draw(st.sampled_from(["ribbon", "square", "small"]))
    if kind == "ribbon":
        n = draw(st.integers(0, room - 1))
        return dyck_ribbon(draw(st.lists(st.booleans(), max_size=2 * n)), n)
    if kind == "square":
        k = draw(st.integers(1, room))
        return list(sh((k,) * k).cells)
    return list(draw(st.sampled_from(
        [s for s in SMALL_SHAPES if width(s) <= room])).cells)


@st.composite
def wide_assembled_shapes(draw):
    """Pieces placed from the south-west to the north-east, each one
    strictly above and to the right of the last, touching it at most
    at a corner; the result is 16-24 columns wide and translated."""
    target = draw(st.integers(16, 24))
    cells = []
    col = 0
    top = 1
    while col < target:
        gap = draw(st.integers(0, 1)) if 0 < col < target - 1 else 0
        piece = draw(dyck_piece(target - col - gap))
        bottom = top - draw(st.integers(1, 2))
        h = max(j for _, j in piece)
        cells += [(i + col + gap, j + bottom - h) for i, j in piece]
        col = max(i for i, _ in cells)
        top = min(j for _, j in cells)
    dx, dy = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return shape_from_cells((i + dx, j + 1 - top + dy) for i, j in cells)


@st.composite
def tall_shapes(draw):
    """A square or a staircase of up to 40 rows, its rows maybe split
    by empty middle rows, and translated. Row t of a staircase of n rows
    and width w is (max(0, n - t - w), n - t]; width 1 is a Dyck chain of
    single cells and width n a partition, neither Dyck nor a strip."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        rows = [(0, n)] * n
    else:
        w = draw(st.integers(1, n))
        rows = [(max(0, n - t - w), n - t) for t in range(n)]
    if n > 1 and draw(st.booleans()):
        # rows from p on move down by gap rows; the rows above move
        # right until the lower piece lies strictly left of them
        p = draw(st.integers(1, n - 1))
        gap = draw(st.integers(1, 3))
        shift = max(0, rows[p][1] - rows[p - 1][0])
        rows = ([(a + shift, b + shift) for a, b in rows[:p]]
                + [None] * gap + rows[p:])
    dx, dy = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return shape_from_cells((i + dx, j + 1 + dy)
                            for j, ab in enumerate(rows) if ab
                            for i in range(ab[0] + 1, ab[1] + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(tall_shapes())
def test_levels_match_both_routes_on_tall_shapes(shape):
    assert_matches_every_route(shape)


def test_dyck_depth_refuses_more_rows_than_the_limit(monkeypatch):
    """The evaluator costs rows times levels, and a square is its worst
    case: the square at the limit is evaluated, and one more row is
    refused before the evaluator runs."""
    limit = shapes.MAX_DEPTH_ROWS
    assert dyck_depth(sh((limit,) * limit)) == shapes.DyckVerdict(True, limit)

    def refuse(a, b):
        raise AssertionError("evaluated %d rows" % len(b))

    monkeypatch.setattr(shapes, "_depth_by_levels", refuse)
    for shape in (sh((limit + 1,) * (limit + 1)), sh((1,) * (limit + 1)),
                  sh((2,) * (limit + 1), (2,) * limit)):
        with pytest.raises(ValueError, match="%d rows, more than the limit "
                           "of %d" % (limit + 1, limit)):
            dyck_depth(shape)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(wide_skew_shapes(), wide_assembled_shapes()))
def test_dyck_depth_matches_oracle_on_wide_shapes(shape):
    assert 16 <= width(shape) <= 24
    assert_matches_every_route(shape)


CONNECTED_SHAPES = [s for s in box_shapes(4, 4)
                    if len(connected_components(s)) == 1]


@st.composite
def separated_piece(draw):
    """Normalized cells of one connected piece: a square (depth its
    side), a Dyck ribbon (depth 1), a square missing the first cells of
    its top row, or any connected shape of the 4 x 4 box; the last two
    are mostly not Dyck, some only at a deeper level."""
    kind = draw(st.sampled_from(["square", "ribbon", "notched", "small"]))
    if kind == "square":
        k = draw(st.integers(1, 6))
        return list(sh((k,) * k).cells)
    if kind == "ribbon":
        n = draw(st.integers(0, 6))
        return dyck_ribbon(draw(st.lists(st.booleans(), max_size=2 * n)), n)
    if kind == "notched":
        k = draw(st.integers(2, 6))
        return list(normal_form(sh((k,) * k, (draw(st.integers(1, k - 1)),))
                                ).cells)
    return list(draw(st.sampled_from(CONNECTED_SHAPES)).cells)


@st.composite
def separated_shapes(draw):
    """Two to six pieces stacked from the top right to the bottom left,
    each below the rows and left of the columns of the one before, with
    0-2 empty rows and 0-2 empty columns between two pieces (no gap at
    all leaves a corner contact). Returns the shape and its pieces."""
    pieces = draw(st.lists(separated_piece(), min_size=2, max_size=6))
    gaps = [(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            for _ in pieces]
    right = sum(max(i for i, _ in p) for p in pieces) + sum(
        g for g, _ in gaps)
    top = draw(st.integers(0, 2))
    cells = []
    for piece, (col_gap, row_gap) in zip(pieces, gaps):
        width = max(i for i, _ in piece)
        cells += [(i + right - width, j + top) for i, j in piece]
        right -= width + col_gap
        top += max(j for _, j in piece) + row_gap
    return shape_from_cells(cells), pieces


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(separated_shapes())
def test_dyck_depth_sums_over_separated_pieces(drawn):
    """Several components share a level, and each carries its own
    remainder to the next one: dyck_depth against both routes, and
    against the sum of the pieces' oracle depths."""
    shape, pieces = drawn
    assert len(connected_components(shape)) == len(pieces)
    assert_matches_every_route(shape)
    depths = [oracle_depth(shape_from_cells(p)) for p in pieces]
    v = dyck_depth(shape)
    if None in depths:
        assert not v.is_dyck
    else:
        assert v == shapes.DyckVerdict(True, sum(depths))
