import itertools
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from koszulbench import _linalg, koszul, mult
from koszulbench.koszul import (
    GradedAlgebra,
    KoszulReport,
    builtin_algebra,
    cartan_inverse,
    default_imax,
    ext_table,
    integral_koszul_check,
    is_koszul,
    load_algebra,
    minimal_resolution,
)
from koszulbench.laurent import LaurentPoly
from oracles import (PlainEchelon, cartan_inverse_by_laurent, entry,
                     euler_matrix, from_pairs, graded_dims, koszul_violation,
                     laurent_matrix_inverse, plain_kernel_basis,
                     plain_kernel_echelon, product, product_by_rules,
                     quadratic_dual_dims, sparse)



def fuzz(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


PRIMES = (2, 3, 5, 7)


def v_poly(*pairs):
    return from_pairs(list(pairs))


def test_builtin_names():
    for name in ("dual_numbers", "p1", "x3_truncation", "semisimple",
                 "torsion_p1:3"):
        algebra = builtin_algebra(name)
        assert algebra.name == name or algebra.name.startswith("torsion")
    assert builtin_algebra("torsion_p1").name == "torsion_p1:2"
    assert builtin_algebra("torsion_p1:0").name == "torsion_p1:0"
    assert builtin_algebra("torsion_p1:003").name == "torsion_p1:3"
    largest = builtin_algebra("torsion_p1:%d" % (2 ** 31 - 1))
    assert largest.mult[("u", "v")] == {"w": 2 ** 31 - 1}
    with pytest.raises(ValueError):
        builtin_algebra("p2")


def test_product_rules():
    A = builtin_algebra("p1")
    assert product(A, "e_a", "u") == {"u": 1}
    assert product(A, "u", "e_b") == {"u": 1}
    assert product(A, "u", "e_a") == {}
    assert product(A, "v", "u") == {"vu": 1}
    assert product(A, "u", "v") == {}
    assert product(A, "vu", "v") == {}
    assert product(A, "e_a", "e_a") == {"e_a": 1}
    assert product(A, "e_a", "e_b") == {}


def test_load_rejects_positive_degree():
    with pytest.raises(ValueError, match="positive degree"):
        GradedAlgebra(["a"], [("e", "a", "a", 0), ("x", "a", "a", 1)], {})


def test_load_rejects_degree_additivity_violation():
    with pytest.raises(ValueError, match="degree additivity"):
        GradedAlgebra(
            ["a"],
            [("e", "a", "a", 0), ("x", "a", "a", -1)],
            {("x", "x"): {"x": 1}})


def test_load_rejects_non_composable():
    with pytest.raises(ValueError, match="not composable"):
        GradedAlgebra(
            ["a", "b"],
            [("e_a", "a", "a", 0), ("e_b", "b", "b", 0),
             ("u", "a", "b", -1), ("s", "a", "b", -1), ("t", "a", "a", -2)],
            {("u", "s"): {"t": 1}})


def test_load_rejects_bad_idempotents():
    with pytest.raises(ValueError, match="no degree-0"):
        GradedAlgebra(["a"], [("x", "a", "a", -1)], {})
    with pytest.raises(ValueError, match="two degree-0"):
        GradedAlgebra(["a"], [("e", "a", "a", 0), ("f", "a", "a", 0)], {})
    with pytest.raises(ValueError, match="not a loop"):
        GradedAlgebra(["a", "b"],
                      [("e", "a", "b", 0), ("f", "b", "b", 0)], {})


# Basis records on one vertex a: the idempotent e, x and x2 = x * x;
# and on two vertices a and b.
IDEM, LOOP = ("e", "a", "a", 0), ("x", "a", "a", -1)
TRUNCATION = [IDEM, LOOP, ("x2", "a", "a", -2)]
QUIVER = [("e_a", "a", "a", 0), ("e_b", "b", "b", 0), ("u", "a", "b", -1),
          ("v", "b", "a", -1), ("w", "b", "b", -2)]


def loop_document(**changes):
    """The document of x with x * x = x2 on one vertex, with changes."""
    doc = {"vertices": ["a"],
           "basis": [{"name": "x", "src": "a", "tgt": "a", "deg": -1},
                     {"name": "x2", "src": "a", "tgt": "a", "deg": -2}],
           "mult": [{"left": "x", "right": "x", "result": {"x2": 1}}]}
    doc.update(changes)
    return doc


# Each case calls one koszul function on input it must refuse, with the
# text its ValueError must hold.
REFUSALS = {
    "algebra-no-vertex": (
        GradedAlgebra, ([], [], {}), "algebra needs at least one vertex"),
    "algebra-duplicate-vertex": (
        GradedAlgebra, (["a", "a"], [IDEM], {}), "duplicate vertex names"),
    "algebra-duplicate-element": (
        GradedAlgebra, (["a"], [IDEM, LOOP, LOOP], {}),
        "duplicate basis element 'x'"),
    "algebra-unknown-vertex": (
        GradedAlgebra, (["a"], [IDEM, ("x", "a", "b", -1)], {}),
        "basis element 'x' uses an unknown vertex"),
    "algebra-list-vertex": (
        GradedAlgebra, ([["a"]], [IDEM], {}), "vertex ['a'] is not a string"),
    "algebra-int-vertex": (
        GradedAlgebra, (["a", 1], [IDEM], {}), "vertex 1 is not a string"),
    "algebra-list-name": (
        GradedAlgebra, (["a"], [IDEM, (["x"], "a", "a", -1)], {}),
        "basis element ['x'] has a name/src/tgt that is not a string"),
    "algebra-int-name": (
        GradedAlgebra, (["a"], [IDEM, (1, "a", "a", -1)], {}),
        "basis element 1 has a name/src/tgt that is not a string"),
    "algebra-list-src": (
        GradedAlgebra, (["a"], [IDEM, ("x", ["a"], "a", -1)], {}),
        "basis element 'x' has a name/src/tgt that is not a string"),
    "algebra-int-tgt": (
        GradedAlgebra, (["a"], [IDEM, ("x", "a", 0, -1)], {}),
        "basis element 'x' has a name/src/tgt that is not a string"),
    # each record is checked whole before the next is read
    "algebra-first-defective-record": (
        GradedAlgebra, (["a"], [("e", "a", "a", 0), ("f", "a", "a", 0),
                                ("x", "a", "b", -1)], {}),
        "vertex 'a' has two degree-0 elements"),
    "algebra-float-degree": (
        GradedAlgebra, (["a"], [IDEM, ("x", "a", "a", -1.0)], {}),
        "basis element 'x' has a degree that is not an integer"),
    "algebra-bool-degree": (
        GradedAlgebra, (["a"], [IDEM, ("x", "a", "a", True)], {}),
        "basis element 'x' has a degree that is not an integer"),
    "algebra-unknown-factor": (
        GradedAlgebra, (["a"], TRUNCATION, {("x", "y"): {"x2": 1}}),
        "product 'x' * 'y' uses an unknown element"),
    "algebra-idempotent-factor": (
        GradedAlgebra, (["a"], TRUNCATION, {("e", "x"): {"x": 1}}),
        "products with idempotents are implicit; remove 'e' * 'x'"),
    "algebra-unknown-result": (
        GradedAlgebra, (["a"], TRUNCATION, {("x", "x"): {"y": 1}}),
        "product 'x' * 'x' mentions unknown 'y'"),
    "algebra-mismatched-endpoints": (
        GradedAlgebra, (["a", "b"], QUIVER, {("u", "v"): {"w": 1}}),
        "product 'u' * 'v' has result 'w' with mismatched endpoints"),
    # int() would store 0.5 as a zero, and judge another algebra
    "algebra-float-coefficient": (
        GradedAlgebra, (["a"], TRUNCATION, {("x", "x"): {"x2": 0.5}}),
        "product 'x' * 'x' has a coefficient that is not an integer"),
    "algebra-bool-coefficient": (
        GradedAlgebra, (["a"], TRUNCATION, {("x", "x"): {"x2": True}}),
        "product 'x' * 'x' has a coefficient that is not an integer"),
    "load-not-an-object": (
        load_algebra, ([],), "algebra document must be a JSON object"),
    "load-vertex-not-a-string": (
        load_algebra, (loop_document(vertices=["a", 1]),),
        "'vertices' must be a list of strings"),
    "load-no-vertices": (
        load_algebra, ({"basis": []},),
        "'vertices' must be a list of strings"),
    "load-basis-not-a-list": (
        load_algebra, (loop_document(basis={}),), "'basis' must be a list"),
    "load-mult-not-a-list": (
        load_algebra, (loop_document(mult="x"),), "'mult' must be a list"),
    "load-basis-record-without-deg": (
        load_algebra,
        (loop_document(basis=[{"name": "x", "src": "a", "tgt": "a"}]),),
        "basis record {'name': 'x', 'src': 'a', 'tgt': 'a'} needs "
        "name/src/tgt/deg"),
    "load-basis-record-not-an-object": (
        load_algebra, (loop_document(basis=[3]),),
        "basis record 3 needs name/src/tgt/deg"),
    "load-mult-record-without-result": (
        load_algebra, (loop_document(mult=[{"left": "x", "right": "x"}]),),
        "mult record {'left': 'x', 'right': 'x'} needs left/right/result"),
    "load-mult-result-not-an-object": (
        load_algebra,
        (loop_document(mult=[{"left": "x", "right": "x", "result": [1]}]),),
        "needs left/right/result"),
    # the document's own check names the record, before the constructor
    "load-float-coefficient": (
        load_algebra,
        (loop_document(mult=[{"left": "x", "right": "x",
                              "result": {"x2": 0.5}}]),),
        "mult record {'left': 'x', 'right': 'x', 'result': {'x2': 0.5}} "
        "has a coefficient that is not an integer"),
    "load-idempotent-name-taken": (
        load_algebra,
        (loop_document(basis=[{"name": "e_a", "src": "a", "tgt": "a",
                               "deg": -1}], mult=[]),),
        "cannot synthesize idempotent 'e_a': name already in use"),
    "load-product-listed-twice": (
        load_algebra,
        (loop_document(mult=[{"left": "x", "right": "x",
                              "result": {"x2": 1}}] * 2),),
        "product 'x' * 'x' listed twice"),
    "resolution-unknown-vertex": (
        minimal_resolution, (builtin_algebra("p1"), "c", "Q"),
        "unknown vertex 'c'"),
    "builtin-p1:7": (
        builtin_algebra, ("p1:7",), "unknown builtin algebra 'p1:7'"),
    "builtin-dual_numbers:zzz": (
        builtin_algebra, ("dual_numbers:zzz",),
        "unknown builtin algebra 'dual_numbers:zzz'"),
    "builtin-torsion_p1:abc": (
        builtin_algebra, ("torsion_p1:abc",),
        "builtin algebra 'torsion_p1:abc' needs a torsion constant of "
        "decimal digits"),
    "builtin-torsion_p1:": (
        builtin_algebra, ("torsion_p1:",),
        "builtin algebra 'torsion_p1:' needs a torsion constant of "
        "decimal digits"),
    "builtin-torsion_p1:2^31": (
        builtin_algebra, ("torsion_p1:%d" % 2 ** 31,),
        "builtin algebra 'torsion_p1' needs a torsion constant below 2^31"),
    # past Python's 4,300-digit limit on int(str)
    "builtin-torsion_p1:4400-digits": (
        builtin_algebra, ("torsion_p1:" + "7" * 4400,),
        "builtin algebra 'torsion_p1' needs a torsion constant below 2^31"),
    "field-F::5": (
        koszul.as_field, ("F::5",), "cannot interpret field 'F::5'"),
    # past Python's 4,300-digit limit on int(str), leading zeros uncounted
    "field-F:4400-digits": (
        koszul.as_field, ("F:00" + "7" * 4400,),
        "field characteristic of 4400 digits is too large; primes must be "
        "below 2^31"),
    "field-F:2^31": (koszul.as_field, ("F%d" % 2 ** 31,),
                     "2147483648 is too large; primes must be below 2^31"),
    "field-F": (koszul.as_field, ("F",), "cannot interpret field 'F'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_input_is_refused_with_its_reason(case):
    func, args, reason = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        func(*args)
    assert reason in str(info.value)


def test_load_rejects_associativity_failure():
    with pytest.raises(ValueError, match="associativity"):
        GradedAlgebra(
            ["a"],
            [("e", "a", "a", 0), ("x", "a", "a", -1),
             ("y", "a", "a", -2), ("z", "a", "a", -3)],
            {("x", "x"): {"y": 1}, ("x", "y"): {"z": 1}})


def p1_doc():
    return {
        "vertices": ["a", "b"],
        "basis": [
            {"name": "u", "src": "a", "tgt": "b", "deg": -1},
            {"name": "v", "src": "b", "tgt": "a", "deg": -1},
            {"name": "vu", "src": "b", "tgt": "b", "deg": -2},
        ],
        "mult": [{"left": "v", "right": "u", "result": {"vu": 1}}],
    }


def test_load_algebra_from_document():
    algebra = load_algebra(p1_doc())
    assert algebra.idempotent == {"a": "e_a", "b": "e_b"}
    report = is_koszul(algebra, "Q")
    assert report.is_koszul


NON_STRING_NAMES = {
    "basis-name": ("basis", 0, "name"),
    "basis-src": ("basis", 0, "src"),
    "basis-tgt": ("basis", 1, "tgt"),
    "mult-left": ("mult", 0, "left"),
    "mult-right": ("mult", 0, "right"),
}


@pytest.mark.parametrize("case", sorted(NON_STRING_NAMES))
def test_load_algebra_refuses_names_that_are_not_strings(case):
    """A list name is unhashable; every name that is not a string is
    refused as an input error."""
    key, index, field = NON_STRING_NAMES[case]
    for bad in ([field], 1, None):
        doc = p1_doc()
        doc[key][index][field] = bad
        with pytest.raises(ValueError, match="not a string"):
            load_algebra(doc)


def sized_doc(vertices, basis, mult):
    """A valid document with exactly these numbers of vertices, basis
    records and mult records: loops x_i of degree -1 at v0 whose
    products x_i * x_j = y are listed in order, and unused loops of
    degree -1 at v1 as padding."""
    xs = 1
    while xs * xs < mult:
        xs += 1
    recs = [{"name": "x%d" % i, "src": "v0", "tgt": "v0", "deg": -1}
            for i in range(xs)]
    recs.append({"name": "y", "src": "v0", "tgt": "v0", "deg": -2})
    recs += [{"name": "z%d" % i, "src": "v1", "tgt": "v1", "deg": -1}
             for i in range(basis - len(recs))]
    products = [{"left": "x%d" % i, "right": "x%d" % j, "result": {"y": 1}}
                for i in range(xs) for j in range(xs)][:mult]
    return {"vertices": ["v%d" % i for i in range(vertices)],
            "basis": recs, "mult": products}


LIMITS = {"vertices": koszul.MAX_VERTICES,
          "basis": koszul.MAX_BASIS_RECORDS,
          "mult": koszul.MAX_MULT_RECORDS}


def test_load_algebra_accepts_a_document_at_every_limit():
    algebra = load_algebra(sized_doc(**LIMITS))
    assert len(algebra.vertices) == koszul.MAX_VERTICES
    # the listed records plus one synthesized idempotent per vertex
    assert len(algebra.basis) == (koszul.MAX_BASIS_RECORDS
                                  + koszul.MAX_VERTICES)
    assert len(algebra.mult) == koszul.MAX_MULT_RECORDS


@pytest.mark.parametrize("key", sorted(LIMITS))
def test_load_algebra_refuses_a_document_over_a_limit(key):
    sizes = dict(LIMITS)
    sizes[key] += 1
    doc = sized_doc(**sizes)
    assert len(doc[key]) == LIMITS[key] + 1
    start = time.monotonic()
    with pytest.raises(ValueError) as err:
        load_algebra(doc)
    assert time.monotonic() - start < 0.1
    assert str(err.value) == ("'%s' has %d entries, more than the limit "
                              "of %d" % (key, LIMITS[key] + 1, LIMITS[key]))


def test_load_algebra_refuses_one_result_term_over_the_limit():
    """MAX_MULT_TERMS counts the result terms of all mult records: a
    document at the limit loads, and one more term is refused before
    the associativity check."""
    per, extra = divmod(koszul.MAX_MULT_TERMS, koszul.MAX_MULT_RECORDS)
    assert extra == 0
    xs = [{"name": "x%d" % i, "src": "v", "tgt": "v", "deg": -1}
          for i in range(23)]
    ys = [{"name": "y%d" % i, "src": "v", "tgt": "v", "deg": -2}
          for i in range(per + 1)]
    products = [{"left": "x%d" % i, "right": "x%d" % j,
                 "result": {"y%d" % t: 1 for t in range(per)}}
                for i in range(23) for j in range(23)]
    doc = {"vertices": ["v"], "basis": xs + ys,
           "mult": products[:koszul.MAX_MULT_RECORDS]}
    assert len(load_algebra(doc).mult) == koszul.MAX_MULT_RECORDS
    doc["mult"][0]["result"]["y%d" % per] = 1
    start = time.monotonic()
    with pytest.raises(ValueError) as err:
        load_algebra(doc)
    assert time.monotonic() - start < 0.1
    assert str(err.value) == ("'mult' has %d result terms, more than the "
                              "limit of %d" % (koszul.MAX_MULT_TERMS + 1,
                                               koszul.MAX_MULT_TERMS))


def test_dual_numbers_resolution_periodic():
    A = builtin_algebra("dual_numbers")
    res = minimal_resolution(A, "pt", "Q", 6)
    assert res.steps == [[("pt", 0)], [("pt", -1)], [("pt", -2)],
                         [("pt", -3)], [("pt", -4)], [("pt", -5)],
                         [("pt", -6)]]
    assert not res.finished


def test_p1_resolutions():
    A = builtin_algebra("p1")
    res_a = minimal_resolution(A, "a", "Q")
    assert res_a.steps == [[("a", 0)], [("b", -1)], [("a", -2)]]
    assert res_a.finished
    res_b = minimal_resolution(A, "b", "Q")
    assert res_b.steps == [[("b", 0)], [("a", -1)]]
    assert res_b.finished


def test_x3_resolution_and_violation():
    A = builtin_algebra("x3_truncation")
    res = minimal_resolution(A, "pt", "Q", 4)
    assert res.steps == [[("pt", 0)], [("pt", -1)], [("pt", -3)],
                         [("pt", -4)], [("pt", -6)]]
    report = is_koszul(A, "Q")
    assert not report.is_koszul
    assert report.first_violation == (2, "pt", "pt", -3)


def test_koszul_verdicts():
    assert is_koszul(builtin_algebra("dual_numbers"), "Q").is_koszul
    assert is_koszul(builtin_algebra("semisimple"), "Q").is_koszul
    assert is_koszul(builtin_algebra("p1"), "Q").is_koszul


@pytest.mark.parametrize("l", [2, 3, 5, 7, 13])
def test_p1_koszul_over_prime_fields(l):
    report = is_koszul(builtin_algebra("p1"), "F:%d" % l)
    assert report.is_koszul
    assert report.field_name == "F%d" % l


def test_field_parsing():
    assert koszul.as_field("Q").name == "Q"
    assert koszul.as_field("F:7").name == "F7"
    assert koszul.as_field("f5").name == "F5"
    assert koszul.as_field("F5").name == "F5"
    with pytest.raises(ValueError):
        koszul.as_field("R")
    with pytest.raises(ValueError):
        koszul.as_field("F:4")


def test_default_imax():
    assert default_imax(builtin_algebra("dual_numbers")) == 4
    assert default_imax(builtin_algebra("p1")) == 8


@pytest.mark.parametrize("i_max", [0, -3])
def test_imax_below_one_is_rejected(i_max):
    A = builtin_algebra("p1")
    with pytest.raises(ValueError):
        minimal_resolution(A, "a", "Q", i_max)
    with pytest.raises(ValueError):
        ext_table(A, "Q", i_max)


@pytest.mark.parametrize("i_max", [koszul.MAX_IMAX + 1, 40, 2.5, True, "3"])
def test_imax_outside_the_bound_or_not_an_int_is_rejected(i_max):
    A = builtin_algebra("dual_numbers")
    with pytest.raises(ValueError, match="i_max must be an integer"):
        minimal_resolution(A, "pt", "F:2", i_max)
    with pytest.raises(ValueError, match="i_max must be an integer"):
        ext_table(A, "F:2", i_max)


def test_imax_at_the_bound_is_accepted():
    res = minimal_resolution(builtin_algebra("dual_numbers"), "pt", "F:2",
                             koszul.MAX_IMAX)
    assert len(res.steps) == koszul.MAX_IMAX + 1
    assert not res.finished


def test_integral_check_p1():
    report = integral_koszul_check(builtin_algebra("p1"), 5)
    assert report.dims_match
    assert report.verdict == "koszul"
    assert report.koszul_over_q and report.koszul_over_f


def test_integral_check_torsion_witness():
    report = integral_koszul_check(builtin_algebra("torsion_p1:3"), 3)
    assert not report.dims_match
    assert report.verdict == "inapplicable"
    report5 = integral_koszul_check(builtin_algebra("torsion_p1:5"), 5)
    assert not report5.dims_match


def test_torsion_algebra_away_from_torsion_prime():
    report = integral_koszul_check(builtin_algebra("torsion_p1:3"), 7)
    assert report.dims_match
    assert report.verdict == "not_koszul"


def test_ext_dims_match_across_fields_for_p1():
    dims_q = ext_table(builtin_algebra("p1"), "Q").dims()
    for l in (2, 3, 5, 7):
        assert ext_table(builtin_algebra("p1"), "F:%d" % l).dims() == dims_q


def test_euler_equals_cartan_inverse():
    for name in ("p1", "semisimple"):
        A = builtin_algebra(name)
        table = ext_table(A, "Q")
        E = euler_matrix(table)
        Cinv = cartan_inverse(A)
        for i, a in enumerate(A.vertices):
            for j, b in enumerate(A.vertices):
                got = E.get((a, b), LaurentPoly.zero())
                assert got == Cinv[i][j], (name, a, b)


def test_euler_requires_finite_resolution():
    table = ext_table(builtin_algebra("dual_numbers"), "Q")
    with pytest.raises(ValueError):
        euler_matrix(table)


def test_laurent_matrix_inverse():
    one = LaurentPoly.monomial(0)
    vm1 = v_poly((-1, 1))
    C = [[one, vm1], [vm1, v_poly((0, 1), (-2, 1))]]
    Cinv = laurent_matrix_inverse(C)
    for i in range(2):
        for j in range(2):
            total = LaurentPoly.zero()
            for t in range(2):
                total = total + C[i][t] * Cinv[t][j]
            assert total == (one if i == j else LaurentPoly.zero())
    with pytest.raises(ValueError):
        laurent_matrix_inverse([[v_poly((0, 1), (-1, 1))]])


def test_p1_graded_dims_match_gr12_cartan():
    A = builtin_algebra("p1")
    dims = graded_dims(A)
    C = mult.graded_cartan(mult.Space.gr(1, 2))
    lam_empty, lam_box = C.labels
    assert dims[("b", "b")] == entry(C, lam_empty, lam_empty)
    assert dims[("b", "a")] == entry(C, lam_empty, lam_box)
    assert dims[("a", "b")] == entry(C, lam_box, lam_empty)
    assert dims[("a", "a")] == entry(C, lam_box, lam_box)


def test_report_rendering():
    rep = is_koszul(builtin_algebra("x3_truncation"), "Q")
    text = rep.render_text()
    assert "koszul: false" in text and "i = 2" in text
    doc = rep.to_json_dict()
    assert doc["first_violation"] == {"i": 2, "simple": "pt",
                                      "vertex": "pt", "shift": -3}
    rep = integral_koszul_check(builtin_algebra("p1"), 3)
    assert rep.to_json_dict()["verdict"] == "koszul"


# -- reference resolution engine -----------------------------------------
#
# The Fraction/rref engine that koszul.py used before the integer
# Echelon: fields as objects with arithmetic methods, a dense reduced
# row echelon form for kernels and a separate incremental echelon for
# spans. It lays out its free modules itself (ref_layout) and shares
# only the block order, _block_order, with the library.


class RefQ:
    name = "Q"

    def of(self, i):
        return Fraction(i)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return Fraction(1) / a

    def is_zero(self, a):
        return a == 0

    zero, one = Fraction(0), Fraction(1)


class RefF:

    def __init__(self, p):
        self.p, self.name = p, "F%d" % p

    def of(self, i):
        return i % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    zero, one = 0, 1


def ref_field(p):
    return RefF(p) if p else RefQ()


def ref_rref(rows, field):
    rows = [list(r) for r in rows]
    pivots = []
    lead = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((r for r in range(lead, len(rows))
                          if not field.is_zero(rows[r][col])), None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = field.inv(rows[lead][col])
        rows[lead] = [field.mul(inv, x) for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and not field.is_zero(rows[r][col]):
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows[:lead], pivots


def ref_kernel_basis(columns, nrows, field):
    ncols = len(columns)
    if ncols == 0:
        return []
    red, pivots = ref_rref([[columns[j][i] for j in range(ncols)]
                            for i in range(nrows)], field)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, p in zip(red, pivots):
            vec[p] = field.sub(field.zero, row[f])
        basis.append(vec)
    return basis


class RefEchelon:

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def add(self, vec):
        f = self.field
        vec = list(vec)
        while True:
            lead = next((i for i, x in enumerate(vec) if not f.is_zero(x)),
                        None)
            if lead is None:
                return False
            row = self.rows.get(lead)
            if row is None:
                inv = f.inv(vec[lead])
                self.rows[lead] = [f.mul(inv, x) for x in vec]
                return True
            c = vec[lead]
            vec = [f.sub(x, f.mul(c, y)) for x, y in zip(vec, row)]


def ref_layout(algebra, summands):
    """(fbasis, pos) of the free module with these (vertex, shift)
    summands: summand t at (v, s) has (t, b) at (tgt b, s + deg b) for
    each basis element b leaving v, in basis order, and pos maps each
    (t, b) to its index in its block."""
    fbasis = {}
    for t, (vtx, s) in enumerate(summands):
        for bname in algebra.basis_order:
            src, tgt, deg = algebra.basis[bname]
            if src == vtx:
                fbasis.setdefault((tgt, deg + s), []).append((t, bname))
    pos = {key: {tb: i for i, tb in enumerate(lst)}
           for key, lst in fbasis.items()}
    return fbasis, pos


def ref_act(algebra, field, fbasis, pos, key, vec, aname):
    asrc, atgt, adeg = algebra.basis[aname]
    if asrc != key[0]:
        return None
    newkey = (atgt, key[1] + adeg)
    target = fbasis.get(newkey)
    if not target:
        return None
    out = [field.zero] * len(target)
    for (t, bname), c in zip(fbasis[key], vec):
        if not field.is_zero(c):
            for cname, k in product_by_rules(algebra, bname, aname).items():
                j = pos[newkey][(t, cname)]
                out[j] = field.add(out[j], field.mul(c, field.of(k)))
    if all(field.is_zero(x) for x in out):
        return None
    return newkey, out


def ref_advance(algebra, field, fbasis, pos, blocks):
    spans = {}
    for key in koszul._block_order(algebra, blocks):
        for vec in blocks[key]:
            for aname in algebra.neg_names:
                res = ref_act(algebra, field, fbasis, pos, key, vec, aname)
                if res is not None:
                    spans.setdefault(res[0], RefEchelon(field)).add(res[1])
    generators = []
    for key in koszul._block_order(algebra, blocks):
        span = spans.setdefault(key, RefEchelon(field))
        generators += [(key, vec) for vec in blocks[key] if span.add(vec)]
    new_summands = [key for key, _ in generators]
    fbasis2, pos2 = ref_layout(algebra, new_summands)
    new_blocks = {}
    for key2, basis2 in fbasis2.items():
        nrows = len(fbasis.get(key2, []))
        columns = []
        for j, bname in basis2:
            res = ref_act(algebra, field, fbasis, pos, *generators[j], bname)
            columns.append([field.zero] * nrows if res is None else res[1])
        kern = ref_kernel_basis(columns, nrows, field)
        if kern:
            new_blocks[key2] = kern
    return new_summands, fbasis2, pos2, new_blocks


def ref_steps(algebra, lam, p, i_max):
    """(steps, finished) of the minimal resolution of the simple at
    lam, from the reference engine."""
    field = ref_field(p)
    fbasis, pos = ref_layout(algebra, [(lam, 0)])
    blocks = {}
    for key in koszul._block_order(algebra, fbasis):
        for i, (t, bname) in enumerate(fbasis[key]):
            if bname != algebra.idempotent[lam]:
                vec = [field.zero] * len(fbasis[key])
                vec[i] = field.one
                blocks.setdefault(key, []).append(vec)
    steps = [[(lam, 0)]]
    for _ in range(i_max):
        if not blocks:
            break
        summands, fbasis, pos, blocks = ref_advance(algebra, field, fbasis,
                                                    pos, blocks)
        steps.append(summands)
    return steps, not blocks


# -- algebra documents ---------------------------------------------------


def monomial_doc(arrows, relations):
    """Monomial algebra of an acyclic quiver: arrows are (src, tgt)
    vertex numbers with src < tgt, relations a set of arrow-index
    paths of length 2 or 3 whose composite is zero; the basis is every
    path that contains no relation. Quadratic when every relation is a
    pair."""
    paths = [(a,) for a in range(len(arrows))]
    frontier = paths
    while frontier:
        frontier = [q + (b,) for q in frontier for b in range(len(arrows))
                    if arrows[q[-1]][1] == arrows[b][0]
                    and (q[-1], b) not in relations
                    and q[-2:] + (b,) not in relations]
        paths += frontier
    names = {q: "p" + "_".join(map(str, q)) for q in paths}
    vertices = sorted({v for arrow in arrows for v in arrow})
    mult = [{"left": names[q], "right": names[r], "result": {names[q + r]: 1}}
            for q in paths for r in paths if q + r in names]
    return {"vertices": ["v%d" % v for v in vertices],
            "basis": [{"name": names[q], "src": "v%d" % arrows[q[0]][0],
                       "tgt": "v%d" % arrows[q[-1]][1], "deg": -len(q)}
                      for q in paths],
            "mult": mult}


@st.composite
def monomial_docs(draw):
    n = draw(st.integers(2, 5))
    arrows = draw(st.lists(
        st.integers(0, n - 2).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1))),
        min_size=1, max_size=7))
    pairs = [(a, b) for a in range(len(arrows)) for b in range(len(arrows))
             if arrows[a][1] == arrows[b][0]]
    relations = set(draw(st.lists(st.sampled_from(pairs), unique=True))
                    if pairs else [])
    return monomial_doc(arrows, relations)


def exterior_doc(d):
    subsets = [s for r in range(1, d + 1)
               for s in itertools.combinations(range(d), r)]

    def name(s):
        return "x" + "".join(map(str, s))

    mult = []
    for s in subsets:
        for t in subsets:
            if not set(s) & set(t):
                seq = s + t
                inversions = sum(1 for a, b in itertools.combinations(seq, 2)
                                 if a > b)
                mult.append({"left": name(s), "right": name(t),
                             "result": {name(tuple(sorted(seq))):
                                        (-1) ** inversions}})
    return {"vertices": ["pt"],
            "basis": [{"name": name(s), "src": "pt", "tgt": "pt",
                       "deg": -len(s)} for s in subsets],
            "mult": mult}


@pytest.mark.parametrize("l,reason", [(4, "4 is not prime"),
                                      (2 ** 31, "primes must be below 2^31")],
                         ids=["composite", "2^31"])
def test_integral_check_refuses_a_bad_prime_before_resolving(l, reason):
    """The exterior algebra on 5 generators passes the free-rank limit
    at step 6 over Q; a bad l is named before that table is built."""
    algebra = load_algebra(exterior_doc(5))
    with mock.patch.object(koszul, "ext_table",
                           side_effect=AssertionError("resolved")):
        with pytest.raises(ValueError, match=re.escape(reason)):
            integral_koszul_check(algebra, l, 10)


def truncation_doc(n):
    """k[x]/(x^n)."""
    return {"vertices": ["pt"],
            "basis": [{"name": "x%d" % a, "src": "pt", "tgt": "pt",
                       "deg": -a} for a in range(1, n)],
            "mult": [{"left": "x%d" % a, "right": "x%d" % b,
                      "result": {"x%d" % (a + b): 1}}
                     for a in range(1, n) for b in range(1, n - a)]}


FIXED_DOCS = st.one_of(st.sampled_from([2, 3]).map(exterior_doc),
                       st.integers(2, 7).map(truncation_doc))
PLUS_MINUS_ONE_DOCS = st.one_of(monomial_docs(), FIXED_DOCS)


# -- the integer engine against the reference ----------------------------


@fuzz(120)
@given(PLUS_MINUS_ONE_DOCS, st.sampled_from((0,) + PRIMES),
       st.integers(1, 5))
def test_resolution_matches_reference_engine(doc, p, i_max):
    algebra = load_algebra(doc)
    field = "F:%d" % p if p else "Q"
    for lam in algebra.vertices:
        res = minimal_resolution(algebra, lam, field, i_max)
        assert (res.steps, res.finished) == ref_steps(algebra, lam, p, i_max)


@pytest.mark.parametrize("name", ["p1", "x3_truncation", "torsion_p1:2",
                                  "torsion_p1:3", "dual_numbers"])
@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_builtin_resolutions_match_reference_engine(name, p):
    algebra = builtin_algebra(name)
    field = "F:%d" % p if p else "Q"
    for lam in algebra.vertices:
        res = minimal_resolution(algebra, lam, field, 6)
        assert (res.steps, res.finished) == ref_steps(algebra, lam, p, 6)


@st.composite
def radical_cube_zero_docs(draw):
    """One or two vertices, at most three elements in degree -1 and
    three in degree -2, and every composable product of two degree -1
    elements a drawn combination of the degree -2 elements between its
    endpoints, coefficients in -3..3. J^3 = 0, so every such table is
    associative."""
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 2)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    basis = []
    for deg, prefix in ((-1, "a"), (-2, "b")):
        for i, (src, tgt) in enumerate(draw(st.lists(ends, max_size=3))):
            basis.append({"name": "%s%d" % (prefix, i), "src": src,
                          "tgt": tgt, "deg": deg})
    ones = [b for b in basis if b["deg"] == -1]
    mult = []
    for x in ones:
        for y in ones:
            if x["tgt"] == y["src"]:
                result = {b["name"]: draw(st.integers(-3, 3)) for b in basis
                          if b["deg"] == -2 and b["src"] == x["src"]
                          and b["tgt"] == y["tgt"]}
                result = {name: c for name, c in result.items() if c}
                if result:
                    mult.append({"left": x["name"], "right": y["name"],
                                 "result": result})
    return {"vertices": vertices, "basis": basis, "mult": mult}


@fuzz(100)
@given(radical_cube_zero_docs(), st.integers(1, 3))
def test_multi_term_resolutions_match_reference_engine(doc, i_max):
    """Products with several terms and non-unit coefficients, where a
    degree -2 element may or may not be a generator of J and Ext may
    depend on the field."""
    algebra = load_algebra(doc)
    for p in (0,) + PRIMES:
        field = "F:%d" % p if p else "Q"
        for lam in algebra.vertices:
            res = minimal_resolution(algebra, lam, field, i_max)
            assert (res.steps, res.finished) == ref_steps(algebra, lam, p,
                                                          i_max)


# e = a*x, 2c = x*y, d = a*c, 2d = e*y: over F_2 the element c is not in
# J^2, and only a*c reaches d
HALF_PRODUCT_DOC = {
    "vertices": ["v0", "v1", "v2", "v3"],
    "basis": [{"name": name, "src": "v%d" % src, "tgt": "v%d" % tgt,
               "deg": deg}
              for name, src, tgt, deg in (("a", 0, 1, -1), ("x", 1, 2, -1),
                                          ("y", 2, 3, -1), ("e", 0, 2, -2),
                                          ("c", 1, 3, -2), ("d", 0, 3, -3))],
    "mult": [{"left": left, "right": right, "result": result}
             for left, right, result in (("a", "x", {"e": 1}),
                                         ("x", "y", {"c": 2}),
                                         ("a", "c", {"d": 1}),
                                         ("e", "y", {"d": 2}))]}


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_non_unit_product_keeps_its_result_a_generator(p):
    algebra = load_algebra(HALF_PRODUCT_DOC)
    field = "F:%d" % p if p else "Q"
    for lam in algebra.vertices:
        res = minimal_resolution(algebra, lam, field, 4)
        assert (res.steps, res.finished) == ref_steps(algebra, lam, p, 4)


@fuzz(60)
@given(PLUS_MINUS_ONE_DOCS, st.integers(1, 4))
def test_ext_dims_match_over_q_and_every_fl(doc, i_max):
    """With every structure constant +-1 on these families (monomial,
    exterior, truncated polynomial) Ext has no torsion, so its
    dimensions do not depend on the field."""
    algebra = load_algebra(doc)
    dims_q = ext_table(algebra, "Q", i_max).dims()
    for l in PRIMES:
        assert ext_table(algebra, "F:%d" % l, i_max).dims() == dims_q


# -- the Ext diagonal against the quadratic dual ---------------------------


@fuzz(100)
@given(st.one_of(
    monomial_docs().map(load_algebra),
    FIXED_DOCS.map(load_algebra),
    st.sampled_from(("dual_numbers", "p1", "x3_truncation", "semisimple",
                     "torsion_p1:2", "torsion_p1:3",
                     "torsion_p1:5")).map(builtin_algebra)),
       st.integers(1, 4))
def test_ext_diagonal_matches_the_quadratic_dual(algebra, i_max):
    """dim Ext^i(L_lam, L_mu)_{-i} from the minimal resolutions equals
    dim e_lam (A^!)_i e_mu, counted on paths of degree -1 elements
    without a resolution, over Q and each F_l."""
    for p in (0,) + PRIMES:
        dims = ext_table(algebra, "F:%d" % p if p else "Q", i_max).dims()
        diagonal = {(i, lam, mu): n for (i, lam, mu, s), n in dims.items()
                    if s == -i}
        assert diagonal == quadratic_dual_dims(algebra, p, i_max)


@fuzz(60)
@given(st.one_of(
    monomial_docs().map(load_algebra),
    st.sampled_from(("p1", "semisimple")).map(builtin_algebra)))
def test_cartan_inverse_is_the_hilbert_series_of_the_quadratic_dual(
        algebra):
    """A Koszul algebra's inverse Cartan matrix is the alternating
    Hilbert series of its quadratic dual, entry (lam, mu) the sum of
    (-1)^i dim e_lam (A^!)_i e_mu v^-i, with no resolution taken. A^!
    of these algebras vanishes above the vertex count: on a monomial
    quiver its paths have fewer arrows than the quiver has vertices."""
    dims = quadratic_dual_dims(algebra, 0, len(algebra.vertices))
    series = {}
    for (i, lam, mu), n in dims.items():
        series[(lam, mu)] = (series.get((lam, mu), LaurentPoly.zero())
                             + LaurentPoly.monomial(-i, (-1) ** i * n))
    assert cartan_inverse(algebra) == [
        [series.get((lam, mu), LaurentPoly.zero())
         for mu in algebra.vertices] for lam in algebra.vertices]


# -- products: the right-action table against the rules -----------------


BUILTINS = ("dual_numbers", "p1", "x3_truncation", "semisimple")


@fuzz(150)
@given(st.one_of(
    PLUS_MINUS_ONE_DOCS.map(load_algebra),
    radical_cube_zero_docs().map(load_algebra),
    st.sampled_from(BUILTINS).map(builtin_algebra),
    st.integers(0, 12).map(lambda l: builtin_algebra("torsion_p1:%d" % l))))
def test_product_table_matches_the_rules(algebra):
    """Every product, terms in the order mult lists them."""
    names = algebra.basis_order
    for x, y in itertools.product(names, repeat=2):
        assert (list(product(algebra, x, y).items())
                == list(product_by_rules(algebra, x, y).items()))
    # right holds exactly the nonzero products
    assert sum(map(len, algebra.right.values())) == sum(
        1 for x, y in itertools.product(names, repeat=2)
        if product_by_rules(algebra, x, y))


# -- associativity: composable triples against every triple ------------


def failing_triples(algebra):
    """Every triple with (xy)z != x(yz), in basis order."""
    for x, y, z in itertools.product(algebra.basis_order, repeat=3):
        left, right = {}, {}
        for mid, c in product_by_rules(algebra, x, y).items():
            for r, k in product_by_rules(algebra, mid, z).items():
                left[r] = left.get(r, 0) + c * k
        for mid, c in product_by_rules(algebra, y, z).items():
            for r, k in product_by_rules(algebra, x, mid).items():
                right[r] = right.get(r, 0) + c * k
        if ({r: c for r, c in left.items() if c}
                != {r: c for r, c in right.items() if c}):
            yield x, y, z


def exhaustive_associativity(algebra):
    """First triple in basis order with (xy)z != x(yz), or None."""
    return next(failing_triples(algebra), None)


@st.composite
def perturbed_docs(draw):
    doc = draw(st.one_of(monomial_docs(), st.sampled_from([2, 3]).map(
        exterior_doc)))
    for _ in range(draw(st.integers(1, 3))):
        if not doc["mult"]:
            break
        rec = draw(st.sampled_from(doc["mult"]))
        name, coeff = next(iter(rec["result"].items()))
        rec["result"] = {name: draw(st.sampled_from(
            [-coeff, coeff + 1, 2 * coeff, 0]))}
    return doc


@fuzz(200)
@given(perturbed_docs())
def test_associativity_check_matches_exhaustive_oracle(doc):
    with mock.patch.object(GradedAlgebra, "_check_associativity",
                           lambda self: None):
        algebra = load_algebra(doc)
    first = exhaustive_associativity(algebra)
    if first is None:
        algebra._check_associativity()
        load_algebra(doc)
    else:
        message = "associativity fails at (%r, %r, %r)" % first
        with pytest.raises(ValueError) as err:
            algebra._check_associativity()
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            load_algebra(doc)
        assert str(err.value) == message


def test_associativity_oracle_sees_failures():
    """The perturbations above reach both outcomes."""
    doc = exterior_doc(3)
    doc["mult"][0]["result"] = {k: 2 for k in doc["mult"][0]["result"]}
    with mock.patch.object(GradedAlgebra, "_check_associativity",
                           lambda self: None):
        algebra = load_algebra(doc)
    assert exhaustive_associativity(algebra) is not None
    assert exhaustive_associativity(load_algebra(exterior_doc(3))) is None


def test_associativity_report_names_the_first_failing_triple():
    """Doubling x1*x0 and x02*x1 in the exterior algebra of k^3 breaks
    four triples; the check reports the first in basis order, as the
    exhaustive oracle does."""
    doc = exterior_doc(3)
    for rec in doc["mult"]:
        if (rec["left"], rec["right"]) in (("x1", "x0"), ("x02", "x1")):
            rec["result"] = {k: 2 * c for k, c in rec["result"].items()}
    with mock.patch.object(GradedAlgebra, "_check_associativity",
                           lambda self: None):
        algebra = load_algebra(doc)
    assert list(failing_triples(algebra)) == [
        ("x0", "x2", "x1"), ("x1", "x0", "x2"), ("x2", "x0", "x1"),
        ("x2", "x1", "x0")]
    assert exhaustive_associativity(algebra) == ("x0", "x2", "x1")
    with pytest.raises(ValueError) as err:
        load_algebra(doc)
    assert str(err.value) == "associativity fails at ('x0', 'x2', 'x1')"


# -- algebra documents: load, rebuild, load again -------------------------


def algebra_doc(algebra):
    """The document form of a loaded algebra: every basis element in
    basis order, idempotents included, and every listed product."""
    return {"name": algebra.name, "vertices": list(algebra.vertices),
            "basis": [{"name": b, "src": algebra.basis[b][0],
                       "tgt": algebra.basis[b][1], "deg": algebra.basis[b][2]}
                      for b in algebra.basis_order],
            "mult": [{"left": x, "right": y, "result": dict(result)}
                     for (x, y), result in algebra.mult.items()]}


@st.composite
def round_trip_docs(draw):
    """A quadratic monomial quiver algebra (or a truncated polynomial
    ring, which is Koszul only up to x^2), with the idempotents of a
    drawn set of vertices listed under names of their own."""
    doc = draw(st.one_of(monomial_docs(), st.integers(2, 5).map(
        truncation_doc)))
    listed = draw(st.lists(st.sampled_from(doc["vertices"]), unique=True))
    doc["basis"] += [{"name": "id_" + v, "src": v, "tgt": v, "deg": 0}
                     for v in listed]
    return doc


def algebra_facts(algebra):
    names = algebra.basis_order
    return (algebra.basis,
            {(x, y): product(algebra, x, y) for x in names for y in names},
            is_koszul(algebra, "Q"))


@fuzz(100)
@given(round_trip_docs(), st.randoms(use_true_random=False))
def test_algebra_documents_round_trip(doc, rng):
    algebra = load_algebra(doc)
    rebuilt = algebra_doc(algebra)
    again = load_algebra(rebuilt)
    facts = algebra_facts(algebra)
    assert algebra_facts(again) == facts
    assert algebra_doc(again) == rebuilt
    for key in ("basis", "mult"):
        rng.shuffle(rebuilt[key])
    assert algebra_facts(load_algebra(rebuilt)) == facts


# -- is_koszul's early exit against the full table ------------------------


@st.composite
def arrows_pairs_triples(draw):
    """An acyclic quiver on 3-7 vertices, often a path, with its
    composable pairs and triples of arrows (as arrow indices)."""
    n = draw(st.integers(3, 7))
    arrows = draw(st.one_of(
        st.just([(v, v + 1) for v in range(n - 1)]),
        st.lists(st.integers(0, n - 2).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1))),
            min_size=1, max_size=8)))
    pairs = [(a, b) for a in range(len(arrows)) for b in range(len(arrows))
             if arrows[a][1] == arrows[b][0]]
    triples = [(a, b, c) for a, b in pairs for c in range(len(arrows))
               if arrows[b][1] == arrows[c][0]]
    return arrows, pairs, triples


@st.composite
def cubic_monomial_docs(draw):
    """Monomial algebras of acyclic quivers, often a path, with at least
    one relation of length 2 and one of length 3 where there are such
    paths. A relation of length 3 that contains no other relation makes
    them non-Koszul, with first violations at several steps and
    vertices: with relations ab and bcd on the path a b c d, the simple
    at the source first violates at step 3 and the next one at step
    2."""
    arrows, pairs, triples = draw(arrows_pairs_triples())
    relations = set()
    for paths in (pairs, triples):
        if paths:
            relations.update(draw(st.lists(st.sampled_from(paths),
                                           unique=True, min_size=1)))
    return monomial_doc(arrows, relations)


def cycle_doc(n, k):
    """kQ/J^k on the cycle with n vertices, Koszul only for k = 2: every
    simple first violates at step 2, a tie between all n vertices."""
    def name(src, length):
        return "p%d_%d" % (src, length)

    return {"vertices": ["v%d" % v for v in range(n)],
            "basis": [{"name": name(v, a), "src": "v%d" % v,
                       "tgt": "v%d" % ((v + a) % n), "deg": -a}
                      for v in range(n) for a in range(1, k)],
            "mult": [{"left": name(v, a), "right": name((v + a) % n, b),
                      "result": {name(v, a + b): 1}}
                     for v in range(n) for a in range(1, k)
                     for b in range(1, k - a)]}


# ab and bcd on the path v0 -> v1 -> v2 -> v3 -> v4: v0 first violates
# at step 3 (summand (v4, -4)), v1 at step 2 (summand (v4, -3))
LATER_VERTEX_EARLIER_STEP_DOC = monomial_doc(
    [(0, 1), (1, 2), (2, 3), (3, 4)], {(0, 1), (1, 2, 3)})


def full_table_report(algebra, field, i_max):
    """is_koszul's report rebuilt from the whole Ext table."""
    table = ext_table(algebra, field, i_max)
    violation = koszul_violation(table)
    return KoszulReport(algebra.name, table.field_name, violation is None,
                        table.i_max, violation)


def outcome(route, *args):
    """The route's result, or the message of its rank-limit refusal."""
    try:
        return route(*args)
    except ValueError as refusal:
        assert "the limit is %d" % koszul.MAX_FREE_RANK in str(refusal)
        return str(refusal)


def refused_step(message):
    return int(re.match(r"step (\d+) of the resolution", message).group(1))


@fuzz(250)
@given(st.one_of(
    cubic_monomial_docs(),
    st.tuples(st.integers(1, 4), st.integers(2, 4)).map(
        lambda nk: cycle_doc(*nk)),
    radical_cube_zero_docs(),
    PLUS_MINUS_ONE_DOCS,
    st.sampled_from(("p1", "x3_truncation", "dual_numbers", "torsion_p1:2",
                     "torsion_p1:3", "torsion_p1:5"))),
       st.sampled_from((0,) + PRIMES), st.integers(1, 6),
       st.sampled_from((koszul.MAX_FREE_RANK, 4, 8, 16)))
@example(LATER_VERTEX_EARLIER_STEP_DOC, 0, 4, koszul.MAX_FREE_RANK)
@example(cycle_doc(3, 3), 0, 4, koszul.MAX_FREE_RANK)
@example("torsion_p1:3", 3, 32, koszul.MAX_FREE_RANK)
def test_is_koszul_matches_the_full_table(doc, p, i_max, limit):
    """is_koszul, which stops each simple at its first violation and
    a later simple before the first violation found, reports what the
    whole table up to i_max reports. Where the whole table passes the
    free-rank limit, is_koszul passes it on a step some resolution
    really reaches, or reports a violation no later than the refused
    step."""
    algebra = (builtin_algebra(doc) if isinstance(doc, str)
               else load_algebra(doc))
    field = "F:%d" % p if p else "Q"
    with mock.patch.object(koszul, "MAX_FREE_RANK", limit):
        full = outcome(full_table_report, algebra, field, i_max)
        early = outcome(is_koszul, algebra, field, i_max)
        if isinstance(full, KoszulReport):
            assert early == full
        elif isinstance(early, KoszulReport):
            i = early.first_violation[0]
            assert i <= refused_step(full)
            truncated = outcome(full_table_report, algebra, field, i)
            if isinstance(truncated, KoszulReport):
                assert truncated.first_violation == early.first_violation
        else:
            assert early in [outcome(minimal_resolution, algebra, lam, field,
                                     i_max) for lam in algebra.vertices]


@st.composite
def low_generator_docs(draw):
    """A quadratic monomial algebra with one more basis element g, of
    degree -2 to -4 between any two vertices, that is no product: a
    generator below degree -1, which P_1 of the simple at its source
    covers by a summand in g's degree."""
    doc = draw(monomial_docs())
    vertex = st.sampled_from(doc["vertices"])
    doc["basis"].append({"name": "g", "src": draw(vertex),
                         "tgt": draw(vertex),
                         "deg": draw(st.integers(-4, -2))})
    return doc


@st.composite
def cubic_relation_docs(draw):
    """Monomial algebras drawn as cubic_monomial_docs draws them, with a
    relation abc of length 3 whose pairs ab and bc are no relations:
    generated in degree -1, and abc is a minimal relation, which Ext^2
    of the simple at its source holds in degree -3."""
    arrows, pairs, triples = draw(arrows_pairs_triples().filter(
        lambda apt: apt[2]))
    cubic = draw(st.sampled_from(triples))
    pairs = [ab for ab in pairs if ab not in (cubic[:2], cubic[1:])]
    relations = {cubic}
    for paths in (pairs, triples):
        if paths:
            relations.update(draw(st.lists(st.sampled_from(paths),
                                           unique=True)))
    return monomial_doc(arrows, relations)


@fuzz(150)
@given(st.one_of(low_generator_docs().map(lambda doc: (doc, 1)),
                 cubic_relation_docs().map(lambda doc: (doc, 2))),
       st.sampled_from((0,) + PRIMES), st.integers(2, 6))
@example((LATER_VERTEX_EARLIER_STEP_DOC, 2), 0, 4)
def test_a_non_quadratic_algebra_is_never_koszul(case, p, i_max):
    """An algebra that is not quadratic is not Koszul, and is_koszul
    reports the earliest step that shows it: step 1 for a generator
    below degree -1, step 2 for a minimal relation of length 3 when
    every generator has degree -1. On the path with relations ab and
    bcd the source first violates at step 3, but the next vertex at
    step 2, and the report says step 2."""
    doc, step = case
    report = is_koszul(load_algebra(doc), "F:%d" % p if p else "Q", i_max)
    assert not report.is_koszul
    assert report.first_violation[0] == step


def test_is_koszul_resolves_only_the_steps_up_to_the_first_violation(
        monkeypatch):
    """k[x]/(x^n), n = 3..12, first violates at step 2 on its only
    vertex: is_koszul makes 2 resolution steps each, 20 in all, where
    the whole table to the default i_max = 2n makes 150."""
    steps = []
    advance = koszul._advance

    def counted(*args):
        steps.append(args[4])
        return advance(*args)

    monkeypatch.setattr(koszul, "_advance", counted)
    algebras = [load_algebra(truncation_doc(n)) for n in range(3, 13)]
    for n, algebra in zip(range(3, 13), algebras):
        assert is_koszul(algebra, "Q").first_violation == (2, "pt", "pt", -n)
    assert steps == [1, 2] * 10
    steps.clear()
    for algebra in algebras:
        ext_table(algebra, "Q")
    assert len(steps) == 150


# -- the Echelon against Bareiss and the reference rref ------------------


def int_matrices(max_n=8):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


@fuzz(200)
@given(int_matrices(), st.sampled_from((0,) + PRIMES + (101,)))
def test_echelon_full_rank_iff_bareiss_det_is_a_unit(matrix, p):
    ech = _linalg.Echelon(p)
    for row in matrix:
        ech.add(sparse([x % p for x in row] if p else row))
    det = _linalg.det_bareiss(matrix)
    full = (det % p != 0) if p else det != 0
    assert (len(ech.rows) == len(matrix)) == full


@fuzz(200)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from((0,) + PRIMES),
       st.data())
def test_kernel_basis_spans_the_kernel(nrows, ncols, p, data):
    columns = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows),
        min_size=ncols, max_size=ncols))
    field = koszul.as_field("F:%d" % p if p else "Q")
    kern = _linalg.kernel_basis([sparse(col) for col in columns], nrows,
                                field)
    rank = len(ref_rref([[col[i] for col in columns] for i in range(nrows)],
                        ref_field(p))[0])
    assert len(kern) == ncols - rank
    for vec in kern:
        assert all(vec.values())
        assert all(0 <= j < ncols for j in vec)
        for i in range(nrows):
            total = sum(c * columns[j][i] for j, c in vec.items())
            assert (total % p if p else total) == 0
    ech = _linalg.Echelon(p)
    assert all(ech.add(vec) for vec in kern)


@fuzz(200)
@given(st.sampled_from((0,) + PRIMES), st.data())
def test_echelon_never_mutates_its_input_or_stored_rows(p, data):
    """reduce and add leave the vector passed in as it was, and a row
    once stored stays as it was through every later add."""
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=10))
    ech = _linalg.Echelon(p)
    for row in rows:
        vec = sparse([x % p for x in row] if p else row)
        before = dict(vec)
        stored = {lead: dict(r) for lead, r in ech.rows.items()}
        ech.reduce(vec)
        assert vec == before
        ech.add(vec)
        assert vec == before
        for lead, r in stored.items():
            assert ech.rows[lead] == r


def mostly_easy_columns(rng, nrows, count):
    """count sparse columns of which most are zero or hold one entry,
    that entry and most others +-1, so that many leads are already 1 or
    +-1; the rest hold entries of -4..4 and share rows with the others."""
    entries = (1, -1, 1, -1, 2, -2, 3, 4, -4)
    columns = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            columns.append({})
        elif kind < 3:
            columns.append({rng.randrange(nrows): rng.choice(entries)})
        else:
            columns.append({i: rng.choice(entries) for i in range(nrows)
                            if rng.random() < 0.5})
    return columns


def ordered(rows):
    """Rows as lists of entries, so that their order counts too."""
    return {lead: list(row.items()) for lead, row in rows.items()}


@fuzz(200)
@given(st.sampled_from((0,) + PRIMES), st.integers(1, 6),
       st.randoms(use_true_random=False))
def test_echelon_and_kernel_rows_match_the_plain_route(p, nrows, rng):
    """The rows kernel_basis stores, its kernel vectors and the rows of
    a run of adds are those of the plain route, which reduces and
    normalizes every vector, entry for entry and in the same order.
    Over Q a reduced vector is a positive multiple of the plain one."""
    columns = mostly_easy_columns(rng, nrows, rng.randrange(11))
    field = koszul.as_field("F:%d" % p if p else "Q")
    built = []

    class Recorded(_linalg.Echelon):
        def __init__(self, p):
            super().__init__(p)
            built.append(self)

    with mock.patch.object(_linalg, "Echelon", Recorded):
        kern = _linalg.kernel_basis(columns, nrows, field)
    assert ([list(vec.items()) for vec in kern]
            == [list(vec.items())
                for vec in plain_kernel_basis(columns, nrows, p)])
    assert ordered(built[0].rows) == ordered(
        plain_kernel_echelon(columns, nrows, p).rows)

    ech, plain = _linalg.Echelon(p), PlainEchelon(p)
    for col in mostly_easy_columns(rng, nrows, rng.randrange(13)):
        vec = {i: x % p for i, x in col.items() if x % p} if p else col
        got, want = ech.reduce(vec), plain.reduce(vec)
        assert (got is None) == (want is None)
        if got is not None:
            (lead, red), (plain_lead, plain_red) = got, want
            c = red[lead] // plain_red[plain_lead]
            assert lead == plain_lead and c >= 1
            assert list(red.items()) == [(i, c * x)
                                         for i, x in plain_red.items()]
        assert ech.add(vec) == plain.add(vec)
        assert ordered(ech.rows) == ordered(plain.rows)


def test_echelon_keeps_primitive_integer_rows_over_q():
    ech = _linalg.Echelon(0)
    assert ech.add(sparse([0, 6, 4, 2]))
    assert ech.add(sparse([0, 3, 1, 5]))
    assert not ech.add(sparse([0, 9, 5, 7]))
    for row in ech.rows.values():
        assert all(isinstance(x, int) for x in row.values())
        assert _linalg.gcd(*row.values()) == 1


# -- Bareiss elimination against cofactor expansion -----------------------


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return LaurentPoly.monomial(0)
    total = LaurentPoly.zero()
    for j in range(n):
        if rows[0][j]:
            minor = [[rows[i][t] for t in range(n) if t != j]
                     for i in range(1, n)]
            term = rows[0][j] * cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
    return total


LAURENT = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2),
                          max_size=3).map(LaurentPoly)


def square(entries, max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@fuzz(60)
@given(square(LAURENT, 6))
def test_laurent_det_matches_cofactor_expansion(rows):
    assert _linalg.bareiss(rows)[0] == cofactor_det(rows)


@fuzz(120)
@given(st.one_of(square(st.integers(-4, 4), 6), square(LAURENT, 4)))
def test_bareiss_of_m_and_identity_gives_the_adjugate(rows):
    n = len(rows)
    det, adj = _linalg.bareiss([list(row) + [int(c == r) for c in range(n)]
                                for r, row in enumerate(rows)])
    assert det == cofactor_det(rows)
    if not det:
        assert adj is None
        return
    for i in range(n):
        for j in range(n):
            entry = sum((rows[i][t] * adj[t][j] for t in range(n)), 0)
            assert entry == (det if i == j else 0)


def test_laurent_div_rejects_inexact_quotients():
    a = v_poly((2, 1), (0, 1))
    b = v_poly((1, 1), (0, 1))
    assert divmod(a * b, b) == (a, 0)
    q, r = divmod(a, b)
    assert r and a == q * b + r
    q, r = divmod(v_poly((0, 1)), v_poly((0, 2)))
    assert q == 0 and r == 1


@pytest.mark.parametrize("name", ["dual_numbers", "p1", "x3_truncation",
                                  "semisimple", "torsion_p1:3"])
def test_cartan_inverse_matches_cofactor_oracle(name):
    algebra = builtin_algebra(name)
    dims = graded_dims(algebra)
    rows = [[dims[(a, b)] for b in algebra.vertices]
            for a in algebra.vertices]
    n = len(rows)
    det = cofactor_det(rows)
    assert _linalg.det_bareiss(rows) == det
    items = list(det.items())
    if len(items) != 1 or items[0][1] not in (1, -1):
        with pytest.raises(ValueError, match="not a unit"):
            cartan_inverse(algebra)
        return
    (exp, coeff), = det.items()
    want = [[cofactor_det([[rows[r][c] for c in range(n) if c != i]
                           for r in range(n) if r != j])
             * LaurentPoly.monomial(-exp, coeff * (-1) ** (i + j))
             for j in range(n)] for i in range(n)]
    assert cartan_inverse(algebra) == want


# -- the packed Cartan inverse against the LaurentPoly route -----------


EVERY_BUILTIN = BUILTINS + ("torsion_p1:2", "torsion_p1:3", "torsion_p1:5")


def quiver_doc(n, arrows):
    """n vertices and the arrows (src, tgt, deg), with no products:
    cycles and loops are allowed, and the graded Cartan matrix, which
    reads only the basis, can take any shape."""
    return {"vertices": ["v%d" % v for v in range(n)],
            "basis": [{"name": "x%d" % i, "src": "v%d" % a,
                       "tgt": "v%d" % b, "deg": d}
                      for i, (a, b, d) in enumerate(arrows)],
            "mult": []}


@st.composite
def graded_quiver_docs(draw):
    """1-6 vertices and up to 12 arrows of degree -1 to -6."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    return quiver_doc(n, draw(st.lists(
        st.tuples(vertex, vertex, st.integers(-6, -1)), max_size=12)))


def unit_quiver_doc(n, entries):
    """A quiver whose graded Cartan matrix is (I + L)(I + U), with
    entries {(a, b): d} putting u^d = v^-d in L below the diagonal and
    in U above it: its determinant is 1, and L[a][k] U[k][b] adds an
    arrow a -> b of degree -(d + d'), a loop when a = b."""
    L = {ab: d for ab, d in entries.items() if ab[0] > ab[1]}
    U = {ab: d for ab, d in entries.items() if ab[0] < ab[1]}
    arrows = [(a, b, -d) for (a, b), d in entries.items()]
    arrows += [(a, b, -d - e) for (a, k), d in L.items()
               for (k2, b), e in U.items() if k2 == k]
    return quiver_doc(n, arrows)


@st.composite
def unit_quiver_docs(draw):
    """unit_quiver_doc on 2-6 vertices with up to 6 entries of degree
    1-3: invertible graded Cartan matrices, often with cycles, of
    degrees down to -6."""
    n = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return unit_quiver_doc(n, draw(st.dictionaries(
        st.sampled_from(pairs), st.integers(1, 3), max_size=6)))


def has_cycle(algebra):
    """Whether the arrows of algebra close an oriented cycle."""
    arrows = [algebra.basis[b][:2] for b in algebra.neg_names]
    reach = {v: {v} for v in algebra.vertices}
    for _ in algebra.vertices:
        for a, b in arrows:
            reach[a] |= reach[b]
    return any(a in reach[b] for a, b in arrows)


def seeded_cyclic_quivers(count, seed):
    """count quivers with an oriented cycle, a loop included, of
    graded_quiver_docs' kind (few of them invertible) and count of
    unit_quiver_docs' kind."""
    rng = random.Random(seed)
    out = {"random": [], "unit": []}
    while min(map(len, out.values())) < count:
        n = rng.randint(2, 6)
        if len(out["random"]) < count:
            arrows = [(rng.randrange(n), rng.randrange(n),
                       -rng.randint(1, 6))
                      for _ in range(rng.randint(1, 12))]
            algebra = load_algebra(quiver_doc(n, arrows))
            if has_cycle(algebra):
                out["random"].append(algebra)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        entries = {ab: rng.randint(1, 3)
                   for ab in rng.sample(pairs, min(len(pairs), 6))}
        algebra = load_algebra(unit_quiver_doc(n, entries))
        if len(out["unit"]) < count and has_cycle(algebra):
            out["unit"].append(algebra)
    return out["random"] + out["unit"]


def inverse_or_refusal(route, algebra):
    try:
        return route(algebra)
    except ValueError as refusal:
        return str(refusal)


@fuzz(300)
@given(st.one_of(graded_quiver_docs().map(load_algebra),
                 unit_quiver_docs().map(load_algebra),
                 st.sampled_from(EVERY_BUILTIN).map(builtin_algebra)))
@example(builtin_algebra("p1"))
@example(load_algebra(quiver_doc(2, [(0, 1, -1), (1, 0, -1),
                                     (1, 1, -2)])))
@example(load_algebra(quiver_doc(2, [(0, 1, -1), (0, 1, -3)])))
def test_cartan_inverse_matches_the_laurent_route(algebra):
    """The packed elimination gives the inverse that Bareiss on the
    LaurentPoly entries gives, and the same ValueError text where the
    determinant is no unit monomial. It is never 0: the table is the
    identity plus multiples of v^-1."""
    assert (inverse_or_refusal(cartan_inverse, algebra)
            == inverse_or_refusal(cartan_inverse_by_laurent, algebra))


def test_cartan_inverse_makes_no_laurent_product(monkeypatch):
    """The elimination runs on ints: with LaurentPoly products and
    divisions raising, every builtin and 20 seeded quivers with cycles,
    10 of them invertible, still give the LaurentPoly route's inverse
    or refusal."""
    algebras = ([builtin_algebra(name) for name in EVERY_BUILTIN]
                + seeded_cyclic_quivers(10, 28))
    want = [inverse_or_refusal(cartan_inverse_by_laurent, algebra)
            for algebra in algebras]
    assert sum(isinstance(w, list) for w in want) >= 10

    def refuse(*args):
        raise AssertionError("a LaurentPoly product or division")

    for attr in ("__mul__", "__rmul__", "__divmod__"):
        monkeypatch.setattr(LaurentPoly, attr, refuse)
    assert [inverse_or_refusal(cartan_inverse, algebra)
            for algebra in algebras] == want


def test_cartan_inverse_refuses_past_the_bit_budget(monkeypatch):
    """One arrow of degree -d between two vertices packs at B = 3 bits
    into (d + 1) * 3: the deepest arrow inside MAX_CARTAN_BITS inverts,
    and the next is refused before any elimination."""
    def chain(d):
        return load_algebra(quiver_doc(2, [(0, 1, -d)]))

    d = koszul.MAX_CARTAN_BITS // 3 - 1
    one, zero = LaurentPoly.monomial(0), LaurentPoly.zero()
    assert cartan_inverse(chain(d)) == [[one, LaurentPoly.monomial(-d, -1)],
                                        [zero, one]]

    def refuse(*args):
        raise AssertionError("elimination before the budget check")

    monkeypatch.setattr(koszul, "bareiss", refuse)
    with pytest.raises(ValueError, match="^the Cartan matrix of algebra "
                       "packs into %d bits per entry; the limit is %d$"
                       % ((d + 2) * 3, koszul.MAX_CARTAN_BITS)):
        cartan_inverse(chain(d + 1))


# -- size bound ------------------------------------------------------------


def test_resolution_step_above_free_rank_limit_is_rejected():
    algebra = builtin_algebra("torsion_p1:3")
    start = time.monotonic()
    with pytest.raises(ValueError, match="limit is %d" % koszul.MAX_FREE_RANK):
        minimal_resolution(algebra, "a", "F:3", 32)
    assert time.monotonic() - start < 10.0
    # over Q the steps stay small: each has one summand
    steps = minimal_resolution(algebra, "a", "Q", 32).steps
    assert list(map(len, steps)) == [1] * 33


def test_free_rank_refusal_counts_the_generators_found_so_far():
    """Generators appear block by block, and the step is refused at the
    first one that takes the free module past the limit: step 19 of
    torsion_p1:3 over F3 has 5,619 basis vectors, but the refusal
    counts 4,098, the first multiple of 3 (the rank of P_a and of P_b)
    past 4,096."""
    algebra = builtin_algebra("torsion_p1:3")
    with pytest.raises(ValueError, match="^step 19 of the resolution needs "
                       "a free module with at least 4098 basis vectors; "
                       "the limit is 4096$"):
        minimal_resolution(algebra, "a", "F:3", 32)
    with mock.patch.object(koszul, "MAX_FREE_RANK", 10 ** 6):
        steps = minimal_resolution(algebra, "a", "F:3", 19).steps
    fbasis, _ = ref_layout(algebra, steps[19])
    assert sum(map(len, fbasis.values())) == 5619


# -- work done by one resolution step ------------------------------------


@pytest.mark.parametrize("algebra", [load_algebra(exterior_doc(3)),
                                     builtin_algebra("p1")],
                         ids=["exterior_3", "p1"])
@pytest.mark.parametrize("field", ["Q", "F:2"])
def test_steps_act_only_on_generators(algebra, field):
    """_act runs once per generator and non-idempotent basis element
    leaving its vertex, and never on the other vectors of M: M*J comes
    from the images of the generators already found."""
    calls = []
    act = koszul._act

    def counted(*args):
        calls.append(args)
        return act(*args)

    for lam in algebra.vertices:
        calls.clear()
        with mock.patch.object(koszul, "_act", counted):
            steps = minimal_resolution(algebra, lam, field, 6).steps
        want = sum(1 for step in steps[1:] for vtx, _ in step
                   for b in algebra.neg_names if algebra.basis[b][0] == vtx)
        assert want and len(calls) == want


def test_last_step_only_tests_its_kernel_for_zero():
    """The step at i_max computes no kernel vector: over F2 the exterior
    algebra on three generators never terminates, and with i_max 1 its
    one step calls no kernel_basis yet reports that a kernel is left.
    With i_max 2 the first step is not the last and does call it."""
    algebra = load_algebra(exterior_doc(3))
    calls = []
    kernel = koszul.kernel_basis

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with mock.patch.object(koszul, "kernel_basis", counted):
        res = minimal_resolution(algebra, "pt", "F:2", 1)
        assert not calls and not res.finished
        assert list(map(len, res.steps)) == [1, 3]
        res = minimal_resolution(algebra, "pt", "F:2", 2)
        assert calls and not res.finished


def test_dependent_vectors_in_a_block_are_refused():
    """The vectors of a block must be a basis of M there; two multiples
    of one vector cover only one generator."""
    algebra = builtin_algebra("p1")
    fbasis, _ = ref_layout(algebra, [("a", 0)])
    assert fbasis[("b", -1)] == [(0, "u")]
    blocks = {("b", -1): [{0: 1}, {0: 2}]}
    with pytest.raises(RuntimeError, match="cover is not minimal"):
        koszul._advance(algebra, koszul.as_field("Q"), fbasis, blocks, 1)
