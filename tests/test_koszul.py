import pytest

from koszulbench import koszul, mult
from koszulbench.koszul import (
    GradedAlgebra,
    builtin_algebra,
    cartan_inverse,
    default_imax,
    ext_table,
    integral_koszul_check,
    is_koszul,
    laurent_matrix_inverse,
    load_algebra,
    minimal_resolution,
)
from koszulbench.laurent import LaurentPoly


def v_poly(*pairs):
    return LaurentPoly.from_pairs(list(pairs))


def test_builtin_names():
    for name in ("dual_numbers", "p1", "x3_truncation", "semisimple",
                 "torsion_p1:3"):
        algebra = builtin_algebra(name)
        assert algebra.name == name or algebra.name.startswith("torsion")
    with pytest.raises(ValueError):
        builtin_algebra("p2")


def test_product_rules():
    A = builtin_algebra("p1")
    assert A.product("e_a", "u") == {"u": 1}
    assert A.product("u", "e_b") == {"u": 1}
    assert A.product("u", "e_a") == {}
    assert A.product("v", "u") == {"vu": 1}
    assert A.product("u", "v") == {}
    assert A.product("vu", "v") == {}
    assert A.product("e_a", "e_a") == {"e_a": 1}
    assert A.product("e_a", "e_b") == {}


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


def test_load_rejects_associativity_failure():
    with pytest.raises(ValueError, match="associativity"):
        GradedAlgebra(
            ["a"],
            [("e", "a", "a", 0), ("x", "a", "a", -1),
             ("y", "a", "a", -2), ("z", "a", "a", -3)],
            {("x", "x"): {"y": 1}, ("x", "y"): {"z": 1}})


def test_load_algebra_from_document():
    doc = {
        "vertices": ["a", "b"],
        "basis": [
            {"name": "u", "src": "a", "tgt": "b", "deg": -1},
            {"name": "v", "src": "b", "tgt": "a", "deg": -1},
            {"name": "vu", "src": "b", "tgt": "b", "deg": -2},
        ],
        "mult": [{"left": "v", "right": "u", "result": {"vu": 1}}],
    }
    algebra = load_algebra(doc)
    assert algebra.idempotent == {"a": "e_a", "b": "e_b"}
    report = is_koszul(algebra, "Q")
    assert report.is_koszul


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
        E = table.euler_matrix()
        Cinv = cartan_inverse(A)
        for i, a in enumerate(A.vertices):
            for j, b in enumerate(A.vertices):
                got = E.get((a, b), LaurentPoly.zero())
                assert got == Cinv[i][j], (name, a, b)


def test_euler_requires_finite_resolution():
    table = ext_table(builtin_algebra("dual_numbers"), "Q")
    with pytest.raises(ValueError):
        table.euler_matrix()


def test_laurent_matrix_inverse():
    one = LaurentPoly.one()
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
    dims = A.graded_dims()
    C = mult.graded_cartan(mult.Space.gr(1, 2))
    lam_empty, lam_box = C.labels
    assert dims[("b", "b")] == C.entry(lam_empty, lam_empty)
    assert dims[("b", "a")] == C.entry(lam_empty, lam_box)
    assert dims[("a", "b")] == C.entry(lam_box, lam_empty)
    assert dims[("a", "a")] == C.entry(lam_box, lam_box)


def test_report_rendering():
    rep = is_koszul(builtin_algebra("x3_truncation"), "Q")
    text = rep.render_text()
    assert "koszul: false" in text and "i = 2" in text
    doc = rep.to_json_dict()
    assert doc["first_violation"] == {"i": 2, "simple": "pt",
                                      "vertex": "pt", "shift": -3}
    rep = integral_koszul_check(builtin_algebra("p1"), 3)
    assert rep.to_json_dict()["verdict"] == "koszul"
