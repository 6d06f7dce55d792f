import json
import pathlib
import shlex
import time

import pytest

from koszulbench import cli, mult
from koszulbench.laurent import LaurentPoly

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = sorted((REPO / "docs" / "golden").glob("*.txt"))


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_files_present():
    """One transcript per COMMANDS entry, named by its words."""
    names = {p.stem for p in GOLDEN}
    assert names == {words.replace(" ", "-")
                     for words, _, _, _ in cli.COMMANDS}


def transcript(path):
    """(argv, exit code, stdout) of a docs/golden transcript."""
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0].startswith("$ koszulbench ")
    assert lines[1].startswith("# exit ")
    return (shlex.split(lines[0][len("$ koszulbench "):]),
            int(lines[1].split()[2]), "".join(lines[2:]))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden(path, capsys, monkeypatch):
    argv, want_code, want_out = transcript(path)
    monkeypatch.chdir(REPO)
    code, out, err = run(argv, capsys)
    assert code == want_code
    assert out == want_out
    assert err == ""


# LaurentPoly's ring operations and its division with remainder
RING = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__divmod__")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_commands_need_no_laurent_arithmetic(path, as_json, capsys,
                                                    monkeypatch):
    """Every golden command, as text and with --json, runs with
    LaurentPoly's ring operations patched to raise: the library
    computes on packed ints and builds a LaurentPoly only to print or
    compare a result."""
    argv, want_code, want_out = transcript(path)

    def refuse(*args):
        raise AssertionError("LaurentPoly arithmetic")

    for attr in RING:
        monkeypatch.setattr(LaurentPoly, attr, refuse)
    monkeypatch.chdir(REPO)
    code, out, err = run(argv + ["--json"] * as_json, capsys)
    assert (code, err) == (want_code, "")
    if as_json:
        assert json.loads(out)
    else:
        assert out == want_out


def test_dyck_depth_text(capsys):
    code, out, _ = run(["dyck", "depth", "5,5,5,3,3/2,2"], capsys)
    assert code == 0
    assert out == "dyck: true, depth: 5\n"
    code, out, _ = run(["dyck", "depth", "4,4,4,3"], capsys)
    assert code == 0
    assert out == "dyck: false\n"


def test_dyck_depth_json(capsys):
    code, out, _ = run(["dyck", "depth", "2,2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"shape": "2,2", "is_dyck": True, "depth": 2}


def test_dyck_enumerate_json(capsys):
    code, out, _ = run(["dyck", "enumerate", "--box", "4x4", "--json"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["shapes"] == 618
    assert doc["dyck"] == 112
    assert doc["max_depth"] == 4
    assert doc["depth_counts"] == {"0": 1, "1": 9, "2": 42, "3": 47,
                                   "4": 14}
    assert doc["bound_violations"] == 0


def test_kl_text_and_json(capsys):
    code, out, _ = run(["kl", "--n", "4", "--x", "1234", "--w", "4231"],
                       capsys)
    assert code == 0
    assert out == "P = q + 1\n"
    code, out, _ = run(
        ["kl", "--n", "4", "--x", "1234", "--w", "4231", "--json"], capsys)
    doc = json.loads(out)
    assert doc == {"n": 4, "x": "1234", "w": "4231", "P": {"0": 1, "1": 1}}


def test_kl_invert_check(capsys):
    code, out, _ = run(["kl", "invert-check", "--k", "2", "--n", "5"],
                       capsys)
    assert code == 0
    assert out == "pass\n"
    code, out, _ = run(
        ["kl", "invert-check", "--k", "1", "--n", "4", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"space": "gr(1,4)", "ok": True}


def test_mult_gr_json_schema(capsys):
    code, out, _ = run(
        ["mult", "gr", "--k", "1", "--n", "2", "--tag", "cartan",
         "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["space"] == "gr(1,2)"
    assert doc["tag"] == "cartan"
    assert doc["labels"] == [[], [1]]
    assert doc["entries"] == [[{"0": 1, "-2": 1}, {"-1": 1}],
                              [{"-1": 1}, {"0": 1}]]


@pytest.mark.parametrize("argv,unused", [
    (["mult", "gr", "--k", "2", "--n", "4", "--tag", "cartan"],
     "to_json_dict"),
    (["mult", "gr", "--k", "2", "--n", "4", "--json"], "render_text"),
    (["kl", "invert-check", "--k", "2", "--n", "4"], "to_json_dict"),
    (["kl", "invert-check", "--k", "2", "--n", "4", "--json"],
     "render_text"),
], ids=["mult-text", "mult-json", "invert-check-text",
        "invert-check-json"])
def test_only_the_printed_form_is_built(argv, unused, capsys, monkeypatch):
    def boom(self):
        raise AssertionError("%s built but not printed" % unused)

    for owner in (mult.MultiplicityMatrix, mult.InversionReport):
        monkeypatch.setattr(owner, unused, boom)
    code, out, err = run(argv, capsys)
    assert code == 0 and out and not err


def test_mult_flag_json_labels(capsys):
    code, out, _ = run(
        ["mult", "flag", "--n", "3", "--tag", "delta_ic", "--json"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["123", "132", "213", "231", "312", "321"]
    assert doc["entries"][5][0] == {"-3": 1}


def test_weights_text_and_json(capsys):
    code, out, _ = run(["weights", "--space", "gr:2,5"], capsys)
    assert code == 0
    assert out == "wt = {1,q,q^2}, wr = 3\n"
    code, out, _ = run(["weights", "--space", "flag(3)", "--json"], capsys)
    doc = json.loads(out)
    assert doc == {"space": "flag(3)", "wt": [0, 1, 2, 3], "wr": 4}


def test_primes_statuses(capsys):
    code, out, _ = run(["primes", "--l", "5", "--wt", "0,1,2"], capsys)
    assert code == 0
    assert out == "p = 2\n"
    code, out, _ = run(["primes", "--l", "2", "--wt", "0,1"], capsys)
    assert code == 0
    assert out == "no separating prime exists\n"
    code, out, _ = run(
        ["primes", "--l", "5", "--wt", "0,1,2", "--bound", "1", "--json"],
        capsys)
    assert code == 0
    assert json.loads(out) == {"status": "bound_too_small"}
    # 2 = l is skipped, and 3 separates
    code, out, _ = run(["primes", "--l", "2", "--wt", "0"], capsys)
    assert (code, out) == (0, "p = 3\n")
    # residues mod 6 differ, but 2 = 2^3 mod 7 fails and the bound is 2
    argv = ["primes", "--l", "7", "--wt", "0,1,2,3", "--bound", "2"]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (0, "no separating prime up to the bound "
                              "(raise it)\n")
    code, out, _ = run(argv + ["--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"status": "bound_too_small"}


def test_phidec_exit_codes(tmp_path, capsys):
    good = tmp_path / "diag.json"
    good.write_text(json.dumps([[1, 0], [0, 3]]))
    code, out, _ = run(
        ["phidec", "--matrix", str(good), "--q", "3", "--l", "5"], capsys)
    assert code == 0
    assert "decomposable" in out and "NOT" not in out
    bad = tmp_path / "witness.json"
    bad.write_text(json.dumps([[1, 1], [0, 4]]))
    code, out, _ = run(
        ["phidec", "--matrix", str(bad), "--q", "4", "--l", "3", "--json"],
        capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["decomposable"] is False
    assert doc["index"] == 3
    inapplicable = tmp_path / "inapp.json"
    inapplicable.write_text(json.dumps([[2, 0], [0, 3]]))
    code, out, _ = run(
        ["phidec", "--matrix", str(inapplicable), "--q", "3", "--l", "5"],
        capsys)
    assert code == 2
    assert "not applicable" in out


def test_phidec_q_below_one_exits_one(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps([[1, 0], [0, 4]]))
    code, out, err = run(
        ["phidec", "--matrix", str(path), "--q", "-2", "--l", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: q must be a positive integer\n"


def test_koszul_exit_codes(capsys):
    code, out, _ = run(
        ["koszul", "--builtin", "p1", "--field", "Q"], capsys)
    assert code == 0
    assert out == "koszul: true (algebra p1 over Q, checked up to i = 8)\n"
    code, out, _ = run(
        ["koszul", "--builtin", "x3_truncation", "--field", "F:3",
         "--json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["koszul"] is False
    assert doc["first_violation"]["i"] == 2


def test_koszul_algebra_file(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run(
        ["koszul", "--algebra", "docs/examples/algebra_p1.json",
         "--field", "F:2"], capsys)
    assert code == 0
    assert out.startswith("koszul: true")


def test_algebra_file_over_a_limit_exits_one(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"vertices": ["v%d" % i for i in range(65)]}))
    code, out, err = run(["koszul", "--algebra", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: 'vertices' has 65 entries, more than the "
                   "limit of 64\n")


def test_koszul_integral(capsys):
    code, out, _ = run(["koszul", "integral", "--builtin", "p1",
                        "--l", "7"], capsys)
    assert code == 0
    assert out == "ext dimensions match over Q and F7; koszul: true\n"
    code, out, _ = run(["koszul", "integral", "--builtin", "torsion_p1:3",
                        "--l", "3", "--json"], capsys)
    assert code == 2
    assert json.loads(out)["verdict"] == "inapplicable"


def test_koszul_integral_text_when_dimensions_differ(capsys):
    code, out, _ = run(["koszul", "integral", "--builtin", "torsion_p1:3",
                        "--l", "3"], capsys)
    assert code == 2
    assert out == ("ext dimensions differ between Q and F3: Ext is not "
                   "free over the integral form, verdict inapplicable\n")


def test_bad_inputs_exit_one(capsys):
    for argv in (
        ["dyck", "depth", "1,2,3"],
        ["dyck", "enumerate", "--box", "20x20"],
        ["kl", "--n", "4", "--x", "1234", "--w", "1253"],
        ["weights", "--space", "gr:0,3"],
        ["primes", "--l", "6", "--wt", "0,1"],
        ["phidec", "--matrix", "/no/such/file.json", "--q", "3",
         "--l", "5"],
        ["koszul", "--builtin", "p2", "--field", "Q"],
        ["nonsense"],
        [],
    ):
        code, out, err = run(argv, capsys)
        assert code == 1, argv
        assert err != "", argv


# 2**61 - 1 is prime; trial division up to its square root would run
# for hours, so the 2**31 limit must reject it before dividing.
HUGE_PRIME = str(2 ** 61 - 1)


@pytest.mark.parametrize("argv", [
    ["koszul", "--builtin", "p1", "--field", "F:" + HUGE_PRIME],
    ["primes", "--l", HUGE_PRIME, "--wt", "0,1"],
    ["phidec", "--matrix", str(REPO / "docs" / "examples" /
                               "phidec_matrix.json"),
     "--q", "4", "--l", HUGE_PRIME],
], ids=["koszul-field", "primes-l", "phidec-l"])
def test_prime_above_limit_exits_one_at_once(argv, capsys):
    start = time.monotonic()
    code, out, err = run(argv, capsys)
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert "below 2^31" in err


@pytest.mark.parametrize("box", ["11x11", "7x15"])
def test_box_past_100_cells_scans_at_once(box, capsys):
    """Only the 1..15 bound on each side limits a box; a box of more
    than 100 cells scans in well under a second."""
    start = time.monotonic()
    code, out, _ = run(["dyck", "enumerate", "--box", box], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert out.startswith("box: %s\n" % box)
    assert "bound_violations: 0\n" in out


@pytest.mark.parametrize("box,depth", [("10x10", 10), ("6x15", 6)])
def test_box_at_cell_limit_scans(box, depth, capsys):
    start = time.monotonic()
    code, out, _ = run(["dyck", "enumerate", "--box", box, "--json"],
                       capsys)
    assert time.monotonic() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["max_depth"] == depth
    assert doc["bound_violations"] == 0
    assert sorted(doc["depth_counts"], key=int) == [
        str(d) for d in range(depth + 1)]


@pytest.mark.parametrize("argv", [
    ["koszul", "--builtin", "p1", "--field", "Q", "--imax", "-3"],
    ["koszul", "--builtin", "torsion_p1:3", "--field", "Q",
     "--imax", "100000000"],
    ["koszul", "integral", "--builtin", "p1", "--l", "5", "--imax", "0"],
    ["koszul", "integral", "--builtin", "torsion_p1:3", "--l", "3",
     "--imax", "33"],
], ids=["koszul-below-1", "koszul-above-cap", "integral-below-1",
        "integral-above-cap"])
def test_imax_out_of_range_exits_one_at_once(argv, capsys):
    start = time.monotonic()
    code, out, err = run(argv, capsys)
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert "--imax must lie in 1..32" in err


def test_imax_bounds_are_accepted(capsys):
    for imax in (1, 32):
        code, out, _ = run(["koszul", "--builtin", "p1", "--field", "Q",
                            "--imax", str(imax)], capsys)
        assert code == 0
        assert out == ("koszul: true (algebra p1 over Q, checked up to "
                       "i = %d)\n" % imax)


# A dual-number loop at a resolves forever; the loop z at b is so deep
# that the uncapped default cutoff, 2 * (2 + 10^9), would run for days.
DEEP_LOOP = {"vertices": ["a", "b"],
             "basis": [{"name": "x", "src": "a", "tgt": "a", "deg": -1},
                       {"name": "z", "src": "b", "tgt": "b",
                        "deg": -10 ** 9}]}


@pytest.mark.parametrize("argv", [
    ["koszul", "--field", "F:2", "--json"],
    ["koszul", "integral", "--l", "2", "--json"],
], ids=["koszul", "integral"])
def test_default_imax_is_capped(argv, capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(DEEP_LOOP))
    start = time.monotonic()
    code, out, err = run(argv + ["--algebra", str(path)], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 2 and err == ""
    if argv[1] != "integral":
        assert json.loads(out)["i_max"] == 32


def loop_algebra(coeff):
    return {"vertices": ["a"],
            "basis": [{"name": "x", "src": "a", "tgt": "a", "deg": -1},
                      {"name": "w", "src": "a", "tgt": "a", "deg": -2}],
            "mult": [{"left": "x", "right": "x", "result": {"w": coeff}}]}


# Each document holds one number that is not a JSON integer; int()
# would truncate it (0.5 to 0 drops the product x * x) instead.
NOT_INTEGERS = {
    "float-degree": (["koszul"], {"vertices": ["a"], "basis": [
        {"name": "x", "src": "a", "tgt": "a", "deg": -1.9}]},
        "degree that is not an integer"),
    "float-coefficient": (["koszul"], loop_algebra(0.5),
                          "coefficient that is not an integer"),
    "bool-coefficient": (["koszul"], loop_algebra(True),
                         "coefficient that is not an integer"),
    "float-matrix-entry": (["phidec", "--q", "3", "--l", "5"],
                           [[1, 0], [0.5, 3]],
                           "row 1 has an entry that is not an integer"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_non_integer_numbers_exit_one(case, capsys, tmp_path):
    argv, doc, reason = NOT_INTEGERS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    option = "--matrix" if argv[0] == "phidec" else "--algebra"
    code, out, err = run(argv + [option, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err


# Each command is malformed; its error line must hold the given text. A
# document goes to --matrix.
MALFORMED = {
    "primes-empty-pieces": (["primes", "--l", "5", "--wt", "0,,1,"], None,
                            "cannot parse weight list '0,,1,'"),
    "primes-leading-comma": (["primes", "--l", "5", "--wt", ",0"], None,
                             "cannot parse weight list ',0'"),
    "primes-empty-list": (["primes", "--l", "5", "--wt", ""], None,
                          "cannot parse weight list ''"),
    "box-3by4": (["dyck", "enumerate", "--box", "3by4"], None,
                 "cannot parse box '3by4'; expected KxM"),
    # int() reads 1_0 as 10 and non-ASCII decimal digits as digits
    "box-underscore": (["dyck", "enumerate", "--box", "3x1_0"], None,
                       "cannot parse box '3x1_0'; expected KxM"),
    "depth-underscore": (["dyck", "depth", "1_0/1"], None,
                         "cannot parse partition '1_0'"),
    "depth-negative": (["dyck", "depth", "-1"], None, "negative part -1"),
    "primes-underscore": (["primes", "--l", "5", "--wt", "0,1_0"], None,
                          "cannot parse weight list '0,1_0'"),
    "primes-arabic-indic": (["primes", "--l", "5", "--wt", "\u0660,\u0661"],
                            None, "cannot parse weight list '\u0660,\u0661'"),
    "weights-underscore": (["weights", "--space", "gr:2,1_0"], None,
                           "cannot parse space 'gr:2,1_0'"),
    "weights-arabic-indic": (["weights", "--space", "gr:\u0662,4"], None,
                             "cannot parse space 'gr:\u0662,4'"),
    "kl-letter": (["kl", "--n", "4", "--x", "12a4", "--w", "4321"], None,
                  "cannot parse permutation '12a4'"),
    "kl-empty-piece": (["kl", "--n", "4", "--x", "1,2,,3", "--w", "4321"],
                       None, "cannot parse permutation '1,2,,3'"),
    "kl-arabic-indic": (["kl", "--n", "4", "--x", "\u0661\u0662\u0663\u0664",
                         "--w", "4321"], None, "cannot parse permutation "
                        "'\u0661\u0662\u0663\u0664'"),
    "koszul-both-sources": (["koszul", "--builtin", "p1", "--algebra",
                             "algebra.json"], None,
                            "give either --algebra or --builtin, not both"),
    "koszul-no-source": (["koszul"], None,
                         "one of --algebra or --builtin is required"),
    "builtin-p1:7": (["koszul", "--builtin", "p1:7"], None,
                     "unknown builtin algebra 'p1:7'"),
    "builtin-dual_numbers:zzz": (["koszul", "--builtin", "dual_numbers:zzz"],
                                 None, "'dual_numbers:zzz'"),
    "builtin-torsion_p1:abc": (["koszul", "--builtin", "torsion_p1:abc"],
                               None, "'torsion_p1:abc' needs a torsion "
                               "constant of decimal digits"),
    "field-F::5": (["koszul", "--builtin", "p1", "--field", "F::5"], None,
                   "cannot interpret field 'F::5'"),
    "phidec-object": (["phidec", "--q", "3", "--l", "5"], {},
                      "matrix file must hold a JSON array of rows"),
    "phidec-flat-list": (["phidec", "--q", "3", "--l", "5"], [1, 2],
                         "matrix file must hold a JSON array of rows"),
    "phidec-ragged": (["phidec", "--q", "3", "--l", "5"], [[1, 0], [0]],
                      "matrix is not square"),
    # past Python's own 4,300-digit limit on int(str)
    "builtin-torsion_p1-4400-digits": (
        ["koszul", "--builtin", "torsion_p1:" + "7" * 4400], None,
        "builtin algebra 'torsion_p1' needs a torsion constant below 2^31"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_commands_exit_one(case, capsys, tmp_path):
    argv, doc, reason = MALFORMED[case]
    if doc is not None:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--matrix", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err


# Each document names a basis element, a vertex or a factor by a list,
# which is unhashable; the error names the record instead.
LIST_NAMES = {
    "name": {"vertices": ["a"], "basis": [
        {"name": ["x"], "src": "a", "tgt": "a", "deg": -1}]},
    "src": {"vertices": ["a"], "basis": [
        {"name": "x", "src": ["a"], "tgt": "a", "deg": -1}]},
    "left": dict(loop_algebra(1), mult=[
        {"left": ["x"], "right": "x", "result": {"w": 1}}]),
}


@pytest.mark.parametrize("case", sorted(LIST_NAMES))
def test_list_names_exit_one(case, capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(LIST_NAMES[case]))
    code, out, err = run(["koszul", "--algebra", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "not a string" in err
    assert "Traceback" not in err


# One vertex, two degree -1 loops and no products: the resolution is
# Koszul and step i has 2^i summands of 3 basis vectors each.
TWO_LOOPS = {"vertices": ["pt"],
             "basis": [{"name": name, "src": "pt", "tgt": "pt", "deg": -1}
                       for name in ("x", "y")]}


def test_resolution_above_free_rank_limit_exits_one(tmp_path, capsys):
    """Step 11 of the two-loop algebra would need 6,144 basis vectors;
    the refusal counts 4,098, the first multiple of 3 past 4,096."""
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps(TWO_LOOPS))
    for field in ("Q", "F:3"):
        start = time.monotonic()
        code, out, err = run(["koszul", "--algebra", str(path),
                              "--field", field, "--imax", "32"], capsys)
        assert time.monotonic() - start < 10.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: step 11 of the resolution needs a "
                              "free module with at least 4098 basis vectors")
        assert err.endswith("the limit is 4096\n")
        assert err.count("\n") == 1


def test_non_koszul_verdict_comes_before_the_free_rank_limit(capsys):
    """torsion_p1:3 over F3 doubles per step and its step 19 passes the
    limit, but `koszul` stops at the violation at step 1, while
    `koszul integral` needs every step and still exits 1."""
    code, out, err = run(["koszul", "--builtin", "torsion_p1:3",
                          "--field", "F:3", "--imax", "32"], capsys)
    assert (code, err) == (2, "")
    assert out == ("koszul: false (algebra torsion_p1:3 over F3, first "
                   "violation at i = 1 resolving a: summand (a, -2))\n")
    start = time.monotonic()
    code, out, err = run(["koszul", "integral", "--builtin", "torsion_p1:3",
                          "--l", "3", "--imax", "32"], capsys)
    assert time.monotonic() - start < 10.0
    assert code == 1
    assert out == ""
    assert err == ("error: step 19 of the resolution needs a free module "
                   "with at least 4098 basis vectors; the limit is 4096\n")


def arrows(prefix, count, src, tgt):
    return [{"name": "%s%d" % (prefix, i), "src": src, "tgt": tgt,
             "deg": -1} for i in range(count)]


# Step 1 of the resolution of the simple module at a has 50 copies of
# P_a (1 + 50 + 17 basis vectors) and 17 of P_b (1 + 40): 4,097 in all.
STEP_4097 = {"vertices": ["a", "b"],
             "basis": (arrows("x", 50, "a", "a") + arrows("u", 17, "a", "b")
                       + arrows("y", 40, "b", "b"))}

# One case per row of the limits table in docs/cli.md, each the first
# value past its limit; a document goes to --algebra, or to --matrix for
# phidec. An algebra document over a record or term limit is refused
# before any record is read, so its records need not be valid.
PAST_LIMITS = {
    "box-16x1": (["dyck", "enumerate", "--box", "16x1"], None, "15x15"),
    "box-1x16": (["dyck", "enumerate", "--box", "1x16"], None, "15x15"),
    "dyck-rows-2049": (["dyck", "depth", ",".join(["2049"] * 2049)], None,
                       "2049 rows, more than the limit of 2048"),
    "imax-33": (["koszul", "--builtin", "p1", "--imax", "33"], None,
                "1..32"),
    "step-4097": (["koszul", "--field", "Q"], STEP_4097,
                  "4097 basis vectors; the limit is 4096"),
    "prime-2^31": (["primes", "--l", str(2 ** 31), "--wt", "0,1"], None,
                   "below 2^31"),
    "torsion-2^31": (["koszul", "--builtin", "torsion_p1:%d" % 2 ** 31],
                     None, "torsion constant below 2^31"),
    "mult-flag-6": (["mult", "flag", "--n", "6"], None, "n <= 5"),
    "mult-gr-11": (["mult", "gr", "--k", "1", "--n", "11"], None,
                   "n <= 10"),
    "weights-flag-6": (["weights", "--space", "flag:6"], None, "n <= 5"),
    "weights-gr-11": (["weights", "--space", "gr:1,11"], None, "n <= 10"),
    "kl-rank-10": (["kl", "--n", "10", "--x", "1,2,3,4,5,6,7,8,9,10",
                    "--w", "2,1,3,4,5,6,7,8,9,10"], None, "limit 9"),
    "invert-check-11": (["kl", "invert-check", "--k", "1", "--n", "11"],
                        None, "n <= 10"),
    "vertices-65": (["koszul"], {"vertices": ["v%d" % i for i in range(65)]},
                    "limit of 64"),
    "basis-129": (["koszul"], {"vertices": ["v"], "basis": [{}] * 129},
                  "limit of 128"),
    "mult-513": (["koszul"], {"vertices": ["v"], "mult": [{}] * 513},
                 "limit of 512"),
    "terms-2049": (["koszul"], {"vertices": ["v"], "mult": [
        {"left": "x", "right": "x",
         "result": {"t%d" % i: 1 for i in range(2049)}}]},
        "2049 result terms, more than the limit of 2048"),
    "phidec-rows-17": (["phidec", "--q", "2", "--l", "3"],
                       [[int(i == j) for j in range(17)] for i in range(17)],
                       "17 rows, more than the limit of 16"),
    "phidec-entry-2^31": (["phidec", "--q", "2", "--l", "3"],
                          [[1, 2 ** 31], [0, 1]], "between -2^31 and 2^31"),
}


@pytest.mark.parametrize("case", sorted(PAST_LIMITS))
def test_first_value_past_each_limit_exits_one_at_once(case, capsys,
                                                       tmp_path):
    argv, doc, reason = PAST_LIMITS[case]
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        option = "--matrix" if argv[0] == "phidec" else "--algebra"
        argv = argv + [option, str(path)]
    start = time.monotonic()
    code, out, err = run(argv, capsys)
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err


@pytest.mark.parametrize("exc", [MemoryError(), RecursionError(
    "maximum recursion depth exceeded")], ids=["memory", "recursion"])
def test_resource_errors_exit_one_without_traceback(exc, capsys,
                                                    monkeypatch):
    def boom(argv):
        raise exc
    monkeypatch.setattr(cli, "_dispatch", boom)
    code, out, err = run(["dyck", "enumerate", "--box", "2x2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_subcommand_prints_usage(capsys):
    """No entry's words start argv, a bare prefix of two-word entries
    included: the usage text lists every entry of the table."""
    for argv in ([], ["dyck"], ["mult"], ["frobnicate"]):
        code, out, err = run(argv, capsys)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("usage: koszulbench"), argv
        for words, synopsis, _, _ in cli.COMMANDS:
            assert "  %s %s" % (words, synopsis) in err, argv


# argparse reports each through _Parser.error: every entry's required
# arguments left out (koszul has none; its source is checked after
# parsing), an unknown option on every entry, and an --n that is no int.
USAGE_ERRORS = ([(words, []) for words, *_ in cli.COMMANDS
                 if words != "koszul"]
                + [(words, ["--frob"]) for words, *_ in cli.COMMANDS]
                + [("kl", ["--n", "x", "--x", "21", "--w", "12"])])


@pytest.mark.parametrize("words, args", USAGE_ERRORS,
                         ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_usage_errors_exit_one(words, args, capsys):
    code, out, err = run(words.split() + args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("koszulbench %s: error: " % words), err
    assert err.count("\n") == 1


def test_json_determinism(capsys):
    argv = ["mult", "gr", "--k", "2", "--n", "4", "--tag", "cartan",
            "--json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
