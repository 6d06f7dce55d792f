import ast
import importlib.util
import pathlib

from koszulbench import koszul
from koszulbench.hecke import KLTable

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "koszulbench"


def test_no_assert_in_library():
    """Library invariants raise real exceptions: an assert statement
    vanishes under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_library_does_not_import_fractions():
    """Resolutions run on ints over Q and F_p alike; a Fraction
    anywhere in src/ would bring back the slow rational engine."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name.split(".")[0] == "fractions"]
    assert found == []


def test_library_keeps_no_module_level_state():
    """No module of the library binds a name to a dict, list or set at
    module level (__all__ aside): every memo lives in an object or a
    call, so nothing grows between calls and nothing needs clearing."""
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func,
                                                          ast.Name):
                bad = value.func.id in ("dict", "list", "set")
            else:
                bad = isinstance(value, mutable)
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if bad and names != ["__all__"]:
                found.append("%s:%d %s" % (path.name, node.lineno,
                                           ", ".join(names)))
    assert found == []
    # queries and quotient columns belong to one table, never to the
    # module
    fresh = KLTable(4)
    assert not fresh._queries and not fresh._quotients


# Definitions in src/ that no root of the public surface reaches, each
# with the reason it stays. Item 1 of ROADMAP.md moves the perfbench
# ones out of src/ together with the benchmark that imports them.
KEPT = {
    "LaurentPoly.involute": "README: the bar involution v -> 1/v",
    "LaurentPoly.dominates": "README: support-dominance comparison",
    "KLTable.inverse_kl": "README: inverse polynomials",
    "ExtTable.euler_matrix": "README: the Euler/Cartan inversion identity",
    "GradedAlgebra.product": "README: algebras given by structure constants",
    "delta_ic_gr": "perfbench uses it (ROADMAP item 1)",
    "is_dyck_cbs": "perfbench uses it (ROADMAP item 1)",
    "outer_border_strip": "perfbench uses it (ROADMAP item 1)",
    "transpose": "perfbench uses it (ROADMAP item 1)",
    "SkewShape.is_empty": "perfbench uses it (ROADMAP item 1)",
    "_Parser.error": "argparse calls it on a usage error",
}


def _names(nodes):
    """Every name and attribute spelled anywhere inside nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _library_definitions():
    """(definitions, root names). The definitions are each top-level
    function and class of src/, and each method of such a class, as
    "file:line qualname" -> (qualname, the names it spells, whether it
    comes with its class: a dunder or a property). The roots are the
    names that module-level code spells, imports aside, and the
    strings of koszulbench.__all__."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names([node])
                if "__all__" in _names([node]):
                    roots |= set(ast.literal_eval(node.value))
                continue
            where = "%s:%d " % (path.name, node.lineno)
            if isinstance(node, ast.FunctionDef):
                defs[where + node.name] = (node.name, _names([node]), False)
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            rest = [m for m in node.body if m not in methods]
            defs[where + node.name] = (
                node.name, _names(rest + node.bases + node.decorator_list),
                False)
            for m in methods:
                implicit = (m.name.startswith("__") and m.name.endswith("__")
                            or "property" in _names(m.decorator_list))
                defs["%s:%d %s.%s" % (path.name, m.lineno, node.name,
                                      m.name)] = (
                    "%s.%s" % (node.name, m.name), _names([m]), implicit)
    return defs, roots


def _reach(defs, names, kept):
    """The definitions reached from the root names and the kept
    qualnames: a definition is reached when a reached one, or a root,
    spells its name, and the dunders and properties of a reached class
    come with it."""
    reached = set()
    todo = [d for d, (qual, _, _) in defs.items() if qual in kept]
    names = set(names)
    while todo:
        for d in todo:
            reached.add(d)
            names |= defs[d][1]
        classes = {defs[d][0] for d in reached if "." not in defs[d][0]}
        todo = [d for d, (qual, _, implicit) in defs.items()
                if d not in reached
                and (qual.rpartition(".")[2] in names
                     or implicit and qual.partition(".")[0] in classes)]
    return reached


def test_every_definition_in_the_library_is_reached():
    """Each top-level function and class in src/, and each method of
    such a class, is reached by name from the public surface: the
    strings of koszulbench.__all__, cli.main, module-level code, or a
    KEPT entry with its reason. Names match by spelling, so dead code
    that shares a live name is missed, but live code is never flagged.
    The private definitions are one case: bookkeeping that only the
    tests call does not stay in the library."""
    defs, roots = _library_definitions()
    assert len(defs) > 100 and "LaurentPoly" in roots
    quals = {qual for qual, _, _ in defs.values()}
    assert sorted(k for k in KEPT if k not in quals) == []
    assert all(reason for reason in KEPT.values())
    public = _reach(defs, roots, {"main"})
    everything = _reach(defs, roots, set(KEPT) | {"main"})
    # a KEPT entry that the surface reaches anyway is not needed
    assert sorted(d for d in public if defs[d][0] in KEPT) == []
    assert sorted(set(defs) - everything) == []


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The traced benchmark run wraps library names where they are
    looked up, koszul.kernel_basis among them, and fails on a name the
    library renamed or dropped. Installing and uninstalling the tracer
    checks every name and puts each original back."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = dict(vars(koszul))
    recorder = tracer.Tracer()
    try:
        recorder.install()
        assert vars(koszul) != before
    finally:
        recorder.uninstall()
    assert vars(koszul) == before
