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
    "KLTable.inverse_kl": "perfbench's tracer wraps it (hecke.inverse_kl)",
    "delta_ic_gr": "perfbench uses it (ROADMAP item 1)",
    "is_dyck_cbs": "perfbench uses it (ROADMAP item 1)",
    "outer_border_strip": "perfbench uses it (ROADMAP item 1)",
    "transpose": "perfbench uses it (ROADMAP item 1)",
    "SkewShape.is_empty": "perfbench uses it (ROADMAP item 1)",
    "wt_from_blocks": "perfbench's tracer wraps it (weights.wt_from_blocks)",
    "_Parser.error": "argparse calls it on a usage error",
}


def _uses(nodes):
    """(names, attributes) that the code inside nodes reads: each name
    in load context, and each attribute x.name in load context. A store,
    such as a local variable named like a method, is no use."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
    return names, attrs


def _library_definitions():
    """(definitions, roots). The definitions are each top-level
    function and class of src/, and each method of such a class, as
    "file:line qualname" -> (qualname, the uses inside it, whether it
    comes with its class: a dunder, which Python calls by itself; a
    property is read as x.name, a use like any other). The roots are
    the uses in module-level code, imports aside, with the strings of
    koszulbench.__all__ added to its names."""
    defs, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used = _uses([node])
                names |= used[0]
                attrs |= used[1]
                if (isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets]
                        == ["__all__"]):
                    names |= set(ast.literal_eval(node.value))
                continue
            where = "%s:%d " % (path.name, node.lineno)
            if isinstance(node, ast.FunctionDef):
                defs[where + node.name] = (node.name, _uses([node]), False)
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            rest = [m for m in node.body if m not in methods]
            defs[where + node.name] = (
                node.name, _uses(rest + node.bases + node.decorator_list),
                False)
            for m in methods:
                implicit = m.name.startswith("__") and m.name.endswith("__")
                defs["%s:%d %s.%s" % (path.name, m.lineno, node.name,
                                      m.name)] = (
                    "%s.%s" % (node.name, m.name), _uses([m]), implicit)
    return defs, (names, attrs)


def _reach(defs, roots, kept):
    """The definitions reached from the roots and the kept qualnames.
    A method is reached when a reached definition, or module-level
    code, reads an attribute of its name; a function or class when one
    reads its name or an attribute of its name. The dunders of a
    reached class come with it."""
    reached = set()
    todo = [d for d, (qual, _, _) in defs.items() if qual in kept]
    names, attrs = set(roots[0]), set(roots[1])
    while todo:
        for d in todo:
            reached.add(d)
            names |= defs[d][1][0]
            attrs |= defs[d][1][1]
        classes = {defs[d][0] for d in reached if "." not in defs[d][0]}
        todo = []
        for d, (qual, _, implicit) in defs.items():
            if d in reached:
                continue
            owner, dot, name = qual.rpartition(".")
            if (name in attrs or not dot and name in names
                    or implicit and owner in classes):
                todo.append(d)
    return reached


def test_every_definition_in_the_library_is_reached():
    """Each top-level function and class in src/, and each method of
    such a class, is used from the public surface: the strings of
    koszulbench.__all__, cli.main, module-level code, or a KEPT entry
    with its reason. Uses match by name, so dead code that shares its
    name with a live attribute is missed, but live code is never
    flagged; a local variable or any other store is no use. The
    private definitions are one case: bookkeeping that only the tests
    call does not stay in the library."""
    defs, roots = _library_definitions()
    assert len(defs) > 100 and "LaurentPoly" in roots[0]
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
