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


def test_every_private_definition_is_used_in_the_library():
    """Each private function or class in src/ (a name with one leading
    underscore) is referenced somewhere in src/ outside its own
    definition: bookkeeping that only the tests call does not stay in
    the library."""
    defined, used = [], set()

    def walk(node, path, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append("%s:%d %s" % (path.name, node.lineno,
                                             node.name))
                inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, path, inside)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path,
             frozenset())
    assert len(defined) > 20
    assert [d for d in defined if d.split()[1] not in used] == []


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
