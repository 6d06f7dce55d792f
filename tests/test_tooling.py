import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "koszulbench"


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
