"""Names are sound: every imported name is used (a stdlib-ast scan of the
package and tests), and every name the benchmark's tracer wraps exists."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "bicaut").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    assert len(FILES) > 10
    unused = [u for path in FILES for u in _unused_imports(path)]
    assert unused == []


def test_traced_names_resolve():
    # bench/tracer.py rebinds these by name; a renamed one would crash only
    # the traced benchmark run
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    assert len(wrapped) >= 6
    missing = [
        "%s.%s" % (mod, name)
        for mod, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module("bicaut." + mod), name)
    ]
    assert missing == []
