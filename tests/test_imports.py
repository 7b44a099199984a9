"""Names are sound: every imported name is used (a stdlib-ast scan of the
package and tests), every public name of the package has a caller outside
the tests or a stated reason, and every name the benchmark's tracer wraps
exists."""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src" / "bicaut"
SRC = sorted(SRC_DIR.glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))

# public names whose only callers are tests, and why each stays
TEST_ONLY = {
    "are_isomorphic": "oracle reference for the enumeration counts",
    "bar_construction": "criterion 7",
    "is_connected": "plain connectivity walk the generators' tests check against",
}


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


def _assigned(path: Path, name: str):
    """The literal value of a top-level assignment to name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )


def _public_defs_and_uses(path: Path):
    """Public top-level names defined in path, and for each top-level
    statement the names it reads (plain or as an attribute)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs: dict[str, int] = {}
    uses = []
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            targets = []
        defs.update((t, i) for t in targets if not t.startswith("_"))
        uses.append({
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)
        })
    return defs, uses


def test_public_names_have_callers():
    # a public helper only the tests call must say why it stays
    bench = sorted((ROOT / "bench").glob("*.py"))
    scanned = {path: _public_defs_and_uses(path) for path in SRC + bench}
    exported = set(_assigned(ROOT / "src" / "bicaut" / "__init__.py", "__all__"))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entry_points = set(re.findall(r'"bicaut\.\w+:(\w+)"', pyproject))
    wrapped = {n for names in _assigned(ROOT / "bench" / "tracer.py", "WRAPPED").values()
               for n in names}
    uncalled = []
    for path in SRC:
        for name, at in scanned[path][0].items():
            called = any(
                name in used
                for other, (_, uses) in scanned.items()
                for i, used in enumerate(uses)
                if not (other == path and i == at)  # its own body does not count
            )
            if not (called or name in exported | entry_points | wrapped):
                uncalled.append(name)
    assert entry_points == {"main"}
    assert sorted(uncalled) == sorted(TEST_ONLY)


def test_traced_names_resolve():
    # bench/tracer.py rebinds these by name; a renamed one would crash only
    # the traced benchmark run
    wrapped = _assigned(ROOT / "bench" / "tracer.py", "WRAPPED")
    assert len(wrapped) >= 6
    missing = [
        "%s.%s" % (mod, name)
        for mod, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module("bicaut." + mod), name)
    ]
    assert missing == []


def _package_imports(name: str) -> set[str]:
    """The bicaut modules that the module name imports."""
    tree = ast.parse((SRC_DIR / (name + ".py")).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [a.name for a in node.names]
            imported.update("." * node.level + m for m in modules)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    return {
        m.lstrip(".").removeprefix("bicaut.")
        for m in imported
        if m.startswith((".", "bicaut"))
    }


def test_oracle_imports_only_graphs():
    # the oracle checks the engines, so they may share no code with it: it
    # imports only graphs, and no engine module imports it
    assert _package_imports("oracle") == {"graphs"}
    engines = ("graphs", "trees", "groups", "bicyclic", "generate", "realize")
    assert [m for m in engines if "oracle" in _package_imports(m)] == []


def test_generate_shares_no_code_with_the_engine():
    # generate feeds the exhaustive checks of the engines, so it reads
    # only graphs, and no engine module (nor the oracle) imports it
    assert _package_imports("generate") == {"graphs"}
    engines = ("graphs", "trees", "groups", "bicyclic", "oracle")
    assert [m for m in engines if "generate" in _package_imports(m)] == []


def test_engine_builds_normal_forms():
    # the tree and bicyclic engines build normal forms with the groups
    # constructors, so neither imports normalize to walk a result again,
    # and neither names Product: every product comes from direct_product
    for name in ("bicyclic", "trees"):
        tree = ast.parse((SRC_DIR / (name + ".py")).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert "normalize" not in names, name
        assert "Product" not in names, name


def test_decompose_roots_its_tree_on_the_peel_skeleton_reads():
    # decompose peels the graph once: skeleton reads the peel, and the one
    # RootedTree bicyclic builds is that peel's forest
    tree = ast.parse((SRC_DIR / "bicyclic.py").read_text(encoding="utf-8"))
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.setdefault(node.func.id, []).append(ast.unparse(node))
    (dec,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "decompose"
    ]
    (peeled,) = [
        node.targets[0].id for node in ast.walk(dec)
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == "peel_core(g)"
    ]
    assert calls["peel_core"] == ["peel_core(g)"]
    assert calls["skeleton"] == ["skeleton(g, %s)" % peeled]
    assert calls["RootedTree"] == ["RootedTree(%s)" % peeled]


def test_trees_imports_no_adjacency():
    # every RootedTree is a peel's forest, read off the edge list, so the
    # tree engine builds no adjacency list
    tree = ast.parse((SRC_DIR / "trees.py").read_text(encoding="utf-8"))
    names = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    assert "Peel" in names and "adjacency" not in names
