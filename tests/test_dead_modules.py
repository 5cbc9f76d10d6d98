"""No dead code: every module under ``src/repro`` is imported somewhere,
and every public top-level function or class is used by name: in another
file, or in another definition of its own module.

Imports and names are read statically with ``ast`` from every Python file
of the source tree, the tests, the jobs, the benchmarks and the perf bench.
``from a.b import c`` counts as an import of ``a.b`` and, should ``c`` be a
module, of ``a.b.c``; importing a module imports its parent packages. A
name counts as used where it appears as a variable, an attribute or an
imported name; a mention in a docstring or comment does not count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTERS = ("src", "tests", "jobs", "benchmarks", "perfbench")


def _files():
    return [path for d in IMPORTERS for path in (ROOT / d).rglob("*.py")]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_by(path: Path) -> set[str]:
    """Absolute names of the modules ``path`` may import."""
    package = _module_name(path).split(".") if path.is_relative_to(SRC) else []
    if package and path.name != "__init__.py":
        package = package[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            stem = ".".join([*base, *([node.module] if node.module else [])])
            names.add(stem)
            names.update(f"{stem}.{alias.name}" for alias in node.names)
    # Importing a.b.c imports a and a.b.
    return {".".join(n.split(".")[:k]) for n in names for k in range(1, n.count(".") + 2)}


def test_every_module_is_imported():
    modules = {p: _module_name(p) for p in (SRC / "repro").rglob("*.py")}
    imported: set[str] = set()
    for path in _files():
        imported |= _imported_by(path) - {modules.get(path)}
    dead = sorted(name for name in modules.values() if name not in imported)
    assert not dead, f"modules nothing imports: {dead}"


def _names_used(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _files()}
    used = {path: _names_used(tree) for path, tree in trees.items()}
    dead = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        body = trees[path].body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            elsewhere = any(node.name in names for p, names in used.items() if p != path)
            # A result type or helper of its own module's other definitions is used too.
            in_module = any(node.name in _names_used(other) for other in body if other is not node)
            if not (elsewhere or in_module):
                dead.append(f"{_module_name(path)}.{node.name}")
    assert not dead, f"public definitions nothing uses: {dead}"
