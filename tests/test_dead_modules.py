"""No dead modules: every module under ``src/repro`` is imported somewhere.

Imports are read statically with ``ast`` from every Python file of the
source tree, the tests, the jobs, the benchmarks and the perf bench.
``from a.b import c`` counts as an import of ``a.b`` and, should ``c`` be a
module, of ``a.b.c``; importing a module imports its parent packages.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTERS = ("src", "tests", "jobs", "benchmarks", "perfbench")


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
    for d in IMPORTERS:
        for path in (ROOT / d).rglob("*.py"):
            imported |= _imported_by(path) - {modules.get(path)}
    dead = sorted(name for name in modules.values() if name not in imported)
    assert not dead, f"modules nothing imports: {dead}"
