"""No dead code: every module under ``src/repro`` is imported somewhere,
every public top-level function or class is used by name: in another
file, or in another definition of its own module, and every field of a
dataclass is read as an attribute.

Imports and names are read statically with ``ast`` from every Python file
of the source tree, the tests, the jobs, the benchmarks and the perf bench.
``from a.b import c`` counts as an import of ``a.b`` and, should ``c`` be a
module, of ``a.b.c``; importing a module imports its parent packages. A
name counts as used where it appears as a variable, an attribute or an
imported name; a mention in a docstring or comment does not count.

A field name that several dataclasses declare (``Pattern.kleene`` and a
``PatternStats.kleene``, say) counts as read for a class only where the
read's receiver is known to be of that class: ``self`` in its methods, a
parameter or variable annotated with it, a call of it or of a function or
method annotated to return it, a field annotated with it, or an element of
a ``tuple[C, ...]``/``list[C]`` so typed. A field name only one dataclass
declares counts as read wherever it is read.

One field has a single reader on purpose: T_n, the temporally last event
of a sequence (``PatternStats.last_seq_position``), is read only in
``core/cost_model.py``, so the §6.1 latency rule is written once.
"""
import ast
import collections
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(f, "id", getattr(f, "attr", None)) == "dataclass"
        for f in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    )


class _FieldReads(ast.NodeVisitor):
    """``reads[attribute]``: the receiver types of every read of that
    attribute, None where unknown.

    A type is a dataclass of ``src/repro`` (a subclass stands for its
    nearest dataclass base), or ``("of", name)`` for a tuple or list of
    it. It is known for ``self`` in a method, a parameter annotated with
    it, a call of the class, a call of a function or method annotated to
    return it, a read of a field annotated with it, and an element of a
    typed tuple or list, indexed or iterated by ``for``.
    """

    def __init__(self, src_trees):
        # fields[(cls, name)] and returns[(cls or None, name)]: annotations.
        self.bases, self.fields, self.returns = {}, {}, {}
        for tree in src_trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                    for st in node.body:
                        if isinstance(st, ast.FunctionDef):
                            self.returns[node.name, st.name] = st.returns
                        elif _is_dataclass(node) and isinstance(st, ast.AnnAssign):
                            self.fields[node.name, st.target.id] = st.annotation
            for st in tree.body:
                if isinstance(st, ast.FunctionDef):
                    self.returns[None, st.name] = st.returns
        self.classes = {cls for cls, _ in self.fields}
        self.env, self.cls, self.reads = {}, None, collections.defaultdict(set)

    def dataclass(self, name):
        """``name`` or its nearest dataclass base, else None."""
        while name is not None and name not in self.classes:
            name = (self.bases.get(name) or [None])[0]
        return name

    def member(self, cls, name, table):
        """The type annotated for ``cls``'s (or a base's) field or method."""
        while cls is not None and (cls, name) not in table:
            cls = (self.bases.get(cls) or [None])[0]
        return cls and self.annotation(table[cls, name])

    def annotation(self, a):
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            a = ast.parse(a.value, mode="eval").body
        if isinstance(a, ast.Name):
            return self.dataclass(a.id)
        if isinstance(a, ast.BinOp):  # C | None
            return self.annotation(a.left) or self.annotation(a.right)
        if isinstance(a, ast.Subscript):  # tuple[C, ...], list[C]
            t = self.annotation(a.slice.elts[0] if isinstance(a.slice, ast.Tuple) else a.slice)
            return ("of", t) if isinstance(t, str) else None
        return None

    def type_of(self, e):
        if isinstance(e, ast.Name):
            return self.env.get(e.id)
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
            if e.func.id in self.bases:
                return self.dataclass(e.func.id)
            return self.annotation(self.returns.get((None, e.func.id)))
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Attribute):
            owner = getattr(e.func.value, "id", None)
            if owner not in self.bases:
                owner = self.type_of(e.func.value)
            return self.member(owner, e.func.attr, self.returns) if isinstance(owner, str) else None
        if isinstance(e, ast.Attribute):
            cls = self.type_of(e.value)
            return self.member(cls, e.attr, self.fields) if isinstance(cls, str) else None
        if isinstance(e, ast.Subscript):
            seq = self.type_of(e.value)
            return seq[1] if isinstance(seq, tuple) else None
        return None

    def bind(self, target, t):
        for name in (n.id for n in ast.walk(target) if isinstance(n, ast.Name)):
            self.env.pop(name, None)
        if isinstance(target, ast.Name) and t is not None:
            self.env[target.id] = t

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer_env, outer_cls = self.env, self.cls
        self.env = dict(outer_env)
        args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        has_self = self.cls is not None and not decorators & {"staticmethod", "classmethod"}
        for k, a in enumerate(args):
            t = self.dataclass(self.cls) if has_self and k == 0 else self.annotation(a.annotation)
            self.bind(ast.Name(a.arg), t)
        self.cls = None
        for st in node.body:
            self.visit(st)
        self.env, self.cls = outer_env, outer_cls

    def visit_Assign(self, node):
        self.visit(node.value)
        for target in node.targets:
            self.bind(target, self.type_of(node.value))
            self.visit(target)

    def visit_For(self, node):
        self.visit(node.iter)
        seq = self.type_of(node.iter)
        self.bind(node.target, seq[1] if isinstance(seq, tuple) else None)
        for st in node.body + node.orelse:
            self.visit(st)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads[node.attr].add(self.type_of(node.value))
        self.generic_visit(node)


def test_every_dataclass_field_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _files()}
    visitor = _FieldReads(tree for path, tree in trees.items() if path.is_relative_to(SRC))
    for tree in trees.values():
        visitor.visit(tree)
    declared = [f for _, f in visitor.fields]
    dead = sorted(
        f"{cls}.{f}"
        for cls, f in visitor.fields
        if cls not in visitor.reads[f] and not (declared.count(f) == 1 and visitor.reads[f])
    )
    assert not dead, f"dataclass fields nothing reads: {dead}"


def test_last_seq_position_is_read_only_by_the_cost_model():
    readers = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "last_seq_position"
        and isinstance(node.ctx, ast.Load)
    )
    assert set(readers) == {"core/cost_model.py"}, f"T_n is read outside the cost model: {readers}"
