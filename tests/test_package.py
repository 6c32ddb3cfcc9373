"""The package exports only what the package itself reads.

A function or class a module lists in ``__all__`` must be read by some code of
``cbelab``: by its own module outside its ``def``/``class``, or by a module that
imports it with ``from .module import name``.  The package's re-exports in
``__init__`` bind names without reading them, and tests and the benchmark
harness are not part of the package, so none of them count as readers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cbelab"


def _exports(tree: ast.Module) -> set[str]:
    """The top-level functions and classes that ``__all__`` names."""
    listed: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return listed & defined


def _loads(nodes) -> set[str]:
    return {
        node.id
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unread_exports(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    exports = {module: _exports(tree) for module, tree in trees.items()}
    read: set[tuple[str, str]] = set()
    for module, tree in trees.items():
        for name in exports[module]:
            others = [
                node for node in tree.body if getattr(node, "name", None) != name
            ]
            if name in _loads(others):
                read.add((module, name))
        loaded = _loads([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in exports:
                for alias in node.names:
                    if alias.name in exports[node.module] and (alias.asname or alias.name) in loaded:
                        read.add((node.module, alias.name))
    return sorted(
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if (module, name) not in read
    )


def test_every_export_has_a_reader_in_the_package():
    assert unread_exports(SRC) == []


def test_imports_and_recursion_are_not_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "unused"]\n\n\ndef used():\n    pass\n\n\n'
        "def unused():\n    return unused()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used, unused\n\nused()\n")
    assert unread_exports(tmp_path) == ["a.unused"]
