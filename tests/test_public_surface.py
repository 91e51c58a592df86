"""Every name a ``src/qla`` module exports is used by the package, a demo or the benchmark.

A public function that only the tests call is a second route to something
the commands already compute, and it drifts from what they report.  This
test reads the sources with :mod:`ast` and asserts that each name in a
module's ``__all__`` is referenced (a name, an attribute or an import)
somewhere in ``src/qla``, ``demos/`` or ``bench/``.  Neither the ``__all__``
entry nor a reference inside the name's own definition (a recursive call)
counts.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qla"
USERS = [PACKAGE, ROOT / "demos", ROOT / "bench"]

# Exported on purpose although nothing in the package calls it.
ALLOWED = {
    "structure_from_dict": "the README documents it as the reader of `qla report --format json`",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _references(tree: ast.Module) -> set[str]:
    """Names referenced in ``tree``, except those inside their own top-level definition."""
    found: set[str] = set()

    def walk(node: ast.AST, own: str | None) -> None:
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name.rpartition(".")[2])
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        walk(node, own)
    return found


def _trees(folder: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(folder.rglob("*.py"))}


def _surface() -> tuple[list[tuple[str, str]], set[str]]:
    """``(module, name)`` for each exported name, and every referenced name."""
    trees = {path: tree for folder in USERS for path, tree in _trees(folder).items()}
    exported = [
        (path.relative_to(ROOT).as_posix(), name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _exports(tree)
    ]
    return exported, set().union(*(_references(tree) for tree in trees.values()))


def test_every_exported_name_is_used_outside_the_tests():
    exported, referenced = _surface()
    assert exported, "no module of src/qla declares __all__"
    unused = [
        f"{module}: {name}"
        for module, name in exported
        if name not in referenced and name not in ALLOWED
    ]
    assert unused == []


def test_allowed_names_are_exported_and_unused():
    exported, referenced = _surface()
    assert set(ALLOWED) <= {name for _, name in exported}
    assert set(ALLOWED).isdisjoint(referenced)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every command pays for what `import qla.cli` loads; `dataclasses` pulls in
    # `inspect`, `ast`, `dis` and `tokenize`.  `-S` keeps a site `.pth` from loading them.
    code = "import sys, qla.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"
