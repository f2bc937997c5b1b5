"""Every module-level import in src/afm, the demos, the scripts and the
tests is used by its module, and every module-level private name of
src/afm is read somewhere in the package."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "afm"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that nothing in
    the module reads. ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_found():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b, c as d\nx: b = d\n") == []


# the file names are distinct across these directories, so each id is the
# bare name
LINTED = [p for d in (SRC, ROOT / "demos", ROOT / "scripts", ROOT / "tests")
          for p in sorted(d.glob("*.py"))]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private function, class or
    constant (a name with one leading underscore) of the modules in
    ``sources`` that no module reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{module}:{n}" for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return [d for d in defined if d.split(":")[1] not in read]


def test_unread_private_names_found():
    sources = {"a": "_used = 1\n_spare = 2\n__all__ = []\ndef _f(): pass\n",
               "b": "from a import _used\nprint(_used)\n",
               "c": "import a\na._f()\n_g: int = 0\n"}
    assert unread_private_names(sources) == ["a:_spare", "c:_g"]


def test_module_private_names_are_read():
    """A private helper or constant that nothing in src/afm reads is dead
    code: delete it, or use it."""
    assert unread_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
