"""No linter is installed, so this stands in for pyflakes' F401: every name
a package module imports is used in that module.  An import statement
marked ``# noqa: F401`` is exempt (the names ``bench/tracer.py`` probes),
and so are names listed in ``__all__``.

It also stands in for a dead-code check: every module-level private name
(one leading underscore) that a package module defines is read by some
package module, as a name, an attribute or an imported name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "noisebound"


def used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, string annotations such as
    ``"CircuitSpec"`` included (a name that is only assigned is not read)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= used_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["line 1: os"]
    assert unused_imports("from a import (b,  # noqa: F401\n    c)\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from a import B\ndef f(x: 'list[B]'): pass\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names with one leading underscore that the module binds
    by ``def``, ``class`` or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [x for x in dict.fromkeys(names) if x.startswith("_") and not x.startswith("__")]


def read_names(tree: ast.AST) -> set[str]:
    """Names the tree reads (:func:`used_names`), attribute names and the
    names it imports from other modules."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private name that no module
    of ``sources`` (module name -> source) reads."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = set().union(*(read_names(t) for t in trees.values()))
    return [f"{m}: {x}" for m, t in trees.items()
            for x in private_definitions(t) if x not in read]


def test_the_check_finds_an_unread_private_name():
    assert unread_private_names({"a": "def _f(): pass\n_X = 1\n"}) == ["a: _f", "a: _X"]
    # read in its own module, through an import or as an attribute
    assert unread_private_names({
        "a": "def _f(): pass\n_X = 1\n_Y = 2\nprint(_f())\n",
        "b": "from .a import _X\nfrom . import a\nprint(a._Y)\n"}) == []
    # a store alone is not a read, and public and dunder names are not checked
    assert unread_private_names({"a": "_X = 1\n_X = 2\nY = 3\n__all__ = []\n"}) == ["a: _X"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []
