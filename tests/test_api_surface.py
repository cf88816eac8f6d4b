"""Every module-level function and class of the library, and every private
module-level constant, has a caller, and no library module reaches into
another's private names.

A ``def``, ``class`` or private constant (``_NAME = ...``) at the top of a
module in ``src/pqcdiag`` that nothing in ``src/`` or ``bench/`` names
outside its own definition is code that only tests reach, or that no one
reaches: tests alone are no reason to keep code, so test-only helpers, such
as the reference walks, live in ``tests/reference.py``, and a helper that a
change leaves without a caller goes with it.  A name counts as referenced
when it appears as a whole word anywhere else in those files.

A private name (``_name``, not a dunder) belongs to its module: a library
module that imports one from another module shares a decision with it that
only one of them should own.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "pqcdiag").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "bench").glob("*.py"))

#: test-only names kept on purpose
ALLOWED = set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def definitions(tree: ast.Module):
    """(name, node) of each module-level def and class of ``tree``, dunders
    aside, and of each private name its module-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for name in {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}:
                if _private(name):
                    yield name, node


def unreferenced() -> set:
    """Module-level defs, classes and private constants of the library that
    no line of ``src/`` or ``bench/`` outside their own definition names."""
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in SOURCES}
    out = set()
    for path in LIBRARY:
        for name, node in definitions(ast.parse("\n".join(lines[path]))):
            own = range(node.lineno - 1, node.end_lineno)
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line)
                       for p, text in lines.items()
                       for i, line in enumerate(text)
                       if p != path or i not in own):
                out.add(name)
    return out


def test_public_names_have_a_library_or_bench_reference():
    assert {n for n in unreferenced() if not _private(n)} == ALLOWED


def test_private_names_have_a_library_or_bench_reference():
    assert {n for n in unreferenced() if _private(n)} == ALLOWED


def private_imports() -> set:
    """(module, imported name) of every private name a library module
    imports from another module."""
    out = set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                out |= {(path.stem, alias.name) for alias in node.names
                        if _private(alias.name)}
    return out


def test_no_module_imports_another_modules_private_name():
    assert private_imports() == set()
