"""Every public module-level function and class of the library has a caller,
and no library module reaches into another's private names.

A public ``def`` or ``class`` in ``src/pqcdiag`` that nothing in ``src/``
or ``bench/`` names outside its own definition is API that only tests
reach, and tests alone are no reason to keep code: test-only helpers, such
as the reference walks, live in ``tests/reference.py``.  A name counts as
referenced when it appears as a whole word anywhere else in those files.

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


def unreferenced() -> set:
    """Public module-level defs and classes of the library that no line of
    ``src/`` or ``bench/`` outside their own definition names."""
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in SOURCES}
    out = set()
    for path in LIBRARY:
        for node in ast.parse("\n".join(lines[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            own = range(node.lineno - 1, node.end_lineno)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for p, text in lines.items()
                       for i, line in enumerate(text)
                       if p != path or i not in own):
                out.add(node.name)
    return out


def test_public_names_have_a_library_or_bench_reference():
    assert unreferenced() == ALLOWED


def private_imports() -> set:
    """(module, imported name) of every private name a library module
    imports from another module."""
    out = set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                out |= {(path.stem, alias.name) for alias in node.names
                        if alias.name.startswith("_")
                        and not alias.name.endswith("__")}
    return out


def test_no_module_imports_another_modules_private_name():
    assert private_imports() == set()
