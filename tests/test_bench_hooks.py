"""The library names the benchmark harness uses must exist.

``bench/run.py::_wrap_library`` replaces named module and class attributes
with timing wrappers, looking each one up in its owner's ``__dict__``.  A
refactor that renames or removes one breaks only the traced benchmark, with
a ``KeyError``; one test runs the same installer against a recorder that
only checks each lookup.  The other reads ``bench/*.py`` without running
it and resolves every ``pqcdiag`` name the harness imports or reads as
``module.attr``, so a deletion the harness depends on fails here and not
only under ``pytest bench``.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


class _Lookups:
    """Stands in for the span recorder: notes every wrap it is asked for."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, extra=None):
        self.wrapped.append((owner, attr))


def _bench_run():
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_wrapped_attribute_exists():
    from pqcdiag import engine, estimators, rng
    lookups = _Lookups()
    _bench_run()._wrap_library(lookups)
    for owner, attr in lookups.wrapped:
        assert callable(owner.__dict__.get(attr)), (owner, attr)
    assert {(estimators, "run_backward_batch"),
            (estimators, "run_forward_batch"), (estimators, "pauli_codes"),
            (engine, "hash_words"), (engine, "popcount_words"),
            (engine.HashedTheta, "k_for"),
            (rng, "hash_words")} <= set(lookups.wrapped)


def _lookup(module, dotted):
    """The object ``module.dotted`` names, importing submodules on the way;
    AttributeError or ModuleNotFoundError when a name is gone."""
    obj = importlib.import_module(module)
    for attr in dotted.split("."):
        if isinstance(obj, types.ModuleType) and not hasattr(obj, attr):
            importlib.import_module(f"{obj.__name__}.{attr}")
        obj = getattr(obj, attr)
    return obj


def _harness_references():
    """{(module, dotted name)} for each pqcdiag name a ``bench/*.py`` file
    imports, or reads as an attribute chain from an imported module."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {}  # local name -> the pqcdiag module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "pqcdiag":
                for alias in node.names:
                    refs.add((node.module, alias.name))
                    target = _lookup(node.module, alias.name)
                    if isinstance(target, types.ModuleType):
                        modules[alias.asname or alias.name] = target.__name__
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                refs.add((modules[node.id], ".".join(reversed(chain))))
    return refs


def test_every_harness_reference_resolves():
    refs = _harness_references()
    assert ("pqcdiag.engine", "run_backward_batch") in refs
    for module, dotted in sorted(refs):
        _lookup(module, dotted)
