"""The library attributes the traced benchmark wraps must exist.

``bench/run.py::_wrap_library`` replaces named module and class attributes
with timing wrappers, looking each one up in its owner's ``__dict__``.  A
refactor that renames or removes one breaks only the traced benchmark, with
a ``KeyError``; this test runs the same installer against a recorder that
only checks each lookup.
"""

import importlib.util
import sys
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
