"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import counts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pqcdiag import (channels, circuits, engine, estimators,  # noqa: E402
                     paulis, reports, rng)

#: outer draws small enough that a run takes about a second
TINY_DRAWS = {"line-deep": 64, "chip-amp-mse": 16, "chip-wide-grad": 2,
              "expr-hs": 8}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: spans each workload's traced call must contain: the layer it stresses
EXPECTED_SPANS = {
    "line-deep": {"engine.run_backward_batch", "engine.HashedTheta.k_for",
                  "rng.hash_words"},
    "chip-amp-mse": {"engine.run_backward_batch", "rng.hash_words"},
    "chip-wide-grad": {"engine.run_backward_batch", "paulis.popcount_words"},
    "expr-hs": {"engine.run_forward_batch", "engine.run_backward_batch",
                "rng.pauli_codes"},
}

#: estimators.self_frac stays below this on every workload (at most 0.04
#: at the tiny sizes on the reference machine)
SELF_FRAC_CEILING = 0.1


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_contract(spec):
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert raw["paths"] == ["bench"]
    assert {w["name"] for w in raw["workloads"]} == set(WORKLOADS)
    assert set(TINY_DRAWS) == set(WORKLOADS) == set(EXPECTED_SPANS)
    names = [m["name"] for m in raw["end_to_end"] + raw["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    for m in raw["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup_s = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert (setup_s["unit"], setup_s["better"]) == ("s", "lower")
    assert setup_s["bound"] == max(m["bound"] for m in raw["end_to_end"])
    for w in raw["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert spec["eps"][w["name"]] > 0.0
    assert set(run.LAYER_KEYS) <= {m["name"] for m in raw["per_layer"]}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, spec):
    wl = dataclasses.replace(WORKLOADS[name], draws=TINY_DRAWS[name])
    result, record = run.run(wl, seed=3, seconds=0.0, trace=trace, spec=spec)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 3
    section = spec["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in section}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        _check_spans(name, record)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["engine.walk_calls"] >= 1 and m["engine.lanes"] >= 1
        assert m["engine.lane_steps"] == sum(
            m[f"engine.{k}_lane_steps"] for k in counts.KINDS)
        assert 0.0 < m["engine.cone_step_frac"] <= 1.0
        # the wrapped layers hold nearly all of a call's time (README)
        assert m["estimators.self_frac"] < SELF_FRAC_CEILING
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1.0
        for k, raw in record["unscaled"].items():
            assert result["metrics"][k]["value"] == pytest.approx(
                raw * record["speed_scale"][k])


def _check_spans(name, record):
    """Spans come only from traced calls, and a threads=1 traced call's spans
    all hang below its root and include the workload's layers."""
    rec = record["recorder"]
    by_id = {s.id: s for s in rec.spans}
    roots = [by_id[c["span"]] for c in record["calls"]
             if c["span"] is not None]
    assert {c["role"] for c in record["calls"] if c["span"] is None} \
        == {"one"}
    # the untraced calls between them left no span behind
    assert all(any(r.start <= s.start and s.end <= r.end for r in roots)
               for s in rec.spans)
    for c in record["calls"]:
        if c["role"] != "traced-one":
            continue
        root = by_id[c["span"]]
        tree = spans.subtree(rec.spans, root.id)
        assert {s.id for s in tree} == {
            s.id for s in rec.spans if root.start <= s.start <= root.end}
        assert EXPECTED_SPANS[name] <= {s.name for s in tree}


def _attributes():
    mods = (engine, estimators, rng, paulis, circuits, reports)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()} | {
        ("HashedTheta", k): v for k, v in vars(engine.HashedTheta).items()}


def test_traced_run_restores_module_attributes(spec):
    before = _attributes()
    wl = dataclasses.replace(WORKLOADS["expr-hs"], draws=8)
    run.run(wl, seed=1, seconds=0.0, trace=True, spec=spec)
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_recorder_parents_self_times_and_threads():
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x + 1
    ns.mid = lambda x: ns.leaf(x) * 2
    originals = (ns.leaf, ns.mid)
    with spans.Recorder() as rec:
        rec.wrap(ns, "leaf", "leaf", lambda a, k, out: out)
        rec.wrap(ns, "mid", "mid")
        with rec.span("root") as root:
            assert ns.mid(1) == 4
        worker = threading.Thread(target=ns.mid, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert ns.leaf is originals[0] and ns.mid is originals[1]
    tree = spans.subtree(rec.spans, root)
    assert [s.name for s in tree] == ["root", "mid", "leaf"]
    by_name = {s.name: s for s in tree}
    assert by_name["mid"].parent == root
    assert by_name["leaf"].parent == by_name["mid"].id
    assert rec.extras[by_name["leaf"].id] == 2
    selfs = spans.self_times(tree)
    assert sum(selfs.values()) == pytest.approx(
        by_name["root"].end - by_name["root"].start, abs=1e-12)
    # the worker thread had its own, empty stack
    thread_mid = [s for s in rec.spans if s.name == "mid" and s not in tree]
    assert len(thread_mid) == 1 and thread_mid[0].parent is None


def test_computed_counts_match_hand_counts():
    line, obs, _ = circuits.gen_line_benchmark(8, 64)
    cones = [counts.cone_steps(line, counts.support_of(w))
             for _, w in obs.terms]
    assert cones == [958, 954]  # XX on (4, 5), then Z on 4
    chip = circuits.gen_grid_chip(10, 10, 1, "cz",
                                  channels.make_depolarizing(0.01))
    assert counts.cone_steps(chip, {50}) == 16
    assert counts.step_counts(chip) == {"rot": 200, "cliff": 135,
                                        "chan": 470, "branch": 0}
    assert counts.cone_step_frac(chip, [frozenset(range(100))]) == 1.0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expr-hs", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
