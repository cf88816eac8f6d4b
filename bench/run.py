"""Benchmark runner: one seeded workload, end-to-end or traced.

Usage (from the repository root)::

    python3 bench/run.py --workload line-deep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: the workload's fixed
estimator call is made with threads=1 and then threads=nproc at the same
seed, and after that alternately with nproc and 1 threads at fresh seeds
derived from ``--seed``, until ``--seconds`` are spent; times are scaled to
the reference machine's speed (see SpeedProbe).  ``--trace 1`` prints the
per-layer metrics from a separate run that alternates untraced and traced
threads=1 calls, after one traced threaded call; the library's public
functions are wrapped (see spans.py) for the traced calls only.

Every estimator call is checked: its digest must not depend on the thread
count or on tracing, its stderr must be finite and positive, and an
untimed small instance of the workload's family must agree with the oracle.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(provenance, every sample and digest) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Recorder, self_times, subtree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up is repeated this many times per run and reported as a median
SETUP_REPEATS = 7

#: seconds the fastest speed-probe kernel of a run takes on the reference
#: machine (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4; 14-16 ms); end-to-end
#: times are scaled to it
KERNEL_REF_S = 0.0145

#: per-layer metrics the traced run computes (units come from BENCHMARK.json)
LAYER_KEYS = ("engine.walk_s", "engine.walk_calls", "engine.lanes",
              "engine.lane_steps", "engine.rot_lane_steps",
              "engine.cliff_lane_steps", "engine.chan_lane_steps",
              "engine.branch_lane_steps", "engine.lane_steps_per_s",
              "engine.theta_s", "engine.forward_s", "engine.nonzero_frac",
              "rng.hash_s", "rng.hash_calls", "rng.hashed_words",
              "rng.sigma_s", "paulis.popcount_s", "estimators.self_s",
              "estimators.self_frac", "estimators.walks_per_draw")

WALK_SPANS = ("engine.run_backward_batch", "engine.run_forward_batch")

# The library, and the sibling modules that import it, are imported inside
# functions, after _load_library has checked for ``src`` and added it.


def _load_library():
    """Put ``src`` on the path; refuse to run without the library sources."""
    if not (ROOT / "src" / "pqcdiag" / "__init__.py").is_file():
        sys.exit(f"bench: no library sources under {ROOT / 'src'}; run from "
                 "a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    """BENCHMARK.json: metric names and units, and each workload's eps,
    stated as ``eps=<value>`` at the end of its ``why``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["eps"] = {w["name"]: float(re.search(r"eps=(\S+)$", w["why"])[1])
                   for w in spec["workloads"]}
    return spec


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def call_seed(seed: int, i: int) -> int:
    """The i-th distinct estimator seed of a run."""
    return seed * 1_000_003 + i


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": nproc(), "cpu": cpu,
            "seed": seed}


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Times a fixed kernel between estimator calls to track machine speed.

    On a shared host the same call can take 1.3 to 2 times as long ten
    minutes later.  The kernel (numpy word mixing on 16384 lanes plus an
    interpreted loop, the two kinds of work the walk engine does) is sampled
    around every call, and end-to-end times are scaled by
    ``KERNEL_REF_S / min(samples)``: seconds at the reference machine's
    speed.  Like the calls, the probe is read at its fastest, because a
    momentary neighbour slows single samples (over ten ``chip-amp-mse``
    runs the median sample spread 0.26 (IQR/median), the fastest 0.07).
    The kernel is the benchmark's own code, so no library change can move
    it; the unscaled times are kept in the run record.
    """

    def __init__(self):
        self._words = np.random.default_rng(0).integers(
            0, 1 << 63, size=16384, dtype=np.uint64)
        self.samples: list = []

    def _kernel(self) -> int:
        a = self._words
        with np.errstate(over="ignore"):
            for _ in range(80):
                a = (a ^ (a >> np.uint64(29))) * np.uint64(0xBF58476D1CE4E5B9)
                (a & np.uint64(3)).astype(np.int64)
        acc = 0
        for i in range(200_000):
            acc += i * i
        return acc

    def sample(self, reps: int = 3) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return KERNEL_REF_S / min(self.samples)


# ---------------------------------------------------------------------------
# set-up and correctness
# ---------------------------------------------------------------------------

def one_lane_walk(case, directions, seed: int) -> None:
    """Walk one lane through every program the estimator uses."""
    from pqcdiag import engine
    from pqcdiag.paulis import PauliString
    c = case.circuit
    word = case.obs.terms[0][1] if case.obs is not None \
        else PauliString.single(c.n, 0, 3)
    x0, z0 = engine.words_for_paulis([word], c.n)
    theta = engine.HashedTheta(seed, np.zeros(1, dtype=np.uint64))
    sids = np.zeros(1, dtype=np.uint64)
    for d in directions:
        if d == "backward":
            engine.run_backward_batch(c, case.state, x0, z0, theta, seed=seed,
                                      stream_ids=sids)
        else:
            engine.run_forward_batch(c, x0, z0, theta, seed=seed,
                                     stream_ids=sids)


def setup(wl, seed: int, probe: SpeedProbe):
    """Generate the circuit and walk it once, SETUP_REPEATS times afresh.

    Returns the last case and the per-repeat (setup, gen, compile) times,
    compile being the first walk minus the faster of two warm walks of the
    same size.
    """
    samples = []
    case = None
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        case = wl.build()
        t1 = time.perf_counter()
        one_lane_walk(case, wl.directions, seed)
        t2 = time.perf_counter()
        warm = []
        for _ in range(2):
            t3 = time.perf_counter()
            one_lane_walk(case, wl.directions, seed)
            warm.append(time.perf_counter() - t3)
        samples.append({"setup_s": t2 - t0, "gen_s": t1 - t0,
                        "compile_s": (t2 - t1) - min(warm)})
    return case, samples


def digest_of(report):
    """(digest, seconds spent serialising and hashing the report)."""
    from pqcdiag.reports import payload_digest
    t0 = time.perf_counter()
    d = payload_digest(report.to_json_dict())
    return d, time.perf_counter() - t0


class Ledger:
    """Counts estimator calls and the calls that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def call(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"call": label, "problems": problems})

    @property
    def failed(self) -> int:
        return len(self.failures)


@contextlib.contextmanager
def tracing(rec):
    """Install the span wrappers, record the enclosed call as the root span
    ``estimators.call`` (yielding its id), then remove every wrapper."""
    _wrap_library(rec)
    try:
        with rec.span("estimators.call") as root:
            yield root
    finally:
        rec.restore()


def timed_call(wl, case, seed: int, threads: int, role: str, rec=None):
    """One estimator call; with a recorder it is traced, and untraced (the
    library's own functions, unwrapped) without one."""
    traced = tracing(rec) if rec is not None else contextlib.nullcontext()
    with traced as root:
        t0 = time.perf_counter()
        report = wl.call(case, seed, threads, wl.draws)
        wall = time.perf_counter() - t0
    digest, digest_s = digest_of(report)
    return {"role": role, "seed": seed, "threads": threads, "wall_s": wall,
            "stderr": float(report.stderr), "digest": digest,
            "digest_s": digest_s, "span": root}


def result_problems(rec, reference=None) -> list:
    out = []
    if not (math.isfinite(rec["stderr"]) and rec["stderr"] > 0.0):
        out.append(f"stderr {rec['stderr']!r} is not finite and positive")
    if reference is not None and rec["digest"] != reference["digest"]:
        out.append(f"digest {rec['digest']} differs from {reference['digest']}"
                   f" (threads={reference['threads']}, same seed)")
    return out


def oracle_checks(wl, seed: int, ledger: Ledger) -> list:
    rows = []
    for name, ok, detail in wl.check(seed):
        ledger.call(name, [] if ok else [detail])
        rows.append({"check": name, "ok": ok, "detail": detail})
    return rows


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def checked_call(wl, case, seed, threads, role, ledger, reference=None,
                 rec=None):
    out = timed_call(wl, case, seed, threads, role, rec)
    ledger.call(f"{role} threads={threads} seed={seed}",
                result_problems(out, reference))
    return out


def run_untraced(wl, case, seed, seconds, ledger, probe) -> list:
    """Alternate threads=1 and threads=nproc calls until ``seconds`` are
    spent, sampling the speed probe before and after each (a long call
    otherwise leaves few moments to sample).  The second call repeats
    the first one's seed with nproc threads and must give the same digest;
    every later call takes a fresh seed.  After that pair the threaded calls
    come first, so that a run of a few long calls has two of them."""
    threads = nproc()
    t_start = time.perf_counter()

    def call(i, n_threads, role, reference=None):
        probe.sample()
        out = checked_call(wl, case, call_seed(seed, i), n_threads, role,
                           ledger, reference)
        probe.sample()
        return out

    first = call(0, 1, "one")
    calls = [first, call(0, threads, "many", first)]
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(calls) + 1) / len(calls) > seconds:
            break
        i = len(calls) - 1
        calls.append(call(i, threads, "many") if i % 2 else
                     call(i, 1, "one"))
    return calls


def end_to_end(calls, setup_samples, eps: float) -> dict:
    """Unscaled end-to-end times of an untraced run.

    ``wall_s`` and ``wall_s_threads`` are the fastest call of their thread
    count: another tenant busy on the host's vCPUs slows a call (a threaded
    one 1.2 times, next to one CPU-bound process on the reference machine)
    while the speed probe reads the same (a kernel of a few milliseconds is
    scheduled ahead of a CPU-bound neighbour), and contention only ever
    adds time, so the minimum is the order statistic it moves least.
    ``setup_s`` is a median.

    One call's stderr is heavy-tailed across seeds (over the 30 seeds of an
    ``expr-hs`` run it spans a factor of four), so ``time_to_eps_s`` uses
    the median of stderr^2 over the run's distinct seeds: the time a
    typical seed needs, which one unlucky seed cannot move.
    """
    wall = min(c["wall_s"] for c in calls if c["role"] == "one")
    var = statistics.median(c["stderr"] ** 2 for c in calls[:1] + calls[2:])
    return {
        "wall_s": wall,
        "wall_s_threads": min(c["wall_s"] for c in calls
                              if c["role"] == "many"),
        "time_to_eps_s": wall * var / eps ** 2,
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
    }


def _wrap_library(rec):
    """Install the span wrappers at the attributes the callers resolve."""
    from pqcdiag import engine, estimators, rng

    def backward_extra(args, kwargs, out):
        # (circuit, state, x0, ...) -> values, or (values, flags)
        vals = out[0] if isinstance(out, tuple) else out
        return args[0], len(args[2]), int(np.count_nonzero(vals))

    def forward_extra(args, kwargs, out):
        # (circuit, x0, ...) -> (x, z, w, origin)
        return args[0], len(args[1]), int(np.count_nonzero(out[2]))

    def hash_extra(args, kwargs, out):
        return int(np.size(out))

    rec.wrap(estimators, "run_backward_batch", WALK_SPANS[0], backward_extra)
    rec.wrap(estimators, "run_forward_batch", WALK_SPANS[1], forward_extra)
    rec.wrap(estimators, "pauli_codes", "rng.pauli_codes")
    rec.wrap(engine.HashedTheta, "k_for", "engine.HashedTheta.k_for")
    rec.wrap(engine, "hash_words", "rng.hash_words", hash_extra)
    rec.wrap(engine, "popcount_words", "paulis.popcount_words")
    rec.wrap(rng, "hash_words", "rng.hash_words", hash_extra)


def layer_metrics(spans_of_call, extras: dict, draws: int) -> dict:
    """Per-layer metrics of one traced threads=1 call (its span subtree)."""
    from counts import KINDS, step_counts
    selfs = self_times(spans_of_call)
    by_name: dict = {}
    for s in spans_of_call:
        by_name.setdefault(s.name, []).append(s)

    def self_sum(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    root = spans_of_call[0]
    wall = root.end - root.start
    walks = [s for n in WALK_SPANS for s in by_name.get(n, ())]
    counts_of: dict = {}
    steps = dict.fromkeys(KINDS, 0)
    lanes = nonzero = 0
    for s in walks:
        circuit, n_lanes, n_nonzero = extras[s.id]
        if id(circuit) not in counts_of:
            counts_of[id(circuit)] = step_counts(circuit)
        for kind, k in counts_of[id(circuit)].items():
            steps[kind] += n_lanes * k
        lanes += n_lanes
        nonzero += n_nonzero
    hashes = by_name.get("rng.hash_words", ())
    walk_s = self_sum(*WALK_SPANS)
    lane_steps = sum(steps.values())
    est_self = selfs[root.id]
    return {
        "engine.walk_s": walk_s,
        "engine.walk_calls": len(walks),
        "engine.lanes": lanes,
        "engine.lane_steps": lane_steps,
        **{f"engine.{k}_lane_steps": steps[k] for k in KINDS},
        "engine.lane_steps_per_s": lane_steps / walk_s if walk_s else 0.0,
        "engine.theta_s": self_sum("engine.HashedTheta.k_for"),
        "engine.forward_s": sum(s.end - s.start for s in
                                by_name.get(WALK_SPANS[1], ())),
        "engine.nonzero_frac": nonzero / lanes if lanes else 0.0,
        "rng.hash_s": self_sum("rng.hash_words"),
        "rng.hash_calls": len(hashes),
        "rng.hashed_words": sum(extras[s.id] for s in hashes),
        "rng.sigma_s": self_sum("rng.pauli_codes"),
        "paulis.popcount_s": self_sum("paulis.popcount_words"),
        "estimators.self_s": est_self,
        "estimators.self_frac": est_self / wall,
        "estimators.walks_per_draw": lanes / draws,
        "wall_s": wall,
    }


def run_traced(wl, case, seed, seconds, ledger) -> tuple:
    """Per-layer metrics: one traced nproc-thread call for the parallel
    efficiency, then (untraced, traced) threads=1 pairs at fresh seeds until
    ``seconds`` are spent; layer metrics are medians over the traced calls.
    Every traced call repeats the seed of an untraced one, whose digest it
    must reproduce.  Returns the recorder too, whose spans the caller writes
    out."""
    threads = nproc()
    per_call = []
    t_start = time.perf_counter()
    rec = Recorder()
    plain = checked_call(wl, case, call_seed(seed, 0), 1, "one", ledger)
    many = checked_call(wl, case, plain["seed"], threads, "traced-many",
                        ledger, plain, rec)
    root = next(s for s in rec.spans if s.id == many["span"])
    walk_busy = sum(s.end - s.start for s in rec.spans
                    if s.name in WALK_SPANS
                    and root.start <= s.start <= root.end)
    parallel_eff = walk_busy / ((root.end - root.start) * threads)
    calls = [plain, many]
    while True:
        one = checked_call(wl, case, plain["seed"], 1, "traced-one",
                           ledger, plain, rec)
        calls.append(one)
        per_call.append({**layer_metrics(subtree(rec.spans, one["span"]),
                                         rec.extras, wl.draws),
                         "untraced_wall_s": plain["wall_s"],
                         "digest_s": one["digest_s"]})
        elapsed = time.perf_counter() - t_start
        if elapsed + plain["wall_s"] + one["wall_s"] > seconds:
            break
        plain = checked_call(wl, case, call_seed(seed, len(per_call)), 1,
                             "one", ledger)
        calls.append(plain)

    def median_of(key):
        return statistics.median(c[key] for c in per_call)

    metrics = {k: median_of(k) for k in LAYER_KEYS}
    traced_wall = median_of("wall_s")
    metrics["estimators.parallel_eff"] = parallel_eff
    metrics["reports.digest_s"] = median_of("digest_s")
    metrics["trace.overhead_frac"] = \
        traced_wall / median_of("untraced_wall_s") - 1.0
    extra = {"traced_wall_s": traced_wall, "per_call": per_call}
    return metrics, calls, extra, rec


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(wl, seed: int, seconds: float, trace: bool, spec: dict):
    """One benchmark run; returns (result line, full record)."""
    from counts import cone_step_frac, walked_supports
    setup_probe, call_probe = SpeedProbe(), SpeedProbe()
    case, setup_samples = setup(wl, seed, setup_probe)
    ledger = Ledger()
    checks = oracle_checks(wl, seed, ledger)
    eps = spec["eps"][wl.name]
    record = {"workload": wl.name, "trace": trace,
              "provenance": provenance(seed), "eps": eps, "draws": wl.draws,
              "setup": setup_samples, "checks": checks}
    if trace:
        metrics, calls, record["trace_detail"], record["recorder"] = \
            run_traced(wl, case, seed, seconds, ledger)
        metrics["engine.cone_step_frac"] = cone_step_frac(
            case.circuit, walked_supports(case))
        metrics["circuits.gen_s"] = statistics.median(
            s["gen_s"] for s in setup_samples)
        metrics["circuits.compile_s"] = statistics.median(
            s["compile_s"] for s in setup_samples)
    else:
        calls = run_untraced(wl, case, seed, seconds, ledger, call_probe)
        unscaled = end_to_end(calls, setup_samples, eps)
        # the host's speed ramps up during a process's first seconds, so
        # set-up and calls are each scaled by the probe of their own phase
        scale = {k: call_probe.scale() for k in unscaled}
        scale["setup_s"] = setup_probe.scale()
        metrics = {k: v * scale[k] for k, v in unscaled.items()}
        record.update(unscaled=unscaled, speed_scale=scale,
                      probe_samples={"setup": setup_probe.samples,
                                     "calls": call_probe.samples})
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["pass_frac"] = 1.0 - ledger.failed / ledger.attempted
    section = spec["per_layer" if trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in section}
    record.update(calls=calls, failures=ledger.failures, metrics=out,
                  digests=sorted({(c["seed"], c["digest"]) for c in calls}))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": out}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    result, record = run(wl, args.seed, args.seconds, bool(args.trace),
                         load_spec())
    OUT.mkdir(exist_ok=True)
    if args.trace:
        record.pop("recorder").write(OUT / f"SPANS_{wl.name}.json")
    kind = "TRACE" if args.trace else "BENCH"
    with open(OUT / f"{kind}_{wl.name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"FAILED {f['call']}: {'; '.join(f['problems'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
