"""Outer-loop diagnostics built on the path walkers.

Every estimator here has the same two-layer shape: draw parameter vectors
i.i.d. uniformly from the quarter-turn grid (outer layer), produce one or
more inner path-sampling estimates of an expectation at each draw (inner
layer), and average a per-draw functional of those estimates.  Squares and
quartics of inner estimates are always formed as products of *independent*
inner replicates — squaring a noisy mean would be biased upward by its own
variance — so every reported mean is unbiased for its target.  Estimates of
quantities that are non-negative in exact arithmetic may still come out
negative; they are reported raw with a flag rather than clamped.

Randomness is entirely counter-based: an outer draw's angles are a pure
function of (seed, outer uid) and a walk's branch decisions are a pure
function of (seed, outer uid, inner replicate, term).  Work is split into
fixed-size chunks whose boundaries do not depend on the worker count, and
chunk partials are reduced in chunk order with compensated summation, so a
run's output is byte-identical for any ``threads`` setting (consecutive
chunks are walked together in groups, which only widens the walks).  That
outer loop has one home, :func:`_drive`, and every :class:`EstimateReport`
is built by :func:`_report`.  Within a job, the sibling walks of one
circuit over the same draws, its inner replicates and parameter shifts, are
walked as one engine walk while together they fit a chunk
(:func:`_replicate_means`); each lane keeps its own angles and stream id,
so this too only widens the walks.  A walk's lanes are copy-major: every
extra lane a draw needs (a sibling, sub-draw, inner replicate, sigma word
or term) is one more whole copy of the job's draws, draw index fastest,
and each mean over a draw's lanes is taken after copying them draw-major,
so it adds in the same order as it would over adjacent lanes.  A job
hashes the angle key of each group of 64 consecutive uids its draws meet
once, in one :class:`engine.AngleSource`; each walk reads a view of it,
which hashes the angle words of the parameters the walk reads from those
keys.  Every job's draws are a run of consecutive uids, whose angle planes
are read straight from those words: the two circuit copies of an
expressibility draw ``outer`` are keyed as the runs ``outer`` and
``outer + 2**63``, and its random Pauli words (``engine.pauli_codes``) are
runs of word uids, built draw-major and then put in lane order.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channels import (make_raw_ptm, ptm_derivative, rebuild_with,
                       strength_params)
from .circuits import Circuit, ObservableSum, gen_line_benchmark, zero_state
from .engine import (AngleSource, cone_params, cone_runs, pauli_codes,
                     run_backward_batch, run_forward_batch, words_for_paulis)
from .reports import (DiagnosticConfig, EstimateReport, InterventionPlan,
                      PlanStep, SensitivityMap, SiteGradient)
from .rng import check_stream_budget, compose_stream_array

#: walk lanes per reduction chunk (a chunk holds ``_CHUNK // lanes_per_draw``
#: outer draws); fixed, never derived from the thread count, so that chunk
#: boundaries, and therefore reduction order and every float, are identical
#: no matter how the chunks are grouped or scheduled.  A job walks up to
#: ``4 * _CHUNK`` lanes: narrower walks pay every step's numpy call overhead
#: on fewer lanes.  It also bounds a merged sibling walk: a job's sibling
#: walks are walked as one while together they fit ``_CHUNK`` lanes (see
#: :func:`_replicate_means`), since past that merging no longer pays.
_CHUNK = 16384

#: uid offset of the second angle vector of an expressibility draw: draw
#: ``outer`` keys its two circuit copies as ``outer`` and ``outer + 2**63``,
#: two runs of consecutive uids, so that each copy's angle planes come
#: straight from the plane-major stream (``engine.AngleSource``).
#: :func:`rng.check_stream_budget` keeps ``outer`` below 2^32, so the two
#: ranges never meet.
_COPY_UIDS = np.uint64(2 ** 63)


# ---------------------------------------------------------------------------
# accumulators and the chunk scheduler
# ---------------------------------------------------------------------------

def _kadd(total, comp, x):
    """One Kahan step; works elementwise on arrays."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


class _Moments:
    """Running count, Kahan-compensated sum and centred second moment.

    Samples are a 1-D array (scalar moments) or a 2-D (draws, columns) one
    (per-column moments; the sensitivity map keeps one per noise site).
    Each added chunk's (count, mean, M2) is taken in two passes and merged
    into the running ones with the pairwise update of Chan, Golub & LeVeque
    (1979), so the variance never subtracts two large squares; the mean is
    the compensated sum over the count.
    """

    def __init__(self):
        self.count = 0
        self._s = self._sc = self._m = self._m2 = 0.0

    def add(self, samples: np.ndarray) -> None:
        n, total = samples.shape[0], samples.sum(axis=0)
        m = total / n
        m2 = np.square(samples - m).sum(axis=0)
        self._s, self._sc = _kadd(self._s, self._sc, total)
        count = self.count + n
        delta = m - self._m
        self._m = self._m + delta * (n / count)
        self._m2 = self._m2 + m2 + np.square(delta) * (self.count * n / count)
        self.count = count

    def mean(self):
        return self._s / self.count

    def stderr(self):
        """Standard error of the mean (0 when a variance is undefined)."""
        n = self.count
        if n < 2:
            return 0.0 * self._s
        return np.sqrt(self._m2 / (n - 1) / n)


def _spans(total: int, chunk: int):
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _map_ordered(fn, items, threads: int):
    """Apply fn to items, yielding results in item order (any worker count);
    a pool is started only when there are two or more items."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def _drive(job, draws: int, lanes_per_draw: int, threads: int,
           width: int = 1) -> list:
    """The outer loop of every estimator.

    Outer draws 0..draws-1 are cut into chunks of
    ``max(1, _CHUNK // lanes_per_draw)`` draws, the unit of the reduction.
    Consecutive chunks form a group whose lanes, ``width`` times over, fit
    ``4 * _CHUNK`` (at least one chunk), the unit of work: ``job`` gets
    each group's outer uids (uint64) and returns a tuple of per-draw sample
    arrays, and groups are mapped over ``threads`` workers.  ``width`` is
    the number of observable terms the job's widest pass walks side by
    side (:func:`_pass_width`), so a job walks each of its passes once,
    and each pass hashes the angle words of a parameter once for all of its
    terms (see :func:`_walk_values`).  Each array is split back at chunk
    boundaries and the pieces are folded in chunk order into one
    :class:`_Moments` per tuple slot, which are returned; so neither the
    grouping nor the worker count moves a float.
    """
    lanes = max(1, lanes_per_draw)
    chunk = max(1, _CHUNK // lanes)
    spans = _spans(draws, chunk)
    per_group = max(1, 4 * _CHUNK // (chunk * lanes * width))
    groups = [spans[i:i + per_group] for i in range(0, len(spans), per_group)]
    moms = []
    for group, parts in zip(groups, _map_ordered(
            lambda g: job(np.arange(g[0][0], g[-1][1], dtype=np.uint64)),
            groups, threads)):
        moms = moms or [_Moments() for _ in parts]
        base = group[0][0]
        for lo, hi in group:
            for mom, samples in zip(moms, parts):
                mom.add(samples[lo - base:hi - base])
    return moms


def _pass_width(circuit: Circuit, obs: ObservableSum,
                lanes_per_draw: int) -> int:
    """Observable terms walked side by side in the widest pass of a
    one-chunk :func:`_drive` group: the longest of the terms' cone runs
    (:func:`engine.cone_runs`) under the limit such a group leaves
    :func:`_walk_values`."""
    lanes = max(1, lanes_per_draw)
    chunk = max(1, _CHUNK // lanes) * lanes
    runs = cone_runs(circuit, [word for _, word in obs.terms],
                     max(1, 4 * _CHUNK // chunk))
    return max(map(len, runs), default=1)


def _report(quantity: str, t0: float, cfg: DiagnosticConfig, mean, stderr, *,
            n_tau: int, n_sigma: int = 0, config=None, stats=None,
            signed: bool = False) -> EstimateReport:
    """The :class:`EstimateReport` of one run started at ``t0``.

    A negative mean gets the ``negative_estimate`` flag in ``stats`` unless
    the quantity is ``signed`` (may be negative in exact arithmetic).
    ``config`` defaults to ``cfg.as_dict()``.
    """
    mean = float(mean)
    stats = dict(stats or {})
    if mean < 0.0 and not signed:
        stats["negative_estimate"] = True
    return EstimateReport(
        quantity=quantity, mean=mean, stderr=float(stderr),
        n_theta=cfg.n_theta, n_tau=n_tau, n_sigma=n_sigma, seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0,
        config=cfg.as_dict() if config is None else config, stats=stats)


def _effective_config(config, pauli_l1: float) -> DiagnosticConfig:
    """Fill defaults and apply the accuracy planner when targets are set.
    The planner needs both, so a lone epsilon or delta is refused rather
    than recorded and ignored."""
    cfg = config if config is not None else DiagnosticConfig()
    if (cfg.epsilon is None) != (cfg.delta is None):
        raise ValueError("the sample planner needs both epsilon and delta")
    if cfg.epsilon is not None:
        n_theta, n_tau = plan_samples(cfg.epsilon, cfg.delta, pauli_l1)
        cfg = cfg.replaced(n_theta=n_theta, n_tau=n_tau)
    return cfg


def _sample_counts_only(config) -> DiagnosticConfig:
    """Defaults for the expressibility estimators, which take their sample
    counts as given: the planner has no bound for their functionals, so an
    accuracy target is refused rather than recorded and ignored."""
    cfg = config if config is not None else DiagnosticConfig()
    if cfg.epsilon is not None or cfg.delta is not None:
        raise ValueError("epsilon/delta targets have no sample planner for "
                         "expressibility; set n_theta and n_sigma instead")
    return cfg


def _observable_setup(circuit: Circuit, obs: ObservableSum, state, config):
    """(state, cfg, n_tau) for the estimators of an observable: the default
    all-zeros state, the planned config, and n_tau = 1 when nothing
    branches (every walk is then exact); checks the stream budget of two
    inner replicates per draw."""
    circuit.check_observable(obs)
    state = state if state is not None else zero_state(circuit.n)
    cfg = _effective_config(config, obs.pauli_l1)
    n_tau = cfg.n_tau if circuit.branching() else 1
    check_stream_budget(cfg.n_theta, 2 * n_tau, len(obs.terms))
    return state, cfg, n_tau


# ---------------------------------------------------------------------------
# the shared inner pass
# ---------------------------------------------------------------------------

def _walk_values(circuit: Circuit, obs: ObservableSum, state, theta, *,
                 seed: int, outer=None, inner=None, collect: bool = False):
    """One inner estimate of <O> per lane of ``theta``.

    Every observable term is walked on every lane.  A pass is one engine
    walk: consecutive terms whose light cones nearly coincide (see
    :func:`engine.cone_runs`) are walked in one pass with the lanes
    term-major, as many terms as keep the pass within ``4 * _CHUNK`` lanes
    (the lane budget of one :func:`_drive` group, which :func:`_drive`
    sizes so that the widest such run is one pass; a single term is walked
    whole however many lanes ``theta`` has), reading ``theta`` tiled once
    a term (``theta.tiled``), so each parameter's angles are drawn once for
    all of them; other terms are walked in passes of their own, each in its
    own cone.  Stream ids are composed from the
    per-lane (outer, inner) indices, two arrays that broadcast against each
    other to the lanes in order, and the term number; when no channel
    branches the ids are unused and the value is exact.  With ``collect``
    also returns the (lanes, n_sites) matrix of path values times the score
    dT/T of the PTM entry T each walk used at each site
    (:func:`_score_table`) — the raw material of the sensitivity map.
    """
    b = len(theta)
    vals = np.full(b, float(obs.identity_offset))
    if collect:
        scores = _score_table(circuit)
        at = np.arange(len(scores))
        wsum = np.zeros((b, at.size))
    branching = circuit.branching()
    per_pass = max(1, (4 * _CHUNK) // max(1, b))
    for run in cone_runs(circuit, [word for _, word in obs.terms], per_pass):
        terms = [obs.terms[h] for h in run]
        xw, zw = words_for_paulis([word for _, word in terms], circuit.n)
        sids = None
        if branching:
            h = np.asarray(run, dtype=np.uint64).reshape(
                -1, *[1] * np.broadcast(outer, inner).ndim)
            sids = compose_stream_array(outer, inner, h).ravel()
        th = theta.tiled(len(terms))
        out = run_backward_batch(circuit, state, np.repeat(xw, b, axis=0),
                                 np.repeat(zw, b, axis=0), th, seed=seed,
                                 stream_ids=sids, collect_flags=collect)
        v, flags = out if collect else (out, None)
        for t, (coeff, _) in enumerate(terms):
            vt = v[t * b:(t + 1) * b]
            vals += coeff * vt
            if collect:
                wsum += coeff * (vt[:, None]
                                 * scores[at, flags[t * b:(t + 1) * b]])
    if collect:
        return vals, wsum
    return vals


def _sibling_groups(variants: list, lanes: int) -> list:
    """Consecutive ``variants`` of ``lanes`` lanes each, in groups of
    ``max(1, _CHUNK // lanes)``: each group is one walk."""
    size = max(1, _CHUNK // lanes)
    return [variants[lo:lo + size] for lo in range(0, len(variants), size)]


def _replicate_mean(values: np.ndarray, n_tau: int, draws: int):
    """Mean over the ``n_tau`` replicates of copy-major lane values, one row
    a (draw, sub-draw), draw-major.

    The lanes of ``values`` have the axes (sub-draw, replicate, draw), draw
    fastest, before any trailing axes.  They are first copied draw-major,
    and the (draws * sub-draws, n_tau, ...) copy is reduced over its
    replicate axis, so each mean adds its values in the order it would if
    the lanes were draw-major: numpy adds a contiguous axis pairwise and a
    leading one a row at a time, which differ in the last bit from
    n_tau = 8 on.
    """
    tail = values.shape[1:]
    v = np.moveaxis(values.reshape(-1, n_tau, draws, *tail), 2, 0)
    return np.ascontiguousarray(v).reshape(-1, n_tau, *tail).mean(axis=1)


def _replicate_means(circuit, obs, state, source, seed, n_tau, variants, *,
                     spread=1, theta=None, collect=False):
    """Inner-replicate mean of <O> per sub-draw, for each of ``variants``.

    Each draw of the :class:`engine.AngleSource` ``source`` spans
    ``spread`` sub-draws (the walked parameters of a gradient job; 1
    elsewhere), and each sub-draw ``n_tau`` inner replicates, so a variant
    walks ``spread * n_tau`` copies of the draws: its lanes have the axes
    (sub-draw, replicate, draw), draw fastest.  The variants are sibling
    walks of the same draws, each a pair ``(rep, shift)``.  Replicates 0
    and 1 use disjoint inner-draw id ranges, which is all 'independent'
    means here.  ``shift = (params, delta)`` walks sub-draw i with
    parameter ``params[i]`` moved by ``delta`` quarter turns; a call's
    variants are either all shifted or all ``None``.  Consecutive variants
    are walked together (:func:`_sibling_groups`), one :func:`_walk_values`
    call a group: a narrow walk pays each step's numpy call overhead on few
    lanes, and past a chunk merging stops paying.  A group's lanes are its
    variants' lanes end to end, each keeping its own stream id (inner ids
    offset by ``rep * n_tau``); walks are per-lane pure, so grouping moves
    no float.  Unshifted variants read ``theta``, a view of ``source`` with
    ``spread * n_tau`` copies (made here when not given; a job that walks
    other circuits over the same draws passes one in), tiled once a
    variant of the group.  A shifted group reads a view of ``source`` with
    as many copies as the group has lanes a draw, and with its variants'
    shift parameters (sub-draw i's on all of its lanes) and deltas end to
    end.

    Returns one per-sub-draw mean array per variant, draw-major
    (:func:`_replicate_mean`), or with ``collect`` one (means, score sums)
    pair per variant.
    """
    draws = len(source)
    copies = spread * n_tau
    lanes = copies * draws
    # each lane's draw, as (sub-draw, replicate, draw) axes
    outer = np.broadcast_to(source.uids, (spread, 1, draws))
    groups = _sibling_groups(variants, lanes)
    if theta is None and variants[0][1] is None:
        theta = source.view(copies)

    def walk(group):  # a generator, so a group's lanes die before the next
        k = len(group)
        if group[0][1] is None:
            th = theta.tiled(k)
        else:
            th = source.view(k * copies, (
                np.concatenate([np.repeat(params, n_tau * draws)
                                for _, (params, _) in group]),
                np.repeat(np.array([delta for _, (_, delta) in group],
                                   dtype=np.int64), lanes)))
        # each lane's inner id, as (variant, sub-draw, replicate, draw) axes
        inner = np.array([rep for rep, _ in group], dtype=np.uint64).reshape(
            -1, 1, 1, 1) * np.uint64(n_tau) \
            + np.arange(n_tau, dtype=np.uint64)[:, None]
        out = _walk_values(circuit, obs, state, th, seed=seed, outer=outer,
                           inner=inner, collect=collect)
        vals, wsum = out if collect else (out, None)
        for v in range(k):
            part = slice(v * lanes, (v + 1) * lanes)
            mean = _replicate_mean(vals[part], n_tau, draws)
            if collect:
                mean = (mean, _replicate_mean(wsum[part], n_tau, draws))
            yield mean

    return [mean for group in groups for mean in walk(group)]


# ---------------------------------------------------------------------------
# sample planning
# ---------------------------------------------------------------------------

def plan_samples(epsilon: float, delta: float, pauli_l1: float):
    """Hoeffding sample counts hitting accuracy epsilon at confidence delta.

    The inner estimate is bounded by the observable's Pauli-coefficient
    l1-norm and the outer functionals by 8x its square, giving

        n_tau   = ceil(2 l1^2 ln(2/delta) / epsilon^2)
        n_theta = ceil(32 l1^4 ln(2/delta) / epsilon^2)

    Returns (n_theta, n_tau), each floored at 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if pauli_l1 <= 0.0:
        raise ValueError("observable l1 norm must be positive")
    log_term = math.log(2.0 / delta)
    n_tau = max(1, math.ceil(2.0 * pauli_l1 ** 2 * log_term / epsilon ** 2))
    n_theta = max(1, math.ceil(32.0 * pauli_l1 ** 4 * log_term
                               / epsilon ** 2))
    return n_theta, n_tau


# ---------------------------------------------------------------------------
# noise robustness (mean squared error against the noiseless circuit)
# ---------------------------------------------------------------------------

def estimate_mse(circuit: Circuit, obs: ObservableSum, state=None,
                 config: "DiagnosticConfig | None" = None) -> EstimateReport:
    """Mean squared error between noiseless and noisy expectations.

    The noiseless value at each draw comes from the same walk run on the
    circuit with its noise sites stripped (deterministic, hence exact); the
    square is the product of two independent inner-replicate means of the
    difference, or the exact square when no channel branches (one exact
    replicate then stands for both).
    """
    t0 = time.perf_counter()
    if not circuit.noise_sites:
        raise ValueError("circuit has no noise sites; there is no noisy "
                         "expectation to compare against")
    state, cfg, n_tau = _observable_setup(circuit, obs, state, config)
    branching = circuit.branching()
    clean = circuit.without_noise()
    variants = [(0, None), (1, None)] if branching else [(0, None)]

    def job(outer):
        source = AngleSource(cfg.seed, outer)
        vclean = _walk_values(clean, obs, state, source.view(), seed=cfg.seed)
        d = [vclean - m for m in _replicate_means(
            circuit, obs, state, source, cfg.seed, n_tau, variants)]
        return (d[0] * d[-1],)

    mom, = _drive(job, cfg.n_theta, n_tau, cfg.threads,
                  _pass_width(circuit, obs, n_tau))
    return _report("mse", t0, cfg, mom.mean(), mom.stderr(), n_tau=n_tau)


# ---------------------------------------------------------------------------
# per-site noise sensitivity
# ---------------------------------------------------------------------------

def _with_channel(circuit, j, channel):
    """Circuit copy with site j's channel replaced by ``channel``."""
    sites = list(circuit.noise_sites)
    sites[j] = dataclasses.replace(sites[j], channel=channel)
    return circuit.with_sites(sites)


def _rebuilt_at(circuit, j, value):
    """Circuit copy with site j's strength parameter set to ``value``."""
    s = circuit.noise_sites[j]
    return _with_channel(circuit, j, rebuild_with(s.channel,
                                                  s.noise_param_name, value))


def _check_tracked(circuit):
    """Reject circuits with a site whose strength cannot be differentiated:
    the sensitivity map and the plan built on it cover every site."""
    for s in circuit.noise_sites:
        if s.noise_param_name not in strength_params(s.channel.label):
            raise ValueError(
                f"noise site {s.site_id} ({s.channel.label}) has no tracked "
                f"strength parameter (it tracks {s.noise_param_name!r}); the "
                "sensitivity map covers every site")


def _score_table(circuit):
    """[site j, e] -> the score dT/T of T = ptm.ravel()[e] at site j, with
    respect to its tracked strength (0 where T = 0)."""
    sites = circuit.noise_sites
    table = np.zeros((len(sites), max(s.channel.ptm.size for s in sites)))
    for j, s in enumerate(sites):
        t = s.channel.ptm
        dt = ptm_derivative(s.channel, s.noise_param_name)
        table[j, :t.size] = np.divide(dt, t, out=np.zeros_like(dt),
                                      where=t != 0).ravel()
    return table


def estimate_sensitivity_map(circuit: Circuit, obs: ObservableSum, state=None,
                             config: "DiagnosticConfig | None" = None,
                             ) -> SensitivityMap:
    """Gradient of the MSE with respect to each noise site's strength.

    One likelihood-ratio (score-function) pass serves every channel kind: a
    walk's value V is a product of the PTM entries T_j it used, so
    d<O~>/d s_j = E[V dT_j/T_j], and the MSE gradient per draw is
    -2 (noiseless - noisy) d<O~>/d s_j, the two factors taken from
    independent inner replicates.  A site outside every term's light cone
    only meets its identity entry (score 0) and reports exactly 0.0.
    Entries with T = 0 < |dT| are never sampled (gamma = 0, the value
    :func:`bottleneck_first_plan` writes; depolarizing lambda = 1), so each
    such boundary site adds one walk, on the second replicate's stream ids,
    of the circuit with its channel replaced by that residual of dT.  Sites
    at gamma + lambda = 1 have no derivative (ValueError).
    """
    t0 = time.perf_counter()
    _check_tracked(circuit)
    sites = circuit.noise_sites
    if not sites:
        raise ValueError("circuit has no noise sites to differentiate")
    residuals = {}
    for j, s in enumerate(sites):
        edge = np.where(s.channel.ptm == 0.0,
                        ptm_derivative(s.channel, s.noise_param_name), 0.0)
        if np.any(edge):
            residuals[j] = _with_channel(circuit, j, make_raw_ptm(
                edge, s.channel.support, "residual"))
    state, cfg, n_tau = _observable_setup(circuit, obs, state, config)
    branching = circuit.branching()
    clean = circuit.without_noise()

    def job(outer):
        source = AngleSource(cfg.seed, outer)
        vclean = _walk_values(clean, obs, state, source.view(), seed=cfg.seed)
        th = source.view(n_tau)

        def means(circ, rep, collect=False):
            return _replicate_means(circ, obs, state, source, cfg.seed, n_tau,
                                    [(rep, None)], theta=th,
                                    collect=collect)[0]

        vals, dsum = means(circuit, 1, collect=True)
        if branching:
            vals = means(circuit, 0)
        for j, res in residuals.items():
            dsum[:, j] += means(res, 1)
        return (-2.0 * (vclean - vals)[:, None] * dsum,)

    mom, = _drive(job, cfg.n_theta, n_tau, cfg.threads,
                  _pass_width(circuit, obs, n_tau))
    grad = np.asarray(mom.mean(), dtype=float)
    serr = np.asarray(mom.stderr(), dtype=float)
    entries = [SiteGradient(layer=s.site_id[0], element=s.site_id[1],
                            qubits=tuple(s.channel.support),
                            channel=s.channel.label, param=s.noise_param_name,
                            gradient=float(grad[j]), stderr=float(serr[j]))
               for j, s in enumerate(sites)]
    return SensitivityMap(entries=entries, n_theta=cfg.n_theta, n_tau=n_tau,
                          seed=cfg.seed,
                          wall_time_s=time.perf_counter() - t0,
                          config=cfg.as_dict())


def check_plan_limits(target: float, budget: int) -> None:
    """Refuse (ValueError) a :func:`bottleneck_first_plan` budget below 0 or
    a target strength outside [0, 1]; callers that estimate a map before
    planning check first."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not 0.0 <= target <= 1.0:
        raise ValueError("target strength must lie in [0, 1]")


def bottleneck_first_plan(circuit: Circuit, obs: ObservableSum, state=None,
                          config: "DiagnosticConfig | None" = None, *,
                          target: float = 0.0, budget: int = 1,
                          first_map: "SensitivityMap | None" = None,
                          ) -> InterventionPlan:
    """Greedy noise-reduction schedule: always fix the most sensitive site.

    Each round estimates the sensitivity map of the current circuit, lowers
    the strength of the site with the largest |gradient| (among sites still
    above ``target``) down to ``target``, and re-measures the MSE.  The same
    seed is reused every round, so successive MSE estimates share their
    draws and the reported trajectory is differenced under common random
    numbers.  Stops early once no site sits above the target.
    ``first_map``, when given, is the first round's map, already estimated
    by the caller with this circuit, observable, state and config.
    """
    t0 = time.perf_counter()
    _check_tracked(circuit)
    check_plan_limits(target, budget)
    cfg = _effective_config(config, obs.pauli_l1)
    base = estimate_mse(circuit, obs, state, cfg)
    current = circuit
    steps = []
    for _ in range(budget):
        candidates = [
            j for j, s in enumerate(current.noise_sites)
            if float(s.channel.params[s.noise_param_name]) > target + 1e-15]
        if not candidates:
            break
        smap = first_map if first_map is not None and not steps else \
            estimate_sensitivity_map(current, obs, state, cfg)
        best = max(candidates,
                   key=lambda j: abs(smap.entries[j].gradient))
        site = current.noise_sites[best]
        old = float(site.channel.params[site.noise_param_name])
        current = _rebuilt_at(current, best, target)
        after = estimate_mse(current, obs, state, cfg)
        steps.append(PlanStep(
            layer=site.site_id[0], element=site.site_id[1],
            qubits=tuple(site.channel.support), channel=site.channel.label,
            param=site.noise_param_name, old_value=old, new_value=target,
            mse_after=after.mean, mse_stderr=after.stderr))
    return InterventionPlan(baseline_mse=base.mean,
                            baseline_stderr=base.stderr, steps=steps,
                            seed=cfg.seed,
                            wall_time_s=time.perf_counter() - t0,
                            config=cfg.as_dict())


# ---------------------------------------------------------------------------
# gradient variance (trainability)
# ---------------------------------------------------------------------------

def _gradvar_report(circuit, obs, state, config, params, quantity, extra_cfg):
    """Per-draw samples of sum_k g_k^2 over ``params``, plus sum_k g_k.

    Each (outer draw, walked parameter) pair is one sub-draw of
    :func:`_replicate_means` at the +pi/2 and the -pi/2 shift; the two
    shifts of one replicate share inner ids and stream ids, so their walks
    see common randomness and the difference concentrates.  The shifts of
    every replicate (two when channels branch, else one) are the job's
    sibling variants, in the order (rep 0, +), (rep 0, -), (rep 1, +),
    (rep 1, -), so narrow ones are walked as one engine walk.  A parameter
    with no rotation in any term's light cone has gradient exactly 0.0
    (both shifted walks are bit-identical), so only the others are walked;
    the rest stay 0.0 in the (draw, parameter) array.
    """
    t0 = time.perf_counter()
    state, cfg, n_tau = _observable_setup(circuit, obs, state, config)
    in_cone = cone_params(circuit, [word for _, word in obs.terms])
    live = [i for i, k in enumerate(params) if k in in_cone]
    walked = np.asarray(params, dtype=np.int64)[live]
    reps = (0, 1) if circuit.branching() else (0,)

    def job(outer):
        b = outer.shape[0]
        grads = [np.zeros((b, len(params))) for _ in reps]
        if walked.size:
            variants = [(rep, (walked, delta))
                        for rep in reps for delta in (1, -1)]
            means = _replicate_means(
                circuit, obs, state, AngleSource(cfg.seed, outer), cfg.seed,
                n_tau, variants, spread=walked.size)
            for g, plus, minus in zip(grads, means[::2], means[1::2]):
                g[:, live] = ((plus - minus) / 2.0).reshape(b, walked.size)
        ga, gb = grads[0], grads[-1]
        return (ga * gb).sum(axis=1), ga.sum(axis=1)

    lanes = len(params) * n_tau
    mom, gmom = _drive(job, cfg.n_theta, lanes, cfg.threads,
                       _pass_width(circuit, obs, lanes))
    return _report(quantity, t0, cfg, mom.mean(), mom.stderr(), n_tau=n_tau,
                   config={**cfg.as_dict(), **extra_cfg},
                   stats={"mean_gradient": float(gmom.mean()),
                          "mean_gradient_stderr": float(gmom.stderr())})


def estimate_gradient_variance(circuit: Circuit, obs: ObservableSum,
                               state=None, param_k: int = 0,
                               config: "DiagnosticConfig | None" = None,
                               ) -> EstimateReport:
    """Variance over the grid of the parameter-shift gradient along one axis.

    The quarter-turn shift keeps shifted points on the grid, under which the
    mean gradient vanishes identically, so E[g^2] *is* the variance; the
    empirical mean gradient is still measured and reported in ``stats`` as a
    consistency check rather than silently assumed away.
    """
    if not 0 <= param_k < circuit.n_params:
        raise IndexError(f"parameter {param_k} out of range "
                         f"(circuit has {circuit.n_params})")
    return _gradvar_report(circuit, obs, state, config, [param_k],
                           "gradient_variance", {"param_k": param_k})


def sum_gradient_variance(circuit: Circuit, obs: ObservableSum, state=None,
                          config: "DiagnosticConfig | None" = None,
                          ) -> EstimateReport:
    """Summed gradient variance over every free parameter.

    All axes share the same outer draws (and, per replicate, the same inner
    draw ids — walks along different axes differ by their shift, so sharing
    ids only correlates lanes and never biases them); the per-draw sample is
    the sum over axes of the replicate-product squares.

    A parameter that drives no rotation inside any observable term's
    backward light cone has a gradient of exactly 0.0 (both shifted walks
    are bit-identical), so its lanes are never walked: its slot of the
    per-draw gradient array is left at 0.0, which keeps the summation order
    and every reported float unchanged.  For Z on the middle qubit of a
    two-block 10x10 CZ chip this walks 45 of its 400 parameters: at 80
    draws, each shift has 3,600 lanes, and both shifts are one walk of
    7,200 lanes (see :func:`_replicate_means`).
    """
    return _gradvar_report(circuit, obs, state, config,
                           list(range(circuit.n_params)),
                           "sum_gradient_variance", {})


# ---------------------------------------------------------------------------
# expressibility
# ---------------------------------------------------------------------------

def estimate_expressibility_hs(circuit: Circuit,
                               config: "DiagnosticConfig | None" = None,
                               ) -> EstimateReport:
    """Squared HS distance of the circuit's second moment from the Haar one.

    Estimated from the identity  ||E[rho (x) rho] - nu||^2 = T3 - c T2  with
    c = 2/(2^n + 1), where T2 averages tr(rho(theta) sigma)^2 over uniform
    Pauli words sigma and T3 averages the squared sigma-mean of the
    two-circuit overlap tr(C+(theta2)(C(theta1)(rho0)) sigma) over words
    restricted to the I/Z span of rho0.  The overlap walk runs sigma forward
    through the circuit at theta2 and then backward at theta1, which
    row-samples the channels — hence the row-sum (PRS1) requirement; for
    channels that fail it use :func:`estimate_expressibility_lower_bound`.

    Draw ``outer`` walks theta1 at angle uid ``outer`` and theta2 at
    ``outer + 2**63`` (``_COPY_UIDS``): a job's draws key each copy with a
    run of consecutive uids.  theta1 is walked three or four times and
    theta2 twice, each walk hashing the angles it reads.  Word j of draw
    ``outer`` has the sigma uid ``outer * n_sigma + j`` in T2, plus ``(1 +
    rep) * n_theta * n_sigma`` in T3's replicate ``rep``: a job's words are
    three runs of the plane-major sigma stream.

    Ensemble states start from the all-zeros computational state.
    """
    t0 = time.perf_counter()
    cfg = _sample_counts_only(config)
    if not circuit.is_prs1():
        raise ValueError(
            "a noise channel fails the row-sum condition, so its forward "
            "walk cannot be sampled; use estimate_expressibility_lower_bound")
    n = circuit.n
    state = zero_state(n)
    ns = cfg.n_sigma
    check_stream_budget(cfg.n_theta * ns, 1, 4)
    branching = circuit.branching()
    n_sites = len(circuit.noise_sites)
    c2 = 2.0 / (2 ** n + 1.0)

    def t_walk(x0, z0, theta, role, lane_uid, slot_offset=0, w0=None):
        sids = compose_stream_array(lane_uid, 0, role) if branching else None
        return run_backward_batch(circuit, state, x0, z0, theta, seed=cfg.seed,
                                  stream_ids=sids, w0=w0,
                                  slot_offset=slot_offset)

    def job(outer):
        b = outer.shape[0]
        # the draws' word uids, draw-major: a run of consecutive uids
        word_uid = np.repeat(outer * np.uint64(ns), ns) \
            + np.tile(np.arange(ns, dtype=np.uint64), b)
        # each lane's word uid, as (word, draw) axes
        lane_uid = (outer * np.uint64(ns)
                    + np.arange(ns, dtype=np.uint64)[:, None]).ravel()
        th1, th2 = (AngleSource(cfg.seed, outer + _COPY_UIDS * i).view(ns)
                    for i in (0, 1))

        def lanes(words):  # draw-major words, as (word, draw) axes
            return words.reshape(b, ns, -1).swapaxes(0, 1).reshape(b * ns, -1)

        # one function a piece, so that its lanes die before the next one's
        def quadratic():  # same sigma, independent paths per replicate
            x0, z0 = map(lanes, pauli_codes(cfg.seed, word_uid, n))
            ta = t_walk(x0, z0, th1, 0, lane_uid)
            tb = t_walk(x0, z0, th1, 1, lane_uid) if branching else ta
            return _replicate_mean(ta * tb, ns, b)

        def overlap(rep):  # fresh sigma AND fresh paths per replicate
            _, zf = pauli_codes(cfg.seed, word_uid + np.uint64(
                cfg.n_theta * ns * (1 + rep)), n, zx_only=True)
            zf = lanes(zf)
            sids = compose_stream_array(lane_uid, 0, 2 + rep) \
                if branching else None
            x1, z1, w1 = run_forward_batch(circuit, np.zeros_like(zf), zf,
                                           th2, seed=cfg.seed,
                                           stream_ids=sids)
            v = t_walk(x1, z1, th1, 2 + rep, lane_uid,
                       slot_offset=n_sites, w0=w1)
            return _replicate_mean(v, ns, b)

        t2 = quadratic()
        return (overlap(0) * overlap(1) - c2 * t2,)

    mom, = _drive(job, cfg.n_theta, ns, cfg.threads)
    return _report("expressibility_hs", t0, cfg, mom.mean(), mom.stderr(),
                   n_tau=1, n_sigma=ns)


def estimate_expressibility_lower_bound(circuit: Circuit,
                                        config: "DiagnosticConfig | None"
                                        = None) -> EstimateReport:
    """Pauli-diagonal lower bound on the second-moment HS deviation.

    Averages  q(sigma)^2 - c q(sigma)  over uniform Pauli words, where
    q(sigma) is the grid average of tr(rho(theta) sigma)^2 and
    c = 2/(2^n + 1).  Only column sampling is involved, so this runs for any
    channel the circuit accepts.  Each draw spends two independent angle
    vectors with two independent inner estimates apiece: their four-way
    product debiases the quartic and their pairwise products the quadratic.
    A negative mean is possible and simply means the bound is uninformative
    at this depth/noise point (the bound itself may be negative, so no
    non-negativity flag applies).  Draw ``outer``'s two angle vectors have
    the angle uids ``outer`` and ``outer + 2**63`` (``_COPY_UIDS``), so a
    job keys each with a run of consecutive uids; each is walked once, or
    twice when channels branch.  Its Pauli word has the sigma uid ``outer``.

    Ensemble states start from the all-zeros computational state.
    """
    t0 = time.perf_counter()
    cfg = _sample_counts_only(config)
    n = circuit.n
    state = zero_state(n)
    total = cfg.n_theta * cfg.n_sigma
    branching = circuit.branching()
    nt = cfg.n_tau if branching else 1
    check_stream_budget(2 * total, 4 * nt, 1)
    c2 = 2.0 / (2 ** n + 1.0)

    def job(outer):
        b = outer.shape[0]
        # each lane's word and ids, as (replicate, draw) axes
        x0, z0 = (np.tile(w, (nt, 1)) for w in pauli_codes(cfg.seed, outer, n))
        outer_rep = np.tile(outer, nt)
        inner_base = np.repeat(np.arange(nt, dtype=np.uint64), b)

        th_a, th_b = (AngleSource(cfg.seed, outer + _COPY_UIDS * i).view(nt)
                      for i in (0, 1))

        def group_mean(th, group):
            inner = inner_base + np.uint64(group * nt)
            sids = compose_stream_array(outer_rep, inner, 0) \
                if branching else None
            v = run_backward_batch(circuit, state, x0, z0, th, seed=cfg.seed,
                                   stream_ids=sids)
            return _replicate_mean(v, nt, b)

        ta0 = group_mean(th_a, 0)
        ta1 = group_mean(th_a, 1) if branching else ta0
        tb0 = group_mean(th_b, 2)
        tb1 = group_mean(th_b, 3) if branching else tb0
        qa, qb = ta0 * ta1, tb0 * tb1
        return (qa * qb - c2 * (qa + qb) / 2.0,)

    mom, = _drive(job, total, 4 * nt, cfg.threads)
    return _report("expressibility_lb", t0, cfg, mom.mean(), mom.stderr(),
                   n_tau=nt, n_sigma=cfg.n_sigma, signed=True)


# ---------------------------------------------------------------------------
# deep-circuit variance benchmark
# ---------------------------------------------------------------------------

def expectation_samples(circuit: Circuit, obs: ObservableSum, state=None,
                        count: int = 1, *, seed: int = 0,
                        threads: int = 1) -> np.ndarray:
    """<O~> at ``count`` i.i.d. grid draws, one single-path estimate each.

    For circuits where nothing branches (the benchmark family is noiseless)
    each entry is the exact expectation at its draw.
    """
    circuit.check_observable(obs)
    state = state if state is not None else zero_state(circuit.n)
    check_stream_budget(count, 1, len(obs.terms))
    out = np.empty(count)

    def job(outer):  # outer uids are the draws' slots in ``out``
        out[outer] = _walk_values(circuit, obs, state,
                                  AngleSource(seed, outer).view(), seed=seed,
                                  outer=outer, inner=0)
        return ()

    _drive(job, count, 1, threads, _pass_width(circuit, obs, 1))
    return out


def line_variance_target(n: int) -> float:
    """Large-depth limit of Var(<O>) for the chain ansatz at width n."""
    return 2.0 / (2.0 * n - 1.0)


@functools.lru_cache(maxsize=8)
def _line_case(n: int, p: int):
    """The chain benchmark's (circuit, observable, state), built once per
    (n, p) so that repeated calls reuse its compiled walk programs."""
    return gen_line_benchmark(n, p)


def line_variance_benchmark(n: int, p: int, n_theta: int, *, seed: int = 0,
                            threads: int = 1) -> EstimateReport:
    """Sample variance of <O> for the chain benchmark circuit.

    The circuit is deep enough (p in the hundreds) that the variance should
    sit at the :func:`line_variance_target` plateau; the stderr comes from
    the usual fourth-moment formula for a sample variance.  A variance
    needs ``n_theta >= 2`` (ValueError otherwise).
    """
    t0 = time.perf_counter()
    if n_theta < 2:
        raise ValueError(f"a sample variance needs n_theta >= 2, "
                         f"got {n_theta}")
    circuit, obs, state = _line_case(n, p)
    vals = expectation_samples(circuit, obs, state, n_theta, seed=seed,
                               threads=threads)
    mean = float(vals.mean())
    var = float(vals.var(ddof=1))
    stderr = 0.0
    if n_theta > 3:
        centered = vals - mean
        m2 = float(np.mean(centered ** 2))
        m4 = float(np.mean(centered ** 4))
        stderr = math.sqrt(max(0.0, m4 - (n_theta - 3) / (n_theta - 1)
                               * m2 * m2) / n_theta)
    return _report("benchmark_variance", t0,
                   DiagnosticConfig(n_theta=n_theta, seed=seed), var, stderr,
                   n_tau=1, config={"n": n, "p": p},
                   stats={"mean_value": mean,
                          "target": line_variance_target(n)})
