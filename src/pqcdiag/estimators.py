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
run's output is byte-identical for any ``threads`` setting.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channels import rebuild_with
from .circuits import (Circuit, NoiseSite, ObservableSum, gen_line_benchmark,
                       zero_state)
from .engine import (HashedTheta, MaterializedTheta, TiledTheta,
                     codes_to_words, cone_params, cone_runs,
                     run_backward_batch, run_forward_batch, words_for_paulis)
from .reports import (DiagnosticConfig, EstimateReport, InterventionPlan,
                      PlanStep, SensitivityMap, SiteGradient)
from .rng import compose_stream_array, pauli_codes

#: outer draws per work chunk; fixed (never derived from the thread count)
#: so that chunk boundaries, and therefore reduction order and every float,
#: are identical no matter how the chunks are scheduled.
_CHUNK = 16384

#: ceiling on 4^{n_params} for the exact grid enumerators
_GRID_POINT_CAP = 1 << 22

#: smallest distance from lambda = 1 at which the closed-form sensitivity
#: route is still numerically safe; closer sites fall back to differencing
_DEPOL_EDGE = 1e-9

_FD_STEP = 1e-3


# ---------------------------------------------------------------------------
# accumulators and the chunk scheduler
# ---------------------------------------------------------------------------

def _kadd(total, comp, x):
    """One Kahan step; works elementwise on arrays."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


class _Moments:
    """Running (count, sum, sum of squares) with compensated addition.

    ``width`` selects scalar or per-column accumulation; columns are used by
    the sensitivity map (one per noise site).
    """

    def __init__(self, width: "int | None" = None):
        zero = 0.0 if width is None else np.zeros(width)
        self.count = 0
        self._s, self._sc = zero, zero
        self._q, self._qc = zero, zero

    def add(self, samples: np.ndarray) -> None:
        self.count += samples.shape[0]
        self._s, self._sc = _kadd(self._s, self._sc, samples.sum(axis=0))
        self._q, self._qc = _kadd(self._q, self._qc,
                                  np.square(samples).sum(axis=0))

    def mean(self):
        return self._s / self.count

    def stderr(self):
        """Standard error of the mean (0 when a variance is undefined)."""
        n = self.count
        if n < 2:
            return 0.0 * self._s
        var = np.maximum(0.0, (self._q / n - self.mean() ** 2) * n / (n - 1))
        return np.sqrt(var / n)


def _spans(total: int, chunk: int):
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _map_ordered(fn, spans, threads: int):
    """Apply fn to spans, yielding results in span order (any worker count)."""
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(fn, spans)
    else:
        yield from map(fn, spans)


def _effective_config(config, pauli_l1: float) -> DiagnosticConfig:
    """Fill defaults and apply the accuracy planner when targets are set."""
    cfg = config if config is not None else DiagnosticConfig()
    if cfg.epsilon is not None and cfg.delta is not None:
        n_theta, n_tau = plan_samples(cfg.epsilon, cfg.delta, pauli_l1)
        cfg = cfg.replaced(n_theta=n_theta, n_tau=n_tau)
    return cfg


def _check_stream_budget(n_outer: int, n_inner: int, n_terms: int) -> None:
    """Stream ids pack (outer, inner, term) into 32/20/12 bits; enforce it."""
    if n_outer > (1 << 32):
        raise ValueError(f"{n_outer} outer draws exceed the 32-bit stream "
                         "budget")
    if n_inner > (1 << 20):
        raise ValueError(f"{n_inner} inner draws per outer sample exceed the "
                         "20-bit stream budget")
    if n_terms > (1 << 12):
        raise ValueError(f"{n_terms} observable terms exceed the 12-bit "
                         "stream budget")


def _default_state(circuit: Circuit, state):
    return state if state is not None else zero_state(circuit.n)


# ---------------------------------------------------------------------------
# the shared inner pass
# ---------------------------------------------------------------------------

def _walk_values(circuit: Circuit, obs: ObservableSum, state, theta, *,
                 seed: int, outer=None, inner=None, collect: bool = False):
    """One inner estimate of <O> per lane of ``theta``.

    Every observable term is walked on every lane.  Consecutive terms whose
    light cones nearly coincide (see :func:`engine.cone_runs`) are walked in
    one pass with the lanes term-major (up to ``_CHUNK * 4`` lanes a pass),
    so each parameter's angles are drawn once and tiled across them; other
    terms are walked in passes of their own, each in its own cone.  Stream
    ids are composed from the per-lane (outer, inner) indices and the term
    number; when no channel branches the ids are unused and the value is
    exact.  With ``collect`` also returns the (lanes, n_sites) matrix of
    signed path values restricted to walks that met each site with a
    non-identity word — the raw material of the sensitivity map.
    """
    b = len(theta)
    vals = np.full(b, float(obs.identity_offset))
    wsum = np.zeros((b, len(circuit.noise_sites))) if collect else None
    branching = circuit.branching()
    per_pass = max(1, (4 * _CHUNK) // max(1, b))
    for run in cone_runs(circuit, [word for _, word in obs.terms], per_pass):
        terms = [obs.terms[h] for h in run]
        xw, zw = words_for_paulis([word for _, word in terms], circuit.n)
        h = np.asarray(run, dtype=np.uint64)[:, None]
        sids = compose_stream_array(outer, inner, h).ravel() \
            if branching else None
        th = theta if len(terms) == 1 else TiledTheta(theta, len(terms))
        out = run_backward_batch(circuit, state, np.repeat(xw, b, axis=0),
                                 np.repeat(zw, b, axis=0), th, seed=seed,
                                 stream_ids=sids, collect_flags=collect)
        v, flags = out if collect else (out, None)
        for t, (coeff, _) in enumerate(terms):
            vt = v[t * b:(t + 1) * b]
            vals += coeff * vt
            if collect:
                wsum += coeff * (vt[:, None] * flags[t * b:(t + 1) * b])
    if collect:
        return vals, wsum
    return vals


def _replicate_means(circuit, obs, state, outer, seed, n_tau, rep, *,
                     collect=False):
    """Inner-replicate mean of <O> per outer draw (replicates 0 and 1 use
    disjoint inner-draw id ranges, which is all 'independent' means here)."""
    b = outer.shape[0]
    uids = np.repeat(outer, n_tau)
    th = HashedTheta(seed, uids)
    inner = np.tile(np.arange(n_tau, dtype=np.uint64), b) \
        + np.uint64(rep * n_tau)
    out = _walk_values(circuit, obs, state, th, seed=seed, outer=uids,
                       inner=inner, collect=collect)
    if collect:
        vals, wsum = out
        return (vals.reshape(b, n_tau).mean(axis=1),
                wsum.reshape(b, n_tau, -1).mean(axis=1))
    return out.reshape(b, n_tau).mean(axis=1)


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

def _mse_samples(circuit, clean, obs, state, cfg, span, *, vclean=None):
    """Per-outer-draw unbiased samples of (<O> - <O~>)^2 for one chunk."""
    lo, hi = span
    outer = np.arange(lo, hi, dtype=np.uint64)
    th = HashedTheta(cfg.seed, outer)
    if vclean is None:
        vclean = _walk_values(clean, obs, state, th, seed=cfg.seed)
    if not circuit.branching():
        d = vclean - _walk_values(circuit, obs, state, th, seed=cfg.seed)
        return vclean, d * d
    da = vclean - _replicate_means(circuit, obs, state, outer, cfg.seed,
                                   cfg.n_tau, 0)
    db = vclean - _replicate_means(circuit, obs, state, outer, cfg.seed,
                                   cfg.n_tau, 1)
    return vclean, da * db


def estimate_mse(circuit: Circuit, obs: ObservableSum, state=None,
                 config: "DiagnosticConfig | None" = None) -> EstimateReport:
    """Mean squared error between noiseless and noisy expectations.

    The noiseless value at each draw comes from the same walk run on the
    circuit with its noise sites stripped (deterministic, hence exact); the
    noisy value is exact too when every channel is diagonal, otherwise the
    square uses the two-replicate product.
    """
    t0 = time.perf_counter()
    if not circuit.noise_sites:
        raise ValueError("circuit has no noise sites; there is no noisy "
                         "expectation to compare against")
    state = _default_state(circuit, state)
    cfg = _effective_config(config, obs.pauli_l1)
    branching = circuit.branching()
    n_tau = cfg.n_tau if branching else 1
    _check_stream_budget(cfg.n_theta, 2 * n_tau, len(obs.terms))
    clean = circuit.without_noise()
    chunk = max(1, _CHUNK // n_tau)
    mom = _Moments()

    def job(span):
        _, samples = _mse_samples(circuit, clean, obs, state, cfg, span)
        return samples

    for samples in _map_ordered(job, _spans(cfg.n_theta, chunk), cfg.threads):
        mom.add(samples)

    mean = float(mom.mean())
    stats = {"negative_estimate": True} if mean < 0.0 else {}
    return EstimateReport(
        quantity="mse", mean=mean, stderr=float(mom.stderr()),
        n_theta=cfg.n_theta, n_tau=n_tau, n_sigma=0, seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0, config=cfg.as_dict(),
        stats=stats)


# ---------------------------------------------------------------------------
# per-site noise sensitivity
# ---------------------------------------------------------------------------

def _rebuilt_at(circuit, j, value):
    """Circuit copy with site j's strength parameter set to ``value``."""
    sites = list(circuit.noise_sites)
    s = sites[j]
    sites[j] = NoiseSite(s.position, rebuild_with(s.channel,
                                                  s.noise_param_name, value),
                         s.site_id, s.noise_param_name)
    return circuit.with_sites(sites)


def estimate_sensitivity_map(circuit: Circuit, obs: ObservableSum, state=None,
                             config: "DiagnosticConfig | None" = None,
                             ) -> SensitivityMap:
    """Gradient of the MSE with respect to each noise site's strength.

    Single-qubit (or joint) depolarizing sites use the closed-form path
    route: a depolarizing factor (1 - lambda) multiplies a walk exactly when
    the walking word is non-identity on the site's support, so the noisy
    expectation's lambda-derivative is the indicator-weighted path sum
    divided by (1 - lambda), and the MSE gradient per draw is twice the
    (independent-replicate) product of that with the noiseless-minus-noisy
    difference.  Sites carrying any other tracked parameter — amplitude
    damping, thermal, or a depolarizing strength within ~1e-9 of 1 — are
    differenced instead: two full MSE passes at strength +-1e-3 sharing
    seeds, streams and draws, so the difference is taken sample by sample.
    """
    t0 = time.perf_counter()
    sites = circuit.noise_sites
    if not sites:
        raise ValueError("circuit has no noise sites to differentiate")
    for s in sites:
        if s.noise_param_name is None:
            raise ValueError(
                f"noise site {s.site_id} ({s.channel.label}) has no tracked "
                "strength parameter; the sensitivity map covers every site")
        if s.noise_param_name not in s.channel.params:
            raise ValueError(
                f"noise site {s.site_id} tracks {s.noise_param_name!r}, "
                f"which its {s.channel.label!r} channel does not have")
    state = _default_state(circuit, state)
    cfg = _effective_config(config, obs.pauli_l1)
    branching = circuit.branching()
    n_tau = cfg.n_tau if branching else 1
    _check_stream_budget(cfg.n_theta, 2 * n_tau, len(obs.terms))
    clean = circuit.without_noise()
    chunk = max(1, _CHUNK // n_tau)
    spans = _spans(cfg.n_theta, chunk)

    path_sites = [j for j, s in enumerate(sites)
                  if s.channel.label == "depolarizing"
                  and s.noise_param_name == "lambda"
                  and s.channel.params["lambda"] < 1.0 - _DEPOL_EDGE]
    fd_sites = [j for j in range(len(sites)) if j not in path_sites]
    scale = np.ones(len(sites))
    for j in path_sites:
        scale[j] = 1.0 / (1.0 - sites[j].channel.params["lambda"])

    mom = _Moments(width=len(sites))

    def path_job(span):
        lo, hi = span
        outer = np.arange(lo, hi, dtype=np.uint64)
        th = HashedTheta(cfg.seed, outer)
        vclean = _walk_values(clean, obs, state, th, seed=cfg.seed)
        if branching:
            da = vclean - _replicate_means(circuit, obs, state, outer,
                                           cfg.seed, cfg.n_tau, 0)
            _, wsum = _replicate_means(circuit, obs, state, outer, cfg.seed,
                                       cfg.n_tau, 1, collect=True)
        else:
            vals, wsum = _walk_values(circuit, obs, state, th, seed=cfg.seed,
                                      collect=True)
            da = vclean - vals
        return 2.0 * da[:, None] * wsum * scale

    if path_sites or not fd_sites:
        for samples in _map_ordered(path_job, spans, cfg.threads):
            mom.add(samples)
        grad = np.asarray(mom.mean(), dtype=float)
        serr = np.asarray(mom.stderr(), dtype=float)
    else:
        grad = np.zeros(len(sites))
        serr = np.zeros(len(sites))

    for j in fd_sites:
        v = float(sites[j].channel.params[sites[j].noise_param_name])
        hi_v = min(1.0, v + _FD_STEP)
        lo_v = max(0.0, v - _FD_STEP)
        c_hi = _rebuilt_at(circuit, j, hi_v)
        c_lo = _rebuilt_at(circuit, j, lo_v)
        fd_mom = _Moments()

        def fd_job(span, c_hi=c_hi, c_lo=c_lo, width=hi_v - lo_v):
            vclean, s_hi = _mse_samples(c_hi, clean, obs, state, cfg, span)
            _, s_lo = _mse_samples(c_lo, clean, obs, state, cfg, span,
                                   vclean=vclean)
            return (s_hi - s_lo) / width

        for samples in _map_ordered(fd_job, spans, cfg.threads):
            fd_mom.add(samples)
        grad[j] = float(fd_mom.mean())
        serr[j] = float(fd_mom.stderr())

    entries = [SiteGradient(layer=s.site_id[0], element=s.site_id[1],
                            qubits=tuple(s.channel.support),
                            channel=s.channel.label, param=s.noise_param_name,
                            gradient=float(grad[j]), stderr=float(serr[j]))
               for j, s in enumerate(sites)]
    return SensitivityMap(entries=entries, n_theta=cfg.n_theta, n_tau=n_tau,
                          seed=cfg.seed,
                          wall_time_s=time.perf_counter() - t0,
                          config=cfg.as_dict())


def bottleneck_first_plan(circuit: Circuit, obs: ObservableSum, state=None,
                          config: "DiagnosticConfig | None" = None, *,
                          target: float = 0.0, budget: int = 1,
                          ) -> InterventionPlan:
    """Greedy noise-reduction schedule: always fix the most sensitive site.

    Each round estimates the sensitivity map of the current circuit, lowers
    the strength of the site with the largest |gradient| (among sites still
    above ``target``) down to ``target``, and re-measures the MSE.  The same
    seed is reused every round, so successive MSE estimates share their
    draws and the reported trajectory is differenced under common random
    numbers.  Stops early once no site sits above the target.
    """
    t0 = time.perf_counter()
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not 0.0 <= target <= 1.0:
        raise ValueError("target strength must lie in [0, 1]")
    state = _default_state(circuit, state)
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
        smap = estimate_sensitivity_map(current, obs, state, cfg)
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

def _gradvar_chunk(circuit, obs, state, cfg, span, params, live):
    """Per-draw samples of sum_k g_k^2 for one chunk, plus sum_k g_k.

    Lane layout is (outer draw, parameter, inner replicate); the +pi/2 and
    -pi/2 shifts of one replicate share inner ids and stream ids, so their
    walks see common randomness and the difference concentrates.  Only the
    parameters at the positions ``live`` of ``params`` are walked; every
    other gradient stays exactly 0.0 in the (draw, parameter) array.
    """
    lo, hi = span
    b = hi - lo
    outer = np.arange(lo, hi, dtype=np.uint64)
    walked = np.asarray(params, dtype=np.int64)[live]
    p = walked.size
    branching = circuit.branching()
    nt = cfg.n_tau if branching else 1
    uids = np.repeat(outer, p * nt)
    param_lane = np.tile(np.repeat(walked, nt), b)
    inner_base = np.tile(np.arange(nt, dtype=np.uint64), b * p)

    def shifted_means(rep):
        g = np.zeros((b, len(params)))
        if not p:
            return g
        inner = inner_base + np.uint64(rep * nt)
        out = []
        for delta in (1, -1):
            th = HashedTheta(cfg.seed, uids, param_lane,
                             np.full(uids.shape[0], delta, dtype=np.int64))
            v = _walk_values(circuit, obs, state, th, seed=cfg.seed,
                             outer=uids, inner=inner)
            out.append(v.reshape(b, p, nt).mean(axis=2))
        g[:, live] = (out[0] - out[1]) / 2.0
        return g

    ga = shifted_means(0)
    gb = shifted_means(1) if branching else ga
    return (ga * gb).sum(axis=1), ga.sum(axis=1)


def _gradvar_report(circuit, obs, state, config, params, quantity, extra_cfg):
    t0 = time.perf_counter()
    state = _default_state(circuit, state)
    cfg = _effective_config(config, obs.pauli_l1)
    branching = circuit.branching()
    n_tau = cfg.n_tau if branching else 1
    _check_stream_budget(cfg.n_theta, 2 * n_tau, len(obs.terms))
    if not params:
        return EstimateReport(
            quantity=quantity, mean=0.0, stderr=0.0, n_theta=cfg.n_theta,
            n_tau=n_tau, n_sigma=0, seed=cfg.seed,
            wall_time_s=time.perf_counter() - t0,
            config={**cfg.as_dict(), **extra_cfg},
            stats={"mean_gradient": 0.0, "mean_gradient_stderr": 0.0})
    # a parameter with no rotation in any term's light cone has gradient
    # exactly 0.0 (both shifted walks are bit-identical): walk the others
    in_cone = cone_params(circuit, [word for _, word in obs.terms])
    live = [i for i, k in enumerate(params) if k in in_cone]
    chunk = max(1, _CHUNK // (len(params) * n_tau))
    mom = _Moments()
    gmom = _Moments()

    def job(span):
        return _gradvar_chunk(circuit, obs, state, cfg, span, params, live)

    for samples, gsum in _map_ordered(job, _spans(cfg.n_theta, chunk),
                                      cfg.threads):
        mom.add(samples)
        gmom.add(gsum)

    mean = float(mom.mean())
    stats = {"mean_gradient": float(gmom.mean()),
             "mean_gradient_stderr": float(gmom.stderr())}
    if mean < 0.0:
        stats["negative_estimate"] = True
    return EstimateReport(
        quantity=quantity, mean=mean, stderr=float(mom.stderr()),
        n_theta=cfg.n_theta, n_tau=n_tau, n_sigma=0, seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0,
        config={**cfg.as_dict(), **extra_cfg}, stats=stats)


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
    two-block 10x10 CZ chip this walks 45 of its 400 parameters.
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

    Ensemble states start from the all-zeros computational state.
    """
    t0 = time.perf_counter()
    cfg = config if config is not None else DiagnosticConfig()
    if not circuit.is_prs1():
        raise ValueError(
            "a noise channel fails the row-sum condition, so its forward "
            "walk cannot be sampled; use estimate_expressibility_lower_bound")
    n = circuit.n
    state = zero_state(n)
    ns = cfg.n_sigma
    _check_stream_budget(cfg.n_theta * ns, 1, 4)
    branching = circuit.branching()
    n_sites = len(circuit.noise_sites)
    c2 = 2.0 / (2 ** n + 1.0)
    sigma_block = np.uint64(cfg.n_theta) * np.uint64(ns)
    chunk = max(1, _CHUNK // ns)
    mom = _Moments()

    def t_walk(x0, z0, theta, role, lane_uid, slot_offset=0, w0=None):
        sids = compose_stream_array(lane_uid, 0, role) if branching else None
        return run_backward_batch(circuit, state, x0, z0, theta, seed=cfg.seed,
                                  stream_ids=sids, w0=w0,
                                  slot_offset=slot_offset)

    def job(span):
        lo, hi = span
        b = hi - lo
        outer = np.arange(lo, hi, dtype=np.uint64)
        lane_uid = np.repeat(outer * np.uint64(ns), ns) \
            + np.tile(np.arange(ns, dtype=np.uint64), b)
        th1 = HashedTheta(cfg.seed, np.repeat(2 * outer, ns))
        th2 = HashedTheta(cfg.seed, np.repeat(2 * outer + 1, ns))

        # quadratic piece: same sigma, independent paths per replicate
        codes = pauli_codes(cfg.seed, lane_uid, n)
        x0, z0 = codes_to_words(codes)
        ta = t_walk(x0, z0, th1, 0, lane_uid)
        tb = t_walk(x0, z0, th1, 1, lane_uid) if branching else ta
        t2 = (ta * tb).reshape(b, ns).mean(axis=1)

        # overlap piece: fresh sigma AND fresh paths per replicate
        t3 = []
        for rep in (0, 1):
            sig_uid = sigma_block * np.uint64(1 + rep) + lane_uid
            codes = pauli_codes(cfg.seed, sig_uid, n, zx_only=True)
            xf, zf = codes_to_words(codes)
            sids = compose_stream_array(lane_uid, 0, 2 + rep) \
                if branching else None
            x1, z1, w1, _ = run_forward_batch(circuit, xf, zf, th2,
                                              seed=cfg.seed, stream_ids=sids)
            v = t_walk(x1, z1, th1, 2 + rep, lane_uid,
                       slot_offset=n_sites, w0=w1)
            t3.append(v.reshape(b, ns).mean(axis=1))
        return t3[0] * t3[1] - c2 * t2

    for samples in _map_ordered(job, _spans(cfg.n_theta, chunk), cfg.threads):
        mom.add(samples)

    mean = float(mom.mean())
    stats = {"negative_estimate": True} if mean < 0.0 else {}
    return EstimateReport(
        quantity="expressibility_hs", mean=mean, stderr=float(mom.stderr()),
        n_theta=cfg.n_theta, n_tau=1, n_sigma=ns, seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0, config=cfg.as_dict(),
        stats=stats)


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
    non-negativity flag applies).

    Ensemble states start from the all-zeros computational state.
    """
    t0 = time.perf_counter()
    cfg = config if config is not None else DiagnosticConfig()
    n = circuit.n
    state = zero_state(n)
    total = cfg.n_theta * cfg.n_sigma
    branching = circuit.branching()
    nt = cfg.n_tau if branching else 1
    _check_stream_budget(2 * total, 4 * nt, 1)
    c2 = 2.0 / (2 ** n + 1.0)
    chunk = max(1, _CHUNK // (4 * nt))
    mom = _Moments()

    def job(span):
        lo, hi = span
        b = hi - lo
        outer = np.arange(lo, hi, dtype=np.uint64)
        codes = pauli_codes(cfg.seed, outer, n)
        xw, zw = codes_to_words(codes)
        lanes = np.repeat(np.arange(b), nt)
        x0, z0 = xw[lanes], zw[lanes]
        outer_rep = np.repeat(outer, nt)
        inner_base = np.tile(np.arange(nt, dtype=np.uint64), b)

        def group_mean(theta_uid, group):
            th = HashedTheta(cfg.seed, np.repeat(theta_uid, nt))
            inner = inner_base + np.uint64(group * nt)
            sids = compose_stream_array(outer_rep, inner, 0) \
                if branching else None
            v = run_backward_batch(circuit, state, x0, z0, th, seed=cfg.seed,
                                   stream_ids=sids)
            return v.reshape(b, nt).mean(axis=1)

        ta0 = group_mean(2 * outer, 0)
        ta1 = group_mean(2 * outer, 1) if branching else ta0
        tb0 = group_mean(2 * outer + 1, 2)
        tb1 = group_mean(2 * outer + 1, 3) if branching else tb0
        qa, qb = ta0 * ta1, tb0 * tb1
        return qa * qb - c2 * (qa + qb) / 2.0

    for samples in _map_ordered(job, _spans(total, chunk), cfg.threads):
        mom.add(samples)

    return EstimateReport(
        quantity="expressibility_lb", mean=float(mom.mean()),
        stderr=float(mom.stderr()), n_theta=cfg.n_theta, n_tau=nt,
        n_sigma=cfg.n_sigma, seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0, config=cfg.as_dict())


def l1_expressibility_bound(var_estimate: float, obs: ObservableSum) -> float:
    """Expressibility lower bound from one observable's grid variance.

    For traceless O,  (Var - tr(O^2)/(2^n (2^n+1))) / ||O||_inf^2  bounds
    the second-moment deviation from below; the spectral norm is replaced
    by the Pauli-coefficient l1 norm (an upper bound), which keeps the
    result valid but conservative.  May be negative — then it says nothing.
    """
    if obs.identity_offset != 0.0:
        raise ValueError("observable must be traceless (identity component "
                         f"{obs.identity_offset} present)")
    if not obs.terms:
        raise ValueError("observable has no Pauli terms")
    d = 2.0 ** obs.n
    tr_o2 = d * sum(c * c for c, _ in obs.terms)
    return (float(var_estimate) - tr_o2 / (d * (d + 1.0))) / obs.pauli_l1 ** 2


# ---------------------------------------------------------------------------
# exact grid enumeration (the slow literal route, for cross-validation)
# ---------------------------------------------------------------------------

def exact_grid_values(circuit: Circuit, obs: ObservableSum, state=None, *,
                      point_cap: int = _GRID_POINT_CAP,
                      lane_cap: int = 1 << 22) -> np.ndarray:
    """<O~> at every grid point, by branch-exact walks; index = base-4 theta.

    Grid point g assigns parameter k the angle index (g >> 2k) & 3.  This
    enumerates all 4^{n_params} points, so it is a test fixture, not an
    estimator: its one job is to agree with the closed-form oracle to
    machine precision while sharing no code with it.
    """
    p = circuit.n_params
    total = 4 ** p
    if total > point_cap:
        raise ValueError(f"grid has {total} points (cap {point_cap})")
    state = _default_state(circuit, state)
    shifts = 2 * np.arange(p, dtype=np.int64)
    out = np.full(total, float(obs.identity_offset))
    for lo, hi in _spans(total, _CHUNK):
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = ((idx[:, None] >> shifts[None, :]) & 3).astype(np.uint8)
        th = MaterializedTheta(digits.reshape(hi - lo, p))
        for coeff, word in obs.terms:
            xw, zw = words_for_paulis([word], circuit.n)
            x0 = np.broadcast_to(xw, (hi - lo, xw.shape[1]))
            z0 = np.broadcast_to(zw, (hi - lo, zw.shape[1]))
            out[lo:hi] += coeff * run_backward_batch(
                circuit, state, x0, z0, th, exact=True, lane_cap=lane_cap)
    return out


def exact_grid_mse(circuit: Circuit, obs: ObservableSum, state=None, *,
                   point_cap: int = _GRID_POINT_CAP,
                   lane_cap: int = 1 << 22) -> float:
    """Exact grid-averaged MSE by literal enumeration of all grid points."""
    state = _default_state(circuit, state)
    noisy = exact_grid_values(circuit, obs, state, point_cap=point_cap,
                              lane_cap=lane_cap)
    ideal = exact_grid_values(circuit.without_noise(), obs, state,
                              point_cap=point_cap, lane_cap=lane_cap)
    d = ideal - noisy
    return float(np.mean(d * d))


def exact_grid_gradient_variance(circuit: Circuit, obs: ObservableSum,
                                 state=None, param_k: int = 0, *,
                                 point_cap: int = _GRID_POINT_CAP,
                                 lane_cap: int = 1 << 22) -> float:
    """Exact grid average of the squared parameter-shift gradient.

    The shifted evaluations are lookups: adding one quarter turn to
    parameter k moves grid point g to the point whose k-th base-4 digit is
    bumped mod 4.  (The grid mean of the gradient is identically zero, so
    the mean square is the variance.)
    """
    if not 0 <= param_k < circuit.n_params:
        raise IndexError(f"parameter {param_k} out of range")
    vals = exact_grid_values(circuit, obs, state, point_cap=point_cap,
                             lane_cap=lane_cap)
    idx = np.arange(vals.size, dtype=np.int64)
    digit = (idx >> (2 * param_k)) & 3
    base = idx - (digit << (2 * param_k))
    up = base + (((digit + 1) & 3) << (2 * param_k))
    down = base + (((digit - 1) & 3) << (2 * param_k))
    g = (vals[up] - vals[down]) / 2.0
    return float(np.mean(g * g))


# ---------------------------------------------------------------------------
# deep-circuit variance benchmark
# ---------------------------------------------------------------------------

def expectation_samples(circuit: Circuit, obs: ObservableSum, state=None,
                        count: int = 1, *, seed: int = 0, threads: int = 1,
                        start: int = 0) -> np.ndarray:
    """<O~> at ``count`` i.i.d. grid draws, one single-path estimate each.

    For circuits where nothing branches (the benchmark family is noiseless)
    each entry is the exact expectation at its draw.  ``start`` offsets the
    outer uids so disjoint sample pools can be grown incrementally.
    """
    state = _default_state(circuit, state)
    _check_stream_budget(start + count, 1, len(obs.terms))
    out = np.empty(count)

    def job(span):
        lo, hi = span
        outer = np.arange(start + lo, start + hi, dtype=np.uint64)
        th = HashedTheta(seed, outer)
        inner = np.zeros(hi - lo, dtype=np.uint64)
        return lo, _walk_values(circuit, obs, state, th, seed=seed,
                                outer=outer, inner=inner)

    for lo, vals in _map_ordered(job, _spans(count, _CHUNK), threads):
        out[lo:lo + vals.shape[0]] = vals
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
    the usual fourth-moment formula for a sample variance.
    """
    t0 = time.perf_counter()
    circuit, obs, state = _line_case(n, p)
    vals = expectation_samples(circuit, obs, state, n_theta, seed=seed,
                               threads=threads)
    mean = float(vals.mean())
    var = float(vals.var(ddof=1)) if n_theta > 1 else 0.0
    stderr = 0.0
    if n_theta > 3:
        centered = vals - mean
        m2 = float(np.mean(centered ** 2))
        m4 = float(np.mean(centered ** 4))
        stderr = math.sqrt(max(0.0, m4 - (n_theta - 3) / (n_theta - 1)
                               * m2 * m2) / n_theta)
    return EstimateReport(
        quantity="benchmark_variance", mean=var, stderr=stderr,
        n_theta=n_theta, n_tau=1, n_sigma=0, seed=seed,
        wall_time_s=time.perf_counter() - t0,
        config={"n": n, "p": p},
        stats={"mean_value": mean, "target": line_variance_target(n)})
