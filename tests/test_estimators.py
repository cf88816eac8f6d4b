"""Sampled diagnostics against their exact grid counterparts.

The closed forms for the toy R_X + depolarizing circuit (see test_oracle)
give hard anchors; everything else is cross-checked route-vs-route: sampled
estimate within 4 stderr of the exact grid value, from the closed-form
``oracle.grid_enumerate`` or from the literal enumeration by branch-exact
walks in ``conftest`` (``exact_grid_values`` and its MSE and gradient
variance), and those two grid routes against each other.
"""

import dataclasses

import numpy as np
import pytest

from conftest import (axis, exact_grid_gradient_variance, exact_grid_mse,
                      exact_grid_values, random_circuit, rx_dep_circuit)
from pqcdiag import engine, oracle, rng
from pqcdiag import estimators as est
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_mmff, make_thermal, ptm_derivative,
                              thermal_from_times)
from pqcdiag.circuits import (Circuit, NoiseSite, Rotation, gen_grid_chip,
                              observable_from_terms, zero_state)
from pqcdiag.paulis import PauliString
from pqcdiag.reports import DiagnosticConfig, payload_digest
from pqcdiag.rng import compose_stream_array


class TestPlanner:
    def test_reference_point(self):
        assert est.plan_samples(0.05, 0.01, 1.0) == (67819, 4239)

    def test_floors(self):
        n_theta, n_tau = est.plan_samples(0.99, 0.99, 0.01)
        assert n_theta >= 1 and n_tau >= 1

    def test_monotone_in_accuracy(self):
        loose = est.plan_samples(0.2, 0.1, 1.0)
        tight = est.plan_samples(0.02, 0.1, 1.0)
        assert tight[0] > loose[0] and tight[1] > loose[1]

    @pytest.mark.parametrize("args", [(0.0, 0.1, 1.0), (1.0, 0.1, 1.0),
                                      (0.1, 0.0, 1.0), (0.1, 1.5, 1.0),
                                      (0.1, 0.1, 0.0)])
    def test_rejects_bad_ranges(self, args):
        with pytest.raises(ValueError):
            est.plan_samples(*args)


@pytest.mark.parametrize("label", ["ZII", "ZIIII"])
@pytest.mark.parametrize("run", [
    est.estimate_mse, est.estimate_sensitivity_map,
    est.bottleneck_first_plan, est.sum_gradient_variance,
    lambda c, obs, st, cfg: est.estimate_gradient_variance(
        c, obs, st, 0, cfg),
    lambda c, obs, st, cfg: est.expectation_samples(c, obs, st, 8)],
    ids=["mse", "sensitivity", "plan", "gradvar_sum", "gradvar",
         "samples"])
def test_observable_on_another_register_is_refused(run, label):
    c = _chip(make_amplitude_damping(0.1))
    obs = observable_from_terms([(1.0, label)])
    with pytest.raises(ValueError, match=f"acts on {len(label)} qubits, "
                                         "circuit has 4"):
        run(c, obs, zero_state(4), DiagnosticConfig(n_theta=8, n_tau=2))


class TestMse:
    def test_toy_anchor(self):
        c, obs, st = rx_dep_circuit(0.1)
        rep = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=4000,
                                                            seed=2))
        assert abs(rep.mean - 0.005) < max(4 * rep.stderr, 1e-12)
        assert rep.quantity == "mse" and rep.n_tau == 1  # diagonal noise

    def test_exact_grid_route_is_closed_form(self):
        c, obs, st = rx_dep_circuit(0.1)
        assert exact_grid_mse(c, obs, st) == pytest.approx(0.005, abs=1e-12)

    def test_sampled_vs_grid_cross_route(self):
        for seed in (64, 72):
            c, obs, st = random_circuit(2, 5, seed=seed)
            want = oracle.grid_enumerate(c, obs, "mse", st)
            rep = est.estimate_mse(c, obs, st,
                                   DiagnosticConfig(n_theta=3000, n_tau=8,
                                                    seed=seed))
            assert abs(rep.mean - want) < max(4 * rep.stderr, 1e-10)

    def test_noiseless_circuit_rejected(self):
        c, obs, st = random_circuit(2, 4, seed=1, channels=())
        with pytest.raises(ValueError, match="no noise sites"):
            est.estimate_mse(c, obs, st)

    def test_planner_override(self):
        c, obs, st = random_circuit(2, 4, seed=60)  # has branching noise
        cfg = DiagnosticConfig(n_theta=5, n_tau=1, epsilon=0.5, delta=0.2,
                               seed=0)
        rep = est.estimate_mse(c, obs, st, cfg)
        n_theta, n_tau = est.plan_samples(0.5, 0.2, obs.pauli_l1)
        assert rep.n_theta == n_theta and rep.n_tau == n_tau
        assert rep.config["epsilon"] == 0.5

    @pytest.mark.parametrize("target", [{"epsilon": 0.1}, {"delta": 0.1}])
    def test_lone_accuracy_target_refused(self, target):
        # the planner needs both; one alone would be recorded and ignored
        c, obs, st = random_circuit(2, 4, seed=60)
        with pytest.raises(ValueError, match="both epsilon and delta"):
            est.estimate_mse(c, obs, st,
                             DiagnosticConfig(n_theta=50, **target))

    def test_seed_reproducibility_and_seed_sensitivity(self):
        c, obs, st = random_circuit(2, 5, seed=64)
        a = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=300, seed=5))
        b = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=300, seed=5))
        other = est.estimate_mse(c, obs, st,
                                 DiagnosticConfig(n_theta=300, seed=6))
        assert a.mean == b.mean and a.digest() == b.digest()
        assert a.mean != other.mean


def _chip(channel):
    return gen_grid_chip(2, 2, 1, "rzz", channel)


def _tracking(circuit, names):
    """The circuit with site j tracking parameter names[j % len(names)]."""
    return circuit.with_sites(
        [dataclasses.replace(s, noise_param_name=names[j % len(names)])
         for j, s in enumerate(circuit.noise_sites)])


def _grid_derivative(circuit, obs, j, h=1e-5):
    """dMSE / d(site j's strength) from the grid oracle: a central
    difference, one-sided at a bound of [0, 1]."""
    s = circuit.noise_sites[j]
    v = float(s.channel.params[s.noise_param_name])
    lo, hi = max(0.0, v - h), min(1.0, v + h)
    lo_mse, hi_mse = (oracle.grid_enumerate(est._rebuilt_at(circuit, j, x),
                                            obs, "mse") for x in (lo, hi))
    return (hi_mse - lo_mse) / (hi - lo)


def _cone_sites(circuit, obs):
    """Ordinals of the noise sites inside the observable's light cone."""
    mask = 0
    for _, w in obs.terms:
        mask |= w.x_bits | w.z_bits
    return {step.ordinal for step in engine._program(circuit, "backward", mask)
            if isinstance(step, engine._ChanStep)}


#: 2x2 chips for the score route, each with an observable on qubit 1, whose
#: light cone holds sites 0, 1, 5 and 11.  At amplitude-damping gamma = 0
#: the Z -> I entry of site 5 is 0 with a non-zero derivative, and so is
#: each coherence entry at depolarizing lambda = 1.  Pure dephasing (thermal
#: gamma = 0) never branches, but its gamma sites are boundary sites whose
#: residual walk does.
SCORE_CASES = {
    "amplitude_damping_gamma0": lambda: (
        est._rebuilt_at(_chip(make_amplitude_damping(0.1)), 5, 0.0),
        [(1.0, "IZII")]),
    "thermal": lambda: (
        _tracking(_chip(make_thermal(0.1, 0.05)), ("gamma", "lambda", "gamma")),
        [(1.0, "IZII"), (0.5, "IXII")]),
    "thermal_dephasing_gamma0": lambda: (
        _tracking(_chip(make_thermal(0.0, 0.1)), ("gamma", "lambda", "gamma")),
        [(0.5, "IXII"), (1.0, "IZII")]),
    "depolarizing_lambda1": lambda: (
        est._rebuilt_at(_chip(make_depolarizing(0.1)), 5, 1.0),
        [(1.0, "IZII")]),
}


class TestSensitivity:
    def test_toy_closed_form_gradient(self):
        # MSE(lam) = lam^2/2, so dMSE/dlam at 0.1 is 0.1 (path route, exact
        # per draw; only the theta average is sampled)
        c, obs, st = rx_dep_circuit(0.1)
        smap = est.estimate_sensitivity_map(
            c, obs, st, DiagnosticConfig(n_theta=4000, seed=3))
        assert len(smap.entries) == 1
        e = smap.entries[0]
        assert (e.layer, e.element, e.param) == (0, 0, "lambda")
        assert abs(e.gradient - 0.1) < 0.005

    def test_fd_route_matches_grid_derivative(self):
        # amplitude damping forces the finite-difference route
        c, obs, st = random_circuit(2, 4, seed=75)
        labels = [s.channel.label for s in c.noise_sites]
        assert "amplitude_damping" in labels
        smap = est.estimate_sensitivity_map(
            c, obs, st, DiagnosticConfig(n_theta=4000, n_tau=8, seed=1))
        h = 1e-3
        for j, s in enumerate(c.noise_sites):
            v = float(s.channel.params[s.noise_param_name])
            hi = est._rebuilt_at(c, j, min(1.0, v + h))
            lo = est._rebuilt_at(c, j, max(0.0, v - h))
            want = (oracle.grid_enumerate(hi, obs, "mse", st)
                    - oracle.grid_enumerate(lo, obs, "mse", st)) / (2 * h)
            got = smap.entries[j].gradient
            tol = max(4 * smap.entries[j].stderr, 0.05 * abs(want), 1e-4)
            assert abs(got - want) < tol, (j, got, want)

    def test_untracked_site_rejected(self):
        from pqcdiag.channels import make_mmff
        c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)],
                    [NoiseSite(0, make_mmff(""), (0, 0), None)])
        with pytest.raises(ValueError, match="no tracked"):
            est.estimate_sensitivity_map(
                c, observable_from_terms([(1.0, "Z")]), zero_state(1))

    def test_device_time_is_not_a_tracked_strength(self):
        site = NoiseSite(0, thermal_from_times(80.0, 100.0, 5.0), (0, 0), "t1")
        c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)], [site])
        with pytest.raises(ValueError, match="no tracked strength parameter "
                                             "\\(it tracks 't1'\\)"):
            est._check_tracked(c)

    @pytest.mark.parametrize("site", [
        NoiseSite(0, make_mmff(""), (0, 0), None),
        NoiseSite(0, make_depolarizing(0.1), (0, 0), "gamma")])
    def test_map_and_plan_reject_an_untracked_site_alike(self, site):
        c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)], [site])
        obs = observable_from_terms([(1.0, "Z")])
        messages = []
        for run in (est.estimate_sensitivity_map, est.bottleneck_first_plan):
            with pytest.raises(ValueError) as info:
                run(c, obs, zero_state(1))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_unbounded_derivative_rejected(self):
        c = _chip(make_thermal(0.4, 0.6))
        with pytest.raises(ValueError, match="gamma \\+ lambda = 1"):
            est.estimate_sensitivity_map(
                c, observable_from_terms([(1.0, "IZII")]), None,
                DiagnosticConfig(n_theta=4, n_tau=2))

    @pytest.mark.parametrize("case", sorted(SCORE_CASES))
    def test_score_route_matches_grid_derivative(self, case):
        c, terms = SCORE_CASES[case]()
        obs = observable_from_terms(terms)
        smap = est.estimate_sensitivity_map(
            c, obs, None, DiagnosticConfig(n_theta=2000, n_tau=4, seed=1))
        cone = _cone_sites(c, obs)
        assert cone == {0, 1, 5, 11}
        for j, e in enumerate(smap.entries):
            if j not in cone:  # the grid derivative is 0 there too
                assert e.gradient == 0.0 and e.stderr == 0.0
                continue
            want = _grid_derivative(c, obs, j)
            assert abs(e.gradient - want) <= 4 * e.stderr + 1e-6, \
                (j, e.gradient, e.stderr, want)

    def test_digest_ignores_threads_across_chunks(self, monkeypatch):
        # 300 draws of 4 replicates at 64 lanes a chunk: 19 chunks, and
        # site 5 (gamma = 0) adds a residual walk to each of them
        c, terms = SCORE_CASES["amplitude_damping_gamma0"]()
        obs = observable_from_terms(terms)
        monkeypatch.setattr(est, "_CHUNK", 64)
        cfg = DiagnosticConfig(n_theta=300, n_tau=4, seed=2)
        one = est.estimate_sensitivity_map(c, obs, None, cfg)
        two = est.estimate_sensitivity_map(c, obs, None,
                                           cfg.replaced(threads=2))
        assert payload_digest(one.to_json_dict()) \
            == payload_digest(two.to_json_dict())
        cone = _cone_sites(c, obs)
        assert 5 in cone and len(cone) < len(c.noise_sites)
        for j, e in enumerate(one.entries):
            if j not in cone:
                assert e.gradient == 0.0 and e.stderr == 0.0
            elif j == 5:
                assert e.gradient != 0.0 and e.stderr > 0.0


def planted_circuit():
    """Two qubits; only the q0 site sits on the observable's path."""
    ops = [Rotation(axis(2, "X", (0,)), 0), Rotation(axis(2, "X", (1,)), 1)]
    sites = [NoiseSite(0, make_depolarizing(0.3, (0,)), (0, 0), "lambda"),
             NoiseSite(1, make_depolarizing(0.01, (1,)), (0, 1), "lambda")]
    c = Circuit(2, ops, sites)
    return c, observable_from_terms([(1.0, "ZI")]), zero_state(2)


class TestBottleneckPlan:
    def test_dominant_site_ranked_first(self):
        c, obs, st = planted_circuit()
        smap = est.estimate_sensitivity_map(
            c, obs, st, DiagnosticConfig(n_theta=2000, seed=4))
        grads = [abs(e.gradient) for e in smap.entries]
        assert grads[0] > 10 * grads[1]

    def test_greedy_plan_kills_the_bottleneck(self):
        c, obs, st = planted_circuit()
        plan = est.bottleneck_first_plan(
            c, obs, st, DiagnosticConfig(n_theta=2000, seed=4), budget=2)
        assert [s.element for s in plan.steps] == [0, 1]
        assert plan.steps[0].old_value == pytest.approx(0.3)
        assert plan.steps[0].new_value == 0.0
        # removing the only on-path site leaves nothing: MSE collapses
        assert plan.baseline_mse > 0.01
        assert abs(plan.steps[0].mse_after) < 1e-9
        assert abs(plan.steps[1].mse_after) < 1e-9

    def test_budget_and_target_validation(self):
        c, obs, st = planted_circuit()
        with pytest.raises(ValueError):
            est.bottleneck_first_plan(c, obs, st, budget=-1)
        with pytest.raises(ValueError):
            est.bottleneck_first_plan(c, obs, st, target=1.5)

    def test_stops_when_nothing_above_target(self):
        c, obs, st = planted_circuit()
        plan = est.bottleneck_first_plan(
            c, obs, st, DiagnosticConfig(n_theta=500, seed=1), target=0.5,
            budget=3)
        assert plan.steps == []


class TestGradientVariance:
    def test_vs_exact_grid(self):
        c, obs, st = random_circuit(2, 4, seed=64)
        for k in range(c.n_params):
            want = exact_grid_gradient_variance(c, obs, st, k)
            rep = est.estimate_gradient_variance(
                c, obs, st, k, DiagnosticConfig(n_theta=3000, n_tau=4,
                                                seed=k))
            assert abs(rep.mean - want) < max(4 * rep.stderr, 1e-10), k
            assert rep.quantity == f"gradient_variance[{k}]" \
                or "gradient" in rep.quantity

    def test_exact_grid_route_vs_oracle(self):
        c, obs, st = random_circuit(2, 4, seed=66)
        for k in range(min(2, c.n_params)):
            assert exact_grid_gradient_variance(c, obs, st, k) \
                == pytest.approx(
                    oracle.grid_enumerate(c, obs, f"gradvar({k})", st),
                    abs=1e-10)

    def test_sum_matches_exact_sum(self):
        c, obs, st = random_circuit(2, 3, seed=68)
        want = sum(exact_grid_gradient_variance(c, obs, st, k)
                   for k in range(c.n_params))
        rep = est.sum_gradient_variance(
            c, obs, st, DiagnosticConfig(n_theta=4000, n_tau=4, seed=2))
        assert abs(rep.mean - want) < max(4 * rep.stderr, 1e-10)

    def test_mean_gradient_stat_near_zero(self):
        # the grid mean of the parameter-shift gradient vanishes identically
        c, obs, st = random_circuit(2, 4, seed=64)
        rep = est.estimate_gradient_variance(
            c, obs, st, 0, DiagnosticConfig(n_theta=2000, n_tau=4, seed=0))
        g = rep.stats["mean_gradient"]
        se = rep.stats["mean_gradient_stderr"]
        assert abs(g) < max(4 * se, 1e-12)

    def test_param_out_of_range(self):
        c, obs, st = rx_dep_circuit(0.1)
        with pytest.raises(IndexError):
            est.estimate_gradient_variance(c, obs, st, 5)
        with pytest.raises(IndexError):
            exact_grid_gradient_variance(c, obs, st, 5)


class TestExactGridValues:
    def test_toy_values_by_index(self):
        c, obs, st = rx_dep_circuit(0.1)
        vals = exact_grid_values(c, obs, st)
        assert vals.shape == (4,)
        assert np.allclose(vals, [0.9, 0.0, -0.9, 0.0], atol=1e-12)

    def test_matches_dense_pointwise(self):
        c, obs, st = random_circuit(2, 3, seed=80)
        vals = exact_grid_values(c, obs, st)
        r = np.random.default_rng(0)
        for idx in r.integers(0, vals.size, size=6):
            ks = [(int(idx) >> (2 * j)) & 3 for j in range(c.n_params)]
            want = oracle.dense_expectation(
                c, np.array(ks) * np.pi / 2, obs, st)
            assert vals[idx] == pytest.approx(want, abs=1e-11)

    def test_point_cap(self):
        c, obs, st = random_circuit(2, 10, seed=82, channels=())
        with pytest.raises(ValueError):
            exact_grid_values(c, obs, st, point_cap=100)


class TestExpressibility:
    def test_single_rz_hs_anchor(self):
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)], [])
        rep = est.estimate_expressibility_hs(
            c, DiagnosticConfig(n_theta=2048, n_sigma=512, seed=11))
        assert abs(rep.mean - 2.0 / 3.0) < 4 * rep.stderr
        assert rep.stderr < 0.05

    def test_single_rz_lower_bound_anchor(self):
        # diagonal-sigma restriction: q = (1,0,0,1) so the bound is exactly
        # (1/4) * (2 - (2/3) * 2) = 1/6
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)], [])
        rep = est.estimate_expressibility_lower_bound(
            c, DiagnosticConfig(n_theta=256, n_sigma=512, seed=11))
        assert abs(rep.mean - 1.0 / 6.0) < 4 * max(rep.stderr, 1e-6)

    def test_lower_bound_below_hs_noiseless(self):
        c, _, _ = random_circuit(2, 4, seed=30, channels=())
        hs = est.estimate_expressibility_hs(
            c, DiagnosticConfig(n_theta=2048, n_sigma=256, seed=7))
        lb = est.estimate_expressibility_lower_bound(
            c, DiagnosticConfig(n_theta=128, n_sigma=512, seed=7))
        slack = 4 * (hs.stderr + lb.stderr)
        assert lb.mean <= hs.mean + slack

    def test_hs_refuses_row_violating_channels(self):
        c, _, _ = random_circuit(2, 4, seed=73)  # amp-damping sites
        assert not c.is_prs1()
        with pytest.raises(ValueError, match="row-sum"):
            est.estimate_expressibility_hs(c)

    def test_lower_bound_handles_any_channel(self):
        c, _, _ = random_circuit(2, 3, seed=73)
        rep = est.estimate_expressibility_lower_bound(
            c, DiagnosticConfig(n_theta=64, n_sigma=128, n_tau=2, seed=0))
        assert np.isfinite(rep.mean) and rep.quantity.startswith("express")

    @pytest.mark.parametrize("target", [{"epsilon": 0.01}, {"delta": 0.1},
                                        {"epsilon": 0.01, "delta": 0.1}])
    @pytest.mark.parametrize("estimator", [
        est.estimate_expressibility_hs,
        est.estimate_expressibility_lower_bound])
    def test_accuracy_targets_refused(self, estimator, target):
        # the planner has no bound for these functionals: a target would be
        # recorded in the payload and never applied
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)], [])
        with pytest.raises(ValueError, match="epsilon/delta"):
            estimator(c, DiagnosticConfig(n_theta=4, n_sigma=4, **target))


class TestExpectationSamples:
    def test_thread_split_invariance(self):
        c, obs, st = random_circuit(2, 4, seed=60)
        a = est.expectation_samples(c, obs, st, count=64, seed=1, threads=1)
        b = est.expectation_samples(c, obs, st, count=64, seed=1, threads=4)
        assert np.array_equal(a, b)


class TestMoments:
    @pytest.mark.parametrize("mu", [0.0, 1e4, 1e8])
    def test_stderr_of_a_large_mean_matches_two_pass(self, mu):
        # E[x^2] - mean^2 loses every digit at mu = 1e8 (the clamp made it
        # 0.0); the chunk-wise Chan merge keeps the two-pass value
        x = mu + np.random.default_rng(5).standard_normal(100_000)
        mom, = est._drive(lambda outer: (x[outer],), x.size, 1, 1)
        assert x.size > 6 * est._CHUNK
        assert mom.mean() == pytest.approx(x.mean(), rel=1e-14, abs=1e-12)
        want = x.std(ddof=1) / np.sqrt(x.size)
        assert mom.stderr() == pytest.approx(want, rel=1e-6)

    def test_per_column_stderr_and_single_sample(self):
        x = np.random.default_rng(6).standard_normal((40, 3)) + [0, 1e8, -5]
        mom = est._Moments()
        for lo in range(0, 40, 7):
            mom.add(x[lo:lo + 7])
        assert np.allclose(mom.stderr(), x.std(axis=0, ddof=1) / np.sqrt(40),
                           rtol=1e-6, atol=0)
        one = est._Moments()
        one.add(np.array([3.0]))
        assert one.mean() == 3.0 and one.stderr() == 0.0


class TestDrive:
    @pytest.mark.parametrize("draws, lanes_per_draw, jobs", [
        (1000, 1, 4),     # 64-draw chunks, four a job: 16 chunks
        (1000, 3, 12),    # 21-draw chunks (63 lanes), four a job
        (1000, 100, 500),  # one-draw chunks (100 lanes), two a job
        (7, 1000, 7),     # a chunk wider than a job's lanes walks alone
        (200, 1, 1),      # one job
        (0, 1, 0),
    ])
    def test_folds_every_chunk_in_order_whatever_the_grouping(
            self, monkeypatch, draws, lanes_per_draw, jobs):
        monkeypatch.setattr(est, "_CHUNK", 64)
        added, add = [], est._Moments.add
        monkeypatch.setattr(est._Moments, "add", lambda mom, samples: (
            added.append(samples.copy()), add(mom, samples)))
        calls = []

        def job(outer):
            calls.append(outer)
            return outer.astype(float), -2.0 * outer

        moms = est._drive(job, draws, lanes_per_draw, 1)
        chunk = max(1, 64 // lanes_per_draw)
        want = [np.arange(lo, hi) for lo, hi in est._spans(draws, chunk)]
        assert len(calls) == jobs
        assert len(added) == 2 * len(want)
        for i, w in enumerate(want):
            assert np.array_equal(added[2 * i], w)
            assert np.array_equal(added[2 * i + 1], -2.0 * w)
        if draws:
            assert np.array_equal(np.concatenate(calls), np.arange(draws))
            assert all(c.size * lanes_per_draw <= 4 * 64
                       or c.size == chunk for c in calls)
            assert moms[0].count == draws
            assert moms[0].mean() == pytest.approx((draws - 1) / 2)

    def test_pool_only_for_two_or_more_jobs(self, monkeypatch):
        monkeypatch.setattr(est, "_CHUNK", 64)
        job = lambda outer: (np.sqrt(outer.astype(float)),)
        pools, pool = [], est.ThreadPoolExecutor

        def refused(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(est, "ThreadPoolExecutor", refused)
        one = est._drive(job, 256, 1, 2)[0]  # four chunks, one job
        assert one.count == 256

        def counted(*args, **kwargs):
            pools.append(kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr(est, "ThreadPoolExecutor", counted)
        two = est._drive(job, 257, 1, 2)[0]  # five chunks, two jobs
        assert pools == [{"max_workers": 2}]
        ref = est._drive(job, 257, 1, 1)[0]
        assert len(pools) == 1
        assert (two.mean(), two.stderr()) == (ref.mean(), ref.stderr())


_AMP_CHIP = _chip(make_amplitude_damping(0.1))
_DEP_CHIP = _chip(make_depolarizing(0.05))
_CHIP_OBS = observable_from_terms([(1.0, "IZII"), (-0.5, "XIIZ")])

#: every outer loop, each sized for at least three 64-lane chunks
CHUNKED_RUNS = {
    "mse_branching": lambda cfg: est.estimate_mse(
        _AMP_CHIP, _CHIP_OBS, None, cfg.replaced(n_theta=60, n_tau=4)),
    "mse_diagonal": lambda cfg: est.estimate_mse(
        _DEP_CHIP, _CHIP_OBS, None, cfg.replaced(n_theta=200)),
    "gradvar": lambda cfg: est.estimate_gradient_variance(
        _AMP_CHIP, _CHIP_OBS, None, 1, cfg.replaced(n_theta=100, n_tau=2)),
    "sum_gradvar": lambda cfg: est.sum_gradient_variance(
        _AMP_CHIP, _CHIP_OBS, None, cfg.replaced(n_theta=6, n_tau=2)),
    "expressibility_hs": lambda cfg: est.estimate_expressibility_hs(
        _DEP_CHIP, cfg.replaced(n_theta=30, n_sigma=8)),
    "expressibility_lb": lambda cfg: est.estimate_expressibility_lower_bound(
        _AMP_CHIP, cfg.replaced(n_theta=10, n_sigma=4, n_tau=2)),
    "expectation_samples": lambda cfg: est.expectation_samples(
        _AMP_CHIP, _CHIP_OBS, None, 200, seed=cfg.seed, threads=cfg.threads),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
def test_every_estimator_ignores_threads_across_chunks(name, monkeypatch):
    monkeypatch.setattr(est, "_CHUNK", 64)
    spans, cut = [], est._spans
    monkeypatch.setattr(est, "_spans",
                        lambda *args: spans.append(cut(*args)) or spans[-1])
    out = []
    for threads in (1, 2, 3):
        got = CHUNKED_RUNS[name](DiagnosticConfig(seed=4, threads=threads))
        out.append(got.tobytes() if isinstance(got, np.ndarray)
                   else payload_digest(got.to_json_dict()))
    assert out[0] == out[1] == out[2]
    assert len(spans) == 3 and all(len(s) >= 3 for s in spans)


def _per_term_walk_values(circuit, obs, state, theta, seed, outer, inner):
    """Reference for ``_walk_values``: one walk per observable term, each
    walk's value times the score dT/T of the PTM entry it used at each site
    (0 where T = 0)."""
    tables = [(s.channel.ptm.ravel(),
               ptm_derivative(s.channel, s.noise_param_name).ravel())
              for s in circuit.noise_sites]
    vals = np.full(len(theta), float(obs.identity_offset))
    wsum = np.zeros((len(theta), len(circuit.noise_sites)))
    for h, (coeff, word) in enumerate(obs.terms):
        xw, zw = engine.words_for_paulis([word], circuit.n)
        v, entries = engine.run_backward_batch(
            circuit, state, np.repeat(xw, len(theta), axis=0),
            np.repeat(zw, len(theta), axis=0), theta, seed=seed,
            stream_ids=compose_stream_array(outer, inner, h),
            collect_flags=True)
        scores = np.array([[dt[e] / t[e] if t[e] else 0.0
                            for (t, dt), e in zip(tables, row)]
                           for row in entries])
        vals += coeff * v
        wsum += coeff * (v[:, None] * scores)
    return vals, wsum


def _local_terms():
    # three terms through branching channels
    c, _, st = random_circuit(3, 6, seed=44)
    return c, st, observable_from_terms([(0.5, "ZII"), (-1.25, "XYI"),
                                         (2.0, "IZZ")])


def _spread_terms():
    # a 9-qubit chip through amplitude damping: Z_0, then Z_8 and X_8 on
    # one cone, then Z_4, walked in three runs
    c = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.1))
    words = [PauliString.from_codes([code if i == q else 0
                                     for i in range(9)])
             for q, code in ((0, 3), (8, 3), (8, 1), (4, 3))]
    assert engine.cone_runs(c, words, 4) == [[0], [1, 2], [3]]
    return c, zero_state(9), observable_from_terms(
        [(0.75, words[0]), (-1.0, words[1]), (0.5, words[2]),
         (1.5, words[3])])


@pytest.mark.parametrize("case", [_local_terms, _spread_terms])
@pytest.mark.parametrize("chunk", [est._CHUNK, 1])
def test_term_major_walk_matches_per_term_walks(case, chunk, monkeypatch):
    # chunk 1 walks one term a pass
    c, st, obs = case()
    assert c.branching()
    # three copies of five draws, as (replicate, draw) axes
    outer = np.tile(np.arange(5, dtype=np.uint64), 3)
    inner = np.repeat(np.arange(3, dtype=np.uint64), 5)
    theta = engine.AngleSource(7, np.arange(5, dtype=np.uint64)).view(3)
    want = _per_term_walk_values(c, obs, st, theta, 7, outer, inner)
    monkeypatch.setattr(est, "_CHUNK", chunk)
    got = est._walk_values(c, obs, st, theta, seed=7, outer=outer,
                           inner=inner, collect=True)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n_tau", [8, 20])
def test_replicate_means_add_as_draw_major_rows(n_tau):
    # copy-major lanes, as (sub-draw, replicate, draw) axes, give the mean
    # of each (draw, sub-draw) bit for bit as its n_tau draw-major lanes
    # did, a contiguous row added pairwise: adding the leading replicate
    # axis a row at a time differs, and so it does for score sums of one
    # site, whose trailing axis numpy drops
    rnd = np.random.default_rng(n_tau)
    draws, spread = 300, 3
    for tail in ((), (1,), (3,)):
        shape = (draws, spread, n_tau, *tail)
        by_draw = rnd.standard_normal(shape) * 10.0 ** rnd.uniform(-3, 3,
                                                                  shape)
        lanes = np.moveaxis(by_draw, 0, 2).reshape(-1, *tail)
        want = by_draw.reshape(draws * spread, n_tau, *tail).mean(axis=1)
        got = est._replicate_mean(lanes, n_tau, draws)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if tail != (3,):
            leading = lanes.reshape(spread, n_tau, draws, *tail).mean(axis=1)
            assert np.moveaxis(leading, 1, 0).tobytes() != want.tobytes()


class TestSiblingWalks:
    """A job's sibling walks (replicates and parameter shifts of one
    circuit over the same draws) are one engine walk while they fit one
    chunk together, and stay apart when they do not."""

    @staticmethod
    def _walk_lanes(monkeypatch, run):
        lanes, walk = [], est.run_backward_batch

        def counted(circuit, state, x0, *args, **kwargs):
            lanes.append(len(x0))
            return walk(circuit, state, x0, *args, **kwargs)

        monkeypatch.setattr(est, "run_backward_batch", counted)
        run()
        return lanes

    def test_both_shifts_of_the_wide_chip_are_one_walk(self, monkeypatch):
        # Z_45's cone holds 45 parameters: each shift walks 80 x 45 lanes
        c = gen_grid_chip(10, 10, 2, "cz", make_depolarizing(0.01))
        obs = observable_from_terms([(1.0, PauliString.from_codes(
            [3 if q == 45 else 0 for q in range(100)]))])
        lanes = self._walk_lanes(
            monkeypatch, lambda: est.sum_gradient_variance(
                c, obs, None, DiagnosticConfig(n_theta=80, seed=1)))
        assert lanes == [2 * 3600]

    def test_two_replicates_by_two_shifts_are_one_walk(self, monkeypatch):
        from test_golden import run_sum_gradvar_siblings
        lanes = self._walk_lanes(monkeypatch, run_sum_gradvar_siblings)
        assert lanes == [4 * 2080]

    def test_siblings_wider_than_a_chunk_stay_apart(self, monkeypatch):
        # 4096 draws x 8 paths: each replicate fills two chunks
        c = gen_grid_chip(3, 3, 2, "rzz", make_amplitude_damping(0.05))
        obs = observable_from_terms([(1.0, PauliString.from_codes(
            [3 if q == 4 else 0 for q in range(9)]))])
        lanes = self._walk_lanes(monkeypatch, lambda: est.estimate_mse(
            c, obs, None, DiagnosticConfig(n_theta=4096, n_tau=8, seed=1)))
        assert lanes == [4096, 32768, 32768]

    @pytest.mark.parametrize("run", [est.estimate_mse,
                                     est.estimate_sensitivity_map])
    def test_replicate_walks_share_one_angle_source(self, monkeypatch, run):
        # the job keys the one group of its 50 draws once: the noiseless
        # walk and every noisy walk (two replicates, and the map's residual
        # walk for its gamma = 0 site) read views of one source
        c, terms = SCORE_CASES["amplitude_damping_gamma0"]()
        hashed, keys = engine.theta_keys, []
        monkeypatch.setattr(engine, "theta_keys", lambda seed, groups, *d: (
            keys.append(len(groups)), hashed(seed, groups, *d))[1])
        run(c, observable_from_terms(terms), None,
            DiagnosticConfig(n_theta=50, n_tau=4, seed=3))
        assert keys == [1]


def _amp_chip_z4():
    c = gen_grid_chip(3, 3, 2, "rzz", make_amplitude_damping(0.05))
    return c, observable_from_terms([(1.0, axis(9, "Z", (4,)))])


def _wide_chip_z45():
    c = gen_grid_chip(10, 10, 2, "cz", make_depolarizing(0.01))
    return c, observable_from_terms([(1.0, axis(100, "Z", (45,)))])


class TestJobHashing:
    """Each job keys its draws' groups of 64 uids once (``rng.theta_keys``),
    and each walk hashes the angle words of each parameter in its light
    cone once (``rng.theta_words``), for every group at a time, and
    transposes only its walk words, at entry and exit; per job, at any
    thread count.  A build of random Pauli words (``engine.pauli_codes``)
    keys its uids' groups once in the sigma domain, hashes the words of all
    of its qubits in one call and transposes once."""

    @staticmethod
    def _counts(monkeypatch, run):
        """(groups keyed by each theta_keys call, a (source, parameter)
        pair per parameter hashed by a theta_words call, the backward walks'
        lanes, the Pauli word builds) of ``run()``; a source is named by
        its first key.  The builds are (groups keyed, (source, qubit, code
        bits) words hashed, the number of builds), in the sigma domain."""
        keys, words, walks, batches, transposes = [], [], [], [], []
        sigma_keys, sigma_words, builds = [], [], []
        hash_keys, hash_words = engine.theta_keys, engine.theta_words
        walk, batch = est.run_backward_batch, engine._run_batch
        transpose, codes = engine._transpose, est.pauli_codes

        def counted_keys(seed, groups, domain):
            out = hash_keys(seed, groups, domain)
            if domain == rng.DOMAIN_SIGMA:
                sigma_keys.append((len(groups), int(out[0])))
            else:
                keys.append(len(groups))
            return out

        def counted_words(k, params, bits=(0, 1)):
            if int(k[0]) in {key for _, key in sigma_keys}:
                sigma_words.extend((int(k[0]), int(p), tuple(bits))
                                   for p in params)
            else:
                words.extend((int(k[0]), int(p)) for p in params)
            return hash_words(k, params, bits)

        def counted_walk(circuit, state, x0, *args, **kwargs):
            walks.append(len(x0))
            return walk(circuit, state, x0, *args, **kwargs)

        monkeypatch.setattr(engine, "theta_keys", counted_keys)
        monkeypatch.setattr(engine, "theta_words", counted_words)
        monkeypatch.setattr(est, "pauli_codes", lambda *a, **k: (
            builds.append(1), codes(*a, **k))[1])
        monkeypatch.setattr(est, "run_backward_batch", counted_walk)
        monkeypatch.setattr(engine, "_run_batch", lambda *a, **k: (
            batches.append(1), batch(*a, **k))[1])
        monkeypatch.setattr(engine, "_transpose", lambda *a: (
            transposes.append(1), transpose(*a))[1])
        run()
        assert len(transposes) == 4 * len(batches) + len(builds)
        return sorted(keys), sorted(words), sorted(walks), (
            sorted(n for n, _ in sigma_keys), sorted(sigma_words),
            len(builds))

    def _per_thread_count(self, monkeypatch, call):
        counts = [self._counts(monkeypatch, lambda: call(t))
                  for t in (1, 2, 3)]
        assert all(c == counts[0] for c in counts[1:])
        return counts[0]

    @staticmethod
    def _cone(circuit, obs):
        return sorted(engine.cone_params(circuit,
                                         [w for _, w in obs.terms]))

    @pytest.mark.parametrize("run", [est.estimate_mse,
                                     est.estimate_sensitivity_map])
    def test_noise_jobs_key_once_and_hash_once_a_walk(self, monkeypatch,
                                                      run):
        # 64-lane chunks of 8 draws x 8 paths, jobs of four chunks: 40
        # draws are two jobs, uids 0 to 31 and 32 to 39, each keying group
        # 0 once; each walks the noiseless circuit on one lane a draw and
        # the noisy one on eight, twice (two replicates): six walks
        monkeypatch.setattr(est, "_CHUNK", 64)
        c, obs = _amp_chip_z4()
        keys, words, walks, sigma = self._per_thread_count(
            monkeypatch, lambda t: run(c, obs, None, DiagnosticConfig(
                n_theta=40, n_tau=8, seed=5, threads=t)))
        assert keys == [1, 1] and sigma == ([], [], 0)
        key = int(rng.theta_keys(5, np.uint64(0)))
        assert words == sorted([(key, p) for p in self._cone(c, obs)] * 6)
        assert walks == [8, 32, 64, 64, 256, 256]

    def test_expressibility_hashes_each_angle_vector_once(self, monkeypatch):
        # one job, two angle vectors a draw, theta1 at uids 0 to 7 and
        # theta2 at 2**63 to 2**63 + 7: one group each; every walk reads
        # every parameter, theta1's three (backward) and theta2's two
        # (forward).  Its 8 draws x 64 Pauli words take three builds: the
        # quadratic's full words at word uids 0 to 511 (groups 0 to 7) and
        # the two overlaps' I/Z words at 512 to 1023 and 1024 to 1535
        # (groups 8 to 15 and 16 to 23), each keying its 8 groups once and
        # hashing its 9 qubits' words (both code bits, or the high one)
        c = gen_grid_chip(3, 3, 2, "rzz", make_depolarizing(0.02))
        keys, words, _, sigma = self._per_thread_count(
            monkeypatch, lambda t: est.estimate_expressibility_hs(
                c, DiagnosticConfig(n_theta=8, n_sigma=64, seed=5,
                                    threads=t)))
        assert keys == [1, 1]
        th1, th2 = (int(rng.theta_keys(5, np.uint64(g)))
                    for g in (0, 2 ** 57))
        params = range(c.n_params)
        assert words == sorted([(th1, p) for p in params] * 3
                               + [(th2, p) for p in params] * 2)
        full, zx1, zx2 = (int(rng.theta_keys(5, np.uint64(g),
                                             rng.DOMAIN_SIGMA))
                          for g in (0, 8, 16))
        assert sigma == ([8, 8, 8], sorted(
            [(full, q, (0, 1)) for q in range(9)]
            + [(key, q, (1,)) for key in (zx1, zx2) for q in range(9)]), 3)

    def test_merged_siblings_hash_each_draw_once(self, monkeypatch):
        # both shifts of Z_45's 45 cone parameters at 80 draws are one
        # 7200-lane walk of one view: 80 draws in two groups, keyed once
        c, obs = _wide_chip_z45()
        keys, words, walks, sigma = self._per_thread_count(
            monkeypatch, lambda t: est.sum_gradient_variance(
                c, obs, None, DiagnosticConfig(n_theta=80, seed=5,
                                               threads=t)))
        assert keys == [2] and walks == [7200] and sigma == ([], [], 0)
        (key,) = {key for key, _ in words}
        assert words == [(key, p) for p in self._cone(c, obs)]

    def test_line_chain_walks_one_pass_a_job(self, monkeypatch):
        # four times the benchmark's 32768 draws: the two terms share a
        # pass, so a job is two chunks of 16384 draws (512 groups), whose
        # 65536 lanes fill one pass; four jobs, one walk each
        c, obs, _ = est._line_case(8, 64)
        keys, words, walks, sigma = self._per_thread_count(
            monkeypatch, lambda t: est.line_variance_benchmark(
                8, 64, 4 * 32768, seed=5, threads=t))
        assert keys == [512] * 4 and walks == [65536] * 4
        assert sigma == ([], [], 0)
        sources = sorted({key for key, _ in words})
        assert len(sources) == 4 and words == [
            (key, p) for key in sources for p in self._cone(c, obs)]


class TestLineBenchmark:
    def test_target_formula(self):
        assert est.line_variance_target(4) == pytest.approx(2.0 / 7.0)
        assert est.line_variance_target(6) == pytest.approx(2.0 / 11.0)

    def test_small_run_reports_target(self):
        rep = est.line_variance_benchmark(3, 2, 400, seed=5)
        assert rep.stats["target"] == pytest.approx(est.line_variance_target(3))
        assert rep.n_theta == 400
        again = est.line_variance_benchmark(3, 2, 400, seed=5, threads=4)
        assert rep.mean == again.mean  # thread count cannot move a digit

    @pytest.mark.parametrize("n_theta", [0, 1])
    def test_variance_needs_two_draws(self, n_theta):
        with pytest.raises(ValueError, match="n_theta >= 2"):
            est.line_variance_benchmark(3, 2, n_theta)

    def test_converges_loosely_at_small_n(self):
        rep = est.line_variance_benchmark(3, 64, 4000, seed=9)
        target = est.line_variance_target(3)
        assert abs(rep.mean - target) / target < 0.15
