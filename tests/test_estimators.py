"""Sampled diagnostics against their exact grid counterparts.

The closed forms for the toy R_X + depolarizing circuit (see test_oracle)
give hard anchors; everything else is cross-checked route-vs-route: sampled
estimate within 4 stderr of the exact grid enumeration, and the package's
own fast grid path against the dense oracle.
"""

import numpy as np
import pytest

from conftest import axis, random_circuit, rx_dep_circuit
from pqcdiag import engine, oracle
from pqcdiag import estimators as est
from pqcdiag.channels import make_amplitude_damping, make_depolarizing
from pqcdiag.circuits import (Circuit, NoiseSite, Rotation, gen_grid_chip,
                              observable_from_terms, zero_state)
from pqcdiag.paulis import PauliString
from pqcdiag.reports import DiagnosticConfig
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


class TestMse:
    def test_toy_anchor(self):
        c, obs, st = rx_dep_circuit(0.1)
        rep = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=4000,
                                                            seed=2))
        assert abs(rep.mean - 0.005) < max(4 * rep.stderr, 1e-12)
        assert rep.quantity == "mse" and rep.n_tau == 1  # diagonal noise

    def test_exact_grid_route_is_closed_form(self):
        c, obs, st = rx_dep_circuit(0.1)
        assert est.exact_grid_mse(c, obs, st) == pytest.approx(0.005,
                                                               abs=1e-12)

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

    def test_seed_reproducibility_and_seed_sensitivity(self):
        c, obs, st = random_circuit(2, 5, seed=64)
        a = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=300, seed=5))
        b = est.estimate_mse(c, obs, st, DiagnosticConfig(n_theta=300, seed=5))
        other = est.estimate_mse(c, obs, st,
                                 DiagnosticConfig(n_theta=300, seed=6))
        assert a.mean == b.mean and a.digest() == b.digest()
        assert a.mean != other.mean


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
            want = est.exact_grid_gradient_variance(c, obs, st, k)
            rep = est.estimate_gradient_variance(
                c, obs, st, k, DiagnosticConfig(n_theta=3000, n_tau=4,
                                                seed=k))
            assert abs(rep.mean - want) < max(4 * rep.stderr, 1e-10), k
            assert rep.quantity == f"gradient_variance[{k}]" \
                or "gradient" in rep.quantity

    def test_exact_grid_route_vs_oracle(self):
        c, obs, st = random_circuit(2, 4, seed=66)
        for k in range(min(2, c.n_params)):
            assert est.exact_grid_gradient_variance(c, obs, st, k) \
                == pytest.approx(
                    oracle.grid_enumerate(c, obs, f"gradvar({k})", st),
                    abs=1e-10)

    def test_sum_matches_exact_sum(self):
        c, obs, st = random_circuit(2, 3, seed=68)
        want = sum(est.exact_grid_gradient_variance(c, obs, st, k)
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
            est.exact_grid_gradient_variance(c, obs, st, 5)


class TestExactGridValues:
    def test_toy_values_by_index(self):
        c, obs, st = rx_dep_circuit(0.1)
        vals = est.exact_grid_values(c, obs, st)
        assert vals.shape == (4,)
        assert np.allclose(vals, [0.9, 0.0, -0.9, 0.0], atol=1e-12)

    def test_matches_dense_pointwise(self):
        c, obs, st = random_circuit(2, 3, seed=80)
        vals = est.exact_grid_values(c, obs, st)
        r = np.random.default_rng(0)
        for idx in r.integers(0, vals.size, size=6):
            ks = [(int(idx) >> (2 * j)) & 3 for j in range(c.n_params)]
            want = oracle.dense_expectation(
                c, np.array(ks) * np.pi / 2, obs, st)
            assert vals[idx] == pytest.approx(want, abs=1e-11)

    def test_point_cap(self):
        c, obs, st = random_circuit(2, 10, seed=82, channels=())
        with pytest.raises(ValueError):
            est.exact_grid_values(c, obs, st, point_cap=100)


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

    def test_l1_bound_formula(self):
        obs = observable_from_terms([(1.0, "Z")])
        got = est.l1_expressibility_bound(0.5, obs)
        assert got == pytest.approx(0.5 - 2.0 / 6.0)


class TestExpectationSamples:
    def test_start_offset_slices_the_stream(self):
        c, obs, st = random_circuit(2, 4, seed=60)
        full = est.expectation_samples(c, obs, st, count=10, seed=3)
        tail = est.expectation_samples(c, obs, st, count=6, seed=3, start=4)
        assert np.array_equal(full[4:], tail)

    def test_thread_split_invariance(self):
        c, obs, st = random_circuit(2, 4, seed=60)
        a = est.expectation_samples(c, obs, st, count=64, seed=1, threads=1)
        b = est.expectation_samples(c, obs, st, count=64, seed=1, threads=4)
        assert np.array_equal(a, b)


def _per_term_walk_values(circuit, obs, state, theta, seed, outer, inner):
    """Reference for ``_walk_values``: one walk per observable term."""
    vals = np.full(len(theta), float(obs.identity_offset))
    wsum = np.zeros((len(theta), len(circuit.noise_sites)))
    for h, (coeff, word) in enumerate(obs.terms):
        xw, zw = engine.words_for_paulis([word], circuit.n)
        v, flags = engine.run_backward_batch(
            circuit, state, np.repeat(xw, len(theta), axis=0),
            np.repeat(zw, len(theta), axis=0), theta, seed=seed,
            stream_ids=compose_stream_array(outer, inner, h),
            collect_flags=True)
        vals += coeff * v
        wsum += coeff * (v[:, None] * flags)
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
    outer = np.repeat(np.arange(5, dtype=np.uint64), 3)
    inner = np.tile(np.arange(3, dtype=np.uint64), 5)
    theta = engine.HashedTheta(7, outer)
    want = _per_term_walk_values(c, obs, st, theta, 7, outer, inner)
    monkeypatch.setattr(est, "_CHUNK", chunk)
    got = est._walk_values(c, obs, st, theta, seed=7, outer=outer,
                           inner=inner, collect=True)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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

    def test_converges_loosely_at_small_n(self):
        rep = est.line_variance_benchmark(3, 64, 4000, seed=9)
        target = est.line_variance_target(3)
        assert abs(rep.mean - target) / target < 0.15
