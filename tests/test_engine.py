"""Path walker: exactness without branching, unbiasedness with it, and
bit-identity between the batched walker and the scalar reference walk
(``reference.backprop_term``); the exact reference (``reference.exact_term``)
against the dense oracle."""

import functools
import math
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (axis, copy_shifted, exact_expectation, plane_angles,
                      random_circuit, rotations_only, rx_dep_circuit,
                      wide_circuit)
from pqcdiag import engine, estimators, oracle, rng
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_mmff, make_pauli_channel, make_raw_ptm,
                              make_thermal)
from pqcdiag.circuits import (Circuit, Clifford, FixedAngle, NoiseSite,
                              Rotation, SparseState, ThetaAssignment,
                              gen_grid_chip, gen_line_benchmark,
                              observable_from_terms, zero_state)
from pqcdiag.paulis import (CLIFFORD_1Q_KINDS, CLIFFORD_2Q_KINDS, CODE_TO_X,
                            CODE_TO_Z, PauliString, clifford_table, commutes,
                            mask_to_words)
from pqcdiag.reports import DiagnosticConfig
from pqcdiag.rng import (angle_indices, compose_stream_array, hash_words,
                         theta_words)
from reference import (MaterializedTheta, RngStream, backprop_term,
                       complex_terminal_values, exact_term,
                       trace_pauli_with_entries)


def random_theta(circuit, seed):
    r = np.random.default_rng(seed)
    return ThetaAssignment(r.integers(0, 4, size=circuit.n_params))


def sampled_expectation(circuit, obs, state, theta, n_tau, *, seed=0,
                        outer=0):
    """(mean, stderr, draws) of <O> at one grid ``theta`` over ``n_tau``
    inner draws, or one draw when nothing branches (it is exact then).

    One batched walk with a lane per (draw, term), the term's lane keyed by
    ``compose_stream_array(outer, draw, term)``.
    """
    n_eff = n_tau if circuit.branching() else 1
    n_terms = len(obs.terms)
    draws = np.full(n_eff, obs.identity_offset, dtype=np.float64)
    if n_terms:
        x0, z0 = engine.words_for_paulis([w for _, w in obs.terms], circuit.n)
        streams = compose_stream_array(outer, np.arange(n_eff)[:, None],
                                       np.arange(n_terms))
        vals = engine.run_backward_batch(
            circuit, state, np.tile(x0, (n_eff, 1)), np.tile(z0, (n_eff, 1)),
            MaterializedTheta(np.tile(theta.values, (n_eff * n_terms, 1))),
            seed=seed, stream_ids=streams.ravel())
        for h, (coeff, _) in enumerate(obs.terms):
            draws += coeff * vals[h::n_terms]
    stderr = draws.std(ddof=1) / math.sqrt(n_eff) if n_eff > 1 else 0.0
    return float(draws.mean()), float(stderr), n_eff


class TestExactness:
    def test_noiseless_walks_match_dense(self):
        for seed in range(6):
            c, obs, st = rotations_only(3, 7, seed=20 + seed)
            th = random_theta(c, seed)
            mean, stderr, n_draws = sampled_expectation(c, obs, st, th, 64,
                                                        seed=seed)
            want = oracle.dense_expectation(c, th.as_radians(), obs, st)
            assert mean == pytest.approx(want, abs=1e-12)
            # nothing branches: forced to a single exact pass
            assert stderr == 0.0 and n_draws == 1

    def test_diagonal_noise_is_still_exact(self):
        c, obs, st = rx_dep_circuit(0.3)
        th = ThetaAssignment(np.array([1]))
        mean, stderr, _ = sampled_expectation(c, obs, st, th, 32)
        assert mean == pytest.approx(
            oracle.dense_expectation(c, th.as_radians(), obs, st), abs=1e-14)
        assert stderr == 0.0

    def test_enumeration_matches_dense_with_branching(self):
        for seed in range(8):
            c, obs, st = random_circuit(3, 6, seed=40 + seed)
            th = random_theta(c, seed)
            got = exact_expectation(c, obs, st, th)
            want = oracle.dense_expectation(c, th.as_radians(), obs, st)
            assert got == pytest.approx(want, abs=1e-10)


class TestSampling:
    def test_unbiased_vs_enumeration(self):
        c, obs, st = random_circuit(2, 5, seed=72)
        assert any(not s.channel.diagonal for s in c.noise_sites)
        th = random_theta(c, 1)
        exact = exact_expectation(c, obs, st, th)
        mean, stderr, _ = sampled_expectation(c, obs, st, th, 20000, seed=3)
        assert stderr > 0.0
        assert abs(mean - exact) < 4 * stderr

    def test_outer_index_decorrelates_draws(self):
        c, obs, st = random_circuit(2, 5, seed=72)
        th = random_theta(c, 1)
        a = sampled_expectation(c, obs, st, th, 4, seed=0, outer=0)
        b = sampled_expectation(c, obs, st, th, 4, seed=0, outer=1)
        again = sampled_expectation(c, obs, st, th, 4, seed=0, outer=0)
        assert a[0] == again[0]
        assert a[0] != b[0]  # same angles, different inner draws

    def test_dead_branch_terminates_with_zero(self):
        # backward X hits the measure-and-reset channel's zero column
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)],
                    [NoiseSite(0, make_mmff(""), (0, 0), None)])
        out = backprop_term(c, ThetaAssignment(np.array([0])),
                            axis(1, "X", (0,)), zero_state(1),
                            RngStream(seed=0, stream_id=0))
        assert out.terminal and out.value == 0.0

    def test_trace_collection(self):
        c, obs, st = rx_dep_circuit(0.1)
        out = backprop_term(c, ThetaAssignment(np.array([1])),
                            axis(1, "Z", (0,)), st,
                            RngStream(seed=0, stream_id=0),
                            collect_trace=True)
        assert out.trace is not None and len(out.trace) >= 2


def mixed_circuit():
    """3 qubits: Cliffords, a 2-qubit mmff channel, thermal and amplitude
    damping, a three-term observable and a state with coherences."""
    n = 3
    ops = [Rotation(axis(n, "X", (0,)), 0), Clifford("cz", (0, 1)),
           Rotation(axis(n, "YZ", (1, 2)), 1), Rotation(axis(n, "Y", (2,)), 2),
           Clifford("h", (2,)), Rotation(axis(n, "XX", (0, 2)), 3)]
    sites = [NoiseSite(0, make_amplitude_damping(0.2, (0,)), (0, 0), "gamma"),
             NoiseSite(2, make_mmff("X", (1, 2)), (1, 0), None),
             NoiseSite(3, make_thermal(0.15, 0.1, (2,)), (2, 0), "gamma"),
             NoiseSite(5, make_amplitude_damping(0.3, (1,)), (3, 0), "gamma")]
    obs = observable_from_terms([(0.7, "ZIZ"), (-0.4, "XYI"), (0.25, "IIZ")])
    state = SparseState(n, [(0, 0, 0.5), (5, 5, 0.5), (0, 5, 0.25j),
                            (5, 0, -0.25j)])
    return Circuit(n, ops, sites), obs, state


#: (circuit, theta seed) per case; theta = integers(0, 4) from that seed
PINNED_CASES = {
    "random-2-5-72": (lambda: random_circuit(2, 5, seed=72), 5),
    "random-3-6-41": (lambda: random_circuit(3, 6, seed=41), 5),
    "mixed-3": (mixed_circuit, 0),
}

#: sampled_expectation(seed=23) as (mean, stderr) float hex, recorded with
#: a scalar per-draw walk loop before the batched walker existed
PINNED_EXPECTATIONS = {
    ("random-2-5-72", 1, 0): ("0x1.8eeda2f2630f5p-4", "0x0.0p+0"),
    ("random-2-5-72", 1, 4294967295): ("0x1.8eeda2f2630f5p-4", "0x0.0p+0"),
    ("random-2-5-72", 7, 0): ("-0x1.55f042869e0d2p-5",
                              "0x1.264b378f88e16p-5"),
    ("random-2-5-72", 7, 4294967295): ("0x1.c7eb035e2811ap-7",
                                       "0x1.4261fa2e44d0bp-5"),
    ("random-2-5-72", 64, 0): ("-0x1.f2a90baefbd33p-7",
                               "0x1.8d24b23d4fc3ap-7"),
    ("random-2-5-72", 64, 4294967295): ("-0x1.2b323a35ca4b7p-6",
                                        "0x1.8af368c934bdfp-7"),
    ("random-3-6-41", 1, 0): ("0x1.1aaa0309a6b00p-1", "0x0.0p+0"),
    ("random-3-6-41", 1, 4294967295): ("0x1.1aaa0309a6b00p-1", "0x0.0p+0"),
    ("random-3-6-41", 7, 0): ("0x1.e49129c766e49p-2", "0x1.430b712f99edbp-4"),
    ("random-3-6-41", 7, 4294967295): ("0x1.e49129c766e49p-2",
                                       "0x1.430b712f99edbp-4"),
    ("random-3-6-41", 64, 0): ("0x1.7bd47414f7fc8p-2",
                               "0x1.0b8989f220491p-5"),
    ("random-3-6-41", 64, 4294967295): ("0x1.dcfee52049490p-2",
                                        "0x1.9dc72394b9b28p-6"),
    ("mixed-3", 1, 0): ("0x1.9988292e7456fp-2", "0x0.0p+0"),
    ("mixed-3", 1, 4294967295): ("0x1.9988292e7456fp-2", "0x0.0p+0"),
    ("mixed-3", 7, 0): ("0x1.6d30fe211a42bp-2", "0x1.62b9586ad0a21p-5"),
    ("mixed-3", 7, 4294967295): ("0x1.6d30fe211a42bp-2",
                                 "0x1.62b9586ad0a22p-5"),
    ("mixed-3", 64, 0): ("0x1.4bef9dd716b38p-2", "0x1.0eecc87dbfa54p-6"),
    ("mixed-3", 64, 4294967295): ("0x1.7c6ef4edb139ap-2",
                                  "0x1.6cbe6d4d8576fp-7"),
}


def pinned_case(name):
    build, theta_seed = PINNED_CASES[name]
    c, obs, st = build()
    th = ThetaAssignment(np.random.default_rng(theta_seed).integers(
        0, 4, size=c.n_params))
    return c, obs, st, th


class TestPinnedExpectation:
    @pytest.mark.parametrize("key", sorted(PINNED_EXPECTATIONS))
    def test_mean_and_stderr_bit_for_bit(self, key):
        name, n_tau, outer = key
        c, obs, st, th = pinned_case(name)
        mean, stderr, n_draws = sampled_expectation(c, obs, st, th, n_tau,
                                                    seed=23, outer=outer)
        assert (mean.hex(), stderr.hex()) == PINNED_EXPECTATIONS[key]
        assert n_draws == n_tau

    def test_too_many_terms_refused(self):
        words = [PauliString.from_codes([(i >> (2 * q)) & 3 for q in range(7)])
                 for i in range(1, 4098)]
        c = Circuit(7, [Rotation(axis(7, "X", (0,)), 0)],
                    [NoiseSite(0, make_depolarizing(0.1), (0, 0), "lambda")])
        obs = observable_from_terms([(1.0, w) for w in words])
        with pytest.raises(ValueError, match="observable terms"):
            estimators.estimate_mse(c, obs, zero_state(7),
                                    DiagnosticConfig(n_theta=1))

    def test_identity_only_observable(self):
        c, _, st, th = pinned_case("mixed-3")
        obs = observable_from_terms([(0.5, "III")])
        mean, stderr, _ = sampled_expectation(c, obs, st, th, 5,
                                              outer=1 << 32)
        assert (mean, stderr) == (0.5, 0.0)
        assert exact_expectation(c, obs, st, th) == 0.5


class TestBatchedWalker:
    def test_scalar_and_batch_are_bit_identical(self):
        c, obs, st = random_circuit(3, 6, seed=55)
        th = random_theta(c, 2)
        seed = 17
        words = [w for _, w in obs.terms]
        x0, z0 = engine.words_for_paulis(words, c.n)
        streams = compose_stream_array(9, 4, np.arange(len(words)))
        theta_b = MaterializedTheta(np.tile(th.values, (len(words), 1)))
        batch = engine.run_backward_batch(c, st, x0, z0, theta_b, seed=seed,
                                          stream_ids=streams)
        for t, w in enumerate(words):
            scalar = backprop_term(
                c, th, w, st, RngStream(seed=seed, stream_id=int(streams[t])))
            assert scalar.value == batch[t]  # exactly, not approximately

    def test_batch_exact_mode_sums_branches(self):
        # the branch sum the batched walker samples: enumerated per term it
        # matches the dense oracle, and the walker's draws average to it
        c, obs, st = random_circuit(2, 5, seed=77)
        assert c.branching()
        th = random_theta(c, 3)
        exact = exact_expectation(c, obs, st, th)
        assert exact == pytest.approx(
            oracle.dense_expectation(c, th.as_radians(), obs, st), abs=1e-12)
        mean, stderr, _ = sampled_expectation(c, obs, st, th, 256, seed=5)
        assert mean == pytest.approx(exact, abs=4 * stderr + 1e-12)

    def test_collect_flags_sees_site_words(self):
        # site sits on qubit 1; a Z0 observable never touches it, a Z1 does
        ops = [Rotation(axis(2, "X", (0,)), 0), Rotation(axis(2, "X", (1,)), 1)]
        site = NoiseSite(1, make_amplitude_damping(0.2, (1,)), (0, 0), "gamma")
        c = Circuit(2, ops, [site])
        words = [axis(2, "Z", (0,)), axis(2, "Z", (1,))]
        x0, z0 = engine.words_for_paulis(words, 2)
        theta_b = MaterializedTheta(np.zeros((2, 2), dtype=np.uint8))
        streams = compose_stream_array(0, 0, np.arange(2))
        vals, flags = engine.run_backward_batch(
            c, zero_state(2), x0, z0, theta_b, stream_ids=streams,
            collect_flags=True)
        assert flags.shape == (2, 1)
        assert not flags[0, 0] and flags[1, 0]
        assert vals[0] == 1.0  # untouched Z0 walk closes exactly

    def test_forward_batch_round_trip(self):
        # forward then backward through the same noiseless circuit restores
        # the word, so closing against the state gives the original trace
        c, obs, st = rotations_only(2, 5, seed=91)
        th = random_theta(c, 5)
        w0 = axis(2, "ZZ", (0, 1))
        x0, z0 = engine.words_for_paulis([w0], 2)
        theta_b = MaterializedTheta(th.values[None, :])
        x1, z1, w1 = engine.run_forward_batch(c, x0, z0, theta_b)
        v = engine.run_backward_batch(c, st, x1, z1, theta_b, w0=w1)
        assert v[0] == pytest.approx(
            trace_pauli_with_entries(w0, st.entries), abs=1e-12)


def _site_circuit(channels):
    """One qubit, a Z rotation per channel and the channel after it: noise
    site k follows rotation k, so a backward walk meets the last site
    first."""
    return Circuit(1, [Rotation(axis(1, "Z", (0,)), k)
                       for k in range(len(channels))],
                   [NoiseSite(k, ch, (k, 0), None)
                    for k, ch in enumerate(channels)])


def _x_walk(c, lanes, w0=None):
    """(values, flags) of ``lanes`` backward X walks at random angles."""
    x0, z0 = engine.words_for_paulis([axis(1, "X", (0,))] * lanes, 1)
    theta = MaterializedTheta(np.random.default_rng(lanes).integers(
        0, 4, size=(lanes, c.n_params)).astype(np.uint8))
    return engine.run_backward_batch(c, zero_state(1), x0, z0, theta,
                                     w0=w0, collect_flags=True)


class TestDeadBatches:
    """A batch stops once every lane's weight is 0.  Only a step with a
    zero factor can make that happen, and a given w0 can start it so."""

    def test_steps_that_can_zero_a_weight(self):
        # channel -> does it kill (backward, forward)
        chans = [(make_depolarizing(0.1), (False, False)),
                 (make_amplitude_damping(0.3), (False, False)),
                 (make_mmff(""), (True, True)),
                 (make_raw_ptm(np.diag([1.0, 0.0, -0.0, 0.4]), (0,)),
                  (True, True)),
                 # column X is empty; forward, the walk reads its rows
                 (make_raw_ptm(np.array([[1.0, 0.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.5, 0.0],
                                         [0.0, 0.0, 0.5, 0.0],
                                         [0.0, 0.0, 0.0, 1.0]]), (0,)),
                  (True, False))]
        c = _site_circuit([ch for ch, _ in chans])
        for d, direction in enumerate(("backward", "forward")):
            steps = sorted((s for s in engine._program(c, direction)
                            if isinstance(s, engine._ChanStep)),
                           key=lambda s: s.ordinal)
            assert [s.form.kills for s in steps] == [k[d] for _, k in chans]

    def test_a_batch_stops_where_its_last_lane_dies(self):
        # site 1 zeroes the X and Y columns every lane meets; site 0 lies
        # beyond it and is never walked
        c = _site_circuit([make_depolarizing(0.1), make_mmff(""),
                           make_depolarizing(0.2)])
        vals, flags = _x_walk(c, 130)
        assert not np.any(vals)
        assert np.all(flags[:, 2] == 5)  # X in, X out
        assert np.all(flags[:, 1] != 0)
        assert not np.any(flags[:, 0])

    def test_a_zero_w0_stops_at_the_first_channel_step(self):
        c = _site_circuit([make_depolarizing(0.1), make_depolarizing(0.2)])
        vals, flags = _x_walk(c, 70, w0=np.zeros(70))
        assert not np.any(vals)
        assert np.all(flags[:, 1] == 5) and not np.any(flags[:, 0])
        w0 = np.zeros(70)
        w0[69] = 1.0  # one live lane walks the whole batch on
        _, flags = _x_walk(c, 70, w0=w0)
        assert np.all(flags != 0)

    def test_sign_fold_is_negation(self):
        # the sign row, XORed into the weights' sign bits, negates exactly
        # as np.negative does: zeros, infinities and NaNs included
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            5e-324, -1.5, 2.0 ** 1000, 1.0])
        r = np.random.default_rng(8)
        for lanes in (1, 10, 64, 130):
            w = np.resize(special, lanes)
            bits = r.integers(0, 2, size=(1, lanes), dtype=np.uint8)
            plane = engine._pack(bits)[0]
            want = w.copy()
            np.negative(want, out=want, where=bits[0].astype(bool))
            got = w.copy()
            engine._fold_signs(got, plane)
            assert got.tobytes() == want.tobytes()


def _counted_and_per_step(build, walk):
    """walk(circuit) on a circuit from ``build()``, whose walks count their
    channel factors where they can, and on a fresh one whose walks multiply
    them in at every step: (counted, per step)."""
    counted = walk(build())
    with mock.patch.object(engine, "_counted_factor", lambda prog: None):
        per_step = walk(build())
    return counted, per_step


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


#: start weights the power table of |f| does not hold, and some it does:
#: +-1.0 for every f, and 0.9 ** 3 and -(0.9 ** 2), formed a factor at a
#: time, for |f| = 0.9
_SPECIAL_W0 = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                        -np.nan, -1.5, 2.0 ** 1000, 0.9 * 0.9 * 0.9,
                        -(0.9 * 0.9), 1.0, -1.0])


def _x_weights(c, lanes, w0=None):
    """(x, z, w) of ``lanes`` backward X walks at random angles."""
    x0, z0 = engine.words_for_paulis([axis(1, "X", (0,))] * lanes, 1)
    theta = MaterializedTheta(np.random.default_rng(lanes).integers(
        0, 4, size=(lanes, c.n_params)).astype(np.uint8))
    return engine._run_batch(c, "backward", x0, z0, theta, w0=w0)[:3]


def _chip_words(c, b, seed):
    r = np.random.default_rng(seed)
    x0, z0 = (r.integers(0, 2 ** c.n, size=(b, 1), dtype=np.uint64)
              for _ in range(2))
    return x0, z0, engine.HashedTheta(seed, np.arange(b, dtype=np.uint64))


def _damped_register(n):
    """A circuit on ``n`` qubits whose only channel is amplitude damping at
    gamma 0.1: three qubits, a 7x10 chip, or on 130 qubits
    ``wide_circuit``, whose rotations straddle the word edges."""
    if n == 130:
        return wide_circuit()
    if n == 70:
        return gen_grid_chip(7, 10, 1, "rzz", make_amplitude_damping(0.1))
    ops = [Rotation(axis(3, "X", (0,)), 0), Rotation(axis(3, "ZZ", (0, 1)), 1),
           Rotation(axis(3, "Y", (2,)), 2), Rotation(axis(3, "XZ", (1, 2)), 3),
           Rotation(axis(3, "Z", (0,)), 4)]
    sites = [NoiseSite(p, make_amplitude_damping(0.1, (q,)), (0, i), "gamma")
             for i, (p, q) in enumerate([(0, 0), (1, 0), (1, 1), (2, 2),
                                         (3, 1), (3, 2), (4, 0)])]
    return Circuit(3, ops, sites)


def _register_words(n, b, seed):
    """(x, z, theta, stream ids) of ``b`` random words on all ``n`` qubits."""
    r = np.random.default_rng(seed)
    x0, z0 = (engine._pack(r.integers(0, 2, size=(b, n), dtype=np.uint8))
              for _ in range(2))
    lanes = np.arange(b, dtype=np.uint64)
    return x0, z0, engine.HashedTheta(seed, lanes), lanes * np.uint64(7919)


class TestCountedFactors:
    """A walk whose channel steps cannot kill and multiply by 1.0 or one
    value f counts each lane's hits and folds them in at its end
    (``engine._fold_hits``), bit for bit the product of one multiply a
    step.  Its steps are diagonal, or sampled with every hot branch
    carrying 1.0, as backward amplitude damping's do."""

    @staticmethod
    def _chip():
        return gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))

    def test_which_programs_are_counted(self):
        dephasing = make_pauli_channel({"I": 0.9, "Z": 0.1})
        counted = {"depolarizing": ([make_depolarizing(0.1)] * 2, 0.9),
                   "dephasing": ([dephasing], 0.8),
                   "negative": ([make_raw_ptm(np.diag([1, -0.5, -0.5, -0.5]),
                                              (0,))], -0.5)}
        for chans, f in counted.values():
            c = _site_circuit(chans)
            for direction in ("backward", "forward"):
                assert engine._fused_program(c, direction)[1] == (f, np.uint8)
        # backward, amplitude damping's X and Y columns carry sqrt(1 - gamma)
        # and its Z column branches to I and Z, each with sign * l1 = 1.0;
        # forward, its I column branches with 1 + gamma and its Z column
        # carries 1 - gamma
        for gamma in (0.05, 0.1, 0.3):
            c = _site_circuit([make_amplitude_damping(gamma)] * 3)
            assert engine._fused_program(c, "backward")[1] == (
                math.sqrt(1.0 - gamma), np.uint8)
            assert engine._fused_program(c, "forward")[1] is None
        # backward, X's column branches three ways and Z's two ways, each
        # branch with 1.0; Z's padding branch is never drawn
        c = _site_circuit([make_raw_ptm(
            [[1, 0, 0, 0.5], [0, 0.5, 0, 0], [0, 0.25, 0.9, 0],
             [0, 0.25, 0, 0.5]], (0,))])
        assert engine._fused_program(c, "backward")[1] == (0.9, np.uint8)
        per_step = {"two values": [make_depolarizing(0.1),
                                   make_depolarizing(0.2)],
                    "three values": [make_pauli_channel(
                        {"I": 0.75, "X": 0.0625, "Y": 0.0625, "Z": 0.125})],
                    "damping and depolarizing": [
                        make_depolarizing(0.1), make_amplitude_damping(0.1)],
                    # Z's column branches with sign * l1 = 0.8 backward
                    "hot factor": [make_raw_ptm(
                        [[1, 0, 0, 0.2], [0, 0.9, 0, 0], [0, 0, 0.9, 0],
                         [0, 0, 0, 0.6]], (0,))],
                    "kills": [make_depolarizing(0.1), make_mmff("")],
                    # X and Y columns are empty, Z's branches with 1.0
                    "branching kills": [make_raw_ptm(
                        [[1, 0, 0, 0.5], [0] * 4, [0] * 4, [0, 0, 0, 0.5]],
                        (0,))],
                    "identity factor": [make_raw_ptm(
                        np.diag([0.5, 1.0, 1.0, 1.0]), (0,))],
                    "unit factors only": [make_depolarizing(0.0)],
                    "no channel": []}
        for chans in per_step.values():
            c = _site_circuit(chans) if chans else Circuit(
                1, [Rotation(axis(1, "Z", (0,)), 0)], [])
            for direction in ("backward", "forward"):
                assert engine._fused_program(c, direction)[1] is None

    def test_the_amplitude_damping_workload_is_counted(self):
        # the 3x3 two-block chip the benchmark estimates the MSE of, walked
        # back from Z on its middle qubit, counts its sampled steps, and
        # each of them has one hot column
        c = gen_grid_chip(3, 3, 2, "rzz", make_amplitude_damping(0.05))
        steps, counted = engine._fused_program(c, "backward", 1 << 4)
        assert counted == (math.sqrt(0.95), np.uint8)
        chans = [s for s in steps if isinstance(s, engine._ChanStep)]
        assert chans and all(not s.channel.diagonal for s in chans)
        assert {s.form.hot_p for s in chans} == {2}  # Z: z row set

    @pytest.mark.parametrize("n", [3, 70, 130])
    def test_damped_walks_count_bit_for_bit(self, n):
        f = math.sqrt(0.9)
        # the chip's 326 sites need two-byte counters
        assert engine._fused_program(_damped_register(n), "backward")[1] \
            == (f, np.uint16 if n == 70 else np.uint8)
        lanes = 130
        x0, z0, theta, sids = _register_words(n, lanes, n)
        w0 = np.resize(np.concatenate((_SPECIAL_W0, [f * f * f, -(f * f)])),
                       lanes)

        def walk(c):
            drew = []
            branch = engine._branch

            def spy(planes, step, w, hits, uniforms):
                def counted(lanes, ordinal):
                    drew.append(lanes.size)
                    return uniforms(lanes, ordinal)
                branch(planes, step, w, hits, counted)
            with mock.patch.object(engine, "_branch", spy):
                out = [*engine._run_batch(c, "backward", x0, z0, theta,
                                          seed=3, stream_ids=sids)[:3],
                       *engine._run_batch(c, "backward", x0, z0, theta,
                                          seed=3, stream_ids=sids,
                                          w0=w0.copy())[:3]]
            assert sum(drew) > 0  # some lanes met a hot column
            return out
        counted, per_step = _counted_and_per_step(
            functools.partial(_damped_register, n), walk)
        _assert_same_bits(counted, per_step)
        assert len(np.unique(np.abs(counted[2]))) > 2  # some lanes hit
        assert np.array_equal(np.isnan(counted[5]), np.isnan(w0))

    def test_walks_from_unit_weights(self):
        assert engine._fused_program(self._chip(), "forward")[1] == (
            0.95, np.uint8)
        x0, z0, theta = _chip_words(self._chip(), 200, 1)

        def walk(c):
            return (*engine._run_batch(c, "backward", x0, z0, theta)[:3],
                    *engine.run_forward_batch(c, x0, z0, theta))
        _assert_same_bits(*_counted_and_per_step(self._chip, walk))

    def test_walks_from_a_forward_walk(self):
        # the HS overlap: a backward walk starts from forward weights
        x0, z0, theta = _chip_words(self._chip(), 200, 2)

        def walk(c):
            x1, z1, w1 = engine.run_forward_batch(c, x0, z0, theta)
            assert len(np.unique(w1)) > 4
            out = engine._run_batch(c, "backward", x1, z1, theta, w0=w1)
            return w1, *out[:3]
        _assert_same_bits(*_counted_and_per_step(self._chip, walk))

    @pytest.mark.parametrize("f", [0.9, -0.5])
    def test_walks_from_any_start_weights(self, f):
        chans = [make_raw_ptm(np.diag([1.0, f, f, f]), (0,))] * 5
        assert engine._fused_program(_site_circuit(chans), "backward")[1] \
            == (f, np.uint8)
        lanes = 130
        w0 = np.resize(_SPECIAL_W0, lanes)
        counted, per_step = _counted_and_per_step(
            lambda: _site_circuit(chans),
            lambda c: _x_weights(c, lanes, w0=w0.copy()))
        _assert_same_bits(counted, per_step)
        assert np.array_equal(np.isnan(counted[2]), np.isnan(w0))

    def test_more_than_255_hits_a_lane(self):
        # every one of 300 sites meets an X or Y word: 300 hits a lane
        chans = [make_depolarizing(0.01)] * 300
        assert engine._fused_program(_site_circuit(chans), "backward")[1] \
            == (0.99, np.uint16)

        def walk(c):
            return _x_weights(c, 70) + _x_weights(c, 70, np.full(70, -0.99))
        counted, per_step = _counted_and_per_step(
            lambda: _site_circuit(chans), walk)
        _assert_same_bits(counted, per_step)
        power = functools.reduce(operator.mul, [0.99] * 300, 1.0)
        assert np.all(np.abs(counted[2]) == power)
        assert np.all(np.abs(counted[5]) == power * 0.99)

    def test_a_zero_w0_stops_at_the_first_channel_step(self):
        c = _site_circuit([make_depolarizing(0.1)] * 2)
        assert engine._fused_program(c, "backward")[1] is not None
        vals, flags = _x_walk(c, 70, w0=np.zeros(70))
        assert not np.any(vals)
        assert np.all(flags[:, 1] == 5) and not np.any(flags[:, 0])


class TestTerminalValues:
    """The closure against a sparse state in real arithmetic is the real
    part of its complex product bit for bit, signed zeros included."""

    #: parts of the states' amplitudes: signed zeros and exact halves
    _PARTS = (0.0, -0.0, 0.5, -0.5, 0.25, -1.0)

    def _state(self, n, r):
        """A Hermitian sparse state of trace 1 with signed-zero parts: two
        diagonal entries and two conjugate pairs off the diagonal, on basis
        states spread over the n qubits."""
        picks = [0]
        while len(picks) < 4:
            row = r.getrandbits(n) & r.getrandbits(n)  # many zero bits
            picks += [row] if row not in picks else []
        part = lambda: r.choice(self._PARTS)
        entries = [(picks[0], picks[0], complex(0.25, 0.0 * part())),
                   (picks[1], picks[1], complex(0.75, -0.0))]
        for a, b in ((picks[0], picks[2]), (picks[1], picks[3])):
            amp = complex(part(), part())
            entries += [(a, b, amp), (b, a, amp.conjugate())]
        return SparseState(n, entries)

    @pytest.mark.parametrize("n", [3, 70, 130])
    def test_matches_the_complex_product(self, n):
        r = random.Random(n)
        width = (n + 63) // 64
        for _ in range(40):
            state = self._state(n, r)
            rows = [s for e in state.entries for s in e[:2]]
            lanes = 300
            # x parts that meet the entries (or do not), random z parts
            x = np.stack([mask_to_words(r.choice(rows) ^ r.choice(rows), n)
                          for _ in range(lanes)])
            z = np.stack([mask_to_words(r.getrandbits(n), n)
                          for _ in range(lanes)])
            w = np.resize(np.array([1.0, -1.0, 0.0, -0.0, 0.5]), lanes)
            got = engine._terminal_values(x, z, w, state)
            want = complex_terminal_values(x, z, w, state)
            assert got.tobytes() == want.tobytes()

    def test_a_complex_trace_is_refused(self):
        state = SparseState(1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.5j),
                                (1, 0, -0.5j)])
        x, z = engine.words_for_paulis([axis(1, "X", (0,))], 1)
        state.entries[3] = (1, 0, 0.5j)  # no longer Hermitian
        with pytest.raises(AssertionError, match="complex trace"):
            engine._terminal_values(x, z, np.ones(1), state)


class TestThetaContainers:
    def test_hashed_matches_angle_indices(self):
        uids = np.arange(40, dtype=np.uint64)
        ht = engine.HashedTheta(5, uids)
        want = angle_indices(5, uids, 7)
        for k in range(7):
            assert np.array_equal(plane_angles(ht, [k], 40)[0], want[:, k])

    def test_hashed_shift_is_quarter_turn(self):
        # the first copy moves parameter 2 a quarter turn, the second no
        # parameter
        uids = np.arange(16, dtype=np.uint64)
        base = engine.HashedTheta(7, uids)
        shifted = engine.AngleSource(7, uids).view(2, ([2, -1], [1, 1]))
        assert np.array_equal(plane_angles(shifted, [1], 32),
                              np.tile(plane_angles(base, [1], 16), 2))
        assert np.array_equal(plane_angles(shifted, [2], 32)[:, :16],
                              (plane_angles(base, [2], 16) + 1) % 4)
        assert np.array_equal(plane_angles(shifted, [2], 32)[:, 16:],
                              plane_angles(base, [2], 16))

    def test_a_shift_has_one_entry_a_copy(self):
        # per-lane arrays, short or long ones, one short array of two, and
        # a 2-D table are refused
        source = engine.AngleSource(7, np.arange(16, dtype=np.uint64))
        for copies, shift in ((1, ([2] * 16, [1] * 16)), (2, ([2], [1])),
                              (2, ([2, 3, 4], [1, 1, 1])),
                              (2, ([2, 3], [1])),
                              (3, ([[2, 3, 4]], [[1, 1, 1]]))):
            with pytest.raises(ValueError, match="one delta a copy"):
                source.view(copies, shift)
        assert len(source.view(2, ([2, -1], [1, 1])).tiled(3)) == 96


# ---------------------------------------------------------------------------
# light cones: generated circuits over the loader's whole grammar
# ---------------------------------------------------------------------------

#: qubit slots of the padded registers, straddling the 64- and 128-bit edges
_PAD_SLOTS = {70: (0, 1, 62, 63, 64, 69), 130: (0, 63, 64, 127, 128, 129)}
_EIGHTHS = st.integers(1, 7).map(lambda i: i / 8)


@st.composite
def _raw_ptm(draw, m):
    """A sparse PCS1 transfer matrix, often not trace preserving."""
    d = 4 ** m
    ptm = np.zeros((d, d))
    for j in range(d):
        rows = draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True))
        for r in rows:
            ptm[r, j] = draw(st.sampled_from((-0.5, -0.25, 0.25, 0.5)))
    if draw(st.booleans()):
        ptm[:, 0] = 0.0
        ptm[0, 0] = 1.0
    return ptm


@st.composite
def _channel(draw, n):
    kind = draw(st.sampled_from(("dep", "amp", "thermal", "pauli", "mmff",
                                 "raw")))
    m = 1 if kind in ("amp", "thermal") else \
        draw(st.integers(1, min(2 if kind in ("pauli", "raw") else 3, n)))
    support = tuple(draw(st.permutations(range(n)))[:m])
    if kind == "dep":
        return make_depolarizing(draw(_EIGHTHS), support)
    if kind == "amp":
        return make_amplitude_damping(draw(_EIGHTHS), support)
    if kind == "thermal":
        gamma = draw(_EIGHTHS)
        return make_thermal(gamma, draw(_EIGHTHS) * (1 - gamma), support)
    if kind == "pauli":
        labels = draw(st.lists(st.text("IXYZ", min_size=m, max_size=m),
                               min_size=1, max_size=3, unique=True))
        p = 1.0 / len(labels)
        return make_pauli_channel({lbl: p for lbl in labels}, support)
    if kind == "mmff":
        return make_mmff(draw(st.text("IXYZ", min_size=m - 1,
                                      max_size=m - 1)), support)
    return make_raw_ptm(draw(_raw_ptm(m)), support)


@st.composite
def _spec(draw):
    """A circuit on at most 5 qubits as register-free pieces: ops, noise
    sites, observable terms and a state, a basis state or one with
    coherences (see :func:`_coherent_state`), placed on a register by
    :func:`_place`."""
    n = draw(st.integers(2, 5))
    ops, sites, n_params = [], [], 0
    for pos in range(draw(st.integers(1, 9))):
        if draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(CLIFFORD_1Q_KINDS + CLIFFORD_2Q_KINDS))
            nq = 1 if kind in CLIFFORD_1Q_KINDS else 2
            ops.append(("cliff", kind,
                        tuple(draw(st.permutations(range(n)))[:nq])))
        else:
            nq = draw(st.integers(1, min(3, n)))
            qubits = tuple(draw(st.permutations(range(n)))[:nq])
            letters = draw(st.text("XYZ", min_size=nq, max_size=nq))
            if draw(st.integers(0, 3)) == 0:
                param = FixedAngle(draw(st.integers(0, 3)))
            else:  # a new parameter or a shared earlier one
                param = draw(st.integers(0, n_params))
                n_params = max(n_params, param + 1)
            ops.append(("rot", letters, qubits, param))
        for _ in range(draw(st.integers(0, 1))):
            sites.append((pos, draw(_channel(n))))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        nq = draw(st.integers(1, 2))
        qubits = tuple(draw(st.permutations(range(n)))[:nq])
        letters = draw(st.text("XYZ", min_size=nq, max_size=nq))
        terms.append((draw(st.sampled_from((1.0, -0.5, 0.75))), letters,
                      qubits))
    basis = draw(st.integers(0, 2 ** n - 1))
    flips = tuple(draw(st.permutations(range(n)))[:draw(st.sampled_from(
        (0, 2)))])
    theta = draw(st.lists(st.integers(0, 3), min_size=n_params,
                          max_size=n_params))
    return n, ops, sites, terms, (basis, flips), np.array(theta,
                                                          dtype=np.uint8)


def _coherent_state(n_reg, b, flips):
    """|psi><psi| for |psi> = |b>, or with two bit masks ``flips`` = (s1,
    s2), for |psi> = (|b> + |b^s1> + |b^s2> + i|b^s1^s2>) / 2: X and Y words
    close to non-zero values too."""
    if not flips:
        return SparseState(n_reg, [(b, b, 1.0)])
    s1, s2 = flips
    amps = {b: 0.5, b ^ s1: 0.5, b ^ s2: 0.5, b ^ s1 ^ s2: 0.5j}
    return SparseState(n_reg, [(r, c, ar * ac.conjugate())
                               for r, ar in amps.items()
                               for c, ac in amps.items()])


def _place(spec, n_reg=None, slots=None):
    """(circuit, [(coeff, word)], state) with qubit q on ``slots[q]`` of an
    ``n_reg``-qubit register (the bare register by default).  The spec's
    state (basis, flips) is :func:`_coherent_state` of the basis state and
    the flipped qubits."""
    n, ops, sites, terms, (basis, flips), _ = spec
    n_reg = n if n_reg is None else n_reg
    slot = list(range(n)) if slots is None else list(slots)

    def at(qs):
        return tuple(slot[q] for q in qs)

    gates = [Clifford(op[1], at(op[2])) if op[0] == "cliff" else
             Rotation(axis(n_reg, op[1], at(op[2])), op[3]) for op in ops]
    noise = [NoiseSite(pos, ch.with_support(at(ch.support)), (0, i), None)
             for i, (pos, ch) in enumerate(sites)]
    words = [(cf, axis(n_reg, letters, at(qs))) for cf, letters, qs in terms]
    b = sum(((basis >> q) & 1) << slot[q] for q in range(n))
    return Circuit(n_reg, gates, noise), words, _coherent_state(
        n_reg, b, [1 << slot[q] for q in flips])


def _trace_entries(circuit, trace, n_visited):
    """Per-site PTM entries from a scalar walk's trace (only for steps the
    walk reached): tau * 4^m + s for the local word s the walk brought to
    the site and the word tau it left with.  The old per-site flag, "the
    word met the channel non-identity", is s != 0."""
    entries = {}
    for i, step in enumerate(engine._program(circuit, "backward")):
        if i >= n_visited:
            break
        if isinstance(step, engine._ChanStep):
            sup = step.channel.support
            s, tau = (trace[k].pauli.local_index(sup) for k in (i, i + 1))
            entries[step.ordinal] = tau * 4 ** len(sup) + s
    return entries


class TestBranchTables:
    """The per-column tables the sampled channel step reads to skip lanes:
    ``stays`` must mean "maps its word to itself with weight exactly 1",
    and ``branches`` "has more than one entry"."""

    @staticmethod
    def check(tabs, matrix):
        d = len(matrix)
        for j in range(d):
            assert tabs.count[j] == np.count_nonzero(matrix[:, j])
            assert tabs.stays[j] == np.array_equal(matrix[:, j],
                                                   np.eye(d)[j])
            if tabs.stays[j]:
                assert tabs.count[j] == 1 and tabs.tau[j, 0] == j
                assert tabs.sign[j, 0] * tabs.l1[j] == 1.0
        assert np.array_equal(tabs.branches, tabs.count > 1)

    @settings(max_examples=200, deadline=None)
    @given(_channel(3))
    def test_stays_and_branches(self, ch):
        for direction, matrix in (("backward", ch.ptm), ("forward", ch.ptm.T)):
            self.check(_tables(ch, direction), matrix)

    def test_identity_of_amplitude_damping_and_raw_ptm(self):
        amp = make_amplitude_damping(0.25)
        cols, rows = (_tables(amp, d) for d in ("backward", "forward"))
        assert cols.stays[0] and not rows.stays[0]
        assert rows.branches[0]
        ptm = np.eye(4)
        ptm[3, 0] = 1.0
        raw = make_raw_ptm(ptm, (0,))
        cols, rows = (_tables(raw, d) for d in ("backward", "forward"))
        assert not cols.stays[0] and cols.branches[0]
        assert rows.stays[0]


#: a spec in :func:`_spec` form with every kind the references walk:
#: Cliffords, a two-qubit channel, mmff with feed-forward, a raw PTM whose
#: identity column branches, and a state with coherences
_REFERENCE_SPEC = (
    4,
    [("rot", "X", (0,), 0), ("cliff", "cz", (0, 1)), ("rot", "YZ", (1, 2), 1),
     ("cliff", "h", (3,)), ("rot", "XY", (2, 3), 2),
     ("rot", "Z", (0,), FixedAngle(1)), ("cliff", "swap", (1, 3)),
     ("rot", "XXZ", (0, 1, 3), 0)],
    [(0, make_amplitude_damping(0.25, (0,))),
     (2, make_depolarizing(0.125, (1, 2))),
     (3, make_mmff("X", (3, 0))),
     (4, make_raw_ptm([[0.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.75, 0],
                       [-0.5, 0, 0, 0.25]], (2,))),
     (7, make_thermal(0.25, 0.125, (1,)))],
    [(1.0, "YX", (3, 1)), (-0.5, "X", (0,))],
    (0b1101, (0, 3)),
    np.array([1, 3, 0], dtype=np.uint8))


class TestLightCone:
    @settings(max_examples=60, deadline=None)
    @given(_spec(), st.sampled_from(sorted(_PAD_SLOTS)), st.randoms())
    @example(_REFERENCE_SPEC, 70, random.Random(1))
    @example(_REFERENCE_SPEC, 130, random.Random(2))
    def test_cone_walks_match_scalar_walker_and_dense(self, spec, n_reg,
                                                      rnd):
        theta = ThetaAssignment(spec[5])
        slots = rnd.sample(_PAD_SLOTS[n_reg], spec[0])
        values = {}
        for key, placed in (("bare", _place(spec)),
                            ("padded", _place(spec, n_reg, slots))):
            c, words, state = placed
            x0, z0 = engine.words_for_paulis(
                [w for _, w in words for _ in range(4)], c.n)
            lanes = x0.shape[0]
            streams = np.arange(lanes, dtype=np.uint64) * np.uint64(7919)
            theta_b = MaterializedTheta(np.tile(theta.values, (lanes, 1)))
            sampled, flags = engine.run_backward_batch(
                c, state, x0, z0, theta_b, seed=5, stream_ids=streams,
                collect_flags=True)
            for lane in range(lanes):
                ref = backprop_term(
                    c, theta, words[lane // 4][1], state,
                    RngStream(seed=5, stream_id=int(streams[lane])),
                    collect_trace=True)
                assert sampled[lane] == ref.value  # bit for bit
                # the trace holds the start word and one word per step
                for site, entry in _trace_entries(c, ref.trace,
                                                  len(ref.trace) - 1).items():
                    assert flags[lane, site] == entry
            exact = np.array([exact_term(c, theta, w, state)
                              for _, w in words])
            values[key] = (sampled, flags, exact)
        bare, padded = values["bare"], values["padded"]
        for a, b in zip(bare, padded):
            assert np.array_equal(a, b)  # padding moves no bit
        c, words, state = _place(spec)
        obs = observable_from_terms([(cf, w) for cf, w in words], n=c.n)
        want = oracle.dense_expectation(c, theta, obs, state)
        got = float(np.array([cf for cf, _ in words]) @ bare[2])
        assert got == pytest.approx(want, abs=1e-10)

    def test_non_trace_preserving_channel_off_the_cone_is_kept(self):
        # the channel on qubit 1 maps I to Z there: with qubit 1 in |1> it
        # flips <Z_0>, although Z_0's cone never reaches qubit 1 otherwise
        ptm = np.zeros((4, 4))
        ptm[3, 0] = 1.0
        ops = [Rotation(axis(2, "X", (0,)), 0)]
        site = NoiseSite(0, make_raw_ptm(ptm, (1,)), (0, 0), None)
        state = SparseState(2, [(2, 2, 1.0)])
        x0, z0 = engine.words_for_paulis([axis(2, "Z", (0,))], 2)
        theta = MaterializedTheta(np.zeros((1, 1), dtype=np.uint8))
        for sites, want in (([], 1.0), ([site], -1.0)):
            c = Circuit(2, ops, sites)
            got = engine.run_backward_batch(
                c, state, x0, z0, theta,
                stream_ids=np.zeros(1, dtype=np.uint64))
            assert got[0] == want
            assert exact_term(c, ThetaAssignment(np.zeros(1, dtype=np.uint8)),
                              axis(2, "Z", (0,)), state) == want
            assert oracle.dense_expectation(
                c, ThetaAssignment(np.zeros(1, dtype=np.uint8)),
                observable_from_terms([(1.0, "ZI")]), state) \
                == pytest.approx(want, abs=1e-12)

    def test_cone_drops_steps_off_the_support(self):
        ops = [Rotation(axis(3, "X", (q,)), q) for q in range(3)]
        sites = [NoiseSite(q, make_amplitude_damping(0.1, (q,)), (0, q),
                           "gamma") for q in range(3)]
        c = Circuit(3, ops + [Clifford("cnot", (0, 1))], sites)
        prog = engine._program(c, "backward", 0b001)
        assert len(prog) == 5  # cnot, then both qubits' rotations and noise
        assert engine.cone_params(c, [axis(3, "Z", (0,))]) == {0, 1}
        assert engine._program(c, "backward", 0b111) \
            is engine._program(c, "backward")
        assert engine._program(c, "forward", 0b001) \
            is engine._program(c, "forward")

    def test_threads_share_the_cone_cache(self):
        # workers compiling cones of one circuit at once see the serial values
        import sys
        from concurrent.futures import ThreadPoolExecutor
        c, _, st_ = random_circuit(6, 24, seed=5)
        words = [axis(6, "Z", (q,)) for q in range(6)] * 4
        theta = MaterializedTheta(np.zeros((8, c.n_params), dtype=np.uint8))
        streams = np.arange(8, dtype=np.uint64)

        def walk(word):
            x0, z0 = engine.words_for_paulis([word] * 8, 6)
            return engine.run_backward_batch(c, st_, x0, z0, theta,
                                             stream_ids=streams)

        def runs(i):
            return engine.cone_runs(c, words[i % 6:], 1 + i % 5)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got_runs = list(pool.map(runs, range(24), timeout=60))
                got = list(pool.map(walk, words, timeout=60))
        finally:
            sys.setswitchinterval(old)
        serial = [walk(w) for w in words]
        assert all(np.array_equal(a, b) for a, b in zip(got, serial))
        assert got_runs == [runs(i) for i in range(24)]


# ---------------------------------------------------------------------------
# lane planes: counts around the 64-lane word edges, registers around the
# 64-qubit word edges
# ---------------------------------------------------------------------------

_LANE_COUNTS = (0, 1, 63, 64, 65, 16385)
#: where the three logical qubits of _PLANE_SPEC sit on each register
_REGISTERS = {3: (0, 1, 2), 64: (0, 62, 63), 65: (0, 63, 64),
              130: (63, 64, 129)}
#: ops, branching / diagonal / two-qubit channels and words on 3 qubits
_PLANE_SPEC = (
    3,
    [("rot", "X", (0,), 0), ("rot", "YZ", (1, 2), 1),
     ("cliff", "cnot", (0, 2)), ("rot", "ZX", (0, 1), 2),
     ("cliff", "h", (1,)), ("rot", "Y", (2,), FixedAngle(1)),
     ("rot", "XYZ", (2, 0, 1), 3)],
    [(0, make_amplitude_damping(0.3, (0,))),
     (2, make_depolarizing(0.25, (1, 2))),
     (4, make_thermal(0.2, 0.1, (2,)))],
    [(1.0, "Z", (0,)), (1.0, "XZ", (1, 2)), (1.0, "YY", (0, 2)),
     (1.0, "Z", (1,))],
    (0b101, (1, 2)), None)
_THETAS = np.random.default_rng(12).integers(0, 4, size=(7, 4)).astype(
    np.uint8)


def _plane_lanes(n_reg, lanes):
    """The spec on ``n_reg`` qubits and its per-lane inputs: lane i walks
    word i % 4 at angles _THETAS[i % 7] with stream 7919 i."""
    c, words, state = _place(_PLANE_SPEC, n_reg, _REGISTERS[n_reg])
    x1, z1 = engine.words_for_paulis([w for _, w in words], c.n)
    idx = np.arange(lanes)
    theta = MaterializedTheta(_THETAS[idx % 7])
    streams = idx.astype(np.uint64) * np.uint64(7919)
    return c, words, state, x1[idx % 4], z1[idx % 4], theta, streams


@pytest.fixture(scope="module")
def plane_dense():
    """Dense expectation of each (word, angles) pair on the bare register."""
    c, words, state = _place(_PLANE_SPEC)
    return np.array([[oracle.dense_expectation(
        c, ThetaAssignment(th), observable_from_terms([(1.0, w)], n=3),
        state) for th in _THETAS] for _, w in words])


def _checked_lanes(lanes):
    """Every lane of a small batch; the word edges and a sample otherwise."""
    if lanes <= 65:
        return range(lanes)
    picks = {0, 1, 62, 63, 64, 65, 127, 128, lanes - 65, lanes - 64,
             lanes - 2, lanes - 1}
    return sorted(picks | set(np.random.default_rng(lanes).integers(
        0, lanes, 16).tolist()))


class TestLanePlanes:
    @pytest.mark.parametrize("lanes", _LANE_COUNTS)
    @pytest.mark.parametrize("n_reg", sorted(_REGISTERS))
    def test_plane_word_round_trip(self, n_reg, lanes):
        r = np.random.default_rng(lanes + n_reg)
        width = (n_reg + 63) // 64
        words = r.integers(0, 2 ** 63, size=(lanes, width), dtype=np.uint64)
        words ^= r.integers(0, 2, size=(lanes, width), dtype=np.uint64) << 63
        if n_reg % 64:
            words[:, -1] &= np.uint64((1 << (n_reg % 64)) - 1)
        planes = engine._transpose(words, n_reg)
        assert planes.shape == (n_reg, (lanes + 63) // 64)
        for q in (0, n_reg - 1):
            want = (words[:, q // 64] >> np.uint64(q % 64)) & np.uint64(1)
            got = (planes[q, np.arange(lanes) // 64]
                   >> (np.arange(lanes) % 64).astype(np.uint64)) \
                & np.uint64(1)
            assert np.array_equal(got, want)
        if lanes % 64:  # the padding bits of the last word stay 0
            assert not np.any(planes[:, -1] >> np.uint64(lanes % 64))
        assert np.array_equal(engine._transpose(planes, lanes), words)

    @pytest.mark.parametrize("lanes", _LANE_COUNTS)
    @pytest.mark.parametrize("n_reg", sorted(_REGISTERS))
    def test_walks_at_every_lane_count(self, n_reg, lanes, plane_dense):
        c, words, state, x0, z0, theta, streams = _plane_lanes(n_reg, lanes)
        vals, flags = engine.run_backward_batch(
            c, state, x0, z0, theta, seed=5, stream_ids=streams,
            collect_flags=True)
        assert vals.shape == (lanes,) and flags.shape == (lanes, 3)
        for i in _checked_lanes(lanes):
            ref = backprop_term(
                c, ThetaAssignment(_THETAS[i % 7]), words[i % 4][1], state,
                RngStream(seed=5, stream_id=int(streams[i])),
                collect_trace=True)
            assert vals[i] == ref.value  # bit for bit
            for site, entry in _trace_entries(c, ref.trace,
                                              len(ref.trace) - 1).items():
                assert flags[i, site] == entry
        if n_reg != 3:  # padding the register moves no bit
            bare = _plane_lanes(3, lanes)
            b_vals, b_flags = engine.run_backward_batch(
                bare[0], bare[2], *bare[3:6], seed=5, stream_ids=bare[6],
                collect_flags=True)
            assert np.array_equal(vals, b_vals)
            assert np.array_equal(flags, b_flags)

    def test_words_must_fit_the_register(self):
        c, _, state, x0, z0, theta, streams = _plane_lanes(65, 3)
        with pytest.raises(ValueError, match="lanes"):
            engine.run_backward_batch(c, state, x0[:, :1], z0[:, :1], theta,
                                      stream_ids=streams)
        x0 = x0.copy()
        x0[0, 1] |= np.uint64(1 << 5)  # qubit 69 of a 65-qubit register
        with pytest.raises(ValueError, match="beyond"):
            engine.run_backward_batch(c, state, x0, z0, theta,
                                      stream_ids=streams)

    def test_lane_counts_must_match_the_words(self):
        c, _, state, x0, z0, theta, streams = _plane_lanes(130, 100)
        one = engine.HashedTheta(1, np.zeros(1, dtype=np.uint64))
        for source, ids, w0, refused in (
                (one, streams, None, "the theta source covers 1 lanes"),
                (theta, streams[:99], None, "stream_ids covers 99 lanes"),
                (theta, np.append(streams, 0), None,
                 "stream_ids covers 101 lanes"),
                (theta, streams, np.ones(99), "w0 covers 99 lanes")):
            with pytest.raises(ValueError,
                               match=f"{refused}, the walk words 100"):
                engine.run_backward_batch(c, state, x0, z0, source,
                                          stream_ids=ids, w0=w0)
        with pytest.raises(ValueError, match="theta source covers 1 lanes"):
            engine.run_forward_batch(c, x0, z0, one, stream_ids=streams)

    @pytest.mark.parametrize("n_reg", sorted(_REGISTERS))
    def test_enumeration_matches_dense_on_every_register(self, n_reg,
                                                         plane_dense):
        def enumerate_all(n_reg):
            c, words, state = _place(_PLANE_SPEC, n_reg, _REGISTERS[n_reg])
            return np.array([[exact_term(c, ThetaAssignment(th), w, state)
                              for th in _THETAS] for _, w in words])

        got = enumerate_all(n_reg)
        assert np.allclose(got, plane_dense, rtol=0, atol=1e-12)
        assert np.array_equal(got, enumerate_all(3))  # padding moves no bit

    @pytest.mark.parametrize("lanes", _LANE_COUNTS)
    def test_tiled_views_repeat_each_lane(self, lanes):
        # a period of ``lanes`` lanes three times over: a whole-word period
        # (0 or 64 lanes) is tiled at each read, the others are built lane
        # for lane
        uids = np.arange(5, 5 + lanes, dtype=np.uint64)
        params = np.array([0, 31, 32, 70])
        want = np.tile(rng.grid_angle(2, uids[None, :], params[:, None]), 3)
        for theta in (engine.AngleSource(2, uids).view(copies=3),
                      engine.HashedTheta(2, uids).tiled(3)):
            assert len(theta) == 3 * lanes
            assert np.array_equal(plane_angles(theta, params, 3 * lanes),
                                  want)
            got = theta.k_for(params)
            if 3 * lanes % 64:  # the padding bits of the last word stay 0
                assert not np.any(got[..., -1] >> np.uint64(3 * lanes % 64))

    @pytest.mark.parametrize("words", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 1000])
    def test_transpose_round_trip(self, rows, words):
        r = np.random.default_rng(rows + 7 * words)
        count = 64 * words - 5 * (rows % 2)  # a partial last word when odd
        bits = r.integers(0, 2, size=(rows, count), dtype=np.uint8)
        packed = engine._pack(bits)
        kept = packed.copy()
        got = engine._transpose(packed, count)
        assert np.array_equal(packed, kept)  # the input is left as it was
        assert np.array_equal(got, engine._pack(bits.T))
        assert np.array_equal(engine._transpose(got, rows), packed)

    @pytest.mark.parametrize("rows, count", [
        # many 64x64 tiles a side, with a partial last word both ways
        (1000, 130), (130, 1000), (65, 4097), (0, 70),
        # one output word of fewer than 64 rows (a walk's entry): rounds
        # that write only the low rows
        *((rows, count) for rows in (64, 65, 1000)
          for count in (1, 8, 9, 31, 33, 63)),
        # fewer than 64 input rows (a walk's exit): rounds over the live
        # prefix
        *((rows, count) for rows in (1, 8, 9, 63)
          for count in (65, 130, 1000))])
    def test_transpose_in_tiles(self, rows, count):
        r = np.random.default_rng(rows + count)
        bits = r.integers(0, 2, size=(rows, count), dtype=np.uint8)
        words = engine._pack(bits)
        kept = words.copy()
        want = engine._pack(np.ascontiguousarray(bits.T))
        got = engine._transpose(words, count)
        assert np.array_equal(words, kept)  # the input is left as it was
        assert np.array_equal(got, want)
        assert np.array_equal(engine._transpose(got, rows), words)


#: a step's qubits on a 130-qubit register: either side of the 64-qubit word
#: edge, the higher one first
_STEP_QUBITS = {1: (64,), 2: (64, 63), 3: (64, 63, 129)}
_STEP_N = 130

#: diagonal channels; the Pauli channels' dyadic probabilities make the
#: one-qubit diagonal exactly (1, 0.625, 0.625, 0.75)
_DIAG_CHANNELS = {
    "depolarizing": make_depolarizing(0.3, _STEP_QUBITS[1]),
    "depolarizing_2q": make_depolarizing(0.2, _STEP_QUBITS[2]),
    "depolarizing_3q": make_depolarizing(0.1, _STEP_QUBITS[3]),
    "pauli_three_values": make_pauli_channel(
        {"I": 0.75, "X": 0.0625, "Y": 0.0625, "Z": 0.125}, _STEP_QUBITS[1]),
    "pauli_2q": make_pauli_channel(
        {"II": 0.7, "XZ": 0.1, "YY": 0.15, "ZI": 0.05}, _STEP_QUBITS[2]),
    "mmff": make_mmff("II", _STEP_QUBITS[3]),
    "thermal_dephasing": make_thermal(0.0, 0.3, _STEP_QUBITS[1]),
    "raw_not_tp": make_raw_ptm(np.diag([0.9, -0.5, 0.5, 0.25]),
                               _STEP_QUBITS[1]),
    "raw_zeros": make_raw_ptm(np.diag([1.0, 0.0, -0.0, 0.4]),
                              _STEP_QUBITS[1]),
}


def _set_local(bits, qubits, local):
    """Write local word ``local[i]`` on ``qubits`` into lane i's bits."""
    for i, q in enumerate(qubits):
        code = local >> 2 * i & 3
        bits[q] = np.take(CODE_TO_X, code)
        bits[_STEP_N + q] = np.take(CODE_TO_Z, code)


def _lane_bits(qubits, local, seed):
    """(2n + 1, lanes) plane bits, lane i carrying local word ``local[i]``
    on ``qubits`` and random bits on every other row (the sign row too)."""
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(2 * _STEP_N + 1, len(local)), dtype=np.uint8)
    _set_local(bits, qubits, local)
    return bits


def _step_bits(qubits, seed):
    """:func:`_lane_bits` with lane i carrying local word i % 4^m, and the
    lanes' local words; 20 rounds of every word plus 19 lanes leave a
    partial last word."""
    local = np.arange(20 * 4 ** len(qubits) + 19) % 4 ** len(qubits)
    return _lane_bits(qubits, local, seed), local


def _tables(ch, direction):
    """The branch tables a walk in ``direction`` samples."""
    return engine._BranchTables(ch.ptm if direction == "backward"
                                else ch.ptm.T)


def _chan_step(ch, direction):
    """The channel step of a one-site circuit on the step register."""
    c = Circuit(_STEP_N, [Rotation(axis(_STEP_N, "Z", (0,)), 0)],
                [NoiseSite(0, ch, (0, 0), None)])
    (step,) = [s for s in engine._program(c, direction)
               if isinstance(s, engine._ChanStep)]
    return step


class TestPlaneSteps:
    """Clifford and diagonal-channel steps on lane planes against their
    tables, with every local word of the step's qubits in the lanes."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("kind", CLIFFORD_1Q_KINDS + CLIFFORD_2Q_KINDS)
    def test_clifford_step_is_its_table(self, kind, direction):
        qubits = _STEP_QUBITS[1 if kind in CLIFFORD_1Q_KINDS else 2]
        (step,) = engine._program(
            Circuit(_STEP_N, [Clifford(kind, qubits)], []), direction)
        bits, local = _step_bits(qubits, len(kind))
        planes = engine._pack(bits)
        engine._clifford(planes, _STEP_N, step)
        out_idx, sign = clifford_table(kind, direction)
        want = bits.copy()
        _set_local(want, qubits, out_idx[local])
        want[2 * _STEP_N] ^= (sign[local] < 0).astype(np.uint8)
        assert np.array_equal(planes, engine._pack(want))  # padding too

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("name", sorted(_DIAG_CHANNELS))
    def test_diagonal_step_scales_by_the_diagonal(self, name, direction):
        # each weight is multiplied by its word's diagonal entry; a lane at
        # a zero entry dies there and ends on the identity word, as at any
        # empty column, and every other lane keeps its word
        ch = _DIAG_CHANNELS[name]
        step = _chan_step(ch, direction)
        bits, local = _step_bits(ch.support, len(name))
        w = np.random.default_rng(len(name)).standard_normal(local.size)
        planes, got, _ = _walk_branch(step, bits, np.zeros(local.size), w)
        diag = np.diagonal(ch.ptm)[local]
        assert got.tobytes() == (w * diag).tobytes()  # -0.0 is not 0.0 here
        _set_local(bits, ch.support, np.where(diag == 0.0, 0, local))
        assert np.array_equal(planes, engine._pack(bits))

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("name", sorted(_DIAG_CHANNELS))
    def test_diagonal_forms_draw_nothing(self, name, direction):
        # a diagonal channel compiles to a form with no hot lanes, whose
        # class values are its diagonal's distinct bit patterns in order of
        # first appearance (0.0 and -0.0 apart), and its step draws nothing
        ch = _DIAG_CHANNELS[name]
        step = _chan_step(ch, direction)
        assert step.form.hot is None
        patterns = np.diagonal(ch.ptm).view(np.uint64).tolist()
        assert step.form.classes[0].view(np.uint64).tolist() \
            == list(dict.fromkeys(patterns))
        bits, local = _step_bits(ch.support, len(name))
        _, _, drew = _walk_branch(step, bits, np.zeros(local.size),
                                  np.ones(local.size))
        assert drew == []

    def test_class_planes(self):
        # depolarizing needs one class plane, x | z, read a byte of lanes at
        # a time; the Pauli channel's three values need two
        values, forms, by_byte = engine._branch_form(
            _DIAG_CHANNELS["depolarizing"].ptm.tobytes()).classes
        assert values.tolist() == [1.0, 0.7] and len(forms) == 1
        assert forms[0] == engine._Form((0, 1), (), (), False)
        assert by_byte[0b10000101].tolist() == [0.7, 1.0, 0.7] + [1.0] * 4 \
            + [0.7]
        values, forms, by_byte = engine._branch_form(
            _DIAG_CHANNELS["pauli_three_values"].ptm.tobytes()).classes
        assert values.tolist() == [1.0, 0.625, 0.75] and len(forms) == 2
        assert by_byte is None

    def test_cz_sign_is_factored(self):
        # rows x0, x1, z0, z1: z0 ^= x1, z1 ^= x0, and the sign
        # x0 x1 z0 ^ x0 x1 z1 is (x0 & x1) & (z0 ^ z1)
        updates, sign, snapshot = engine._clifford_form("cz", "backward")
        assert updates == ((2, None, (1,)), (3, None, (0,)))
        assert sign == engine._Form((), (0, 1), ((2,), (3,)), False)
        assert not snapshot
        assert engine._clifford_form("h", "forward")[2]  # x and z swap

    def test_steps_share_their_forms(self):
        c = gen_grid_chip(2, 2, 1, "cz", make_depolarizing(0.1))
        prog = engine._program(c, "backward")
        cliffs = [s for s in prog if isinstance(s, engine._CliffStep)]
        chans = [s for s in prog if isinstance(s, engine._ChanStep)]
        assert len({id(s.form) for s in cliffs}) == 1 < len(cliffs)
        assert len({id(s.form) for s in chans}) == 1 < len(chans)
        c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
        for direction in ("backward", "forward"):
            chans = [s for s in engine._program(c, direction)
                     if isinstance(s, engine._ChanStep)]
            assert len({id(s.form) for s in chans}) == 1 < len(chans)


def _raw_2q():
    """A two-qubit PCS1 transfer matrix with negative entries: column j has
    (j + 1) % 4 entries, so columns 3, 7, 11 and 15 are zero."""
    r = np.random.default_rng(3)
    ptm = np.zeros((16, 16))
    for j in range(16):
        rows = r.choice(16, size=(j + 1) % 4, replace=False)
        ptm[rows, j] = r.choice((-0.25, 0.25, -0.125, 0.3), size=rows.size)
    return ptm


#: branching channels: one- to three-qubit, single-entry columns that move
#: the word, zero columns, negative entries, and identity columns and rows
#: that branch (amplitude damping forward) or move
_BRANCH_CHANNELS = {
    "amplitude_damping": make_amplitude_damping(0.3, _STEP_QUBITS[1]),
    "thermal": make_thermal(0.2, 0.1, _STEP_QUBITS[1]),
    "mmff": make_mmff("XZ", _STEP_QUBITS[3]),
    "raw_2q_negative": make_raw_ptm(_raw_2q(), _STEP_QUBITS[2]),
    "raw_zero_column": make_raw_ptm(
        [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.25, -0.5, 0], [0, 0.5, 0, 0]],
        _STEP_QUBITS[1]),
    # backward the identity column is zero; forward the identity row moves
    # the identity word to Z
    "raw_identity_moves": make_raw_ptm(
        [[0, 0, 0, -0.5], [0] * 4, [0] * 4, [0] * 4], _STEP_QUBITS[1]),
    "raw_identity_branches": make_raw_ptm(
        [[0.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.75, 0], [-0.5, 0, 0, 0.25]],
        _STEP_QUBITS[1]),
}


def _branch_reference(tabs, local, u, w):
    """A sampled branching step lane by lane, from the branch tables: the
    lanes' output words and weights, and the lanes that drew a uniform."""
    out, w, drew = local.copy(), w.copy(), []
    for i, c in enumerate(local):
        if tabs.stays[c]:
            continue
        j = 0
        if tabs.branches[c]:
            drew.append(i)
            j = min(int((u[i] >= tabs.cdf[c]).sum()), tabs.cdf.shape[1] - 1)
        w[i] *= tabs.sign[c, j] * tabs.l1[c]
        out[i] = tabs.tau[c, j]
    return out, w, drew


def _draws(u):
    """The walk's integer draws m of the uniforms u = m * 2^-53 (each u a
    multiple of 2^-53 in [0, 1), as ``Generator.random`` gives)."""
    m = (np.asarray(u) * 2.0 ** 53).astype(np.uint64)
    assert np.array_equal(m * 2.0 ** -53, u)
    return m


def _walk_branch(step, bits, u, w, hits=None):
    """Run the plane step on ``bits`` with the draws of the uniforms ``u``,
    multiplying its factors into ``w`` or, given ``hits``, counting them
    there: (planes, weights, the lane arrays the step asked draws for)."""
    planes, w, drew, m = engine._pack(bits), w.copy(), [], _draws(u)

    def uniforms(lanes, ordinal):
        assert ordinal == step.ordinal
        drew.append(lanes.tolist())
        return m[lanes]
    engine._branch(planes, step, w, hits, uniforms)
    return planes, w, drew


#: (channel, direction) of the sampled steps whose factors a walk counts
_COUNTED_BRANCHES = [
    (name, direction) for name in sorted(_BRANCH_CHANNELS)
    for direction in ("backward", "forward")
    if engine._counted_factor([_chan_step(_BRANCH_CHANNELS[name], direction)])
    is not None]


class TestBranchSteps:
    """Sampled branching channel steps on lane planes against a lane-by-lane
    walk of their branch tables."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("name", sorted(_BRANCH_CHANNELS))
    def test_branch_step_is_its_table(self, name, direction):
        ch = _BRANCH_CHANNELS[name]
        step = _chan_step(ch, direction)
        bits, local = _step_bits(ch.support, len(name))
        r = np.random.default_rng(len(name))
        u, w = r.random(local.size), r.standard_normal(local.size)
        planes, got, drew = _walk_branch(step, bits, u, w)
        out, want, want_drew = _branch_reference(_tables(ch, direction),
                                                 local, u, w)
        assert drew == ([want_drew] if want_drew else [])
        assert got.tobytes() == want.tobytes()
        _set_local(bits, ch.support, out)
        assert np.array_equal(planes, engine._pack(bits))
        assert local.size % 64 and not np.any(
            planes[:, -1] >> np.uint64(local.size % 64))

    @pytest.mark.parametrize("name, direction", _COUNTED_BRANCHES)
    def test_counted_branch_step_adds_its_hits(self, name, direction):
        # the step moves the words as the table walk does, leaves the
        # weights alone and counts a hit where the lane's factor is f
        ch = _BRANCH_CHANNELS[name]
        step = _chan_step(ch, direction)
        f = engine._counted_factor([step])[0]
        bits, local = _step_bits(ch.support, len(name))
        r = np.random.default_rng(len(name))
        u, w = r.random(local.size), r.standard_normal(local.size)
        # a multiply, even by 1.0, would set the quiet bit of these NaNs
        w.view(np.uint64)[::7] = 0x7FF0000000000001
        start = r.integers(0, 200, size=local.size, dtype=np.uint8)
        hits = start.copy()
        planes, got, drew = _walk_branch(step, bits, u, w, hits)
        out, factors, want_drew = _branch_reference(
            _tables(ch, direction), local, u, np.ones(local.size))
        assert drew == ([want_drew] if want_drew else [])
        assert got.tobytes() == w.tobytes()
        assert set(factors.tolist()) == {1.0, f}
        assert np.array_equal(hits - start, factors == f)
        _set_local(bits, ch.support, out)
        assert np.array_equal(planes, engine._pack(bits))

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("name", [
        name for name, ch in sorted(_BRANCH_CHANNELS.items())
        if _tables(ch, "backward").branches.any()
        and _tables(ch, "forward").branches.any()])
    def test_branch_choice_at_boundary_uniforms(self, name, direction):
        # the cdf column loop picks min((u >= cdf[c]).sum(), width - 1) at
        # the uniforms 0 and 1 - 2^-53, and at the least uniform at or above
        # each cdf entry below 1 and the one under it (uniforms are
        # multiples of 2^-53), and a branch's factor is sign[c, j] * l1[c]
        # byte for byte
        ch = _BRANCH_CHANNELS[name]
        step = _chan_step(ch, direction)
        tabs, form = _tables(ch, direction), step.form
        d, width = tabs.tau.shape
        row_of = engine._ROW_TABLES[ch.m][1]
        for c in range(d):
            for j in range(width):
                at = row_of[c] * width + j
                assert form.factor[at].tobytes() \
                    == (tabs.sign[c, j] * tabs.l1[c]).tobytes()
        local, u = [], []
        for c in np.flatnonzero(tabs.branches):
            edges = np.ceil(tabs.cdf[c, :tabs.count[c]] * 2.0 ** 53)
            us = [x * 2.0 ** -53 for x in (0.0, 2.0 ** 53 - 1, *edges,
                                           *(edges - 1)) if 0 <= x < 2 ** 53]
            local += [c] * len(us)
            u += us
        local, u = np.array(local, dtype=np.intp), np.array(u)
        planes, w, drew = _walk_branch(
            step, _lane_bits(ch.support, local, d), u, np.ones(local.size))
        assert drew == [list(range(local.size))]
        j = np.minimum((u[:, None] >= tabs.cdf[local]).sum(axis=1),
                       width - 1)
        assert w.tobytes() == (tabs.sign[local, j]
                               * tabs.l1[local]).tobytes()
        want = _lane_bits(ch.support, tabs.tau[local, j], d)
        assert np.array_equal(planes, engine._pack(want))

    def test_a_single_hot_column_is_known(self):
        # amplitude damping branches at Z backward (row index 2, the z row)
        # and at I forward; other channels branch at several columns or none
        damping = _BRANCH_CHANNELS["amplitude_damping"]
        assert _chan_step(damping, "backward").form.hot_p == 2
        assert _chan_step(damping, "forward").form.hot_p == 0
        for name in ("raw_2q_negative", "mmff"):
            assert _chan_step(_BRANCH_CHANNELS[name],
                              "backward").form.hot_p is None

    def test_forms_are_keyed_by_content(self):
        # a channel built afresh with the same PTM shares its forms, and
        # tables built after earlier ones are freed still get their own
        forms = {}
        for gamma in (0.36, 0.19, 0.51, 0.36):
            ch = make_amplitude_damping(gamma)
            for direction in ("backward", "forward"):
                step = _chan_step(ch, direction)
                assert step.form is forms.setdefault((gamma, direction),
                                                     step.form)
                damped = [math.sqrt(1 - gamma)] + \
                    ([1 - gamma] if direction == "forward" else [])
                assert step.form.classes[0].tolist() == [1.0, *damped]
        assert len({id(f) for f in forms.values()}) == 6


def _two_damped_rotations():
    """An X and then a Y rotation on one qubit, each followed by amplitude
    damping.  Walked backward from X, the later site (ordinal 1) meets X
    words only, at a single-entry column, and the earlier one (ordinal 0)
    the Z words of the lanes whose Y angle is odd, at a column with two."""
    ops = [Rotation(axis(1, "X", (0,)), 0), Rotation(axis(1, "Y", (0,)), 1)]
    return Circuit(1, ops, [
        NoiseSite(i, make_amplitude_damping(0.3, (0,)), (0, i), "gamma")
        for i in (0, 1)])


class TestBranchStreams:
    """A walk hashes its lanes' (seed, DOMAIN_TAU, stream id) prefix once,
    at its first step that draws, and each draw is the top 53 bits of the
    keyed hash of its lane's stream id and its slot, m of the uniform
    m * 2^-53."""

    @staticmethod
    def _walk(monkeypatch, y_angles, slot_offset):
        """Walk X back through :func:`_two_damped_rotations` from weight 0.5,
        a lane per Y angle: (stream ids, the (ordinal, lanes, draws) of
        each draw, the words of each ``hash_words`` call of the walker)."""
        lanes = len(y_angles)
        x0, z0 = engine.words_for_paulis([axis(1, "X", (0,))] * lanes, 1)
        sids = compose_stream_array(3, np.arange(lanes), 1)
        drawn, hashed = [], []
        branch, hash_all = engine._branch, engine.hash_words

        def spy(planes, step, w, hits, uniforms):
            def recorded(at, ordinal):
                u = uniforms(at, ordinal)
                drawn.append((ordinal, at.copy(), u))
                return u
            branch(planes, step, w, hits, recorded)

        def counted(seed, *words):
            hashed.append(words)
            return hash_all(seed, *words)

        monkeypatch.setattr(engine, "_branch", spy)
        monkeypatch.setattr(engine, "hash_words", counted)
        theta = MaterializedTheta(np.stack(
            (np.zeros(lanes, dtype=np.uint8), y_angles), axis=1))
        engine.run_backward_batch(
            _two_damped_rotations(), zero_state(1), x0, z0, theta, seed=11,
            stream_ids=sids, w0=np.full(lanes, 0.5), slot_offset=slot_offset)
        return sids, drawn, hashed

    @pytest.mark.parametrize("slot_offset", [0, 2])
    def test_uniforms_are_the_keyed_hash(self, monkeypatch, slot_offset):
        # slot_offset 2 is the backward half of the HS overlap of a
        # two-site circuit; the first branching step walked has no hot lane
        y_angles = (np.arange(70) % 4).astype(np.uint8)
        sids, drawn, hashed = self._walk(monkeypatch, y_angles, slot_offset)
        [(ordinal, at, u)] = drawn
        assert ordinal == 0 and np.array_equal(at, np.flatnonzero(y_angles
                                                                  % 2))
        assert u.dtype == np.uint64 and np.array_equal(u, hash_words(
            11, rng.DOMAIN_TAU, sids[at],
            np.uint64(slot_offset + ordinal)) >> np.uint64(11))
        [(domain, streams)] = hashed
        assert domain == rng.DOMAIN_TAU and np.array_equal(streams, sids)

    def test_a_walk_that_never_draws_hashes_nothing(self, monkeypatch):
        # Y angles 0 and 2 keep the word X: both sites meet it at their
        # single-entry column
        _, drawn, hashed = self._walk(
            monkeypatch, np.array([0, 2] * 35, dtype=np.uint8), 2)
        assert drawn == [] and hashed == []


class TestConeRuns:
    def test_terms_sharing_a_cone_share_a_run(self):
        c, obs, _ = gen_line_benchmark(8, 64)  # the deep chain
        words = [w for _, w in obs.terms]
        assert engine.cone_runs(c, words, 4) == [[0, 1]]
        assert engine.cone_runs(c, words, 1) == [[0], [1]]

    def test_terms_far_apart_are_walked_apart(self):
        c, _, _ = gen_line_benchmark(12, 1)
        words = [PauliString.from_codes([3 if i == q else 0
                                         for i in range(12)])
                 for q in (11, 10, 0, 5)]
        # backward from the chain's right end the XX rotations reach every
        # qubit, so Z_11 and Z_10 share the whole program; Z_0 and Z_5 have
        # small cones of their own
        assert engine.cone_runs(c, words, 8) == [[0, 1], [2], [3]]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
    def test_a_run_walks_little_beyond_each_word(self, seed, limit):
        c, _, _ = random_circuit(6, 14, seed=seed % 1000)
        r = np.random.default_rng(seed)
        words = [PauliString.from_codes(r.integers(0, 4, 6) *
                                        (r.random(6) < 0.3))
                 for _ in range(7)]

        def steps(mask):
            return len(engine._program(c, "backward", mask))

        runs = engine.cone_runs(c, words, limit)
        assert [i for run in runs for i in run] == list(range(7))
        for run in runs:
            assert 1 <= len(run) <= limit
            masks = [words[i].x_bits | words[i].z_bits for i in run]
            joint = 0
            for m in masks:
                joint |= m
            assert 16 * steps(joint) <= 17 * min(steps(m) for m in masks)


# ---------------------------------------------------------------------------
# layer fusion: the batched walker walks each program with its rotations
# grouped into layers on disjoint qubits, bit-identical to one rotation a step
# ---------------------------------------------------------------------------

@st.composite
def _layered_spec(draw):
    """A layered circuit on at most 6 qubits, in the form :func:`_place`
    takes: wide rotation layers whose parameters straddle a 32-parameter
    block edge, parameters shared within a layer, fixed angles, overlapping
    commuting XX (or YY, ZZ) chains, and channels and Cliffords between and
    inside the layers."""
    n = draw(st.integers(2, 6))
    ops, sites = [], []
    # parameters are numbered from 0: the ones below the first layer's
    # drive single-qubit rotations before it
    param = draw(st.sampled_from((0, 27, 29, 61)))
    ops += [("rot", "Z", (p % n,), p) for p in range(param)]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("single", "chain", "random")))
        if kind == "single":
            layer = [(draw(st.sampled_from("XYZ")), (q,)) for q in range(n)]
        elif kind == "chain":
            pair = draw(st.sampled_from(("XX", "YY", "ZZ")))
            layer = [(pair, (q, q + 1)) for q in range(n - 1)]
        else:
            layer = []
            for _ in range(draw(st.integers(1, 3))):
                nq = draw(st.integers(1, min(3, n)))
                layer.append((draw(st.text("XYZ", min_size=nq, max_size=nq)),
                              tuple(draw(st.permutations(range(n)))[:nq])))
        used = []
        for letters, qubits in layer:
            pick = draw(st.integers(0, 5))
            if pick == 0:
                p = FixedAngle(draw(st.integers(0, 3)))
            elif pick == 1 and used:  # shared within the layer
                p = draw(st.sampled_from(used))
            else:
                p, param = param, param + 1
                used.append(p)
            ops.append(("rot", letters, qubits, p))
            if draw(st.integers(0, 5)) == 0:
                sites.append((len(ops) - 1, draw(_channel(n))))
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                kind = draw(st.sampled_from(CLIFFORD_1Q_KINDS
                                            + CLIFFORD_2Q_KINDS))
                nq = 1 if kind in CLIFFORD_1Q_KINDS else 2
                ops.append(("cliff", kind,
                            tuple(draw(st.permutations(range(n)))[:nq])))
            else:
                sites.append((len(ops) - 1, draw(_channel(n))))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        nq = draw(st.integers(1, 2))
        terms.append((1.0, draw(st.text("XYZ", min_size=nq, max_size=nq)),
                      tuple(draw(st.permutations(range(n)))[:nq])))
    return (n, ops, sites, terms, (draw(st.integers(0, 2 ** n - 1)), ()),
            np.zeros(param, dtype=np.uint8))


def _unfused(prog, n, backward):
    """The fusion pass as the identity: one rotation a layer, in order."""
    return [engine._rot_layer([s], n) if isinstance(s, engine._RotStep)
            else s for s in prog]


def _assert_same_walk(got, want):
    """Bit-identical walk outputs (x, z, w[, flags]).  A batch whose every
    lane died stops early, so only its weights (all zero) and flags are
    defined then."""
    for a, b in zip(got[3:], want[3:]):
        assert (a is None and b is None) or np.array_equal(a, b)
    if not np.any(want[2]):
        assert not np.any(got[2])
        return
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _theta_sources(lanes, n_params, rnd):
    """(walk lanes, fresh angle source) pairs of at most ``lanes`` lanes:
    hashed; a random number of whole copies of a run of draws, each copy
    with a parameter shift of its own; and twice a source of lanes // 2
    lanes."""
    uids = np.arange(11, 11 + lanes, dtype=np.uint64)
    copies = rnd.randint(1, lanes)
    shift = [rnd.choice([-1, *range(n_params)]) for _ in range(copies)]
    delta = [rnd.choice((1, -1)) for _ in range(copies)]
    draws, half = lanes // copies, lanes // 2
    return {"hashed": (lanes, lambda: engine.HashedTheta(9, uids)),
            "shifted": (copies * draws, lambda: engine.AngleSource(
                9, uids[:draws]).view(copies, (shift, delta))),
            "tiled": (2 * half,
                      lambda: engine.HashedTheta(9, uids[:half]).tiled(2))}


def _check_schedule(prog, fused):
    """The fusion pass's rules on one program: every step once; channel and
    Clifford steps in their order, as the same objects (so with their
    ordinals); each layer on pairwise disjoint qubits; no step moved across
    an overlapping or pinned one unless both are rotations with commuting
    axes."""
    at = {}
    for i, step in enumerate(fused):
        rots = step.rots if isinstance(step, engine._RotLayer) else [step]
        if isinstance(step, engine._RotLayer):
            masks = [r.mask for r in rots]
            assert sum(masks) == functools.reduce(operator.or_, masks)
        for r in rots:
            assert id(r) not in at
            at[id(r)] = i
    assert sorted(at) == sorted(map(id, prog))
    others = [s for s in prog if not isinstance(s, engine._RotStep)]
    assert [s for s in fused if not isinstance(s, engine._RotLayer)] \
        == others
    for i, a in enumerate(prog):
        for b in prog[i + 1:]:
            if at[id(a)] < at[id(b)]:
                continue
            both = isinstance(a, engine._RotStep) \
                and isinstance(b, engine._RotStep)
            if a.mask & b.mask or a.pinned or b.pinned:
                assert both and commutes(a.axis, b.axis) \
                    and at[id(a)] > at[id(b)], (a, b)


#: a layered spec whose channel's identity column is zero and whose
#: identity row moves the identity word to Z: its forward walk's plane step
#: ANDs a constant-term form with the live lanes
_IDENTITY_MOVES_SPEC = (
    4, [("rot", "XX", (q, q + 1), q) for q in range(3)],
    [(0, make_raw_ptm([[0, 0, 0, -0.5], [0] * 4, [0] * 4, [0] * 4], (0,)))],
    [(1.0, "Z", (1,))], (0, ()), np.zeros(3, dtype=np.uint8))


class TestFusion:
    @settings(max_examples=40, deadline=None)
    @given(_layered_spec(), st.sampled_from(sorted(_PAD_SLOTS)),
           st.integers(2, 70), st.randoms())
    @example(_IDENTITY_MOVES_SPEC, 70, 2, random.Random(0))
    def test_fused_walks_are_bit_identical(self, spec, n_reg, lanes, rnd):
        slots = rnd.sample(_PAD_SLOTS[n_reg], spec[0])
        sources = _theta_sources(lanes, len(spec[5]), rnd)
        for args in ((spec,), (spec, n_reg, slots)):
            fused, words, _ = _place(*args)
            reference = _place(*args)[0]
            for direction in ("backward", "forward"):
                _check_schedule(engine._program(fused, direction),
                                engine._fused_program(fused, direction)[0])
            for b, make in sources.values():
                x0, z0 = engine.words_for_paulis(
                    [words[i % len(words)][1] for i in range(b)], fused.n)
                streams = np.arange(b, dtype=np.uint64) * np.uint64(7919)
                walks = {}
                for key, c in (("fused", fused), ("reference", reference)):
                    with mock.patch.object(
                            engine, "_fuse",
                            _unfused if key == "reference" else engine._fuse):
                        walks[key] = (
                            engine._run_batch(c, "backward", x0, z0, make(),
                                              seed=5, stream_ids=streams,
                                              collect_flags=True),
                            engine.run_forward_batch(c, x0, z0, make(),
                                                     seed=5,
                                                     stream_ids=streams))
                for got, want in zip(walks["fused"], walks["reference"]):
                    _assert_same_walk(got, want)

    def test_chain_fuses_into_three_layers_a_block(self):
        c, obs, _ = gen_line_benchmark(8, 64)
        for direction in ("backward", "forward"):
            prog = engine._program(c, direction)
            fused, _ = engine._fused_program(c, direction)
            assert (len(prog), len(fused)) == (960, 192)
            assert all(isinstance(s, engine._RotLayer) for s in fused)
        for _, w in obs.terms:
            assert len(engine._fused_program(c, "backward",
                                             w.x_bits | w.z_bits)[0]) == 192
        _check_schedule(engine._program(c, "backward")[:150],
                        engine._fuse(engine._program(c, "backward")[:150],
                                     c.n, True))

    def test_chip_rotations_fuse_across_noise_sites(self):
        chip = gen_grid_chip(3, 3, 2, "rzz", make_amplitude_damping(0.05))
        backward = engine._program(chip, "backward",
                                   axis(9, "Z", (4,)).z_bits)
        fused, _ = engine._fused_program(chip, "backward",
                                         axis(9, "Z", (4,)).z_bits)
        assert (len(engine._program(chip, "backward")),
                len(engine._fused_program(chip, "backward")[0])) == (126, 82)
        _check_schedule(backward, fused)
        # forward, amplitude damping's identity row branches: every site is
        # pinned, and no rotation crosses one
        assert len(engine._fused_program(chip, "forward")[0]) == 126

    def test_walks_leave_the_unfused_programs_as_they_were(self):
        # recorded before fusion existed: cone lengths, batching runs and
        # cone parameters of the chain and the 3x3 amplitude-damping chip
        line, obs, state = gen_line_benchmark(8, 64)
        chip = gen_grid_chip(3, 3, 2, "rzz", make_amplitude_damping(0.05))
        cases = [(line, [w for _, w in obs.terms], (958, 954), [[0, 1]],
                  958),
                 (chip, [axis(9, "Z", (q,)) for q in (4, 0, 8)],
                  (78, 61, 42), [[0], [1], [2]], 44)]
        for c, words, cones, runs, n_params in cases:
            def snapshot():
                return ([list(engine._program(c, d)) for d in
                         ("backward", "forward")],
                        [list(engine._program(c, "backward",
                                              w.x_bits | w.z_bits))
                         for w in words],
                        engine.cone_runs(c, words, 4),
                        engine.cone_params(c, words))
            before = snapshot()
            assert tuple(map(len, before[1])) == cones
            assert before[2] == runs and len(before[3]) == n_params
            x0, z0 = engine.words_for_paulis(words, c.n)
            engine.run_backward_batch(
                c, zero_state(c.n), x0, z0,
                engine.HashedTheta(1, np.arange(len(words), dtype=np.uint64)),
                stream_ids=np.arange(len(words), dtype=np.uint64))
            assert snapshot() == before
            assert not any(isinstance(s, engine._RotLayer)
                           for prog in before[0] + before[1] for s in prog)


class TestAnglePlanes:
    #: read out of order, across the edges of blocks 0, 1 and 2, twice
    PARAMS = np.array([30, 31, 32, 33, 63, 64, 0, 31, 65, 2])

    def test_every_source_gives_the_grid_angles(self):
        for lanes in (0, 1, 64, 100):
            uids = np.arange(2 ** 33, 2 ** 33 + lanes, dtype=np.uint64)
            want = rng.grid_angle(3, uids[None, :], self.PARAMS[:, None])
            r = np.random.default_rng(lanes)
            shift = r.choice(np.append(self.PARAMS, -1), size=5)
            delta = r.choice((1, -1), size=5)
            moved = copy_shifted(np.tile(want, 5), self.PARAMS, shift, delta)
            for params in (self.PARAMS, self.PARAMS[:3], [2 ** 40]):
                plain = engine.HashedTheta(3, uids)
                assert np.array_equal(
                    plane_angles(plain, params, lanes),
                    rng.grid_angle(3, uids[None, :],
                                   np.asarray(params)[:, None]))
            shifted = engine.AngleSource(3, uids).view(5, (shift, delta))
            assert np.array_equal(
                plane_angles(shifted, self.PARAMS, 5 * lanes), moved)
            tiled = shifted.tiled(3)
            assert np.array_equal(
                plane_angles(tiled, self.PARAMS, 15 * lanes),
                np.tile(moved, 3))
            values = rng.angle_indices(3, uids, 66)
            assert np.array_equal(
                plane_angles(MaterializedTheta(values), self.PARAMS,
                             lanes), want)

    @pytest.mark.parametrize("copies", [1, 8, 45, 64, 65, 128])
    @pytest.mark.parametrize("draws", [1, 7])
    def test_runs_of_a_uid_give_the_grid_angles(self, copies, draws):
        # each uid on one lane of each of ``copies`` whole copies of the
        # draws, as the estimators lay out inner lanes, each copy with a
        # shift of its own; 7 draws of 1, 8, 45 or 65 copies end in a
        # partial word, and their uids cross a group edge
        draw_uids = 2 ** 33 + 60 + np.arange(draws, dtype=np.uint64)
        source = engine.AngleSource(3, draw_uids)
        uids = np.tile(draw_uids, copies)
        lanes = uids.size
        params = np.append(self.PARAMS, 2 ** 40)
        want = rng.grid_angle(3, uids[None, :], params[:, None])
        shift = np.random.default_rng(copies).choice(np.append(params, -1),
                                                     size=copies)
        for sign in (1, -1):
            delta = np.full(copies, sign)
            moved = copy_shifted(want, params, shift, delta)
            for theta, got in ((source.view(copies), want),
                               (source.view(copies, (shift, delta)), moved)):
                assert len(theta) == lanes
                assert np.array_equal(plane_angles(theta, params, lanes), got)
                # again, out of parameter order
                assert np.array_equal(
                    plane_angles(theta, params[::-1], lanes), got[::-1])
                k = theta.k_for(params)
                if lanes % 64:  # padding bits of the last word stay 0
                    assert not (k[..., -1] >> np.uint64(lanes % 64)).any()
            tiled = source.view(copies, (shift, delta)).tiled(3)
            assert len(tiled) == 3 * lanes
            assert np.array_equal(plane_angles(tiled, params, 3 * lanes),
                                  np.tile(moved, 3))
        # three times the copies, and the tiled views of a view, read twice
        for theta in (source.view(3 * copies), source.view(copies).tiled(3)):
            for _ in range(2):
                assert np.array_equal(plane_angles(theta, params, 3 * lanes),
                                      np.tile(want, 3))

    #: (first uid, draws) of sources that are one run of uids: aligned and
    #: unaligned starts, a run shorter than a word and ending inside its
    #: first group, one meeting three groups, and a one-uid source
    RUNS = ((0, 64), (5, 7), (2 ** 40 + 63, 130), (2 ** 63 - 3, 2), (9, 1))

    @pytest.mark.parametrize("copies", [1, 2, 3, 8, 20, 64, 90, 128])
    def test_every_read_path_gives_the_grid_angles(self, copies):
        # one copy reads the words (shifted when unaligned, masked when
        # short); more copies of 64 draws are copied word for word, and of
        # 1, 2, 7 or 130 draws unpacked, tiled and packed; plain, and with
        # a parameter shift of each copy's own
        params = np.append(self.PARAMS, 2 ** 40)
        for first, draws in self.RUNS:
            uids = np.uint64(first) + np.arange(draws, dtype=np.uint64)
            source = engine.AngleSource(6, uids)
            lane_uids = np.tile(uids, copies)
            lanes = lane_uids.size
            want = rng.grid_angle(6, lane_uids[None, :], params[:, None])
            rnd = np.random.default_rng(lanes)
            shift = rnd.choice(np.append(params, -1), size=copies)
            delta = rnd.choice((1, -1), size=copies)
            moved = copy_shifted(want, params, shift, delta)
            for theta, got in ((source.view(copies), want),
                               (source.view(copies, (shift, delta)), moved)):
                assert len(theta) == lanes
                assert np.array_equal(plane_angles(theta, params, lanes), got)
                k = theta.k_for(params)
                assert k.shape == (params.size, 2, -(-lanes // 64))
                if lanes % 64:  # padding bits of the last word stay 0
                    assert not (k[..., -1] >> np.uint64(lanes % 64)).any()

    @pytest.mark.parametrize("n", [70, 130])
    def test_walks_past_a_word_of_qubits_read_the_grid_angles(self, n):
        # walks on registers past 64 and 128 qubits with views of many
        # copies, each shifted on its own, through both ways of tiling, are
        # bit for bit the walks of their lanes' grid angles held in full
        c = _damped_register(n)
        for (first, draws), copies in zip(self.RUNS[1:] + self.RUNS[:1],
                                          (3, 2, 8, 90, 2)):
            uids = np.uint64(first) + np.arange(draws, dtype=np.uint64)
            lane_uids = np.tile(uids, copies)
            b = lane_uids.size
            x0, z0, _, sids = _register_words(n, b, copies)
            rnd = np.random.default_rng(copies)
            shift = rnd.choice(np.arange(-1, c.n_params), size=copies)
            delta = rnd.choice((1, -1), size=copies)
            values = copy_shifted(angle_indices(2, lane_uids, c.n_params).T,
                                  np.arange(c.n_params), shift, delta).T
            walks = [engine._run_batch(c, "backward", x0, z0, theta, seed=4,
                                       stream_ids=sids)
                     for theta in (engine.AngleSource(2, uids).view(
                         copies, (shift, delta)),
                         MaterializedTheta(values))]
            _assert_same_walk(*walks)

    def test_estimators_never_gather_a_draw_at_a_time(self, monkeypatch):
        # angle sources refuse uids that are not one run, and every job's
        # draws are one run of uids, at any chunk size: the chain, MSE at
        # n_tau 8, HS and its lower bound at n_sigma 64, shifted gradient
        # walks and the one-lane set-up walk of the benchmark run.  So do
        # their random Pauli words, whose uids are one run too: HS at
        # n_sigma 8 and 9 draws puts the overlaps' words at 72 and 144 past
        # the quadratic's, runs that start inside a group, and the lower
        # bound's 64-lane chunks make jobs of 32 draws on the damped chip,
        # so its words start inside a group too
        starts, codes = set(), estimators.pauli_codes

        def noted(seed, uids, n, *, zx_only=False):
            if len(uids):
                starts.add((zx_only, int(uids[0]) % 64 != 0))
            return codes(seed, uids, n, zx_only=zx_only)

        monkeypatch.setattr(estimators, "pauli_codes", noted)
        for uids in ([0, 2], [1, 0], [5, 3, 4], [2 ** 64 - 1, 0]):
            uids = np.array(uids, dtype=np.uint64)
            with pytest.raises(ValueError, match="one run"):
                engine.HashedTheta(1, uids)
            with pytest.raises(ValueError, match="one run"):
                engine.pauli_codes(1, uids, 9)
        damped = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.05))
        depol = gen_grid_chip(3, 3, 1, "rzz", make_depolarizing(0.05))
        obs = observable_from_terms([(1.0, axis(9, "Z", (4,)))])
        for chunk in (estimators._CHUNK, 64):
            monkeypatch.setattr(estimators, "_CHUNK", chunk)
            estimators.line_variance_benchmark(4, 2, 200, seed=1)
            estimators.estimate_mse(damped, obs, None, DiagnosticConfig(
                n_theta=100, n_tau=8, seed=1))
            cfg = DiagnosticConfig(n_theta=9, n_sigma=64, n_tau=2, seed=1)
            estimators.estimate_expressibility_hs(depol, cfg)
            estimators.estimate_expressibility_hs(depol, DiagnosticConfig(
                n_theta=9, n_sigma=8, seed=1))
            for circuit in (damped, depol):
                estimators.estimate_expressibility_lower_bound(circuit, cfg)
                estimators.sum_gradient_variance(circuit, obs, None,
                                                 DiagnosticConfig(
                                                     n_theta=30, n_tau=2,
                                                     seed=1))
        assert starts == {(False, False), (False, True), (True, False),
                          (True, True)}
        x0, z0 = engine.words_for_paulis([axis(9, "Z", (4,))], 9)
        engine.run_backward_batch(
            damped, zero_state(9), x0, z0,
            engine.HashedTheta(1, np.zeros(1, dtype=np.uint64)), seed=1,
            stream_ids=np.zeros(1, dtype=np.uint64))

    def test_a_uid_is_hashed_once_for_all_of_its_lanes(self, monkeypatch):
        hashed = []

        def counted(seed, *words):
            out = hash_words(seed, *words)
            hashed.append(out.size)
            return out

        monkeypatch.setattr(rng, "hash_words", counted)
        # the key of each uid's group is hashed once, whatever the copies:
        # uids 100 to 139 are two groups
        u = np.arange(100, 140, dtype=np.uint64)
        theta = engine.AngleSource(5, u).view(90)
        got = plane_angles(theta, self.PARAMS, 90 * u.size)
        assert hashed == [2]
        assert np.array_equal(got, np.tile(rng.grid_angle(
            5, u[None, :], self.PARAMS[:, None]), 90))

    @staticmethod
    def _line_angle_hashes(monkeypatch):
        """(the groups, first group key and parameters of each
        ``theta_words`` call, the number of ``_transpose`` calls, the
        number of walks, the parameters in the terms' light cones) of a
        16448-draw chain benchmark."""
        calls, transposes, walks = [], [], []
        transpose, walk = engine._transpose, engine._run_batch

        def counted(keys, params):
            calls.append((len(keys), int(keys[0]), list(params)))
            return theta_words(keys, params)

        monkeypatch.setattr(engine, "theta_words", counted)
        monkeypatch.setattr(engine, "_transpose", lambda *a: (
            transposes.append(1), transpose(*a))[1])
        monkeypatch.setattr(engine, "_run_batch", lambda *a, **k: (
            walks.append(1), walk(*a, **k))[1])
        estimators.line_variance_benchmark(8, 64, 16448, seed=2)
        c, obs, _ = estimators._line_case(8, 64)
        return calls, len(transposes), len(walks), sorted(
            engine.cone_params(c, [word for _, word in obs.terms]))

    def test_line_walk_hashes_each_parameter_once_a_job(self, monkeypatch):
        # 16448 draws make two chunks, walked in one job: 257 groups, keyed
        # once, and one walk that hashes each of the 958 of the chain's 960
        # parameters in its light cone once, for all groups at a time, and
        # transposes only its words at entry and exit
        calls, transposes, walks, cone = self._line_angle_hashes(monkeypatch)
        assert len(cone) == 958
        assert {(groups, key) for groups, key, _ in calls} \
            == {(257, calls[0][1])}
        assert sorted(p for *_, params in calls for p in params) == cone
        assert walks == 1 and transposes == 4

    def test_line_walk_hashes_each_parameter_once_a_pass(self, monkeypatch):
        # at 4096 lanes a chunk the 16448 draws make five chunks; the
        # chain's two terms share a pass, so a job of two chunks fills one
        # (4 * 4096 lanes): three jobs of 128, 128 and 1 groups, each with
        # one angle source and one pass, the last of one chunk
        monkeypatch.setattr(estimators, "_CHUNK", 4096)
        calls, transposes, walks, cone = self._line_angle_hashes(monkeypatch)
        keys = list(dict.fromkeys(key for _, key, _ in calls))
        assert len(keys) == 3 and walks == 3 and transposes == 3 * 4
        assert sorted({(groups, key) for groups, key, _ in calls}) \
            == sorted(zip((128, 128, 1), keys))
        for key in keys:
            assert sorted(p for _, k, params in calls if k == key
                          for p in params) == cone
