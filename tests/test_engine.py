"""Path walker: exactness without branching, unbiasedness with it, and
bit-identity between the batched walker and the scalar reference walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis, random_circuit, rotations_only, rx_dep_circuit
from pqcdiag import engine, oracle
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_mmff, make_pauli_channel, make_raw_ptm,
                              make_thermal)
from pqcdiag.circuits import (Circuit, Clifford, FixedAngle, NoiseSite,
                              Rotation, SparseState, ThetaAssignment,
                              gen_line_benchmark, observable_from_terms,
                              zero_state)
from pqcdiag.paulis import CLIFFORD_1Q_KINDS, CLIFFORD_2Q_KINDS, PauliString
from pqcdiag.rng import RngStream, angle_indices, compose_stream


def random_theta(circuit, seed):
    r = np.random.default_rng(seed)
    return ThetaAssignment(r.integers(0, 4, size=circuit.n_params))


class TestExactness:
    def test_noiseless_walks_match_dense(self):
        for seed in range(6):
            c, obs, st = rotations_only(3, 7, seed=20 + seed)
            th = random_theta(c, seed)
            rep = engine.estimate_expectation(c, obs, st, th, n_tau=64,
                                              seed=seed)
            want = oracle.dense_expectation(c, th.as_radians(), obs, st)
            assert rep.mean == pytest.approx(want, abs=1e-12)
            # nothing branches: forced to a single exact pass
            assert rep.stderr == 0.0 and rep.n_tau == 1

    def test_diagonal_noise_is_still_exact(self):
        c, obs, st = rx_dep_circuit(0.3)
        th = ThetaAssignment(np.array([1]))
        rep = engine.estimate_expectation(c, obs, st, th, n_tau=32)
        assert rep.mean == pytest.approx(
            oracle.dense_expectation(c, th.as_radians(), obs, st), abs=1e-14)
        assert rep.stderr == 0.0

    def test_enumeration_matches_dense_with_branching(self):
        for seed in range(8):
            c, obs, st = random_circuit(3, 6, seed=40 + seed)
            th = random_theta(c, seed)
            got = engine.enumerate_expectation_exact(c, obs, st, th)
            want = oracle.dense_expectation(c, th.as_radians(), obs, st)
            assert got == pytest.approx(want, abs=1e-10)

    def test_branch_cap_refuses_big_fanout(self):
        ops = [Rotation(axis(1, "X", (0,)), 0)]
        sites = [NoiseSite(0, make_amplitude_damping(0.1), (0, i), "gamma")
                 for i in range(20)]
        c = Circuit(1, ops, sites)
        assert engine.exact_branch_estimate(c) == 2 ** 20
        with pytest.raises(RuntimeError, match="enumeration"):
            engine.enumerate_expectation_exact(
                c, observable_from_terms([(1.0, "Z")]), zero_state(1),
                ThetaAssignment(np.array([0])))

    def test_exact_branch_estimate_ignores_diagonal(self):
        c, _, _ = rx_dep_circuit(0.2)
        assert engine.exact_branch_estimate(c) == 1


class TestSampling:
    def test_unbiased_vs_enumeration(self):
        c, obs, st = random_circuit(2, 5, seed=72)
        assert any(not s.channel.diagonal for s in c.noise_sites)
        th = random_theta(c, 1)
        exact = engine.enumerate_expectation_exact(c, obs, st, th)
        rep = engine.estimate_expectation(c, obs, st, th, n_tau=20000, seed=3)
        assert rep.stderr > 0.0
        assert abs(rep.mean - exact) < 4 * rep.stderr

    def test_outer_index_decorrelates_draws(self):
        c, obs, st = random_circuit(2, 5, seed=72)
        th = random_theta(c, 1)
        a = engine.estimate_expectation(c, obs, st, th, n_tau=4, seed=0,
                                        outer_index=0)
        b = engine.estimate_expectation(c, obs, st, th, n_tau=4, seed=0,
                                        outer_index=1)
        again = engine.estimate_expectation(c, obs, st, th, n_tau=4, seed=0,
                                            outer_index=0)
        assert a.mean == again.mean
        assert a.mean != b.mean  # same angles, different inner draws

    def test_dead_branch_terminates_with_zero(self):
        # backward X hits the measure-and-reset channel's zero column
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)],
                    [NoiseSite(0, make_mmff(""), (0, 0), None)])
        out = engine.backprop_term(c, ThetaAssignment(np.array([0])),
                                   axis(1, "X", (0,)), zero_state(1),
                                   RngStream(seed=0, stream_id=0))
        assert out.terminal and out.value == 0.0

    def test_trace_collection(self):
        c, obs, st = rx_dep_circuit(0.1)
        out = engine.backprop_term(c, ThetaAssignment(np.array([1])),
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

#: estimate_expectation(seed=23) as (mean, stderr) float hex, recorded with
#: the scalar per-draw walk loop the batched call replaced
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
        rep = engine.estimate_expectation(c, obs, st, th, n_tau=n_tau,
                                          seed=23, outer_index=outer)
        assert (rep.mean.hex(), rep.stderr.hex()) == PINNED_EXPECTATIONS[key]
        assert rep.n_tau == n_tau and rep.config == {"outer_index": outer}

    @pytest.mark.parametrize("kw", [{"outer_index": 1 << 32},
                                    {"outer_index": -1},
                                    {"n_tau": (1 << 20) + 1}])
    def test_stream_ranges_refused(self, kw):
        c, obs, st, th = pinned_case("mixed-3")
        with pytest.raises(ValueError):
            engine.estimate_expectation(c, obs, st, th, **kw)

    def test_too_many_terms_refused(self):
        words = [PauliString.from_codes([(i >> (2 * q)) & 3 for q in range(7)])
                 for i in range(1, 4098)]
        c = Circuit(7, [Rotation(axis(7, "X", (0,)), 0)], [])
        obs = observable_from_terms([(1.0, w) for w in words])
        with pytest.raises(ValueError, match="term index"):
            engine.estimate_expectation(c, obs, zero_state(7),
                                        ThetaAssignment(np.array([1])))

    def test_identity_only_observable(self):
        c, _, st, th = pinned_case("mixed-3")
        obs = observable_from_terms([(0.5, "III")])
        rep = engine.estimate_expectation(c, obs, st, th, n_tau=5,
                                          outer_index=1 << 32)
        assert (rep.mean, rep.stderr) == (0.5, 0.0)
        assert engine.enumerate_expectation_exact(c, obs, st, th) == 0.5


class TestBatchedWalker:
    def test_scalar_and_batch_are_bit_identical(self):
        c, obs, st = random_circuit(3, 6, seed=55)
        th = random_theta(c, 2)
        seed = 17
        words = [w for _, w in obs.terms]
        x0, z0 = engine.words_for_paulis(words, c.n)
        streams = np.array([compose_stream(9, 4, t)
                            for t in range(len(words))], dtype=np.uint64)
        theta_b = engine.MaterializedTheta(
            np.tile(th.values, (len(words), 1)))
        batch = engine.run_backward_batch(c, st, x0, z0, theta_b, seed=seed,
                                          stream_ids=streams)
        for t, w in enumerate(words):
            scalar = engine.backprop_term(
                c, th, w, st, RngStream(seed=seed, stream_id=int(streams[t])))
            assert scalar.value == batch[t]  # exactly, not approximately

    def test_batch_exact_mode_sums_branches(self):
        c, obs, st = random_circuit(2, 5, seed=77)
        th = random_theta(c, 3)
        words = [w for _, w in obs.terms]
        coeffs = np.array([cf for cf, _ in obs.terms])
        x0, z0 = engine.words_for_paulis(words, c.n)
        theta_b = engine.MaterializedTheta(np.tile(th.values, (len(words), 1)))
        vals = engine.run_backward_batch(c, st, x0, z0, theta_b, exact=True)
        got = float(coeffs @ vals) + obs.identity_offset
        assert got == pytest.approx(
            oracle.dense_expectation(c, th.as_radians(), obs, st), abs=1e-12)

    def test_collect_flags_sees_site_words(self):
        # site sits on qubit 1; a Z0 observable never touches it, a Z1 does
        ops = [Rotation(axis(2, "X", (0,)), 0), Rotation(axis(2, "X", (1,)), 1)]
        site = NoiseSite(1, make_amplitude_damping(0.2, (1,)), (0, 0), "gamma")
        c = Circuit(2, ops, [site])
        words = [axis(2, "Z", (0,)), axis(2, "Z", (1,))]
        x0, z0 = engine.words_for_paulis(words, 2)
        theta_b = engine.MaterializedTheta(np.zeros((2, 2), dtype=np.uint8))
        streams = np.array([compose_stream(0, 0, t) for t in range(2)],
                           dtype=np.uint64)
        vals, flags = engine.run_backward_batch(
            c, zero_state(2), x0, z0, theta_b, stream_ids=streams,
            collect_flags=True)
        assert flags.shape == (2, 1)
        assert not flags[0, 0] and flags[1, 0]
        assert vals[0] == 1.0  # untouched Z0 walk closes exactly

    def test_collect_flags_rejected_in_exact_branching_mode(self):
        c, obs, st = random_circuit(2, 4, seed=78)
        assert any(not s.channel.diagonal for s in c.noise_sites)
        words = [w for _, w in obs.terms]
        x0, z0 = engine.words_for_paulis(words, c.n)
        theta_b = engine.MaterializedTheta(
            np.zeros((len(words), c.n_params), dtype=np.uint8))
        with pytest.raises(ValueError):
            engine.run_backward_batch(c, st, x0, z0, theta_b, exact=True,
                                      collect_flags=True)

    def test_forward_batch_round_trip(self):
        # forward then backward through the same noiseless circuit restores
        # the word, so closing against the state gives the original trace
        c, obs, st = rotations_only(2, 5, seed=91)
        th = random_theta(c, 5)
        w0 = axis(2, "ZZ", (0, 1))
        x0, z0 = engine.words_for_paulis([w0], 2)
        theta_b = engine.MaterializedTheta(th.values[None, :])
        x1, z1, w1, _ = engine.run_forward_batch(c, x0, z0, theta_b)
        v = engine.run_backward_batch(c, st, x1, z1, theta_b, w0=w1)
        from pqcdiag.paulis import trace_pauli_with_entries
        assert v[0] == pytest.approx(
            trace_pauli_with_entries(w0, st.entries), abs=1e-12)


class TestThetaContainers:
    def test_hashed_matches_angle_indices(self):
        uids = np.arange(40, dtype=np.uint64)
        ht = engine.HashedTheta(5, uids)
        want = angle_indices(5, uids, 7)
        for k in range(7):
            assert np.array_equal(ht.k_for(k), want[:, k])

    def test_hashed_take_keeps_uids(self):
        uids = np.arange(10, dtype=np.uint64)
        ht = engine.HashedTheta(2, uids).take(np.array([3, 3, 8]))
        assert np.array_equal(ht.k_for(0),
                              angle_indices(2, np.array([3, 3, 8],
                                                        dtype=np.uint64), 1)[:, 0])

    def test_hashed_shift_is_quarter_turn(self):
        uids = np.arange(16, dtype=np.uint64)
        base = engine.HashedTheta(7, uids)
        shifted = engine.HashedTheta(
            7, uids, shift_param=np.full(16, 2, dtype=np.int64),
            shift_delta=np.full(16, 1, dtype=np.int64))
        assert np.array_equal(shifted.k_for(1), base.k_for(1))
        assert np.array_equal(shifted.k_for(2), (base.k_for(2) + 1) % 4)

    def test_materialized_take(self):
        m = engine.MaterializedTheta(np.arange(12, dtype=np.uint8).reshape(4, 3) % 4)
        t = m.take(np.array([2, 0]))
        assert np.array_equal(t.values, m.values[[2, 0]])
        assert len(t) == 2


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
    sites, observable terms and a basis state, placed on a register by
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
    theta = draw(st.lists(st.integers(0, 3), min_size=n_params,
                          max_size=n_params))
    return n, ops, sites, terms, basis, np.array(theta, dtype=np.uint8)


def _place(spec, n_reg=None, slots=None):
    """(circuit, [(coeff, word)], state) with qubit q on ``slots[q]`` of an
    ``n_reg``-qubit register (the bare register by default)."""
    n, ops, sites, terms, basis, _ = spec
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
    return Circuit(n_reg, gates, noise), words, SparseState(n_reg,
                                                            [(b, b, 1.0)])


def _trace_flags(circuit, trace, n_visited):
    """Per-site flags from a scalar walk's trace: the word met the site's
    channel non-identity (only for steps the walk reached)."""
    flags = {}
    for i, step in enumerate(engine._program(circuit, "backward")):
        if i >= n_visited:
            break
        if isinstance(step, engine._ChanStep):
            flags[step.ordinal] = any(
                trace[i].pauli.code_at(q) for q in step.channel.support)
    return flags


class TestLightCone:
    @settings(max_examples=60, deadline=None)
    @given(_spec(), st.sampled_from(sorted(_PAD_SLOTS)), st.randoms())
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
            theta_b = engine.MaterializedTheta(np.tile(theta.values,
                                                       (lanes, 1)))
            sampled, flags = engine.run_backward_batch(
                c, state, x0, z0, theta_b, seed=5, stream_ids=streams,
                collect_flags=True)
            for lane in range(lanes):
                ref = engine.backprop_term(
                    c, theta, words[lane // 4][1], state,
                    RngStream(seed=5, stream_id=int(streams[lane])),
                    collect_trace=True)
                assert sampled[lane] == ref.value  # bit for bit
                # the trace holds the start word and one word per step
                for site, flag in _trace_flags(c, ref.trace,
                                               len(ref.trace) - 1).items():
                    assert flags[lane, site] == flag
            x1, z1 = engine.words_for_paulis([w for _, w in words], c.n)
            exact = engine.run_backward_batch(
                c, state, x1, z1, engine.MaterializedTheta(
                    np.tile(theta.values, (len(words), 1))), exact=True)
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
        theta = engine.MaterializedTheta(np.zeros((1, 1), dtype=np.uint8))
        for sites, want in (([], 1.0), ([site], -1.0)):
            c = Circuit(2, ops, sites)
            for exact in (False, True):
                got = engine.run_backward_batch(
                    c, state, x0, z0, theta, exact=exact,
                    stream_ids=np.zeros(1, dtype=np.uint64))
                assert got[0] == want
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
        theta = engine.MaterializedTheta(np.zeros((8, c.n_params),
                                                  dtype=np.uint8))
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
    0b101, None)
_THETAS = np.random.default_rng(12).integers(0, 4, size=(7, 4)).astype(
    np.uint8)


def _plane_state(n_reg, slots):
    """|psi><psi| for |psi> = (|b> + |b^s1> + |b^s2> + i|b^s1^s2>) / 2 with
    b = |101> on the logical qubits: X and Y words close to non-zero values
    too."""
    s0, s1, s2 = (1 << q for q in slots)
    b = s0 | s2
    amps = {b: 0.5, b ^ s1: 0.5, b ^ s2: 0.5, b ^ s1 ^ s2: 0.5j}
    return SparseState(n_reg, [(r, c, ar * ac.conjugate())
                               for r, ar in amps.items()
                               for c, ac in amps.items()])


def _plane_lanes(n_reg, lanes):
    """The spec on ``n_reg`` qubits and its per-lane inputs: lane i walks
    word i % 4 at angles _THETAS[i % 7] with stream 7919 i."""
    c, words, _ = _place(_PLANE_SPEC, n_reg, _REGISTERS[n_reg])
    state = _plane_state(n_reg, _REGISTERS[n_reg])
    x1, z1 = engine.words_for_paulis([w for _, w in words], c.n)
    idx = np.arange(lanes)
    theta = engine.MaterializedTheta(_THETAS[idx % 7])
    streams = idx.astype(np.uint64) * np.uint64(7919)
    return c, words, state, x1[idx % 4], z1[idx % 4], theta, streams


@pytest.fixture(scope="module")
def plane_dense():
    """Dense expectation of each (word, angles) pair on the bare register."""
    c, words, _ = _place(_PLANE_SPEC)
    state = _plane_state(3, _REGISTERS[3])
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
            ref = engine.backprop_term(
                c, ThetaAssignment(_THETAS[i % 7]), words[i % 4][1], state,
                RngStream(seed=5, stream_id=int(streams[i])),
                collect_trace=True)
            assert vals[i] == ref.value  # bit for bit
            for site, flag in _trace_flags(c, ref.trace,
                                           len(ref.trace) - 1).items():
                assert flags[i, site] == flag
        exact = engine.run_backward_batch(c, state, x0, z0, theta,
                                          exact=True)
        assert exact.shape == (lanes,)
        idx = np.arange(lanes)
        assert np.allclose(exact, plane_dense[idx % 4, idx % 7], rtol=0,
                           atol=1e-12)
        if n_reg != 3:  # padding the register moves no bit
            bare = _plane_lanes(3, lanes)
            assert np.array_equal(exact, engine.run_backward_batch(
                bare[0], bare[2], *bare[3:6], exact=True))
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

    @pytest.mark.parametrize("lanes", _LANE_COUNTS)
    def test_take_lanes_gathers_each_row(self, lanes):
        r = np.random.default_rng(lanes)
        bits = r.integers(0, 2, size=(5, lanes), dtype=np.uint8)
        bits[2] = 0  # a row with no bit set
        planes = engine._pack(bits)
        idx = np.sort(r.integers(0, max(lanes, 1), size=3 * lanes + 1)) \
            if lanes else np.zeros(0, dtype=np.int64)
        got = engine._take_lanes(planes, idx)
        assert np.array_equal(got, engine._pack(bits[:, idx]))
        if idx.size % 64:  # the padding bits of the last word stay 0
            assert not np.any(got[:, -1] >> np.uint64(idx.size % 64))

    @pytest.mark.parametrize("rows, count", [(1000, 130), (130, 1000),
                                             (65, 4097), (0, 70)])
    def test_transpose_in_tiles(self, rows, count, monkeypatch):
        r = np.random.default_rng(rows + count)
        bits = r.integers(0, 2, size=(rows, count), dtype=np.uint8)
        words = engine._pack(bits)
        want = engine._pack(np.ascontiguousarray(bits.T))
        monkeypatch.setattr(engine, "_TILE_BITS", 1 << 12)
        got = engine._transpose(words, count)
        assert np.array_equal(got, want)
        assert np.array_equal(engine._transpose(got, rows), words)


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
