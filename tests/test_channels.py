"""Noise channels: transfer matrices vs dense Kraus maps, sampling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcdiag import channels as ch
from pqcdiag import engine
from reference import RngStream, adjoint_sample

strength = st.floats(0.0, 1.0, allow_nan=False)


def dense_word(idx, m):
    """Local Pauli word ``idx`` as a dense matrix, qubit 0 least significant."""
    mats = (np.eye(2), np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    out = np.array([[1.0 + 0j]])
    for j in range(m):
        out = np.kron(mats[(idx >> (2 * j)) & 3], out)
    return out


def ptm_from_kraus(kraus, m):
    """S[i, j] = tr(E(sigma_i) sigma_j) over normalized local Paulis."""
    d = 4 ** m
    s = np.zeros((d, d))
    for i in range(d):
        rho = dense_word(i, m) / 2 ** (m / 2)
        out = sum(k @ rho @ k.conj().T for k in kraus)
        for j in range(d):
            s[i, j] = np.trace(out @ dense_word(j, m)).real / 2 ** (m / 2)
    return s


class TestConstructors:
    @settings(deadline=None)
    @given(strength)
    def test_depolarizing_ptm(self, lam):
        c = ch.make_depolarizing(lam)
        want = np.diag([1.0, 1 - lam, 1 - lam, 1 - lam])
        assert np.allclose(c.ptm, want)
        flags = c.flags
        assert flags == {"pcs1": True, "prs1": True, "tp": True}

    @settings(deadline=None)
    @given(strength)
    def test_amplitude_damping_vs_kraus(self, gamma):
        c = ch.make_amplitude_damping(gamma)
        k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        assert np.allclose(c.ptm, ptm_from_kraus([k0, k1], 1), atol=1e-12)
        flags = c.flags
        assert flags["pcs1"] and flags["tp"]
        # the identity row picks up a gamma, so rows are the broken direction
        # (flags at tolerance 1e-12)
        assert flags["prs1"] == (gamma <= 1e-12)

    @settings(deadline=None)
    @given(st.tuples(strength, strength).filter(lambda t: t[0] + t[1] <= 1.0))
    def test_thermal_vs_kraus(self, gl):
        gamma, lam = gl
        c = ch.make_thermal(gamma, lam)
        k = [np.diag([1.0, np.sqrt(max(0.0, 1 - lam - gamma))]).astype(complex),
             np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
             np.array([[0, 0], [0, np.sqrt(lam)]], dtype=complex)]
        assert np.allclose(c.ptm, ptm_from_kraus(k, 1), atol=1e-12)
        assert c.flags["pcs1"]

    def test_thermal_limits(self):
        assert np.array_equal(ch.make_thermal(0.3, 0.0).ptm,
                              ch.make_amplitude_damping(0.3).ptm)
        with pytest.raises(ValueError):
            ch.make_thermal(0.7, 0.5)

    def test_thermal_from_times(self):
        c = ch.thermal_from_times(50.0, 70.0, 10.0)
        gamma = 1 - np.exp(-10 / 50)
        assert c.params["gamma"] == pytest.approx(gamma)
        # coherences must decay exactly as e^{-t/T2}
        assert c.ptm[1, 1] == pytest.approx(np.exp(-10 / 70))
        with pytest.raises(ValueError):
            ch.thermal_from_times(50.0, 120.0, 10.0)
        with pytest.raises(ValueError):
            ch.thermal_from_times(0.0, 1.0, 1.0)

    def test_pauli_channel_vs_kraus(self):
        probs = {"IX": 0.2, "ZI": 0.3, "II": 0.5}
        c = ch.make_pauli_channel(probs, (0, 1))
        kraus = [np.sqrt(p) * dense_word(
            sum("IXYZ".index(l) << (2 * j) for j, l in enumerate(lbl)), 2)
            for lbl, p in probs.items()]
        assert np.allclose(c.ptm, ptm_from_kraus(kraus, 2), atol=1e-12)
        flags = c.flags
        assert flags == {"pcs1": True, "prs1": True, "tp": True}

    def test_pauli_channel_validation(self):
        with pytest.raises(ValueError):
            ch.make_pauli_channel({})
        with pytest.raises(ValueError):
            ch.make_pauli_channel({"I": 0.9, "XX": 0.1})
        with pytest.raises(ValueError):
            ch.make_pauli_channel({"I": 0.5, "X": 0.4})

    @pytest.mark.parametrize("feedback", ["", "X", "Z", "Y"])
    def test_mmff_vs_dense(self, feedback):
        m = 1 + len(feedback)
        c = ch.make_mmff(feedback, tuple(range(m)))
        # measure qubit 0, reset it to I/2, apply feedback on outcome 1
        pi0, pi1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        fb = dense_word(sum("IXYZ".index(l) << (2 * j)
                            for j, l in enumerate(feedback)), len(feedback)) \
            if feedback else np.array([[1.0]])
        d = 4 ** m
        s = np.zeros((d, d))
        for i in range(d):
            rho = dense_word(i, m) / 2 ** (m / 2)
            out = np.zeros_like(rho)
            for pi, f in ((pi0, np.eye(max(1, 2 ** len(feedback)))), (pi1, fb)):
                proj = np.kron(np.eye(fb.shape[0]), pi)
                half = proj @ rho @ proj
                # trace out qubit 0 (LSB), re-insert I/2, conjugate targets
                red = half.reshape(fb.shape[0], 2, fb.shape[0], 2)
                red = red[:, 0, :, 0] + red[:, 1, :, 1]
                out = out + np.kron(f @ red @ f.conj().T, np.eye(2) / 2)
            for j in range(d):
                s[i, j] = np.trace(out @ dense_word(j, m)).real / 2 ** (m / 2)
        assert np.allclose(c.ptm, s, atol=1e-12)
        flags = c.flags
        assert flags["pcs1"] and flags["prs1"] and flags["tp"]

    def test_mmff_arity_checks(self):
        with pytest.raises(ValueError):
            ch.make_mmff("X", (0,))
        with pytest.raises(ValueError):
            ch.make_mmff("XYZ", (0, 1, 2, 3))

    def test_support_is_capped_at_three_qubits(self):
        assert ch.make_raw_ptm(np.eye(64), (0, 1, 2)).m == 3
        with pytest.raises(ValueError, match=r"1\.\.3 qubits, got 4"):
            ch.make_raw_ptm(np.eye(256), (0, 1, 2, 3))

    def test_strength_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                ch.make_depolarizing(bad)
            with pytest.raises(ValueError):
                ch.make_amplitude_damping(bad)

    def test_support_checks(self):
        with pytest.raises(ValueError):
            ch.make_depolarizing(0.1, (0, 0))
        with pytest.raises(ValueError):
            ch.make_raw_ptm(np.eye(4), (0, 1))  # wrong size for support


def test_rebuild_with():
    c = ch.make_depolarizing(0.1, (2,))
    r = ch.rebuild_with(c, "lambda", 0.4)
    assert r.params["lambda"] == 0.4 and r.support == (2,)
    t = ch.rebuild_with(ch.make_thermal(0.2, 0.1), "gamma", 0.3)
    assert t.params == {"gamma": 0.3, "lambda": 0.1}
    with pytest.raises(ValueError):
        ch.rebuild_with(ch.make_mmff(""), "gamma", 0.1)
    with pytest.raises(ValueError):
        ch.rebuild_with(c, "gamma", 0.1)


@pytest.mark.parametrize("channel, name", [
    (ch.make_depolarizing(0.3), "lambda"),
    (ch.make_depolarizing(0.3, (0, 1)), "lambda"),
    (ch.make_amplitude_damping(0.3), "gamma"),
    (ch.make_thermal(0.3, 0.2), "gamma"),
    (ch.make_thermal(0.3, 0.2), "lambda"),
])
def test_ptm_derivative_matches_central_difference(channel, name):
    h = 1e-6
    v = channel.params[name]
    want = (ch.rebuild_with(channel, name, v + h).ptm
            - ch.rebuild_with(channel, name, v - h).ptm) / (2 * h)
    got = ch.ptm_derivative(channel, name)
    assert got.shape == channel.ptm.shape
    assert np.allclose(got, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("channel, name", [
    (ch.make_thermal(0.4, 0.6), "gamma"), (ch.make_thermal(0.4, 0.6), "lambda"),
    (ch.make_thermal(0.0, 1.0), "lambda"),
    (ch.make_amplitude_damping(1.0), "gamma"),
])
def test_ptm_derivative_rejects_gamma_plus_lambda_one(channel, name):
    with pytest.raises(ValueError, match="gamma \\+ lambda = 1"):
        ch.ptm_derivative(channel, name)


#: one channel of every kind, and every parameter name any kind carries
_EVERY_KIND = [ch.make_depolarizing(0.2), ch.make_amplitude_damping(0.2),
               ch.make_thermal(0.2, 0.1),
               ch.thermal_from_times(80.0, 100.0, 5.0),
               ch.make_pauli_channel({"I": 0.9, "X": 0.1}),
               ch.make_mmff("X", (0, 1)), ch.make_raw_ptm(np.eye(4), (0,))]
_EVERY_NAME = ["lambda", "gamma", "t1", "t2", "t", "probs", "feedback"]


def test_tunable_pairs_are_exactly_the_table():
    pairs = {(kind, name) for kind, (_, names) in ch.TUNABLE_KINDS.items()
             for name in names}
    assert pairs == {("depolarizing", "lambda"),
                     ("amplitude_damping", "gamma"), ("thermal", "gamma"),
                     ("thermal", "lambda")}
    for channel in _EVERY_KIND:
        for name in _EVERY_NAME:
            if (channel.label, name) in pairs:
                rebuilt = ch.rebuild_with(channel, name, 0.05)
                assert rebuilt.label == channel.label
                assert rebuilt.params[name] == 0.05
                assert ch.ptm_derivative(channel, name).shape \
                    == channel.ptm.shape
                continue
            for call in (lambda: ch.rebuild_with(channel, name, 0.05),
                         lambda: ch.ptm_derivative(channel, name)):
                with pytest.raises(ValueError, match="no tunable"):
                    call()


def test_ptm_derivative_needs_a_tunable_pair():
    for channel, name in ((ch.make_mmff(""), "gamma"),
                          (ch.make_depolarizing(0.1), "gamma"),
                          (ch.make_amplitude_damping(0.1), "lambda")):
        with pytest.raises(ValueError, match="no tunable"):
            ch.ptm_derivative(channel, name)


def test_with_support_moves_qubits():
    c = ch.make_amplitude_damping(0.2, (0,)).with_support((5,))
    assert c.support == (5,) and np.allclose(
        c.ptm, ch.make_amplitude_damping(0.2).ptm)


def test_with_support_shares_the_tables():
    parent = ch.make_mmff("X", (0, 1))
    c = parent.with_support([7, 3])
    assert c.support == (7, 3) and parent.support == (0, 1)
    assert c.ptm is parent.ptm and c.diagonal == parent.diagonal
    assert c.flags is parent.flags and c.flags == parent.flags
    assert c.label == parent.label and c.params == parent.params
    assert c.params is not parent.params


@pytest.mark.parametrize("parent, support", [
    ((0,), ()), ((0,), (1, 2)), ((0, 1), (3, 3)), ((0, 1, 2), (0, 1, 2, 4))])
def test_with_support_refuses_a_bad_support(parent, support):
    with pytest.raises(ValueError):
        ch.make_depolarizing(0.1, parent).with_support(support)


def branches(matrix, j):
    """{tau: signed entry} of the branches that the sampling tables of
    ``matrix`` list for column j: each branch's probability (its cdf step)
    times its factor sign * l1."""
    tables = engine._BranchTables(matrix)
    n = int(tables.count[j])
    p = np.diff(tables.cdf[j, :n], prepend=0.0)
    return dict(zip(tables.tau[j, :n].tolist(),
                    (p * tables.sign[j, :n] * tables.l1[j]).tolist()))


class TestSampling:
    def test_enumeration_is_the_column(self):
        c = ch.make_amplitude_damping(0.37)
        # column Z holds gamma at I and 1-gamma at Z
        assert branches(c.ptm, 3) == pytest.approx({0: 0.37, 3: 0.63})
        # forward from I reaches I and Z (the non-unital leak)
        assert branches(c.ptm.T, 0) == pytest.approx({0: 1.0, 3: 0.37})

    def test_single_branch_columns_are_deterministic(self):
        c = ch.make_depolarizing(0.25)
        r = RngStream(seed=0, stream_id=9)
        for s in range(4):
            got = adjoint_sample(c, s, r.uniform_at(0))
            assert got.tau == s
            assert got.weight == pytest.approx(1.0 if s == 0 else 0.75)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_adjoint_sample_unbiased(self, gamma):
        c = ch.make_amplitude_damping(gamma)
        n = 40000
        acc = np.zeros(4)
        for i in range(n):
            r = RngStream(seed=77, stream_id=i)
            s = adjoint_sample(c, 3, r.uniform_at(0))
            acc[s.tau] += s.weight
        acc /= n
        col = c.ptm[:, 3]
        se = 3.0 * (1 + gamma) / np.sqrt(n)  # weights bounded by column l1
        assert np.abs(acc - col).max() < max(se, 1e-3)

    def test_zero_column_terminates(self):
        c = ch.make_mmff("")  # columns with X or Y on the measured qubit die
        r = RngStream(seed=1, stream_id=0)
        out = adjoint_sample(c, 1, r.uniform_at(0))
        assert out.weight == 0.0
        assert branches(c.ptm, 1) == {}

    def test_sample_replay_is_pure(self):
        c = ch.make_amplitude_damping(0.4)
        a = adjoint_sample(c, 3, RngStream(3, 11).uniform_at(0))
        b = adjoint_sample(c, 3, RngStream(3, 11).uniform_at(0))
        assert a == b


class TestSpecs:
    @pytest.mark.parametrize("c", [
        ch.make_depolarizing(0.15, (1,)),
        ch.make_amplitude_damping(0.3, (2,)),
        ch.make_thermal(0.1, 0.2, (0,)),
        ch.thermal_from_times(80.0, 100.0, 5.0, (1,)),
        ch.make_pauli_channel({"I": 0.8, "Y": 0.2}, (3,)),
        ch.make_mmff("Z", (0, 1)),
        ch.make_raw_ptm(np.diag([1.0, 0.5, 0.5, 0.25]), (0,)),
    ])
    def test_round_trip(self, c):
        back = ch.channel_from_spec(ch.channel_to_spec(c))
        assert back.label == c.label and back.support == c.support
        assert np.allclose(back.ptm, c.ptm)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ch.channel_from_spec({"kind": "sparkle", "support": [0]})
