"""Noise channels: transfer matrices vs dense Kraus maps, sampling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcdiag import channels as ch
from pqcdiag.rng import RngStream

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
    @given(strength)
    def test_depolarizing_ptm(self, lam):
        c = ch.make_depolarizing(lam)
        want = np.diag([1.0, 1 - lam, 1 - lam, 1 - lam])
        assert np.allclose(c.ptm, want)
        flags = ch.validate(c)
        assert flags == {"pcs1": True, "prs1": True, "tp": True}

    @given(strength)
    def test_amplitude_damping_vs_kraus(self, gamma):
        c = ch.make_amplitude_damping(gamma)
        k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        assert np.allclose(c.ptm, ptm_from_kraus([k0, k1], 1), atol=1e-12)
        flags = ch.validate(c)
        assert flags["pcs1"] and flags["tp"]
        # the identity row picks up a gamma, so rows are the broken direction
        # (validate flags at tolerance 1e-12)
        assert flags["prs1"] == (gamma <= 1e-12)

    @given(st.tuples(strength, strength).filter(lambda t: t[0] + t[1] <= 1.0))
    def test_thermal_vs_kraus(self, gl):
        gamma, lam = gl
        c = ch.make_thermal(gamma, lam)
        k = [np.diag([1.0, np.sqrt(max(0.0, 1 - lam - gamma))]).astype(complex),
             np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
             np.array([[0, 0], [0, np.sqrt(lam)]], dtype=complex)]
        assert np.allclose(c.ptm, ptm_from_kraus(k, 1), atol=1e-12)
        assert ch.validate(c)["pcs1"]

    def test_thermal_limits(self):
        assert np.allclose(ch.make_thermal(0.3, 0.0).ptm,
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
        flags = ch.validate(c)
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
        flags = ch.validate(c)
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


def test_with_support_moves_qubits():
    c = ch.make_amplitude_damping(0.2, (0,)).with_support((5,))
    assert c.support == (5,) and np.allclose(
        c.ptm, ch.make_amplitude_damping(0.2).ptm)


def test_with_support_shares_the_tables():
    parent = ch.make_mmff("X", (0, 1))
    c = parent.with_support([7, 3])
    assert c.support == (7, 3) and parent.support == (0, 1)
    assert c.ptm is parent.ptm and c.diagonal == parent.diagonal
    assert c.cols is parent.cols and c.rows is parent.rows
    assert c.flags is parent.flags and ch.validate(c) == ch.validate(parent)
    assert c.label == parent.label and c.params == parent.params
    assert c.params is not parent.params


@pytest.mark.parametrize("parent, support", [
    ((0,), ()), ((0,), (1, 2)), ((0, 1), (3, 3)), ((0, 1, 2), (0, 1, 2, 4))])
def test_with_support_refuses_a_bad_support(parent, support):
    with pytest.raises(ValueError):
        ch.make_depolarizing(0.1, parent).with_support(support)


def branches(tables, j):
    """{tau: signed entry} of the branches that ``tables`` lists for j."""
    n = int(tables.count[j])
    return dict(zip(tables.tau[j, :n].tolist(), tables.val[j, :n].tolist()))


class TestSampling:
    def test_enumeration_is_the_column(self):
        c = ch.make_amplitude_damping(0.37)
        # column Z holds gamma at I and 1-gamma at Z
        assert branches(c.cols, 3) == pytest.approx({0: 0.37, 3: 0.63})
        # forward from I reaches I and Z (the non-unital leak)
        assert branches(c.rows, 0) == pytest.approx({0: 1.0, 3: 0.37})

    def test_single_branch_columns_are_deterministic(self):
        c = ch.make_depolarizing(0.25)
        r = RngStream(seed=0, stream_id=9)
        for s in range(4):
            got = ch.adjoint_sample(c, s, r)
            assert got.tau == s
            assert got.weight == pytest.approx(1.0 if s == 0 else 0.75)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_adjoint_sample_unbiased(self, gamma):
        c = ch.make_amplitude_damping(gamma)
        n = 40000
        acc = np.zeros(4)
        for i in range(n):
            r = RngStream(seed=77, stream_id=i)
            s = ch.adjoint_sample(c, 3, r)
            acc[s.tau] += s.weight
        acc /= n
        col = c.ptm[:, 3]
        se = 3.0 * (1 + gamma) / np.sqrt(n)  # weights bounded by column l1
        assert np.abs(acc - col).max() < max(se, 1e-3)

    def test_zero_column_terminates(self):
        c = ch.make_mmff("")  # columns with X or Y on the measured qubit die
        r = RngStream(seed=1, stream_id=0)
        out = ch.adjoint_sample(c, 1, r)
        assert out.weight == 0.0
        assert c.cols.count[1] == 0 and branches(c.cols, 1) == {}

    def test_sample_replay_is_pure(self):
        c = ch.make_amplitude_damping(0.4)
        a = ch.adjoint_sample(c, 3, RngStream(seed=3, stream_id=11))
        b = ch.adjoint_sample(c, 3, RngStream(seed=3, stream_id=11))
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
