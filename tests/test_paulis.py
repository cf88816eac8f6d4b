"""Pauli word algebra checked against dense 2^n matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcdiag import paulis
from pqcdiag.oracle import pauli_dense
from pqcdiag.paulis import (PauliString, SignedPauli, commutes, multiply,
                            phase_exponent)
from reference import (backprop_rotation, conjugate_clifford,
                       trace_pauli_with_entries)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = (I2, X, Y, Z)


def dense(codes):
    """Independent kron build, qubit 0 least significant."""
    m = np.array([[1.0 + 0j]])
    for c in codes:
        m = np.kron(MATS[c], m)
    return m


def word(codes):
    return PauliString.from_codes(codes)


def signed_dense(sp):
    return (1j ** sp.phase_q) * pauli_dense(sp.pauli)


codes_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=5)


class TestBasics:
    def test_text_round_trip(self):
        p = PauliString.from_text("XIZy")
        assert p.to_text() == "+XIZY"
        assert p.weight == 3
        assert PauliString.from_text(p.to_text()) == p

    def test_identity(self):
        p = PauliString.identity(3)
        assert p.is_identity() and p.weight == 0
        assert word([0, 2, 0]).is_identity() is False

    def test_single(self):
        p = PauliString.single(4, 2, 3)
        assert p.to_text() == "+IIZI"
        with pytest.raises(ValueError):
            PauliString.single(2, 5, 1)

    def test_bad_text(self):
        with pytest.raises(ValueError):
            PauliString.from_text("XQ")
        with pytest.raises(ValueError):
            PauliString.from_text("-XZ")  # signs live on SignedPauli
        assert SignedPauli.from_text("-iXZ").phase_q == 3

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PauliString(2, 4, 0)

    @settings(deadline=None)
    @given(codes_strategy)
    def test_codes_round_trip(self, codes):
        p = word(codes)
        assert [p.code_at(j) for j in range(p.n)] == codes
        assert p.weight == sum(c != 0 for c in codes)

    @settings(deadline=None)
    @given(codes_strategy)
    def test_dense_matches_convention(self, codes):
        assert np.allclose(pauli_dense(word(codes)), dense(codes))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_local_index_round_trip(self, data):
        # every support straddles qubit 64, where the masks pass a uint64
        n = data.draw(st.integers(65, 140))
        picks = [data.draw(st.integers(0, 63)),
                 data.draw(st.integers(64, n - 1)),
                 *data.draw(st.lists(st.integers(0, n - 1), max_size=1))]
        support = data.draw(st.permutations(list(dict.fromkeys(picks))))
        m = len(support)
        full = (1 << n) - 1
        p = PauliString(n, data.draw(st.integers(0, full)),
                        data.draw(st.integers(0, full)))
        idx = p.local_index(support)
        assert [(idx >> 2 * i) & 3 for i in range(m)] \
            == [p.code_at(q) for q in support]
        assert p.with_local(support, idx) == p
        new = data.draw(st.integers(0, 4 ** m - 1))
        want = {q: (new >> 2 * i) & 3 for i, q in enumerate(support)}
        moved = p.with_local(support, new)
        assert [moved.code_at(q) for q in range(n)] \
            == [want.get(q, p.code_at(q)) for q in range(n)]
        assert moved.local_index(support) == new
        local = PauliString.from_local(new, m)
        assert local.n == m
        assert [local.code_at(j) for j in range(m)] \
            == [want[q] for q in support]
        assert local.local_index(range(m)) == new


class TestProducts:
    @given(codes_strategy.flatmap(
        lambda a: st.tuples(st.just(a),
                            st.lists(st.integers(0, 3), min_size=len(a),
                                     max_size=len(a)))))
    @settings(max_examples=60, deadline=None)
    def test_multiply_vs_dense(self, pair):
        a, b = map(word, pair)
        out = multiply(a, b)
        lhs = dense(pair[0]) @ dense(pair[1])
        rhs = (1j ** out.phase_q) * pauli_dense(out.pauli)
        assert np.allclose(lhs, rhs)

    @settings(deadline=None)
    @given(codes_strategy)
    def test_self_product_is_identity(self, codes):
        p = word(codes)
        out = multiply(p, p)
        assert out.pauli.is_identity() and out.phase_q == 0

    @given(codes_strategy.flatmap(
        lambda a: st.tuples(st.just(a),
                            st.lists(st.integers(0, 3), min_size=len(a),
                                     max_size=len(a)))))
    @settings(max_examples=60, deadline=None)
    def test_commutes_matches_dense(self, pair):
        a, b = map(word, pair)
        da, db = dense(pair[0]), dense(pair[1])
        assert commutes(a, b) == np.allclose(da @ db, db @ da)

    def test_phase_exponent_scalar_cases(self):
        # X*Z = -iY ; Z*X = +iY
        assert phase_exponent(1, 0, 0, 1) == 3
        assert phase_exponent(0, 1, 1, 0) == 1
        assert multiply(word([1]), word([3])).to_text() in ("-iY",)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(word([1]), word([1, 0]))


class TestRotations:
    @staticmethod
    def _rot(axis_dense, k):
        th = k * np.pi / 2
        return np.cos(th / 2) * np.eye(len(axis_dense)) \
            - 1j * np.sin(th / 2) * axis_dense

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_vs_dense_conjugation(self, k):
        rng = np.random.default_rng(11 + k)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            ax = word(rng.integers(0, 4, size=n).tolist())
            if ax.is_identity():
                continue
            p = SignedPauli(word(rng.integers(0, 4, size=n).tolist()),
                            int(rng.integers(0, 4)))
            r = self._rot(pauli_dense(ax), k)
            want_back = r.conj().T @ signed_dense(p) @ r
            want_fwd = r @ signed_dense(p) @ r.conj().T
            got_back = backprop_rotation(ax, k, p)
            got_fwd = backprop_rotation(ax, k, p, direction="forward")
            assert np.allclose(signed_dense(got_back), want_back)
            assert np.allclose(signed_dense(got_fwd), want_fwd)

    def test_commuting_axis_passthrough(self):
        p = SignedPauli(word([3, 3]), 0)
        for k in range(4):
            assert backprop_rotation(word([3, 0]), k, p) == p

    def test_bad_args(self):
        p = SignedPauli(word([1]), 0)
        with pytest.raises(ValueError):
            backprop_rotation(word([3]), 4, p)
        with pytest.raises(ValueError):
            backprop_rotation(word([3]), 1, p, direction="sideways")


# dense unitaries for every supported named gate, in the same bit order as
# oracle.pauli_dense (qubit 0 = least significant = second kron factor)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j]).astype(complex)
P0, P1 = np.diag([1.0, 0j]), np.diag([0j, 1.0])
GATE_DENSE = {
    "i": I2, "x": X, "y": Y, "z": Z, "h": H, "s": S, "sdg": S.conj().T,
    # qubits[0] is the control and sits in the low bit
    "cnot": np.kron(I2, P0) + np.kron(X, P1),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


class TestCliffords:
    @pytest.mark.parametrize("kind", sorted(GATE_DENSE))
    def test_vs_dense(self, kind):
        u = GATE_DENSE[kind]
        m = 1 if u.shape[0] == 2 else 2
        for idx in range(4 ** m):
            codes = [(idx >> (2 * j)) & 3 for j in range(m)]
            p = SignedPauli(word(codes), 0)
            got = conjugate_clifford(kind, tuple(range(m)), p,
                                     direction="forward")
            want = u @ signed_dense(p) @ u.conj().T
            assert np.allclose(signed_dense(got), want), (kind, codes)

    @pytest.mark.parametrize("kind", sorted(GATE_DENSE))
    def test_backward_inverts_forward(self, kind):
        m = 1 if GATE_DENSE[kind].shape[0] == 2 else 2
        rng = np.random.default_rng(5)
        for _ in range(12):
            p = SignedPauli(word(rng.integers(0, 4, size=3).tolist()),
                            int(rng.integers(0, 4)))
            qs = (2,) if m == 1 else (2, 0)
            fwd = conjugate_clifford(kind, qs, p, direction="forward")
            assert conjugate_clifford(kind, qs, fwd) == p

    def test_embedding_leaves_other_qubits_alone(self):
        p = SignedPauli(word([3, 1, 2]), 0)  # Z X Y
        out = conjugate_clifford("h", (1,), p, direction="forward")
        assert out.pauli.code_at(0) == 3 and out.pauli.code_at(2) == 2
        assert out.pauli.code_at(1) == 3  # H X H = Z

    def test_cnot_control_order(self):
        # X on the control spreads to the target; qubits[0] is the control
        p = SignedPauli(word([1, 0]), 0)
        out = conjugate_clifford("cnot", (0, 1), p, direction="forward")
        assert out.to_text() == "+XX"
        out = conjugate_clifford("cnot", (1, 0), p, direction="forward")
        assert out.to_text() == "+XI"  # now qubit 0 is the target

    def test_bad_kind_and_arity(self):
        p = SignedPauli(word([1, 0]), 0)
        with pytest.raises(ValueError):
            conjugate_clifford("toffoli", (0,), p)
        with pytest.raises(ValueError):
            conjugate_clifford("cz", (0,), p)
        with pytest.raises(ValueError):
            conjugate_clifford("cz", (1, 1), p)


class TestTraces:
    def test_zero_state(self):
        entries = [(0, 0, 1.0)]  # |0><0| on one qubit
        assert trace_pauli_with_entries(word([3]), entries) == 1.0
        assert trace_pauli_with_entries(word([1]), entries) == 0.0

    def test_plus_state(self):
        entries = [(a, b, 0.5) for a in (0, 1) for b in (0, 1)]
        assert trace_pauli_with_entries(word([1]), entries) \
            == pytest.approx(1.0)
        assert trace_pauli_with_entries(word([3]), entries) \
            == pytest.approx(0.0)

    @given(codes_strategy)
    @settings(max_examples=40, deadline=None)
    def test_vs_dense_random_state(self, codes):
        n = len(codes)
        rng = np.random.default_rng(sum(codes) + 7 * n)
        v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        entries = [(a, b, rho[a, b]) for a in range(2 ** n)
                   for b in range(2 ** n)]
        want = np.trace(pauli_dense(word(codes)) @ rho).real
        assert trace_pauli_with_entries(word(codes), entries) \
            == pytest.approx(want, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            trace_pauli_with_entries(word([2]), [(0, 1, 1.0)])


class TestWordArrays:
    @settings(deadline=None)
    @given(st.integers(0, 2 ** 130 - 1))
    def test_mask_round_trip(self, mask):
        words = paulis.mask_to_words(mask, 130)
        assert words.shape == (3,)
        assert sum(int(w) << (64 * i) for i, w in enumerate(words)) == mask

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2 ** 70 - 1), min_size=1, max_size=8))
    def test_popcount_and_parity(self, masks):
        arr = np.stack([paulis.mask_to_words(m, 70) for m in masks])
        want = np.array([bin(m).count("1") for m in masks])
        assert np.array_equal(paulis.popcount_words(arr), want)

    @pytest.mark.parametrize("lanes", [0, 1, 130])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_popcount_matches_a_sum_over_the_word_axis(self, lanes, width):
        words = np.random.default_rng(lanes + width).integers(
            0, 2 ** 64, size=(lanes, width), dtype=np.uint64)
        words[::3] = np.uint64(2 ** 64 - 1)
        got = paulis.popcount_words(words)
        want = np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
        assert got.dtype == np.int64 and got.shape == (lanes,)
        assert np.array_equal(got, want)
