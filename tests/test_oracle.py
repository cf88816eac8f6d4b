"""Dense-matrix reference: closed-form anchors and internal consistency.

The toy R_X + depolarizing circuit has everything in closed form on the
quarter-turn grid: <Z~> = (1-lam) cos(theta), so

    MSE          = lam^2 * E[cos^2] = lam^2 / 2
    gradvar (k=0) = (1-lam)^2 * E[sin^2] = (1-lam)^2 / 2

and a single R_Z on |0> leaves the state fixed, making its second moment a
rank-one projector whose HS distance from the Haar moment is exactly 2/3.
"""

import numpy as np
import pytest

from conftest import axis, exact_expectation, random_circuit, rx_dep_circuit
from pqcdiag import oracle
from pqcdiag.circuits import (Circuit, Clifford, Rotation, ThetaAssignment,
                              observable_from_terms, zero_state)


class TestDenseEvolve:
    def test_zero_angle_identity(self):
        c, obs, st = rx_dep_circuit(0.0)
        assert oracle.dense_expectation(c, [0.0], obs, st) \
            == pytest.approx(1.0)

    def test_continuous_angles(self):
        c, obs, st = rx_dep_circuit(0.2)
        th = 0.7  # off-grid angle: dense route has no grid restriction
        want = 0.8 * np.cos(th)
        assert oracle.dense_expectation(c, [th], obs, st) \
            == pytest.approx(want, abs=1e-12)

    def test_observable_dense_includes_offset(self):
        obs = observable_from_terms([(0.5, "ZI"), (2.0, "II")])
        m = oracle.observable_dense(obs)
        want = 0.5 * oracle.pauli_dense(axis(2, "Z", (0,))) + 2.0 * np.eye(4)
        assert np.allclose(m, want)

    def test_qubit_cap(self):
        c = Circuit(11, [Rotation(axis(11, "X", (0,)), 0)], [])
        with pytest.raises(ValueError):
            oracle.dense_expectation(c, [0.0],
                                     observable_from_terms([(1.0, "Z" * 11)]))

    def test_swap_clifford_bit_order_regression(self):
        # swap(0,2) on a 3-qubit register: X I Z -> Z I X
        c = Circuit(3, [Clifford("swap", (0, 2))], [])
        obs = observable_from_terms([(1.0, "XIZ")])
        plus_minus = []
        for bits in range(8):
            ent = [(bits, bits, 1.0)]
            from pqcdiag.circuits import SparseState
            plus_minus.append(oracle.dense_expectation(
                c, [], obs, SparseState(3, ent)))
        # <b| Z I X |b> = 0 for every computational state (X kills diagonal)
        assert all(v == pytest.approx(0.0) for v in plus_minus)
        obs2 = observable_from_terms([(1.0, "ZIZ")])
        got = oracle.dense_expectation(c, [], obs2, zero_state(3))
        assert got == pytest.approx(1.0)


class TestGridEnumerate:
    @pytest.mark.parametrize("label", ["Z", "ZII"])
    @pytest.mark.parametrize("run", [
        lambda c, obs: oracle.grid_enumerate(c, obs, "mse"),
        lambda c, obs: oracle.grid_enumerate(c, obs, "gradvar(0)"),
        lambda c, obs: oracle.dense_expectation(c, [0.0], obs)],
        ids=["mse", "gradvar", "dense"])
    def test_observable_on_another_register_is_refused(self, run, label):
        c = Circuit(2, [Rotation(axis(2, "X", (0,)), 0)], [])
        with pytest.raises(ValueError, match=f"acts on {len(label)} qubits, "
                                             "circuit has 2"):
            run(c, observable_from_terms([(1.0, label)]))

    def test_work_cap_counts_the_closure(self, monkeypatch):
        # no gates: the closure against the state is all the work there is
        c, obs = Circuit(2, [], []), observable_from_terms([(1.0, "ZI")])
        assert oracle.grid_enumerate(c, obs, "mse") == 0.0
        monkeypatch.setattr(oracle, "GRID_WORK_CAP", 16.0 ** 2 - 1)
        with pytest.raises(ValueError, match="over budget"):
            oracle.grid_enumerate(c, obs, "mse")

    def test_mse_anchor(self):
        c, obs, st = rx_dep_circuit(0.1)
        assert oracle.grid_enumerate(c, obs, "mse", st) \
            == pytest.approx(0.005, abs=1e-12)

    def test_identity_only_observable(self):
        # no Pauli term is left to carry the register size
        c, _, st = rx_dep_circuit(0.1)
        obs = observable_from_terms([(0.75, "I")])
        assert obs.terms == [] and obs.n == 1
        assert oracle.grid_enumerate(c, obs, "mse", st) == 0.0
        assert oracle.dense_expectation(c, [0.3], obs, st) \
            == pytest.approx(0.75, abs=1e-15)

    def test_mse_zero_without_noise(self):
        c, obs, st = rx_dep_circuit(0.0)
        assert oracle.grid_enumerate(c, obs, "mse", st) \
            == pytest.approx(0.0, abs=1e-14)

    def test_gradvar_anchor(self):
        c, obs, st = rx_dep_circuit(0.1)
        assert oracle.grid_enumerate(c, obs, "gradvar(0)", st) \
            == pytest.approx(0.81 / 2, abs=1e-12)
        clean, _, _ = rx_dep_circuit(0.0)
        assert oracle.grid_enumerate(clean, obs, "gradvar(0)", st) \
            == pytest.approx(0.5, abs=1e-12)

    def test_mse_matches_brute_force_grid(self):
        # same functional, computed the slow way: enumerate all 4^P thetas
        for seed in (1, 5):
            c, obs, st = random_circuit(2, 4, seed=seed)
            clean = c.without_noise()
            vals = []
            for idx in range(4 ** c.n_params):
                ks = [(idx >> (2 * j)) & 3 for j in range(c.n_params)]
                th = np.array(ks) * np.pi / 2
                vals.append(
                    (oracle.dense_expectation(c, th, obs, st)
                     - oracle.dense_expectation(clean, th, obs, st)) ** 2)
            assert oracle.grid_enumerate(c, obs, "mse", st) \
                == pytest.approx(float(np.mean(vals)), abs=1e-11)

    def test_gradvar_matches_brute_force_grid(self):
        c, obs, st = random_circuit(2, 3, seed=8)
        k = 1
        vals = []
        for idx in range(4 ** c.n_params):
            ks = np.array([(idx >> (2 * j)) & 3 for j in range(c.n_params)])
            up, dn = ks.copy(), ks.copy()
            up[k] = (up[k] + 1) % 4
            dn[k] = (dn[k] - 1) % 4
            g = (oracle.dense_expectation(c, up * np.pi / 2, obs, st)
                 - oracle.dense_expectation(c, dn * np.pi / 2, obs, st)) / 2
            vals.append(g * g)
        assert oracle.grid_enumerate(c, obs, f"gradvar({k})", st) \
            == pytest.approx(float(np.mean(vals)), abs=1e-11)

    def test_bad_functional_and_bounds(self, monkeypatch):
        c, obs, st = rx_dep_circuit(0.1)
        with pytest.raises(ValueError):
            oracle.grid_enumerate(c, obs, "gradvar(3)", st)
        with pytest.raises(ValueError):
            oracle.grid_enumerate(c, obs, "curvature", st)
        with pytest.raises(ValueError):
            oracle.grid_enumerate(c, None, "mse", st)
        monkeypatch.setattr(oracle, "GRID_WORK_CAP", 1.0)
        with pytest.raises(ValueError):
            oracle.grid_enumerate(c, obs, "mse", st)

    def test_shared_parameter_rejected(self):
        ops = [Rotation(axis(1, "X", (0,)), 0), Rotation(axis(1, "Z", (0,)), 0)]
        c = Circuit(1, ops, [])
        with pytest.raises(ValueError, match="exactly one"):
            oracle.grid_enumerate(c, observable_from_terms([(1.0, "Z")]),
                                  "mse", zero_state(1))


class TestSecondMoments:
    def test_haar_moment_invariants(self):
        for n in (1, 2, 3):
            m = oracle.haar_2moment(n)
            d = 2 ** n
            assert np.trace(m) == pytest.approx(1.0)
            evals = np.linalg.eigvalsh(m)
            assert evals.min() > -1e-12
            # partial trace over the second copy is the maximally mixed state
            pt = m.reshape(d, d, d, d).trace(axis1=1, axis2=3)
            assert np.allclose(pt, np.eye(d) / d, atol=1e-12)

    def test_haar_moment_swap_symmetric(self):
        m = oracle.haar_2moment(2)
        d = 4
        swap = np.zeros((d * d, d * d))
        for a in range(d):
            for b in range(d):
                swap[a * d + b, b * d + a] = 1.0
        assert np.allclose(swap @ m @ swap, m)

    def test_single_rz_deviation_exact(self):
        c = Circuit(1, [Rotation(axis(1, "Z", (0,)), 0)], [])
        assert oracle.dense_moment_deviation(c) \
            == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_moment2_functional_delegates(self):
        c, _, _ = random_circuit(2, 3, seed=5)
        assert oracle.grid_enumerate(c, None, "moment2") \
            == pytest.approx(oracle.dense_moment_deviation(c), abs=1e-14)

    def test_grid_cap(self, monkeypatch):
        c, _, _ = random_circuit(2, 9, seed=3, channels=())
        monkeypatch.setattr(oracle, "MOMENT_GRID_CAP", 1000)
        with pytest.raises(ValueError):
            oracle.second_moment_matrix(c)

    def test_two_copy_qubit_cap(self):
        with pytest.raises(ValueError):
            oracle.haar_2moment(6)


def rotation_2design_check(axis, grid_angles=None) -> float:
    """Max-entry gap between grid-averaged and continuum rotation 2-moments.

    Compares (1/|grid|) sum_theta (R(theta) (x) R(-theta))^{(x)2} with the
    analytic uniform-angle integral; the quarter-turn grid should match to
    machine precision, coarser grids should not.
    """
    support, local = oracle._on_support(axis)
    loc = oracle.pauli_dense(local)
    eye = np.eye(2 ** len(support))

    def q_of(theta):
        return np.kron(oracle._rot_local(loc, theta),
                       oracle._rot_local(loc, -theta))

    if grid_angles is None:
        grid_angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    grid_avg = sum(np.kron(q_of(t), q_of(t)) for t in grid_angles) \
        / len(grid_angles)

    # continuum: expand Q = c^2 B0 + i c s B1 - i c s B2 + s^2 B3 with
    # B0 = I(x)I, B1 = I(x)A, B2 = A(x)I, B3 = A(x)A; half-angle moments
    # E[c^4] = E[s^4] = 3/8, E[c^2 s^2] = 1/8, odd powers vanish.
    basis = [np.kron(eye, eye), np.kron(eye, loc),
             np.kron(loc, eye), np.kron(loc, loc)]
    phase = {0: 1.0, 1: 1.0j, 2: -1.0j, 3: 1.0}
    cs_deg = {0: 0, 1: 1, 2: 1, 3: 2}  # power of (c s); rest goes to c
    mom = {(0, 0): 3 / 8, (0, 2): 1 / 8, (2, 0): 1 / 8, (2, 2): 3 / 8,
           (1, 1): 1 / 8}

    cont = np.zeros_like(grid_avg)
    for u in range(4):
        for v in range(4):
            key = (cs_deg[u], cs_deg[v])
            if key not in mom:
                continue
            cont += (phase[u] * phase[v]).real * mom[key] \
                * np.kron(basis[u], basis[v])
    return float(np.abs(grid_avg - cont).max())


class TestRotationMoments:
    def test_quarter_grid_is_exact(self):
        for letters, qubits, n in (("X", (0,), 1), ("Y", (0,), 1),
                                   ("ZZ", (0, 1), 2), ("XY", (0, 1), 2)):
            gap = rotation_2design_check(axis(n, letters, qubits))
            assert gap < 1e-12

    def test_uniform_three_point_grid_also_exact(self):
        # second moments only hold frequencies up to 2, so any uniform grid
        # with N >= 3 integrates them exactly — not a special grid property
        gap = rotation_2design_check(
            axis(1, "X", (0,)), grid_angles=[0, 2 * np.pi / 3, 4 * np.pi / 3])
        assert gap < 1e-12

    def test_two_point_grid_fails(self):
        # {0, pi} aliases the frequency-2 component (cos 2theta -> 1)
        gap = rotation_2design_check(axis(1, "X", (0,)),
                                     grid_angles=[0, np.pi])
        assert gap > 1e-3

    def test_nonuniform_grid_fails(self):
        gap = rotation_2design_check(
            axis(1, "Z", (0,)), grid_angles=[0, np.pi / 3, np.pi / 2])
        assert gap > 1e-3


def test_dense_vs_walker_cross_route():
    # the two exact routes (matrix evolution vs path enumeration) agree
    for seed in (11, 12, 13):
        c, obs, st = random_circuit(3, 5, seed=seed)
        r = np.random.default_rng(seed)
        th = ThetaAssignment(r.integers(0, 4, size=c.n_params))
        assert exact_expectation(c, obs, st, th) == pytest.approx(
            oracle.dense_expectation(c, th.as_radians(), obs, st), abs=1e-10)
