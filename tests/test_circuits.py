"""Circuit containers, JSON round trips, and the builtin generators."""

import numpy as np
import pytest

from conftest import axis, random_circuit
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_raw_ptm)
from pqcdiag.circuits import (Circuit, Clifford, FixedAngle, NoiseSite,
                              Rotation, SparseState, ThetaAssignment,
                              build_circuit, gen_grid_chip,
                              gen_line_benchmark, gen_ring, grid_edge_layers,
                              load_bundle, observable_from_terms, serialize,
                              shift_theta, structurally_equal, zero_state)
from pqcdiag.paulis import PauliString


class TestOps:
    def test_rotation_rejects_identity_axis(self):
        with pytest.raises(ValueError):
            Rotation(PauliString.identity(2), 0)

    def test_rotation_qubits(self):
        r = Rotation(axis(4, "XZ", (1, 3)), 0)
        assert r.qubits == (1, 3)

    def test_fixed_angle_range(self):
        Rotation(axis(1, "X", (0,)), FixedAngle(3))
        with pytest.raises(ValueError):
            FixedAngle(4)

    def test_clifford_validation(self):
        Clifford("cz", (0, 1))
        with pytest.raises(ValueError):
            Clifford("cz", (0,))
        with pytest.raises(ValueError):
            Clifford("ccx", (0, 1))


class TestTheta:
    def test_range_check(self):
        with pytest.raises(ValueError):
            ThetaAssignment(np.array([0, 4]))

    def test_radians(self):
        t = ThetaAssignment(np.array([0, 1, 2, 3]))
        assert np.allclose(t.as_radians(), [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_shift_wraps(self):
        t = ThetaAssignment(np.array([3, 0]))
        assert shift_theta(t, 0, 1).values[0] == 0
        assert shift_theta(t, 1, -1).values[1] == 3
        with pytest.raises(IndexError):
            shift_theta(t, 2, 1)
        with pytest.raises(ValueError):
            shift_theta(t, 0, 2)


class TestObservable:
    def test_merge_and_identity_split(self):
        obs = observable_from_terms(
            [(0.5, "ZI"), (0.25, "ZI"), (2.0, "II"), (-1.0, "XY")])
        assert obs.identity_offset == 2.0
        got = {w.to_text(): c for c, w in obs.terms}
        assert got == {"+ZI": 0.75, "+XY": -1.0}
        assert obs.pauli_l1 == pytest.approx(1.75)
        assert obs.linf_norm_bound() == pytest.approx(3.75)

    def test_pauli_string_terms(self):
        obs = observable_from_terms([(1.0, axis(2, "Z", (1,)))])
        assert obs.n == 2

    def test_identity_only_sum(self):
        obs = observable_from_terms([(3.0, "II")])
        assert obs.identity_offset == 3.0 and obs.terms == []
        assert observable_from_terms([], n=2).pauli_l1 == 0.0
        with pytest.raises(ValueError):
            observable_from_terms([])  # no way to infer the register size


class TestCircuitValidation:
    def test_contiguous_params(self):
        ops = [Rotation(axis(1, "X", (0,)), 0), Rotation(axis(1, "Z", (0,)), 2)]
        with pytest.raises(ValueError, match="contiguous"):
            Circuit(1, ops, [])

    def test_shared_parameters_count_once(self):
        ops = [Rotation(axis(2, "X", (0,)), 0), Rotation(axis(2, "X", (1,)), 0)]
        c = Circuit(2, ops, [])
        assert c.n_params == 1
        assert c.param_occurrences(0) == [0, 1]

    def test_site_position_range(self):
        ops = [Rotation(axis(1, "X", (0,)), 0)]
        bad = NoiseSite(1, make_depolarizing(0.1), (0, 0), "lambda")
        with pytest.raises(ValueError):
            Circuit(1, ops, [bad])

    def test_site_needs_an_op_to_follow(self):
        # no walker or oracle would apply a site in a circuit without ops
        site = NoiseSite(0, make_amplitude_damping(1.0), (2, 5), "gamma")
        with pytest.raises(ValueError, match=r"noise site \(2, 5\)"):
            Circuit(1, [], [site])
        assert Circuit(1, [], []).noise_sites == []

    def test_non_pcs1_channel_refused(self):
        # an amplifying column: l1 of column X is 1.5
        ptm = np.diag([1.0, 1.5, 0.5, 0.5])
        ops = [Rotation(axis(1, "X", (0,)), 0)]
        site = NoiseSite(0, make_raw_ptm(ptm, (0,)), (0, 0), None)
        with pytest.raises(ValueError, match="PCS1"):
            Circuit(1, ops, [site])

    def test_sites_sorted_by_position(self):
        ops = [Rotation(axis(1, "X", (0,)), 0), Rotation(axis(1, "Z", (0,)), 1)]
        s0 = NoiseSite(1, make_depolarizing(0.1), (0, 0), "lambda")
        s1 = NoiseSite(0, make_depolarizing(0.2), (0, 1), "lambda")
        c = Circuit(1, ops, [s0, s1])
        assert [s.position for s in c.noise_sites] == [0, 1]

    def test_flags_and_clean_copy(self):
        c, _, _ = random_circuit(2, 4, seed=3)
        assert c.is_prs1() is False or all(
            s.channel.label == "depolarizing" for s in c.noise_sites)
        clean = c.without_noise()
        assert clean.noise_sites == [] and clean.ops == c.ops
        assert c.without_noise() is clean  # cached
        assert clean.without_noise() is clean

    def test_all_depolarizing(self):
        ops = [Rotation(axis(1, "X", (0,)), 0)]
        dep = NoiseSite(0, make_depolarizing(0.1), (0, 0), "lambda")
        amp = NoiseSite(0, make_amplitude_damping(0.1), (0, 1), "gamma")
        assert Circuit(1, ops, [dep]).all_depolarizing()
        assert not Circuit(1, ops, [dep, amp]).all_depolarizing()

    def test_check_theta(self):
        c, _, _ = random_circuit(2, 3, seed=0, channels=())
        with pytest.raises(ValueError):
            c.check_theta(ThetaAssignment.zeros(c.n_params + 1))


class TestSerialization:
    def test_round_trip_random(self):
        for seed in range(5):
            c, obs, st = random_circuit(3, 6, seed=seed)
            spec = serialize(c, obs, st)
            c2, obs2, st2 = load_bundle(spec)
            assert structurally_equal(c, c2)
            assert st2.entries == st.entries
            assert obs2.identity_offset == obs.identity_offset
            assert {w.to_text(): c for c, w in obs2.terms} \
                == {w.to_text(): c for c, w in obs.terms}

    def test_fixed_angles_and_cliffords_survive(self):
        ops = [Rotation(axis(2, "XX", (0, 1)), FixedAngle(2)),
               Clifford("cnot", (1, 0)),
               Rotation(axis(2, "Y", (1,)), 0)]
        c = Circuit(2, ops, [])
        c2, _, _ = load_bundle(serialize(c))
        assert structurally_equal(c, c2)
        assert c2.ops[0].param == FixedAngle(2)
        assert c2.ops[1] == Clifford("cnot", (1, 0))

    def test_sugar_gate_names(self):
        spec = {"n": 2,
                "gates": [{"gate": "rx", "qubits": [0], "param": 0},
                          {"gate": "rzz", "qubits": [0, 1], "param": 1}]}
        c = build_circuit(spec)
        assert c.ops[0].axis == axis(2, "X", (0,))
        assert c.ops[1].axis == axis(2, "ZZ", (0, 1))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            build_circuit({"n": 1, "gates": [{"gate": "warp", "qubits": [0]}]})

    def test_zero_state_shorthand(self):
        c, _, _ = random_circuit(2, 2, seed=1, channels=())
        spec = serialize(c, initial_state=zero_state(2))
        assert spec["initial_state"] == "zero"
        _, _, st = load_bundle(spec)
        assert st.entries == zero_state(2).entries

    def test_general_sparse_state(self):
        st = SparseState(1, [(0, 0, 0.5), (0, 1, 0.5j), (1, 0, -0.5j),
                             (1, 1, 0.5)])
        c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)], [])
        _, _, st2 = load_bundle(serialize(c, initial_state=st))
        assert st2.entries == st.entries

    def test_extra_keys_tolerated(self):
        # product files carry bookkeeping keys next to the circuit payload
        c, obs, st = random_circuit(2, 3, seed=9)
        spec = serialize(c, obs, st)
        spec["run_id"] = "abc123"
        c2, _, _ = load_bundle(spec)
        assert structurally_equal(c, c2)

    def test_format_gate(self):
        with pytest.raises(ValueError):
            load_bundle({"format": 2, "n": 1, "gates": []})

    def test_structurally_equal_sees_strength(self):
        base, _, _ = random_circuit(2, 3, seed=4, channels=())
        s1 = base.with_sites(
            [NoiseSite(0, make_depolarizing(0.1), (0, 0), "lambda")])
        s2 = base.with_sites(
            [NoiseSite(0, make_depolarizing(0.2), (0, 0), "lambda")])
        assert not structurally_equal(s1, s2)
        assert structurally_equal(s1, s1.with_sites(s1.noise_sites))


class TestGenerators:
    def test_line_benchmark_shape(self):
        c, obs, st = gen_line_benchmark(5, 3)
        assert c.n == 5 and c.n_params == 3 * (2 * 5 - 1)
        assert c.noise_sites == []
        assert len(c.ops) == c.n_params  # all gates parameterized, none shared
        texts = sorted(w.to_text() for _, w in obs.terms)
        assert texts == ["+IIXXI", "+IIZII"]
        assert st.entries == [(0, 0, 1.0)]
        with pytest.raises(ValueError):
            gen_line_benchmark(2, 1)

    def test_grid_edge_layers_are_matchings(self):
        rows, cols = 3, 4
        layers = grid_edge_layers(rows, cols)
        for edges in layers:
            seen = [q for e in edges for q in e]
            assert len(seen) == len(set(seen))
        all_edges = {tuple(sorted(e)) for edges in layers for e in edges}
        horiz = {(r * cols + c, r * cols + c + 1)
                 for r in range(rows) for c in range(cols - 1)}
        assert horiz <= all_edges

    def test_ring_counts(self):
        n, blocks = 6, 2
        c = gen_ring(n, blocks, noise=make_amplitude_damping(0.1),
                     noise_mode="gate")
        assert c.n_params == 2 * n * blocks
        # per block: n R_X + n CZ edges + n R_Z gates
        assert len(c.ops) == 3 * n * blocks
        # gate mode: 1 site per rotation qubit + 2 per CZ
        assert len(c.noise_sites) == 4 * n * blocks
        assert all(s.noise_param_name == "gamma" for s in c.noise_sites)

    def test_ring_qubit_mode_and_validation(self):
        c = gen_ring(4, 1, noise=make_depolarizing(0.05), noise_mode="qubit")
        # 4 layers per block (R_X, CZ even, CZ odd, R_Z), n sites each
        assert len(c.noise_sites) == 4 * 4
        with pytest.raises(ValueError):
            gen_ring(5, 1)
        with pytest.raises(ValueError):
            gen_ring(4, 1, noise_mode="edge")

    def test_ring_noiseless(self):
        c = gen_ring(4, 1)
        assert c.noise_sites == [] and c.n_params == 8

    def test_chip_counts(self):
        rows, cols, blocks = 2, 3, 1
        n = rows * cols
        c = gen_grid_chip(rows, cols, blocks, two_qubit="cz",
                          noise=make_depolarizing(0.02))
        n_edges = rows * (cols - 1) + (rows - 1) * cols // 2 \
            + ((rows - 1) * cols) % 2 * 0
        # count edges straight from the layer helper instead
        n_edges = sum(len(e) for e in grid_edge_layers(rows, cols))
        assert c.n_params == 2 * n * blocks
        assert len(c.ops) == (2 * n + n_edges) * blocks
        assert len(c.noise_sites) == (2 * n + 2 * n_edges) * blocks

    def test_chip_rzz_parameterized(self):
        c = gen_grid_chip(2, 2, 1, two_qubit="rzz")
        n_edges = sum(len(e) for e in grid_edge_layers(2, 2))
        assert c.n_params == 2 * 4 + n_edges
        with pytest.raises(ValueError):
            gen_grid_chip(1, 4, 1)
        with pytest.raises(ValueError):
            gen_grid_chip(2, 2, 1, two_qubit="iswap")
