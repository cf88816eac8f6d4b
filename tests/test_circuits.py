"""Circuit containers, JSON round trips, and the builtin generators."""

import hashlib
import itertools

import numpy as np
import pytest

from conftest import axis, random_circuit, structurally_equal
from pqcdiag import engine
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_raw_ptm)
from pqcdiag.circuits import (Circuit, Clifford, FixedAngle, NoiseSite,
                              Rotation, SparseState, ThetaAssignment,
                              build_circuit, gen_grid_chip,
                              gen_line_benchmark, gen_ring, grid_edge_layers,
                              load_bundle, observable_from_terms, serialize,
                              zero_state)
from pqcdiag.paulis import CLIFFORD_2Q_KINDS, PauliString
from pqcdiag.reports import canonical_json


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

    @pytest.mark.parametrize("k", [np.int64(0), np.uint8(0), 0])
    def test_integral_param_is_stored_as_int(self, k):
        r = Rotation(axis(1, "X", (0,)), k)
        assert type(r.param) is int and r.param == 0
        assert Circuit(1, [r], []).n_params == 1

    @pytest.mark.parametrize("k", [True, np.bool_(False), 1.5, 0.0, "0",
                                   None])
    def test_non_integer_param_refused(self, k):
        with pytest.raises(TypeError, match="integer index"):
            Rotation(axis(1, "X", (0,)), k)

    def test_clifford_validation(self):
        Clifford("cz", (0, 1))
        with pytest.raises(ValueError):
            Clifford("cz", (0,))
        with pytest.raises(ValueError):
            Clifford("ccx", (0, 1))
        for kind in CLIFFORD_2Q_KINDS:
            with pytest.raises(ValueError, match="repeated qubit"):
                Clifford(kind, (1, 1))


class TestTheta:
    def test_range_check(self):
        with pytest.raises(ValueError):
            ThetaAssignment(np.array([0, 4]))

    def test_radians(self):
        t = ThetaAssignment(np.array([0, 1, 2, 3]))
        assert np.allclose(t.as_radians(), [0, np.pi / 2, np.pi, 3 * np.pi / 2])


class TestObservable:
    def test_merge_and_identity_split(self):
        obs = observable_from_terms(
            [(0.5, "ZI"), (0.25, "ZI"), (2.0, "II"), (-1.0, "XY")])
        assert obs.identity_offset == 2.0
        got = {w.to_text(): c for c, w in obs.terms}
        assert got == {"+ZI": 0.75, "+XY": -1.0}
        assert obs.pauli_l1 == pytest.approx(1.75)

    def test_pauli_string_terms(self):
        obs = observable_from_terms([(1.0, axis(2, "Z", (1,)))])
        assert obs.n == 2

    @pytest.mark.parametrize("coeff", [np.complex128(1 + 2j), 1 + 2j, 0.5j,
                                       np.complex64(-1j)])
    def test_complex_coefficients_refused(self, coeff):
        with pytest.raises(ValueError, match="must be real"):
            observable_from_terms([(coeff, "Z")])

    def test_real_valued_complex_coefficients_accepted(self):
        obs = observable_from_terms([(np.complex128(0.5 + 0j), "Z"),
                                     (0.25 + 0j, "X"), (1 + 0j, "I")])
        assert [c for c, _ in obs.terms] == [0.5, 0.25]
        assert obs.identity_offset == 1.0

    @pytest.mark.parametrize("terms", [[(float("nan"), "Z")],
                                       [(float("inf"), "X")],
                                       [(float("-inf"), "I")],
                                       [(1e308, "Z"), (1e308, "Z")]])
    def test_non_finite_coefficients_refused(self, terms):
        with pytest.raises(ValueError, match="finite"):
            observable_from_terms(terms)

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

    def test_check_theta(self):
        c, _, _ = random_circuit(2, 3, seed=0, channels=())
        with pytest.raises(ValueError):
            c.check_theta(ThetaAssignment.zeros(c.n_params + 1))


class TestSchedule:
    """``Circuit.schedule`` is the one definition of the order in which ops
    and noise sites act."""

    @staticmethod
    def case(order):
        ops = [Rotation(axis(2, "X", (0,)), 0), Clifford("cz", (0, 1)),
               Rotation(axis(2, "ZZ", (0, 1)), 1)]
        sites = {"a": NoiseSite(0, make_depolarizing(0.1, (0,)), (0, 0),
                                "lambda"),
                 "b": NoiseSite(0, make_amplitude_damping(0.2, (1,)), (0, 1),
                                "gamma"),
                 "last": NoiseSite(2, make_depolarizing(0.3, (1,)), (2, 0),
                                   "lambda")}
        return Circuit(2, ops, [sites[k] for k in order]), ops, sites

    @pytest.mark.parametrize("order", [("last", "a", "b"), ("b", "last", "a")])
    def test_ops_then_their_sites_in_list_order(self, order):
        c, (r0, cz, r2), sites = self.case(order)
        first = [sites[k] for k in order if k != "last"]
        assert c.schedule() == (r0, *first, cz, r2, sites["last"])
        assert c.schedule() is c.schedule()  # cached
        # the k-th scheduled site is noise site k, the walker's RNG ordinal
        assert [s for s in c.schedule() if isinstance(s, NoiseSite)] \
            == c.noise_sites

    def test_backward_program_is_the_forward_one_reversed(self):
        c, _, sites = self.case(("b", "last", "a"))
        fwd = engine._program(c, "forward")
        bwd = engine._program(c, "backward")

        def key(step):
            return (type(step), step.mask, getattr(step, "ordinal", None),
                    getattr(step, "channel", None))

        assert [key(s) for s in bwd] == [key(s) for s in reversed(fwd)]
        chans = [s for s in fwd if isinstance(s, engine._ChanStep)]
        assert [s.ordinal for s in chans] == [0, 1, 2]
        assert [s.channel for s in chans] \
            == [sites[k].channel for k in ("b", "a", "last")]

        # a walk samples the PTM's columns backward, its rows forward
        assert all(s.form is engine._branch_form(s.channel.ptm.T.tobytes())
                   for s in chans)
        assert all(s.form is engine._branch_form(s.channel.ptm.tobytes())
                   for s in bwd if isinstance(s, engine._ChanStep))
        assert [s.pinned for s in chans] == [True, False, False]


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

    @pytest.mark.parametrize("gate", [
        {"gate": "cz", "qubits": [0, 0]},
        {"gate": "swap", "qubits": [1, 1]},
        {"gate": "rzz", "qubits": [0, 0], "param": 0},
        {"gate": "rxx", "qubits": [1, 1], "param": 0},
        {"gate": "rot", "axis": "XZ", "qubits": [0, 0], "param": 0},
        {"gate": "rot", "axis": "XYZ", "qubits": [2, 0, 2], "param": 0}])
    def test_a_gate_naming_a_qubit_twice_is_refused(self, gate):
        # as a channel's support is: the walk and the oracle have no
        # meaning for it, and a rot axis would keep one of its letters
        with pytest.raises(ValueError, match="repeated qubit"):
            build_circuit({"n": 3, "gates": [gate]})

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

    @pytest.mark.parametrize("amp", [float("nan"), complex(0.5, float("inf"))])
    def test_non_finite_state_refused(self, amp):
        with pytest.raises(ValueError, match="amplitude"):
            SparseState(1, [(0, 0, 1.0), (0, 1, amp), (1, 0, amp)])

    def test_fractional_param_refused(self):
        c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)], [])
        spec = serialize(c)
        spec["gates"][0]["param"] = 0.5
        with pytest.raises(TypeError, match="integer index"):
            load_bundle(spec)

    @pytest.mark.parametrize("field, value", [
        ("qubits", [1.7]), ("fixed", 2.9), ("n", 2.5), ("after", 0.5),
        ("qubits", [True]), ("fixed", True), ("n", True), ("after", False)])
    def test_non_integral_integer_field_refused(self, field, value):
        c = Circuit(2, [Rotation(axis(2, "X", (1,)), FixedAngle(2))],
                    [NoiseSite(0, make_depolarizing(0.1), (0, 0), "lambda")])
        spec = serialize(c)
        assert structurally_equal(load_bundle(spec)[0], c)
        owner = {"qubits": spec["gates"][0], "fixed": spec["gates"][0],
                 "n": spec, "after": spec["noise"][0]}[field]
        owner[field] = value
        with pytest.raises(ValueError, match="must be an integer"):
            load_bundle(spec)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf")])
    def test_non_finite_identity_offset_refused(self, offset):
        c, obs, st = random_circuit(2, 3, seed=9)
        spec = serialize(c, obs, st)
        spec["identity_offset"] = offset
        with pytest.raises(ValueError, match="finite"):
            load_bundle(spec)

    def test_identity_offset_adds_to_identity_terms(self):
        c, _, _ = random_circuit(2, 3, seed=9)
        spec = serialize(c, observable_from_terms([(0.5, "ZI")]))
        spec["observable"].append({"coeff": 0.25, "pauli": "II"})
        spec["identity_offset"] = 1.5
        _, obs, _ = load_bundle(spec)
        assert obs.identity_offset == 1.75 and len(obs.terms) == 1

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


#: SHA-256 of canonical_json(serialize(...)) per generator call,
#: "ring-<n>-<blocks>-<noise>-<mode>" and
#: "chip-<rows>x<cols>-<blocks>-<entangler>-<noise>-<mode>"; recorded with
#: the separate ring and chip loops the shared layered generator replaced.
#: "line-<n>-<p>" serializes the chain's circuit, observable and state, as
#: recorded with the chain's own loop.
GENERATOR_DIGESTS = {
    "line-3-1":
        "38b1d2394160b16f041843ed793423c92a22bb12d80058fed665d7c4902f4ad0",
    "line-4-2":
        "50e81ced499b2a0aa6bce837ace041bbec524ec601186784afca19f9af7aa7a9",
    "line-8-64":
        "364bab00ef0fb165fd85bd1dfcccabc51806456163734cfc2308b5c5726dfa81",
    "ring-4-1-none-gate":
        "653e98f0b100f829a61ca24915af4028a0cc61a7d7ac2396dccc7d7a12a2390b",
    "ring-4-1-none-qubit":
        "653e98f0b100f829a61ca24915af4028a0cc61a7d7ac2396dccc7d7a12a2390b",
    "ring-4-1-dep-gate":
        "c06d4224b88b25ee2d46063077ba561398250fe3e3373c853b87c65852adcc18",
    "ring-4-1-dep-qubit":
        "c60db620a698027a767352f8ed238c14ae1021b9f31178d85113b360cbbe5093",
    "ring-4-1-amp-gate":
        "3c14f9baea3274e557b077adcae7ce6f3a9466b7318f7a0802007de06e95d280",
    "ring-4-1-amp-qubit":
        "96d66adf0425f9a022d990d0ea75fe9a46466c380ffe828e1ddc79c8b514b29c",
    "ring-6-2-none-gate":
        "3cf1ef4164e35598c06c46f35d8988ad2115d423b4838dd770295dcbf1ca0bab",
    "ring-6-2-none-qubit":
        "3cf1ef4164e35598c06c46f35d8988ad2115d423b4838dd770295dcbf1ca0bab",
    "ring-6-2-dep-gate":
        "0bb03ba0162b05b63e582dac64c0086fcda8fc3d555d85f3ffcdc08f466e66c4",
    "ring-6-2-dep-qubit":
        "e4d50a665db0f35dcb1f71143b2e96919a9dca5de04ede344abf936e2b1c18aa",
    "ring-6-2-amp-gate":
        "21b24287f092872069933fa0f6b91b93aee77cb11d85fc60aa430beb1bd61cfb",
    "ring-6-2-amp-qubit":
        "5a6c4fd5f82ed580f7b01a8213dfa93a6be1b5b68d9c1e084e1cf365fd069516",
    "chip-2x2-2-rzz-none-gate":
        "cbdca8ae5b82dbc3ac2c5cd26f1193eeb36b4660f3c85dfc51a19a4ec7bf953e",
    "chip-2x2-2-rzz-none-qubit":
        "cbdca8ae5b82dbc3ac2c5cd26f1193eeb36b4660f3c85dfc51a19a4ec7bf953e",
    "chip-2x2-2-rzz-dep-gate":
        "98e61ebf125d6a56db76562d77598f6a70b4cdfd3a15fb3f60cc8a0c9a6fb721",
    "chip-2x2-2-rzz-dep-qubit":
        "619344cc10d3de1795c650c868459da3e93941b263c7b3d17369a1f31469512e",
    "chip-2x2-2-rzz-amp-gate":
        "1d1f67cccb0ba90c5b808a2e799e1d3b389f4b0af249ecb234fb02b531baf00f",
    "chip-2x2-2-rzz-amp-qubit":
        "40ae5da908077b6c75e04200e3a213f5bd651d8018bda782c6b942acdad7233d",
    "chip-2x2-2-cz-none-gate":
        "63e759058f689ceb67eaa0fa7018edd813c91453f680a054251d6bd9357b6d62",
    "chip-2x2-2-cz-none-qubit":
        "63e759058f689ceb67eaa0fa7018edd813c91453f680a054251d6bd9357b6d62",
    "chip-2x2-2-cz-dep-gate":
        "c859e1f88c14258d2faee265fb4ea3c3aa3a65719e12dc11e4389b0e65ee932c",
    "chip-2x2-2-cz-dep-qubit":
        "9a7b4b02e56c726a6694ea0f093f5d86536373da357cff92610c1af007b77cf4",
    "chip-2x2-2-cz-amp-gate":
        "1587d92a99fef8dd9991130872a978d6a7d2f6cc1f810c8eaaa6477620d2390b",
    "chip-2x2-2-cz-amp-qubit":
        "891ec879d6420be9025497132ba40286c5c7c0a5a4f6fc729886b721f671800e",
    "chip-2x3-2-rzz-none-gate":
        "921475ae1c83ad44c2ea0d3512b65ecf26fbc83f0918fd5d103322b2b1153cd4",
    "chip-2x3-2-rzz-none-qubit":
        "921475ae1c83ad44c2ea0d3512b65ecf26fbc83f0918fd5d103322b2b1153cd4",
    "chip-2x3-2-rzz-dep-gate":
        "8369f401bbd97f84f48e65efd2adac9a654aa53c3004215d403f6dee083dd85e",
    "chip-2x3-2-rzz-dep-qubit":
        "156486f9bca0d64ae9c7ede54c2720a8c6a15cf152750075d381b34ec74c52a8",
    "chip-2x3-2-rzz-amp-gate":
        "9a984d5dcd70d316023d3bc55b385bff2b1973f243a083b894dbd7609d6c51d8",
    "chip-2x3-2-rzz-amp-qubit":
        "f334cd7ac57b86ff043cd8c3e9ae47920367a95940955d3273e5c2f8a8fe4e8e",
    "chip-2x3-2-cz-none-gate":
        "d1f04633f3cdeae0e639688a4c382fd389c051cf3faf1169a0f1134fa7437af1",
    "chip-2x3-2-cz-none-qubit":
        "d1f04633f3cdeae0e639688a4c382fd389c051cf3faf1169a0f1134fa7437af1",
    "chip-2x3-2-cz-dep-gate":
        "090b35f3acdf5efe094e432ed04466a7d5710864202ba8960f02f881ffe2810a",
    "chip-2x3-2-cz-dep-qubit":
        "155f8f18dbb860088233186e94e4acc7ceaca3f76aff11609ead01b8dc65a711",
    "chip-2x3-2-cz-amp-gate":
        "61aa88128009a9753da3a8052c3bbac04a863ea85df263e1f570281acdc2f054",
    "chip-2x3-2-cz-amp-qubit":
        "3a05a9c6512d6bb3f382dbbffd3af1055c2c11395bd42534ce11469205a75214",
    "chip-3x3-1-rzz-none-gate":
        "9d61e462886124c778a9d767e99c0330459ec92833cb335a61b0ec48928d6497",
    "chip-3x3-1-rzz-none-qubit":
        "9d61e462886124c778a9d767e99c0330459ec92833cb335a61b0ec48928d6497",
    "chip-3x3-1-rzz-dep-gate":
        "039490981390cc6d73c1611586759904d4b939bd8c0ecfdb2aa62956800f2cc5",
    "chip-3x3-1-rzz-dep-qubit":
        "8f61547417fe927337e96030237babe8bd95fd745233146129ca7e3096c63978",
    "chip-3x3-1-rzz-amp-gate":
        "76ec4e12c1217dcf1ece03d50174d3478d3e0066edb176a2992190afbd9f8fea",
    "chip-3x3-1-rzz-amp-qubit":
        "deea5dd2485feee31ebfec9b2d3a737bb58c6781601ca4f5e379ec2d03f7ad24",
    "chip-3x3-1-cz-none-gate":
        "b6f2f4022e11b91e15faae7d52623da36fb22227a18c2d05fcaa64b82decb236",
    "chip-3x3-1-cz-none-qubit":
        "b6f2f4022e11b91e15faae7d52623da36fb22227a18c2d05fcaa64b82decb236",
    "chip-3x3-1-cz-dep-gate":
        "f01d20c689946ffab33d94c7d5e193884c4a9d527d1c468e1d812e95bf4f98b3",
    "chip-3x3-1-cz-dep-qubit":
        "de31b24cc88c8b6b1ef9cf4a41b29ebe780e9e7f1c9c0155d486d0c319f34401",
    "chip-3x3-1-cz-amp-gate":
        "959fbed10cfc2532e8f3c2a3707cfab5d83762baa93ab2ff70e216b00c984aae",
    "chip-3x3-1-cz-amp-qubit":
        "e83d73686601bddd4381c75e82387e5ea64e804322bc5e2096254d2bb1eec615",
}

_NOISE = {"none": None, "dep": make_depolarizing(0.05),
          "amp": make_amplitude_damping(0.1)}


def _generated(key):
    """The ``serialize`` arguments of the generator call ``key`` names."""
    family, shape, blocks, *rest = key.split("-")
    if family == "line":
        return gen_line_benchmark(int(shape), int(blocks))
    noise, mode = _NOISE[rest[-2]], rest[-1]
    if family == "ring":
        return (gen_ring(int(shape), int(blocks), noise, mode),)
    rows, cols = (int(v) for v in shape.split("x"))
    return (gen_grid_chip(rows, cols, int(blocks), rest[0], noise, mode),)


class TestGenerators:
    @pytest.mark.parametrize("key", sorted(GENERATOR_DIGESTS))
    def test_serialized_digest_is_pinned(self, key):
        blob = canonical_json(serialize(*_generated(key))).encode()
        assert hashlib.sha256(blob).hexdigest() == GENERATOR_DIGESTS[key]

    def test_digest_table_covers_every_variant(self):
        want = {f"ring-{n}-{b}-{z}-{m}"
                for (n, b), z, m in itertools.product(
                    ((4, 1), (6, 2)), _NOISE, ("gate", "qubit"))}
        want |= {f"chip-{s}-{b}-{e}-{z}-{m}"
                 for (s, b), e, z, m in itertools.product(
                     (("2x2", 2), ("2x3", 2), ("3x3", 1)), ("rzz", "cz"),
                     _NOISE, ("gate", "qubit"))}
        want |= {"line-3-1", "line-4-2", "line-8-64"}
        assert set(GENERATOR_DIGESTS) == want

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

    @pytest.mark.parametrize("blocks", [0, -1])
    @pytest.mark.parametrize("make", [
        lambda b: gen_grid_chip(3, 3, b), lambda b: gen_ring(4, b),
        lambda b: gen_line_benchmark(3, b)], ids=["chip", "ring", "line"])
    def test_generators_refuse_fewer_than_one_block(self, make, blocks):
        with pytest.raises(ValueError, match=">= 1"):
            make(blocks)

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
