"""Golden payload digests of small seeded estimator runs.

Each case pins ``payload_digest(report.to_json_dict())`` of one seeded run.
The digests were recorded before the light-cone walk programs existed.
Since then ``sensitivity_fd`` was re-pinned when the score-function route
replaced finite differences, both sensitivity maps when chunk variances
moved to the Chan merge (the last bits of some per-site stderrs), and
every case but ``gradvar_outside_cone`` (exactly 0.0) by angle stream v2,
which draws 32 grid angles from one block hash and so moved every angle.
``expr_hs_branching`` was pinned later, on the engine that hashed every
lane at every sampled channel step; it is the one case whose forward walks
sample non-diagonal channels.
The three ``_cz`` cases, the only ones that walk Clifford steps, were
pinned on the engine that walked Cliffords through per-lane code tables.
``sum_gradvar_cz_runs``, ``expr_hs_sigma64`` and ``mse_tau20`` give each
outer draw's uid to 22, 64 and 20 adjacent lanes, so their angle planes
come from one hash per draw broadcast to its lanes (a draw straddles plane
words in the first and last); every other case has fewer than 16 lanes a
draw.  They were pinned on the engine that hashed every lane's uid.
``sum_gradvar_siblings`` is the one case whose four sibling walks (two
inner replicates x two parameter shifts) fit one chunk, so they are walked
as one; it was pinned when each sibling was still its own walk.
``expr_hs``, ``expr_hs_cz``, ``expr_hs_sigma64``, ``expr_hs_groups``,
``gradvar_cz``, ``mse_cz``, ``sum_gradvar_cz_runs`` and ``sensitivity``
walk counted factors: their depolarizing channels have one factor other
than 1.0, so a walk counts each lane's hits and reads its weight from a
power table at the end, and the HS cases' backward walks find their start
weights, the forward walks' weights, in that table.  They were pinned on
the engine that multiplied every channel step's factor into the weights.
``mse``, ``mse_tau20``, ``sensitivity_fd``, ``sum_gradvar_wide``,
``sum_gradvar_siblings``, ``expr_lower_bound``, ``mse_groups`` and
``sum_gradvar_groups`` count the factors of sampled steps: backward,
amplitude damping multiplies X and Y words by sqrt(1 - gamma) and draws a
Z word's branch with weight exactly 1.0, so their walks count hits too;
and with one branching column, the Z column, they read no lane's row
index to look its branch up.  They were pinned on the engine that
multiplied every sampled step's factors into the weights and read every
hot lane's row index.  ``expr_hs_branching``'s forward walks still
multiply.
Every ``GOLDEN`` case fits in one reduction chunk; the ``MULTI_GROUP``
cases run at 64 lanes a chunk, so each spans at least nine chunks and
several jobs, and were pinned when every job still walked a single chunk.
A change to the engine or the estimators that moves any
float of any payload (reduction order, a dropped draw, a reordered hash)
changes a digest here.  Performance work that claims to be exact must leave
every one unchanged, at any thread count.
"""

import numpy as np
import pytest

from conftest import axis, wide_circuit
from pqcdiag import estimators as est
from pqcdiag.channels import (make_amplitude_damping, make_depolarizing,
                              make_mmff, make_raw_ptm)
from pqcdiag.circuits import (Circuit, NoiseSite, Rotation, gen_grid_chip,
                              observable_from_terms)
from pqcdiag.paulis import PauliString
from pqcdiag.reports import DiagnosticConfig, payload_digest


def z_on(n, *qubits):
    """Sum of single-qubit Z terms with distinct coefficients."""
    terms = []
    for i, q in enumerate(qubits):
        codes = [0] * n
        codes[q] = 3
        terms.append((1.0 - 0.25 * i, PauliString.from_codes(codes)))
    return observable_from_terms(terms)


def run_mse(threads=1):
    c = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_mse(c, z_on(9, 4), None,
                            DiagnosticConfig(n_theta=48, n_tau=4, seed=11,
                                             threads=threads))


def run_sensitivity(threads=1):
    c = gen_grid_chip(2, 3, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_sensitivity_map(
        c, z_on(6, 0, 5), None, DiagnosticConfig(n_theta=64, n_tau=2,
                                                 seed=12, threads=threads))


def run_sensitivity_fd(threads=1):
    # amplitude-damping sites: the score route through branching channels
    # (the key names the finite-difference route this case first pinned)
    c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_sensitivity_map(
        c, z_on(4, 1), None, DiagnosticConfig(n_theta=16, n_tau=2, seed=18,
                                             threads=threads))


def run_gradvar_outside_cone(threads=1):
    # R_X on qubit 8 is three grid hops from qubit 0: outside Z_0's cone
    c = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_gradient_variance(
        c, z_on(9, 0), None, param_k=8,
        config=DiagnosticConfig(n_theta=32, n_tau=2, seed=13,
                                threads=threads))


def run_sum_gradvar_wide(threads=1):
    c = wide_circuit()
    return est.sum_gradient_variance(
        c, z_on(c.n, 129, 0), None,
        DiagnosticConfig(n_theta=1200, n_tau=2, seed=14, threads=threads))


def run_expr_hs(threads=1):
    c = gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=24, n_sigma=8, seed=15, threads=threads))


def run_expr_hs_branching(threads=1):
    # forward walks through sampled channels: three measure-and-feed-forward
    # sites (rows of one entry, some zero) and a row-sum raw PTM whose X
    # and Y rows have two entries each, on top of the depolarizing chip
    c = gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))
    mix = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.25, 0.0],
                    [0.0, -0.25, 0.5, 0.0], [0.0, 0.0, 0.0, 0.75]])
    extra = [NoiseSite(p, make_mmff(fb, support), (9, i), None)
             for i, (p, fb, support) in enumerate(
                 [(3, "X", (0, 1)), (5, "Z", (3, 2)), (7, "Y", (1, 3))])]
    extra.append(NoiseSite(6, make_raw_ptm(mix, (2,)), (9, 3), None))
    c = Circuit(c.n, c.ops, c.noise_sites + extra)
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=24, n_sigma=8, seed=19, threads=threads))


def run_expr_lower_bound(threads=1):
    c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_expressibility_lower_bound(
        c, DiagnosticConfig(n_theta=8, n_tau=2, n_sigma=8, seed=16,
                           threads=threads))


def run_line(threads=1):
    return est.line_variance_benchmark(4, 3, 256, seed=17, threads=threads)


def cz_chip():
    # CZ entanglers: the walks cross Clifford steps, and X and Y words
    # reach them through the R_Z layer, so the CZ tables flip signs
    return gen_grid_chip(2, 3, 1, "cz", make_depolarizing(0.05))


def xy_obs():
    return observable_from_terms([(1.0, PauliString.from_text("XIIIII")),
                                  (0.75, PauliString.from_text("IIIIIY"))])


def run_mse_cz(threads=1):
    return est.estimate_mse(cz_chip(), xy_obs(), None,
                            DiagnosticConfig(n_theta=48, n_tau=2, seed=20,
                                             threads=threads))


def run_gradvar_cz(threads=1):
    return est.estimate_gradient_variance(
        cz_chip(), xy_obs(), None, param_k=1,
        config=DiagnosticConfig(n_theta=32, n_tau=2, seed=21,
                                threads=threads))


def run_expr_hs_cz(threads=1):
    # forward walks of random words through CZ steps
    c = gen_grid_chip(2, 2, 1, "cz", make_depolarizing(0.05))
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=24, n_sigma=8, seed=22, threads=threads))


def run_sum_gradvar_cz_runs(threads=1):
    # Z_2's cone holds 22 of the 36 parameters: 22 lanes a draw
    c = gen_grid_chip(3, 3, 2, "cz", make_depolarizing(0.05))
    return est.sum_gradient_variance(
        c, z_on(9, 2), None,
        DiagnosticConfig(n_theta=40, seed=23, threads=threads))


def run_expr_hs_sigma64(threads=1):
    # 64 Pauli words a draw: each draw's lanes fill one plane word
    c = gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=10, n_sigma=64, seed=24, threads=threads))


def run_mse_tau20(threads=1):
    # 20 inner paths a draw on the noisy walks, one on the noiseless ones
    c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_mse(c, z_on(4, 1, 2), None,
                            DiagnosticConfig(n_theta=30, n_tau=20, seed=25,
                                             threads=threads))


def run_sum_gradvar_siblings(threads=1):
    # amplitude damping branches, so the job has four sibling walks (two
    # replicates x two shifts) of 40 draws x 13 walked parameters x 4
    # paths = 2080 lanes each: one chunk holds all four
    c = gen_grid_chip(2, 2, 2, "rzz", make_amplitude_damping(0.1))
    return est.sum_gradient_variance(
        c, z_on(4, 1), None,
        DiagnosticConfig(n_theta=40, n_tau=4, seed=34, threads=threads))


GOLDEN = {
    "mse": (run_mse,
            "6b1799257873f2b1e3dbc8240a823c60"
            "5f2a3b40cb151f08d437f87e4baba457"),
    "sensitivity": (run_sensitivity,
                    "8fa69cccad579e164ea7d0b504dc6bb2"
                    "739416eb9eb158a82a058a47cc8239ee"),
    "sensitivity_fd": (run_sensitivity_fd,
                       "770d7b5dbc0a2fdcaf9c4464721fce0a"
                       "e076ab75f32ff0fda71df6c4eee46f1f"),
    "gradvar_outside_cone": (run_gradvar_outside_cone,
                             "939b00feec5fa89a3f59719a15210842"
                             "0ad93a089eb537d73487849e3ff041f1"),
    "sum_gradvar_wide": (run_sum_gradvar_wide,
                         "82510a9b441785516f7b38ab0999f7f3"
                         "5c90387b7a5e6d2a920d1e4cf7c93a92"),
    "expr_hs": (run_expr_hs,
                "cbff3212daf026e4be72a9a16f9be237"
                "7dcfca0bfb925b69711edbdc3cd13adb"),
    "expr_hs_branching": (run_expr_hs_branching,
                          "bc688a81a9fb3a14de39bd9a9c28aafe"
                          "69dfc07bcc8bd68b194ead54904dd02b"),
    "expr_lower_bound": (run_expr_lower_bound,
                         "fe58de8d97e7c03980036d6026aa5d8f"
                         "1156aad54e30d2500e5dc2ebc4fecb80"),
    "line": (run_line,
             "2c986f9e0404f9b731f315d3d0476781"
             "798667678333ac588077416c25e4b735"),
    "mse_cz": (run_mse_cz,
               "5f81663b1d994c863ebea7d8a03357a7"
               "18dd65dd3ef163a04f567de784a21b5d"),
    "gradvar_cz": (run_gradvar_cz,
                   "8b6704df97dac0d91740b11eec9c8a38"
                   "8818a6ed7d8f4aa2d4a6ffd3906588af"),
    "expr_hs_cz": (run_expr_hs_cz,
                   "ba58f96ac6e581057675f2a6a70d1503"
                   "ba1eb046ccb3e62c6ff35bdf7d8d809a"),
    "sum_gradvar_cz_runs": (run_sum_gradvar_cz_runs,
                            "d20839094b15f9623c10f525044c0ecb"
                            "99b0ef915cf064d6930cea9eef45d19d"),
    "expr_hs_sigma64": (run_expr_hs_sigma64,
                        "9d4e9ce186496ef3f48232afb003541b"
                        "efcef1e59de676dc0be1536b66a14091"),
    "mse_tau20": (run_mse_tau20,
                  "a39799564c3062f82110c6c4010413ef"
                  "f0772397043d798d81df119864232dd0"),
    "sum_gradvar_siblings": (run_sum_gradvar_siblings,
                             "3c34bb449874152e0f5ceb6cc7608b35"
                             "cf2201d417cf4a6703aa4a39bade10dc"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_is_pinned(name):
    run, want = GOLDEN[name]
    assert payload_digest(run().to_json_dict()) == want


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_ignores_threads(name):
    run, want = GOLDEN[name]
    assert [payload_digest(run(t).to_json_dict()) for t in (2, 3)] \
        == [want, want]


def test_gradvar_outside_cone_is_zero():
    rep = run_gradvar_outside_cone()
    assert rep.mean == 0.0 and rep.stderr == 0.0


def test_wide_gradvar_spans_chunks_and_ignores_threads():
    # 1200 draws of 8 parameters x 2 replicates make two 16384-lane chunks
    assert 1200 > est._CHUNK // (8 * 2)
    one = payload_digest(run_sum_gradvar_wide(threads=1).to_json_dict())
    two = payload_digest(run_sum_gradvar_wide(threads=2).to_json_dict())
    assert one == two == GOLDEN["sum_gradvar_wide"][1]


def _amp_chip_2x2():
    return gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))


def run_mse_groups(threads=1):
    # 2 lanes a draw: 32-draw chunks, jobs of four chunks
    return est.estimate_mse(_amp_chip_2x2(), z_on(4, 1, 2), None,
                            DiagnosticConfig(n_theta=298, n_tau=2, seed=31,
                                             threads=threads))


def run_sum_gradvar_groups(threads=1):
    # 11 parameters x 2 replicates: 2-draw chunks, jobs of five chunks
    return est.sum_gradient_variance(
        _amp_chip_2x2(), z_on(4, 3), None,
        DiagnosticConfig(n_theta=23, n_tau=2, seed=32, threads=threads))


def run_expr_hs_groups(threads=1):
    # 8 Pauli words a draw: 8-draw chunks, jobs of four chunks
    c = gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=75, n_sigma=8, seed=33, threads=threads))


#: run with ``_CHUNK`` = 64 lanes
MULTI_GROUP = {
    "mse_groups": (run_mse_groups,
                   "57ecab533a433ebd1ae301a7c639f65a"
                   "f02d6273e44e30f0880007b6f9dec63b"),
    "sum_gradvar_groups": (run_sum_gradvar_groups,
                           "fe34656675dfff021b752b6f3bb770db"
                           "ae158836702c39f03cb7b7d0e2e7a274"),
    "expr_hs_groups": (run_expr_hs_groups,
                       "701d4ecd5fbc06ac2ec68239475c927d"
                       "173872cf11ea5d163409427d326bb0b6"),
}


@pytest.mark.parametrize("name", sorted(MULTI_GROUP))
def test_multi_group_digest_is_pinned_at_any_threads(name, monkeypatch):
    monkeypatch.setattr(est, "_CHUNK", 64)
    jobs, mapped = [], est._map_ordered
    monkeypatch.setattr(est, "_map_ordered", lambda fn, items, threads: (
        jobs.append(items) or mapped(fn, items, threads)))
    run, want = MULTI_GROUP[name]
    assert [payload_digest(run(t).to_json_dict()) for t in (1, 2, 3)] \
        == [want] * 3
    chunks = [span for job in jobs[0] for span in job]
    width = chunks[0][1] - chunks[0][0]
    assert len(chunks) >= 9 and chunks[-1][1] - chunks[-1][0] < width
    assert len(jobs[0]) >= 3 and len(jobs[0][-1]) < len(jobs[0][0])
