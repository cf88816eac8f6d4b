"""Golden payload digests of small seeded estimator runs.

Each case pins ``payload_digest(report.to_json_dict())`` of one seeded run.
The digests were recorded before the light-cone walk programs existed.
Since then ``sensitivity_fd`` was re-pinned when the score-function route
replaced finite differences, both sensitivity maps when chunk variances
moved to the Chan merge (the last bits of some per-site stderrs), and
every case but ``gradvar_outside_cone`` (exactly 0.0) by angle stream v2,
which draws 32 grid angles from one block hash and so moved every angle,
and again by angle stream v3, which is plane-major: one hash gives one
angle bit of one parameter for 64 consecutive uids, and the two circuit
copies of an expressibility draw ``outer`` have the uids ``outer`` and
``outer + 2**63``.  The v3 digests were also reproduced by walks whose
angle planes were built lane by lane from ``rng.grid_angle``.  The six
expressibility cases (``expr_hs``, ``expr_hs_branching``, ``expr_hs_cz``,
``expr_hs_sigma64``, ``expr_lower_bound`` and ``expr_hs_groups``) were
re-pinned by sigma stream v2, which lays the random Pauli words out as
angle stream v3 lays out the angles: one hash gives one code bit of one
qubit for 64 consecutive word uids.  Those digests were also reproduced
with words built one uid at a time from ``rng.grid_angle`` in the sigma
domain.  The notes
below on the engines that cases were pinned on describe the v2 digests,
which each of those engines reproduced.
``expr_hs_branching`` was pinned later, on the engine that hashed every
lane at every sampled channel step; it is the one case whose forward walks
sample non-diagonal channels.
The three ``_cz`` cases, the only ones that walk Clifford steps, were
pinned on the engine that walked Cliffords through per-lane code tables.
``sum_gradvar_cz_runs``, ``expr_hs_sigma64`` and ``mse_tau20`` give each
outer draw's uid to 22, 64 and 20 lanes, as many whole copies of the
draws; every other case has fewer than 16 lanes a draw.  They were pinned
on the engine that hashed every lane's uid, and held when a draw's lanes
moved from adjacent runs, read through run selects and -(bit) words, to
copies of the draws.
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
            "e5ee90c1e39c5b2400f4445d2db704b2"
            "65286412764056c2a52d4db69686528c"),
    "sensitivity": (run_sensitivity,
                    "b65d531e6e791d12c6834e6aad81cc0b"
                    "1ab5fa8cde95bf0f1e9e4f929fbe9cfe"),
    "sensitivity_fd": (run_sensitivity_fd,
                       "d60c2b2bd0d4d66560d32621e805a422"
                       "0ac45ff177c37dedf87271ff77867d72"),
    "gradvar_outside_cone": (run_gradvar_outside_cone,
                             "939b00feec5fa89a3f59719a15210842"
                             "0ad93a089eb537d73487849e3ff041f1"),
    "sum_gradvar_wide": (run_sum_gradvar_wide,
                         "030c317990b49fd012a1c49229bdb9a6"
                         "aef47b5a29e2561be9439cf21799bff4"),
    "expr_hs": (run_expr_hs,
                "07c31a63542c23e0d3cb8aec098e2c8a"
                "1efeb309c5f532515c28ba856f85d1db"),
    "expr_hs_branching": (run_expr_hs_branching,
                          "aadd4d97b3acf9ef01dbec4e301e403d"
                          "8fe89c9d2ffc979b6e167196266f198c"),
    "expr_lower_bound": (run_expr_lower_bound,
                         "28d91b7967d4c7f8fd46dfc17473c956"
                         "3abe8a674d2b0dfe453eadfd6cecefc3"),
    "line": (run_line,
             "20e2bd8b2db630af66483c8184aa4a80"
             "a82ae8af5095e96155f76ac32a3bfb57"),
    "mse_cz": (run_mse_cz,
               "bcddc10bf245fff7b02cd988c82727c0"
               "ed9b79038590d91832bdab613d4fd3bf"),
    "gradvar_cz": (run_gradvar_cz,
                   "a4031f2f87ab65c641ac92d8cc13f03a"
                   "304ce0f9900ac54bf135503512faf6c6"),
    "expr_hs_cz": (run_expr_hs_cz,
                   "d9f37ab56ea28370ac3a8f4c3d0d9d90"
                   "0c4155a77978de59b47c4c0b5353b70f"),
    "sum_gradvar_cz_runs": (run_sum_gradvar_cz_runs,
                            "c21c08a61bba04087a25d4d7ad091685"
                            "305dd6d2d6bfd6de4b219364c9f4e125"),
    "expr_hs_sigma64": (run_expr_hs_sigma64,
                        "e815f90864d5d84e9993df9bd233f3b2"
                        "47d77f010a0f65eee5f9c32a462637f0"),
    "mse_tau20": (run_mse_tau20,
                  "aaf6f3285cdc5774c1e920198316ab12"
                  "2aff270d23a65fc7dd91e8712d5db3f9"),
    "sum_gradvar_siblings": (run_sum_gradvar_siblings,
                             "52cb1d2f7639ea11a7965731f85bee7d"
                             "3da0098cd3fcb950f90ebec227bc094f"),
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
                   "470be11c3556e604fc199199d11b8582"
                   "2c1361fc7816d462675fa37fd20ffde6"),
    "sum_gradvar_groups": (run_sum_gradvar_groups,
                           "b4f7774089ed538151f6def1a8f55ec0"
                           "6aa1bec0cbad9539f5b8467cb95aeeb5"),
    "expr_hs_groups": (run_expr_hs_groups,
                       "9dbde1ad05590508d01d7dc389faa07f"
                       "08bedfdb731e30ad701ae0305ecfc8fa"),
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
