"""Golden payload digests of small seeded estimator runs.

Each case pins ``payload_digest(report.to_json_dict())`` of one seeded run.
The digests were recorded before the light-cone walk programs existed
(``sensitivity_fd`` was re-pinned when the score-function route replaced
finite differences); a change to the engine or the estimators that moves
any float of any payload (reduction order, a dropped draw, a reordered
hash) changes a digest here.  Performance work that claims to be exact
must leave every one unchanged.
"""

import pytest

from conftest import axis
from pqcdiag import estimators as est
from pqcdiag.channels import make_amplitude_damping, make_depolarizing
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


def wide_circuit():
    """130 qubits, rotations straddling the 64- and 128-bit word edges,
    amplitude damping after a few of them."""
    n = 130
    ops = [Rotation(axis(n, "X", (0,)), 0), Rotation(axis(n, "X", (63,)), 1),
           Rotation(axis(n, "ZZ", (63, 64)), 2),
           Rotation(axis(n, "Y", (129,)), 3),
           Rotation(axis(n, "XZ", (64, 128)), 4),
           Rotation(axis(n, "ZZ", (127, 128)), 5),
           Rotation(axis(n, "X", (100,)), 6),
           Rotation(axis(n, "Z", (0,)), 7)]
    sites = [NoiseSite(p, make_amplitude_damping(0.1, (q,)), (0, i), "gamma")
             for i, (p, q) in enumerate([(1, 63), (3, 129), (4, 128),
                                         (6, 100)])]
    return Circuit(n, ops, sites)


def run_mse():
    c = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_mse(c, z_on(9, 4), None,
                            DiagnosticConfig(n_theta=48, n_tau=4, seed=11))


def run_sensitivity():
    c = gen_grid_chip(2, 3, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_sensitivity_map(
        c, z_on(6, 0, 5), None, DiagnosticConfig(n_theta=64, n_tau=2,
                                                 seed=12))


def run_sensitivity_fd():
    # amplitude-damping sites: the score route through branching channels
    # (the key names the finite-difference route this case first pinned)
    c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_sensitivity_map(
        c, z_on(4, 1), None, DiagnosticConfig(n_theta=16, n_tau=2, seed=18))


def run_gradvar_outside_cone():
    # R_X on qubit 8 is three grid hops from qubit 0: outside Z_0's cone
    c = gen_grid_chip(3, 3, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_gradient_variance(
        c, z_on(9, 0), None, param_k=8,
        config=DiagnosticConfig(n_theta=32, n_tau=2, seed=13))


def run_sum_gradvar_wide(threads=1):
    c = wide_circuit()
    return est.sum_gradient_variance(
        c, z_on(c.n, 129, 0), None,
        DiagnosticConfig(n_theta=1200, n_tau=2, seed=14, threads=threads))


def run_expr_hs():
    c = gen_grid_chip(2, 2, 1, "rzz", make_depolarizing(0.05))
    return est.estimate_expressibility_hs(
        c, DiagnosticConfig(n_theta=24, n_sigma=8, seed=15))


def run_expr_lower_bound():
    c = gen_grid_chip(2, 2, 1, "rzz", make_amplitude_damping(0.1))
    return est.estimate_expressibility_lower_bound(
        c, DiagnosticConfig(n_theta=8, n_tau=2, n_sigma=8, seed=16))


def run_line():
    return est.line_variance_benchmark(4, 3, 256, seed=17)


GOLDEN = {
    "mse": (run_mse,
            "e4dcba47306f3664ead0d1b271c5ca1b"
            "1e15947ce9ea171d09fdef667c4838f4"),
    "sensitivity": (run_sensitivity,
                    "5c7981c789b990a63eaa09dfcaea675a"
                    "8700196cbd423f67cc85cc7ac18ef43f"),
    "sensitivity_fd": (run_sensitivity_fd,
                       "cdcb3f94071bea371ca6417f9407dc65"
                       "698ac025aadee03c74889b78d8a342e5"),
    "gradvar_outside_cone": (run_gradvar_outside_cone,
                             "939b00feec5fa89a3f59719a15210842"
                             "0ad93a089eb537d73487849e3ff041f1"),
    "sum_gradvar_wide": (run_sum_gradvar_wide,
                         "1f0f2eb24f60ba985243fcaf0d008652"
                         "6c2775bad430b90b69027b1576c72301"),
    "expr_hs": (run_expr_hs,
                "5fa91978f2bacfb98fe3321c16d034f6"
                "8eb37542c888c3c7968a5f555a75be9d"),
    "expr_lower_bound": (run_expr_lower_bound,
                         "73ba8f4b0c33b965de70879c0461d0a1"
                         "a5e64c507d0d481a8c8daa60d4997e87"),
    "line": (run_line,
             "9ce19f4ecc8535cff909112985b80882"
             "7298c110fed5f6ff6f65614df20f7928"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_is_pinned(name):
    run, want = GOLDEN[name]
    assert payload_digest(run().to_json_dict()) == want


def test_gradvar_outside_cone_is_zero():
    rep = run_gradvar_outside_cone()
    assert rep.mean == 0.0 and rep.stderr == 0.0


def test_wide_gradvar_spans_chunks_and_ignores_threads():
    # 1200 draws of 8 parameters x 2 replicates make two 16384-lane chunks
    assert 1200 > est._CHUNK // (8 * 2)
    one = payload_digest(run_sum_gradvar_wide(threads=1).to_json_dict())
    two = payload_digest(run_sum_gradvar_wide(threads=2).to_json_dict())
    assert one == two == GOLDEN["sum_gradvar_wide"][1]
