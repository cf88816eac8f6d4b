"""The benchmark's four seeded workloads and their oracle checks.

Each workload calls one library estimator directly with fixed sizes; the
run's ``--seed`` picks the estimator seed of every call, so the same seed
always gives the same inputs.  Each workload stresses a different layer of
the walk engine (see README.md for the metric -> layer -> workload table):

* ``line-deep``      noiseless deep chain; rotation steps and angle hashing
* ``chip-amp-mse``   sampled branching channels and branch hashing
* ``chip-wide-grad`` >64 qubits, Cliffords, diagonal channels, small cone
* ``expr-hs``        the only forward walks and random Pauli words

``check`` runs an untimed small instance of the same family against the
dense or grid oracle and returns one ``(name, ok, detail)`` per estimator
call it made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pqcdiag import channels, circuits, estimators, oracle, rng
from pqcdiag.reports import DiagnosticConfig

#: z-score within which a Monte-Carlo estimate must meet the exact value
Z_TOL = 5.0


@dataclass
class Case:
    """A generated workload input: circuit, observable (or None), state."""

    circuit: object
    obs: object
    state: object


@dataclass(frozen=True)
class Workload:
    name: str
    draws: int            # outer draws (n_theta) of the fixed call
    directions: tuple     # walk directions the estimator compiles
    build: object         # () -> Case
    call: object          # (Case, seed, threads, draws) -> report
    check: object         # seed -> [(name, ok, detail), ...]


def _z_on(n: int, q: int):
    codes = [0] * n
    codes[q] = 3
    return circuits.observable_from_terms(
        [(1.0, circuits.PauliString.from_codes(codes))])


def _mc_agrees(name, mean, stderr, exact):
    ok = bool(np.isfinite(mean)) and abs(mean - exact) <= Z_TOL * stderr \
        + 1e-9 * max(1.0, abs(exact))
    return name, ok, f"estimate {mean!r} +- {stderr!r}, exact {exact!r}"


# ---------------------------------------------------------------------------
# line-deep: the paper's deep-circuit variance benchmark
# ---------------------------------------------------------------------------

LINE_N, LINE_P = 8, 64
#: two chunks of 16384 draws: a multiple of the two workers of the reference
#: machine, so the threaded call splits evenly instead of rounding chunks
LINE_DRAWS = 32768


def _line_build():
    return Case(*circuits.gen_line_benchmark(LINE_N, LINE_P))


def _line_call(case, seed, threads, draws):
    return estimators.line_variance_benchmark(LINE_N, LINE_P, draws,
                                              seed=seed, threads=threads)


def _line_check(seed):
    """Engine values and their sample variance against dense evolution at
    the same hashed angles, on a 4-qubit, 2-block chain."""
    n, p, m = 4, 2, 16
    circuit, obs, state = circuits.gen_line_benchmark(n, p)
    vals = estimators.expectation_samples(circuit, obs, state, m, seed=seed)
    exact = np.array([
        oracle.dense_expectation(circuit, circuits.ThetaAssignment(
            rng.angle_indices(seed, i, circuit.n_params)), obs, state)
        for i in range(m)])
    report = estimators.line_variance_benchmark(n, p, m, seed=seed)
    err = float(np.max(np.abs(vals - exact)))
    var_err = abs(report.mean - float(exact.var(ddof=1)))
    return [("line.dense_expectation", err <= 1e-9, f"max |diff| {err!r}"),
            ("line.variance", var_err <= 1e-9, f"|diff| {var_err!r}")]


# ---------------------------------------------------------------------------
# chip-amp-mse: noise robustness under amplitude damping
# ---------------------------------------------------------------------------

#: n_tau = 8 makes a chunk 2048 draws; 4096 draws is two chunks
MSE_DRAWS, MSE_TAU = 4096, 8


def _amp_chip(rows, cols, blocks):
    return circuits.gen_grid_chip(rows, cols, blocks, "rzz",
                                  channels.make_amplitude_damping(0.05))


def _mse_build():
    return Case(_amp_chip(3, 3, 2), _z_on(9, 4), circuits.zero_state(9))


def _mse_call(case, seed, threads, draws):
    cfg = DiagnosticConfig(n_theta=draws, n_tau=MSE_TAU, seed=seed,
                           threads=threads)
    return estimators.estimate_mse(case.circuit, case.obs, case.state, cfg)


def _mse_check(seed):
    """MSE against the exact grid average, on a 2x2 chip with one block."""
    circuit = _amp_chip(2, 2, 1)
    obs = _z_on(4, 0)
    exact = oracle.grid_enumerate(circuit, obs, "mse")
    report = estimators.estimate_mse(
        circuit, obs, None,
        DiagnosticConfig(n_theta=MSE_DRAWS, n_tau=MSE_TAU, seed=seed))
    return [_mc_agrees("mse.grid_enumerate_mse", report.mean, report.stderr,
                       exact)]


# ---------------------------------------------------------------------------
# chip-wide-grad: summed gradient variance on a 100-qubit chip
# ---------------------------------------------------------------------------

#: two chunks of 40 draws (16384 lanes / 400 parameters each)
GRAD_DRAWS = 80


def _grad_build():
    circuit = circuits.gen_grid_chip(
        10, 10, 2, "cz", channels.make_depolarizing(0.01))
    return Case(circuit, _z_on(100, 45), circuits.zero_state(100))


def _grad_call(case, seed, threads, draws):
    cfg = DiagnosticConfig(n_theta=draws, seed=seed, threads=threads)
    return estimators.sum_gradient_variance(case.circuit, case.obs,
                                            case.state, cfg)


def _grad_check(seed):
    """Summed gradient variance against the exact per-parameter grid
    values, on a 2x2 CZ chip with one block."""
    circuit = circuits.gen_grid_chip(
        2, 2, 1, "cz", channels.make_depolarizing(0.01))
    obs = _z_on(4, 1)
    exact = sum(oracle.grid_enumerate(circuit, obs, f"gradvar({k})")
                for k in range(circuit.n_params))
    report = estimators.sum_gradient_variance(
        circuit, obs, None, DiagnosticConfig(n_theta=2048, seed=seed))
    return [_mc_agrees("grad.grid_enumerate_gradvar", report.mean,
                       report.stderr, exact)]


# ---------------------------------------------------------------------------
# expr-hs: expressibility (HS distance to the Haar second moment)
# ---------------------------------------------------------------------------

#: n_sigma = 64 makes a chunk 256 draws; 512 draws is two chunks
EXPR_DRAWS, EXPR_SIGMA = 512, 64


def _expr_build():
    circuit = circuits.gen_grid_chip(
        3, 3, 2, "rzz", channels.make_depolarizing(0.02))
    return Case(circuit, None, circuits.zero_state(9))


def _expr_call(case, seed, threads, draws):
    cfg = DiagnosticConfig(n_theta=draws, n_sigma=EXPR_SIGMA, seed=seed,
                           threads=threads)
    return estimators.estimate_expressibility_hs(case.circuit, cfg)


def _expr_check(seed):
    """HS deviation against the dense two-copy moment over the whole grid,
    on one chip block over a 2-qubit edge (5 parameters, 1024 points)."""
    dep = channels.channel_to_spec(channels.make_depolarizing(0.02))
    gates, noise = [], []
    for g in ({"gate": "rx", "qubits": [0]}, {"gate": "rx", "qubits": [1]},
              {"gate": "rzz", "qubits": [0, 1]},
              {"gate": "rz", "qubits": [0]}, {"gate": "rz", "qubits": [1]}):
        gates.append({**g, "param": len(gates)})
        for q in g["qubits"]:
            noise.append({"after": len(gates) - 1, "noise_param": "lambda",
                          "channel": {**dep, "support": [q]}})
    circuit = circuits.build_circuit({"n": 2, "gates": gates,
                                      "noise": noise})
    exact = oracle.dense_moment_deviation(circuit)
    report = estimators.estimate_expressibility_hs(
        circuit, DiagnosticConfig(n_theta=2048, n_sigma=EXPR_SIGMA,
                                  seed=seed))
    return [_mc_agrees("expr.dense_moment_deviation", report.mean,
                       report.stderr, exact)]


WORKLOADS = {w.name: w for w in (
    Workload("line-deep", LINE_DRAWS, ("backward",), _line_build,
             _line_call, _line_check),
    Workload("chip-amp-mse", MSE_DRAWS, ("backward",), _mse_build,
             _mse_call, _mse_check),
    Workload("chip-wide-grad", GRAD_DRAWS, ("backward",), _grad_build,
             _grad_call, _grad_check),
    Workload("expr-hs", EXPR_DRAWS, ("forward", "backward"),
             _expr_build, _expr_call, _expr_check),
)}
