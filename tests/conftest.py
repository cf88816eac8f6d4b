"""Shared builders for the test suite.

Import these straight from ``conftest`` (pytest puts the test directory on
sys.path).  Everything here is deterministic given its seed arguments.
"""

import numpy as np

from pqcdiag import engine
from pqcdiag.channels import make_amplitude_damping, make_depolarizing
from pqcdiag.circuits import (Circuit, NoiseSite, Rotation, ThetaAssignment,
                              observable_from_terms, zero_state)
from pqcdiag.paulis import PauliString
from reference import exact_term

#: ceiling on 4^{n_params} for the exact grid enumerators: they enumerate
#: some tens of microseconds a point, and no test grid has more than 256
_GRID_POINT_CAP = 4 ** 6


def axis(n, letters, qubits):
    """PauliString on ``n`` qubits with ``letters[i]`` at ``qubits[i]``."""
    codes = [0] * n
    for ch, q in zip(letters, qubits):
        codes[q] = "IXYZ".index(ch)
    return PauliString.from_codes(codes)


def plane_angles(theta, params, lanes):
    """(L, lanes) uint8 grid-angle indices a theta source's ``k_for`` gives
    for the parameters ``params``, unpacked from its angle planes."""
    k = theta.k_for(np.asarray(params, dtype=np.int64))
    assert k.dtype == np.uint64 and k.shape == (len(params), 2,
                                                (lanes + 63) // 64)
    return engine._unpack(k[:, 0], lanes) \
        | engine._unpack(k[:, 1], lanes) << 1


def copy_shifted(angles, params, shift, delta):
    """``angles``, the (L, lanes) grid angles of ``params`` on whole copies
    of the draws, with each lane of copy c moved by delta[c] quarter turns
    at parameter shift[c] (at none when it is -1), as a view shifted per
    copy reads them."""
    on = np.where(np.asarray(shift) == np.asarray(params)[:, None], delta, 0)
    return (angles + np.repeat(on, angles.shape[1] // len(shift), axis=1)) % 4


def rx_dep_circuit(lam):
    """1-qubit R_X then depolarizing(lam); measure Z from |0>.

    Closed form on the angle grid: MSE(lam) = lam^2 / 2, so MSE(0.1) = 0.005
    and d MSE / d lam at 0.1 equals 0.1.
    """
    c = Circuit(1, [Rotation(axis(1, "X", (0,)), 0)],
                [NoiseSite(0, make_depolarizing(lam, (0,)), (0, 0), "lambda")])
    return c, observable_from_terms([(1.0, "Z")]), zero_state(1)


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


def random_circuit(n, n_rot, seed, channels=("depolarizing", "amp"),
                   site_rate=0.6):
    """Random rotation circuit with noise sprinkled between gates.

    Returns (circuit, observable, state).  Rotation axes are random X/Y/Z
    words on one or two qubits; each gate is followed by a single-qubit
    noise site with probability ``site_rate`` and a strength drawn from
    U(0.01, 0.3).  The observable is one or two random non-identity Pauli
    words with coefficients in U(-1, 1).
    """
    r = np.random.default_rng(seed)
    ops = []
    sites = []
    k = 0
    for _ in range(n_rot):
        nq = 1 if n == 1 or r.random() < 0.6 else 2
        qs = tuple(sorted(r.choice(n, size=nq, replace=False).tolist()))
        letters = "".join(r.choice(list("XYZ")) for _ in qs)
        ops.append(Rotation(axis(n, letters, qs), k))
        k += 1
        if channels and r.random() < site_rate:
            q = int(r.integers(n))
            kind = r.choice(channels)
            if kind == "depolarizing":
                ch = make_depolarizing(float(r.uniform(0.01, 0.3)), (q,))
                pname = "lambda"
            else:
                ch = make_amplitude_damping(float(r.uniform(0.01, 0.3)), (q,))
                pname = "gamma"
            sites.append(NoiseSite(len(ops) - 1, ch, (0, len(sites)), pname))
    c = Circuit(n, ops, sites)
    terms = []
    for _ in range(int(r.integers(1, 3))):
        letters = "".join(r.choice(list("IXYZ")) for _ in range(n))
        if set(letters) == {"I"}:
            letters = "Z" + letters[1:]
        terms.append((float(r.uniform(-1, 1)), letters))
    return c, observable_from_terms(terms, n=n), zero_state(n)


def rotations_only(n, n_rot, seed):
    """Noise-free random rotation circuit (same gate law as random_circuit)."""
    c, obs, st = random_circuit(n, n_rot, seed, channels=())
    return c, obs, st


def exact_expectation(circuit, obs, state, theta):
    """Exact <O> at one grid ``theta``: every Pauli path of each term,
    enumerated by the reference walk (``reference.exact_term``)."""
    total = obs.identity_offset
    for coeff, word in obs.terms:
        total += coeff * exact_term(circuit, theta, word, state)
    return float(total)


def structurally_equal(a, b):
    """Field-by-field equality of two circuits (PTMs compared
    numerically)."""
    if (a.n, a.n_params, len(a.ops), len(a.noise_sites)) != \
            (b.n, b.n_params, len(b.ops), len(b.noise_sites)):
        return False
    if a.ops != b.ops:
        return False
    for sa, sb in zip(a.noise_sites, b.noise_sites):
        if (sa.position, sa.site_id, sa.noise_param_name) != \
                (sb.position, sb.site_id, sb.noise_param_name):
            return False
        if sa.channel.support != sb.channel.support:
            return False
        if not np.array_equal(sa.channel.ptm, sb.channel.ptm):
            return False
    return True


# ---------------------------------------------------------------------------
# exact grid enumeration (the slow literal route, for cross-validation)
# ---------------------------------------------------------------------------

def exact_grid_values(circuit, obs, state=None, *,
                      point_cap=_GRID_POINT_CAP):
    """<O~> at every grid point, by exact path enumeration
    (``reference.exact_term``); index = base-4 theta.

    Grid point g assigns parameter k the angle index (g >> 2k) & 3.  This
    enumerates all 4^{n_params} points: its one job is to agree with the
    closed-form oracle to machine precision while sharing no code with it.
    """
    p = circuit.n_params
    total = 4 ** p
    if total > point_cap:
        raise ValueError(f"grid has {total} points (cap {point_cap})")
    state = state if state is not None else zero_state(circuit.n)
    shifts = 2 * np.arange(p, dtype=np.int64)
    out = np.full(total, float(obs.identity_offset))
    for g in range(total):
        theta = ThetaAssignment(((g >> shifts) & 3).astype(np.uint8))
        for coeff, word in obs.terms:
            out[g] += coeff * exact_term(circuit, theta, word, state)
    return out


def exact_grid_mse(circuit, obs, state=None):
    """Exact grid-averaged MSE by literal enumeration of all grid points."""
    noisy = exact_grid_values(circuit, obs, state)
    ideal = exact_grid_values(circuit.without_noise(), obs, state)
    d = ideal - noisy
    return float(np.mean(d * d))


def exact_grid_gradient_variance(circuit, obs, state=None, param_k=0):
    """Exact grid average of the squared parameter-shift gradient.

    The shifted evaluations are lookups: adding one quarter turn to
    parameter k moves grid point g to the point whose k-th base-4 digit is
    bumped mod 4.  (The grid mean of the gradient is identically zero, so
    the mean square is the variance.)
    """
    if not 0 <= param_k < circuit.n_params:
        raise IndexError(f"parameter {param_k} out of range")
    vals = exact_grid_values(circuit, obs, state)
    idx = np.arange(vals.size, dtype=np.int64)
    digit = (idx >> (2 * param_k)) & 3
    base = idx - (digit << (2 * param_k))
    up = base + (((digit + 1) & 3) << (2 * param_k))
    down = base + (((digit - 1) & 3) << (2 * param_k))
    g = (vals[up] - vals[down]) / 2.0
    return float(np.mean(g * g))
