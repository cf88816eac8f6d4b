"""Dense-matrix reference simulation and exact grid averaging.

Everything here works on explicit 2^n-dimensional matrices (or 4^n Pauli
coefficient tensors), deliberately sharing no machinery with the sampling
engine: gates are dense unitaries, channels are dense superoperators built
from their transfer matrices, and quarter-turn averages are taken in closed
form.  It is the ground truth the estimators are tested against, honest but
capped at small n.  What it shares with the engine is the circuit's own
definition: the order ops and sites act in (:meth:`Circuit.schedule`) and
the local word index its tables use (:meth:`PauliString.local_index`).

Conventions match the rest of the package: qubit 0 is the least-significant
basis-index bit, gate/channel support tuples list their least-significant
qubit first.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .circuits import (Circuit, FixedAngle, NoiseSite, ObservableSum,
                       Rotation, SparseState, ThetaAssignment, zero_state)
from .paulis import PauliString

DENSE_QUBIT_CAP = 10
TWO_COPY_QUBIT_CAP = 5
GRID_WORK_CAP = 1e9  # most (steps + 1) * 16^n pair-tensor entry updates
MOMENT_GRID_CAP = 65536  # most angle-grid points of a second moment

#: one-qubit Pauli matrices by code (0=I, 1=X, 2=Y, 3=Z)
_PAULI = (np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CLIFF_MATS = {
    "i": _PAULI[0],
    "x": _PAULI[1],
    "y": _PAULI[2],
    "z": _PAULI[3],
    "h": _H,
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    # 2-qubit matrices in |b1 b0> ordering (gate qubit 0 = low bit = control
    # for cnot)
    "cnot": np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# embedding helpers
# ---------------------------------------------------------------------------

def _support_perm(n: int, support, bits: int) -> np.ndarray:
    """Index permutation moving the digits of the ``support`` qubits to the
    low positions, in support order, the other qubits' digits after them in
    qubit order.  A digit is ``bits`` bits wide: 1 over basis-state indices,
    2 over Pauli-word indices."""
    order = list(support) + [q for q in range(n) if q not in support]
    idx = np.arange(1 << (bits * n))
    out = np.zeros_like(idx)
    for j, q in enumerate(order):
        out |= ((idx >> (bits * q)) & ((1 << bits) - 1)) << (bits * j)
    return out


def embed_operator(op_local: np.ndarray, n: int, support) -> np.ndarray:
    """Extend a 2^m x 2^m operator on ``support`` to the full register."""
    m = len(support)
    if op_local.shape != (2 ** m, 2 ** m):
        raise ValueError("operator size does not match support")
    full = np.kron(np.eye(2 ** (n - m), dtype=complex), op_local)
    perm = _support_perm(n, support, 1)
    return full[np.ix_(perm, perm)]


def pauli_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli word by explicit kron (qubit 0
    least significant, the innermost factor).  The one dense word builder:
    every other dense Pauli matrix here comes from it."""
    out = np.array([[1]], dtype=complex)
    for q in range(p.n - 1, -1, -1):
        out = np.kron(out, _PAULI[p.code_at(q)])
    return out


def _on_support(p: PauliString):
    """(support, p restricted to it): the qubits a word acts on, in order,
    and the word on just those qubits."""
    support = tuple(q for q in range(p.n) if p.code_at(q))
    return support, PauliString.from_codes([p.code_at(q) for q in support])


def state_dense(state: SparseState) -> np.ndarray:
    rho = np.zeros((2 ** state.n, 2 ** state.n), dtype=complex)
    for r, c, amp in state.entries:
        rho[r, c] += amp
    return rho


def observable_dense(obs: ObservableSum) -> np.ndarray:
    n = obs.n
    out = np.eye(2 ** n, dtype=complex) * obs.identity_offset
    for coeff, word in obs.terms:
        out += coeff * pauli_dense(word)
    return out


# ---------------------------------------------------------------------------
# dense evolution
# ---------------------------------------------------------------------------

def _rot_local(loc: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle/2 P) for the local dense axis matrix P."""
    return np.cos(angle / 2) * np.eye(len(loc)) - 1j * np.sin(angle / 2) * loc


def rotation_unitary(axis: PauliString, angle: float) -> np.ndarray:
    """Full-register exp(-i angle/2 P) for Pauli axis P."""
    support, local = _on_support(axis)
    return embed_operator(_rot_local(pauli_dense(local), angle), axis.n,
                          support)


def channel_superop_local(channel) -> np.ndarray:
    """(a,b,c,d) tensor with E(rho)_{ab} = sum K[a,b,c,d] rho_{cd} locally.

    Assembled straight from the transfer matrix via E(rho) =
    (1/2^m) sum_{s,t} S[s,t] P_t tr(P_s rho).  Cached on the channel: the
    build loops over 16^m word pairs, which stings on wide supports.
    """
    cached = channel.__dict__.get("_dense_superop")
    if cached is not None:
        return cached
    m = len(channel.support)
    d = 2 ** m
    words = [pauli_dense(PauliString.from_local(i, m)) for i in range(4 ** m)]
    k = np.zeros((d, d, d, d), dtype=complex)
    s_mat = channel.ptm
    for s in range(4 ** m):
        for t in range(4 ** m):
            if s_mat[s, t] == 0.0:
                continue
            k += s_mat[s, t] * np.einsum("ab,dc->abcd",
                                         words[t], words[s]) / d
    channel.__dict__["_dense_superop"] = k
    return k


def apply_channel_dense(rho: np.ndarray, channel, n: int) -> np.ndarray:
    """Apply a channel (given by its local superoperator) to a dense state."""
    support = channel.support
    m = len(support)
    h, low = 2 ** (n - m), 2 ** m
    perm = _support_perm(n, support, 1)
    iperm = np.argsort(perm)
    k = channel_superop_local(channel)
    work = rho[np.ix_(iperm, iperm)].reshape(h, low, h, low)
    out = np.einsum("abcd,hcgd->hagb", k, work)
    out = out.reshape(2 ** n, 2 ** n)
    return out[np.ix_(perm, perm)]


def _theta_radians(circuit: Circuit, theta) -> np.ndarray:
    if isinstance(theta, ThetaAssignment):
        circuit.check_theta(theta)
        return theta.as_radians()
    vals = np.asarray(theta, dtype=float)
    if vals.shape != (circuit.n_params,):
        raise ValueError(f"need {circuit.n_params} angles, got {vals.shape}")
    return vals


def dense_evolve(circuit: Circuit, theta, state: "SparseState | None" = None
                 ) -> np.ndarray:
    """Exact noisy evolution; ``theta`` may be grid indices or radians."""
    n = circuit.n
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceed the dense cap {DENSE_QUBIT_CAP}")
    angles = _theta_radians(circuit, theta)
    rho = state_dense(state if state is not None else zero_state(n))
    for item in circuit.schedule():
        if isinstance(item, NoiseSite):
            rho = apply_channel_dense(rho, item.channel, n)
            continue
        if isinstance(item, Rotation):
            if isinstance(item.param, FixedAngle):
                angle = item.param.k * np.pi / 2
            else:
                angle = angles[item.param]
            u = rotation_unitary(item.axis, angle)
        else:
            u = embed_operator(_CLIFF_MATS[item.kind], n, item.qubits)
        rho = u @ rho @ u.conj().T
    return rho


def dense_expectation(circuit: Circuit, theta, obs: ObservableSum,
                      state: "SparseState | None" = None) -> float:
    """tr(O rho_final), exact."""
    circuit.check_observable(obs)
    rho = dense_evolve(circuit, theta, state)
    val = np.trace(observable_dense(obs) @ rho)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise AssertionError(f"complex expectation {val}")
    return float(val.real)


# ---------------------------------------------------------------------------
# exact quarter-turn grid averages via Pauli coefficient tensors
# ---------------------------------------------------------------------------
#
# Observables are carried as real coefficient vectors over all 4^n Pauli
# words (the walk direction: O is pulled backward through each op).  A free
# rotation averaged over its four grid angles, two copies sharing the angle,
# is averaged in closed form, which is what makes the grid sum tractable
# without enumerating 4^{N_g} points.

def _transfer_backmap(u: np.ndarray, m: int) -> np.ndarray:
    """L[j, i] = tr(P_j U^dag P_i U) / 2^m over the m-qubit local words: the
    backward (Heisenberg) action of the local unitary U on Pauli
    coefficients."""
    words = [pauli_dense(PauliString.from_local(i, m)) for i in range(4 ** m)]
    lk = np.zeros((4 ** m, 4 ** m))
    for i, word in enumerate(words):
        back = u.conj().T @ word @ u
        for j, other in enumerate(words):
            v = np.trace(other.conj().T @ back) / 2 ** m
            if abs(v.imag) > 1e-12:
                raise AssertionError("conjugation left the real span")
            lk[j, i] = v.real
    return lk


def _pair_apply(ten: np.ndarray, lmat: np.ndarray, perm, iperm,
                copy: int) -> np.ndarray:
    """Apply a local word map to one copy index of a (D, D) pair tensor."""
    loc = lmat.shape[0]
    d = ten.shape[0]
    if copy == 0:
        w = ten[iperm].reshape(-1, loc, d)
        out = np.einsum("jc,hcd->hjd", lmat, w).reshape(d, d)
        return out[perm]
    w = ten[:, iperm].reshape(d, -1, loc)
    out = np.einsum("jc,hdc->hdj", lmat, w).reshape(d, d)
    return out[:, perm]


class _GridPrograms:
    """Backward-order op list with precomputed local maps and permutations."""

    def __init__(self, circuit: Circuit):
        n = circuit.n
        steps = []
        for item in reversed(circuit.schedule()):
            if isinstance(item, NoiseSite):
                ch = item.channel
                steps.append(("chan", ch.support, [np.asarray(ch.ptm)], None))
            elif isinstance(item, Rotation):
                support, local = _on_support(item.axis)
                loc = pauli_dense(local)
                maps = [_transfer_backmap(_rot_local(loc, k * np.pi / 2),
                                          local.n) for k in range(4)]
                fixed = isinstance(item.param, FixedAngle)
                steps.append(("rot", support, maps,
                              (None if fixed else item.param,
                               item.param.k if fixed else 0)))
            else:
                lk = _transfer_backmap(_CLIFF_MATS[item.kind],
                                       len(item.qubits))
                steps.append(("cliff", item.qubits, [lk], None))
        self.steps = steps
        self.perms = {}
        for _, support, _, _ in steps:
            key = tuple(support)
            if key not in self.perms:
                perm = _support_perm(n, key, 2)
                self.perms[key] = perm, np.argsort(perm)


def _closure_vector(n: int, state: SparseState) -> np.ndarray:
    """c[p] = tr(P_p rho) over all 4^n words, by dense traces."""
    rho = state_dense(state)
    out = np.zeros(4 ** n)
    for idx in range(4 ** n):
        v = np.trace(pauli_dense(PauliString.from_local(idx, n)) @ rho)
        if abs(v.imag) > 1e-9:
            raise AssertionError("complex closure")
        out[idx] = v.real
    return out


_GRADVAR_RE = re.compile(r"^gradvar\((\d+)\)$")


def grid_enumerate(circuit: Circuit, obs: "ObservableSum | None",
                   functional: str, state: "SparseState | None" = None
                   ) -> float:
    """Exact grid-averaged diagnostics.

    ``functional``:

    * ``"mse"`` — E_theta[(<O> - <O~>)^2], noiseless vs noisy;
    * ``"gradvar(k)"`` — E_theta[g_k^2] with the quarter-turn parameter
      shift g_k = (f(theta + e_k) - f(theta - e_k))/2 (the grid mean of g_k
      is identically zero, so this is the gradient variance);
    * ``"moment2"`` — the 2-design Hilbert-Schmidt deviation of the noisy
      state ensemble (observable ignored); delegated to
      :func:`dense_moment_deviation`.

    The average over the shared quarter-turn angle of a two-copy rotation is
    taken gate-by-gate in closed form, which requires every parameter to
    feed exactly one rotation.
    """
    state = state if state is not None else zero_state(circuit.n)
    if functional == "moment2":
        return dense_moment_deviation(circuit, state)
    if obs is None:
        raise ValueError("mse/gradvar need an observable")
    circuit.check_observable(obs)
    shift = None
    if functional != "mse":
        match = _GRADVAR_RE.match(functional)
        if not match:
            raise ValueError(f"unknown functional {functional!r}")
        shift = int(match.group(1))
        if shift >= circuit.n_params:
            raise ValueError(f"parameter {shift} out of range")
    for k in range(circuit.n_params):
        hits = len(circuit.param_occurrences(k))
        if hits != 1:
            raise ValueError(
                "closed-form grid averaging needs each parameter on exactly "
                f"one rotation; parameter {k} appears {hits} times")
    d = 4 ** circuit.n
    work = float(len(circuit.ops) + len(circuit.noise_sites) + 1) * d * d
    if work > GRID_WORK_CAP:
        raise ValueError(f"grid enumeration over budget ({work:.3g} updates)")

    prog = _GridPrograms(circuit)
    v0 = np.zeros(d)
    for coeff, word in obs.terms:
        v0[word.local_index(range(circuit.n))] += coeff
    closure = _closure_vector(circuit.n, state)

    def pair_run(noisy0: bool, noisy1: bool, shift_param: "int | None",
                 ) -> float:
        ten = np.outer(v0, v0)
        for kind, support, maps, extra in prog.steps:
            perm, iperm = prog.perms[tuple(support)]
            if kind == "chan":
                if noisy0:
                    ten = _pair_apply(ten, maps[0], perm, iperm, 0)
                if noisy1:
                    ten = _pair_apply(ten, maps[0], perm, iperm, 1)
            elif kind == "cliff":
                ten = _pair_apply(ten, maps[0], perm, iperm, 0)
                ten = _pair_apply(ten, maps[0], perm, iperm, 1)
            else:
                param, fixed = extra
                if param is None:
                    ten = _pair_apply(ten, maps[fixed], perm, iperm, 0)
                    ten = _pair_apply(ten, maps[fixed], perm, iperm, 1)
                    continue
                d0 = 1 if param == shift_param else 0
                d1 = -1 if param == shift_param else 0
                acc = np.zeros_like(ten)
                for k in range(4):
                    part = _pair_apply(ten, maps[(k + d0) % 4], perm, iperm, 0)
                    part = _pair_apply(part, maps[(k + d1) % 4], perm,
                                       iperm, 1)
                    acc += part
                ten = acc / 4.0
        return float(closure @ ten @ closure)

    if functional == "mse":
        noisy_noisy = pair_run(True, True, None)
        noisy_clean = pair_run(True, False, None)
        clean_clean = pair_run(False, False, None)
        return noisy_noisy - 2.0 * noisy_clean + clean_clean
    same = pair_run(True, True, None)
    cross = pair_run(True, True, shift)
    return (same - cross) / 2.0


# ---------------------------------------------------------------------------
# two-copy state moments (expressibility ground truth)
# ---------------------------------------------------------------------------

def haar_2moment(n: int) -> np.ndarray:
    """(I + SWAP) / (2^n (2^n + 1)): the pure-state Haar second moment."""
    if n > TWO_COPY_QUBIT_CAP:
        raise ValueError(f"two-copy objects capped at {TWO_COPY_QUBIT_CAP} "
                         f"qubits (asked {n})")
    d = 2 ** n
    swap = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            swap[b * d + a, a * d + b] = 1.0
    return (np.eye(d * d) + swap) / (d * (d + 1))


def second_moment_matrix(circuit: Circuit, state: "SparseState | None" = None
                         ) -> np.ndarray:
    """Average of rho(theta) (x) rho(theta) over the full 4^{N_g} angle grid
    (capped at ``MOMENT_GRID_CAP`` points)."""
    n = circuit.n
    if n > TWO_COPY_QUBIT_CAP:
        raise ValueError(f"two-copy objects capped at {TWO_COPY_QUBIT_CAP} "
                         f"qubits (asked {n})")
    state = state if state is not None else zero_state(n)
    total = 4 ** circuit.n_params
    if total > MOMENT_GRID_CAP:
        raise ValueError(f"grid has {total} points (cap {MOMENT_GRID_CAP})")
    acc = np.zeros((4 ** n, 4 ** n), dtype=complex)
    for ks in itertools.product(range(4), repeat=circuit.n_params):
        theta = ThetaAssignment(np.array(ks, dtype=np.uint8))
        rho = dense_evolve(circuit, theta, state)
        acc += np.kron(rho, rho)
    return acc / total


def dense_moment_deviation(circuit: Circuit,
                           state: "SparseState | None" = None) -> float:
    """Squared HS distance between the circuit's second moment and Haar's."""
    mom = second_moment_matrix(circuit, state)
    delta = mom - haar_2moment(circuit.n)
    return float(np.sum(np.abs(delta) ** 2))
