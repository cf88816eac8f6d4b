"""Dense-matrix reference simulation and exact grid averaging.

Everything here works on explicit 2^n-dimensional matrices (or 4^n Pauli
coefficient tensors), deliberately sharing no machinery with the sampling
engine: gates are dense unitaries, channels are dense superoperators built
from their transfer matrices, and quarter-turn averages are taken in closed
form.  It is the ground truth the estimators are tested against, honest but
capped at small n.

Conventions match the rest of the package: qubit 0 is the least-significant
basis-index bit, gate/channel support tuples list their least-significant
qubit first.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .circuits import (Circuit, FixedAngle, ObservableSum, Rotation,
                       SparseState, ThetaAssignment, zero_state)
from .paulis import CODE_CHARS, PauliString

DENSE_QUBIT_CAP = 10
TWO_COPY_QUBIT_CAP = 5

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CLIFF_MATS = {
    "i": _I2,
    "x": _PAULI["X"],
    "y": _PAULI["Y"],
    "z": _PAULI["Z"],
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

def _bit_perm(n: int, support) -> np.ndarray:
    """Index permutation moving ``support`` bits to the low positions."""
    new_pos = {}
    for j, q in enumerate(support):
        new_pos[q] = j
    nxt = len(support)
    for q in range(n):
        if q not in new_pos:
            new_pos[q] = nxt
            nxt += 1
    idx = np.arange(2 ** n)
    out = np.zeros_like(idx)
    for q in range(n):
        out |= ((idx >> q) & 1) << new_pos[q]
    return out


def embed_operator(op_local: np.ndarray, n: int, support) -> np.ndarray:
    """Extend a 2^m x 2^m operator on ``support`` to the full register."""
    m = len(support)
    if op_local.shape != (2 ** m, 2 ** m):
        raise ValueError("operator size does not match support")
    full = np.kron(np.eye(2 ** (n - m), dtype=complex), op_local)
    perm = _bit_perm(n, support)
    return full[np.ix_(perm, perm)]


def pauli_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli word by explicit kron (qubit 0 innermost)."""
    out = np.array([[1]], dtype=complex)
    for q in range(p.n - 1, -1, -1):
        out = np.kron(out, _PAULI[CODE_CHARS[p.code_at(q)]])
    return out


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

def _axis_local(axis: PauliString):
    """(support tuple, local dense matrix) of a rotation axis."""
    support = tuple(q for q in range(axis.n) if axis.code_at(q))
    loc = np.array([[1]], dtype=complex)
    for q in reversed(support):
        loc = np.kron(loc, _PAULI[CODE_CHARS[axis.code_at(q)]])
    return support, loc


def rotation_unitary(axis: PauliString, angle: float) -> np.ndarray:
    """Full-register exp(-i angle/2 P) for Pauli axis P."""
    support, loc = _axis_local(axis)
    m = len(support)
    u = np.cos(angle / 2) * np.eye(2 ** m) - 1j * np.sin(angle / 2) * loc
    return embed_operator(u, axis.n, support)


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
    words = []
    for idx in range(4 ** m):
        p = np.array([[1]], dtype=complex)
        for j in range(m - 1, -1, -1):
            p = np.kron(p, _PAULI[CODE_CHARS[(idx >> (2 * j)) & 3]])
        words.append(p)
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
    perm = _bit_perm(n, support)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(perm.size)
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


def dense_evolve(circuit: Circuit, theta, state: "SparseState | None" = None,
                 cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Exact noisy evolution; ``theta`` may be grid indices or radians."""
    n = circuit.n
    if n > cap:
        raise ValueError(f"dense evolution capped at {cap} qubits (asked {n})")
    angles = _theta_radians(circuit, theta)
    rho = state_dense(state if state is not None else zero_state(n))
    sites_at = {}
    for s in circuit.noise_sites:
        sites_at.setdefault(s.position, []).append(s)
    for pos, op in enumerate(circuit.ops):
        if isinstance(op, Rotation):
            if isinstance(op.param, FixedAngle):
                angle = op.param.k * np.pi / 2
            else:
                angle = angles[op.param]
            u = rotation_unitary(op.axis, angle)
        else:
            u = embed_operator(_CLIFF_MATS[op.kind], n, op.qubits)
        rho = u @ rho @ u.conj().T
        for site in sites_at.get(pos, ()):
            rho = apply_channel_dense(rho, site.channel, n)
    return rho


def dense_expectation(circuit: Circuit, theta, obs: ObservableSum,
                      state: "SparseState | None" = None,
                      cap: int = DENSE_QUBIT_CAP) -> float:
    """tr(O rho_final), exact."""
    rho = dense_evolve(circuit, theta, state, cap)
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

def _word_index(p: PauliString) -> int:
    idx = 0
    for q in range(p.n):
        idx |= p.code_at(q) << (2 * q)
    return idx


def _digit_perm(n: int, support) -> tuple[np.ndarray, np.ndarray]:
    """Base-4 analogue of _bit_perm over Pauli word indices."""
    new_pos = {}
    for j, q in enumerate(support):
        new_pos[q] = j
    nxt = len(support)
    for q in range(n):
        if q not in new_pos:
            new_pos[q] = nxt
            nxt += 1
    idx = np.arange(4 ** n)
    out = np.zeros_like(idx)
    for q in range(n):
        out |= ((idx >> (2 * q)) & 3) << (2 * new_pos[q])
    iperm = np.empty_like(out)
    iperm[out] = np.arange(out.size)
    return out, iperm


def _local_word(idx: int, m: int) -> np.ndarray:
    p = np.array([[1]], dtype=complex)
    for j in range(m - 1, -1, -1):
        p = np.kron(p, _PAULI[CODE_CHARS[(idx >> (2 * j)) & 3]])
    return p


def _rotation_backmaps(axis: PauliString):
    """support, [L_0..L_3]: L_k[j,i] = tr(P_j R_k^dag P_i R_k)/2^m locally."""
    support, loc = _axis_local(axis)
    m = len(support)
    d = 2 ** m
    words = [_local_word(i, m) for i in range(4 ** m)]
    maps = []
    for k in range(4):
        ang = k * np.pi / 2
        u = np.cos(ang / 2) * np.eye(d) - 1j * np.sin(ang / 2) * loc
        lk = np.zeros((4 ** m, 4 ** m))
        for i in range(4 ** m):
            back = u.conj().T @ words[i] @ u
            for j in range(4 ** m):
                v = np.trace(words[j].conj().T @ back) / d
                if abs(v.imag) > 1e-12:
                    raise AssertionError("grid rotation left the real span")
                lk[j, i] = v.real
        maps.append(lk)
    return support, maps


def _clifford_backmap(kind: str, m: int) -> np.ndarray:
    u = _CLIFF_MATS[kind]
    d = 2 ** m
    words = [_local_word(i, m) for i in range(4 ** m)]
    lk = np.zeros((4 ** m, 4 ** m))
    for i in range(4 ** m):
        back = u.conj().T @ words[i] @ u
        for j in range(4 ** m):
            lk[j, i] = (np.trace(words[j].conj().T @ back) / d).real
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
        sites_at = {}
        for s in circuit.noise_sites:
            sites_at.setdefault(s.position, []).append(s)
        steps = []
        for pos in range(len(circuit.ops) - 1, -1, -1):
            for site in reversed(sites_at.get(pos, [])):
                ch = site.channel
                steps.append(("chan", ch.support, [np.asarray(ch.ptm)], None))
            op = circuit.ops[pos]
            if isinstance(op, Rotation):
                support, maps = _rotation_backmaps(op.axis)
                param = None if isinstance(op.param, FixedAngle) else op.param
                fixed = op.param.k if isinstance(op.param, FixedAngle) else 0
                steps.append(("rot", support, maps, (param, fixed)))
            else:
                lk = _clifford_backmap(op.kind, len(op.qubits))
                steps.append(("cliff", op.qubits, [lk], None))
        self.steps = steps
        self.perms = {}
        for _, support, _, _ in steps:
            key = tuple(support)
            if key not in self.perms:
                self.perms[key] = _digit_perm(n, key)


def _closure_vector(n: int, state: SparseState) -> np.ndarray:
    """c[p] = tr(P_p rho) over all 4^n words, by dense traces."""
    rho = state_dense(state)
    out = np.zeros(4 ** n)
    for idx in range(4 ** n):
        v = np.trace(_local_word(idx, n) @ rho)
        if abs(v.imag) > 1e-9:
            raise AssertionError("complex closure")
        out[idx] = v.real
    return out


def _obs_vector(obs: ObservableSum) -> np.ndarray:
    v = np.zeros(4 ** obs.n)
    for coeff, word in obs.terms:
        v[_word_index(word)] += coeff
    return v


_GRADVAR_RE = re.compile(r"^gradvar\((\d+)\)$")


def grid_enumerate(circuit: Circuit, obs: "ObservableSum | None",
                   functional: str, state: "SparseState | None" = None,
                   cap: float = 1e9) -> float:
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
    n_ops = len(circuit.ops) + len(circuit.noise_sites)
    if float(n_ops) * d * d > cap:
        raise ValueError("grid enumeration over budget; lower n or raise cap")

    prog = _GridPrograms(circuit)
    v0 = _obs_vector(obs)
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


def second_moment_matrix(circuit: Circuit, state: "SparseState | None" = None,
                         thetas=None, grid_cap: int = 65536) -> np.ndarray:
    """Average of rho(theta) (x) rho(theta) over grid points or given thetas.

    ``thetas=None`` enumerates the full 4^{N_g} grid (capped); otherwise pass
    an iterable of radian vectors (used for continuum comparisons).
    """
    n = circuit.n
    if n > TWO_COPY_QUBIT_CAP:
        raise ValueError(f"two-copy objects capped at {TWO_COPY_QUBIT_CAP} "
                         f"qubits (asked {n})")
    state = state if state is not None else zero_state(n)
    if thetas is None:
        total = 4 ** circuit.n_params
        if total > grid_cap:
            raise ValueError(f"grid has {total} points (cap {grid_cap})")
        thetas = (ThetaAssignment(np.array(ks, dtype=np.uint8))
                  for ks in itertools.product(range(4),
                                              repeat=circuit.n_params))
    acc = np.zeros((4 ** n, 4 ** n), dtype=complex)
    count = 0
    for theta in thetas:
        rho = dense_evolve(circuit, theta, state)
        acc += np.kron(rho, rho)
        count += 1
    if count == 0:
        raise ValueError("no theta points")
    return acc / count


def dense_moment_deviation(circuit: Circuit,
                           state: "SparseState | None" = None,
                           thetas=None, grid_cap: int = 65536) -> float:
    """Squared HS distance between the circuit's second moment and Haar's."""
    mom = second_moment_matrix(circuit, state, thetas, grid_cap)
    delta = mom - haar_2moment(circuit.n)
    return float(np.sum(np.abs(delta) ** 2))


# ---------------------------------------------------------------------------
# rotation grid 2-design check
# ---------------------------------------------------------------------------

def rotation_2design_check(axis: PauliString, grid_angles=None) -> float:
    """Max-entry gap between grid-averaged and continuum rotation 2-moments.

    Compares (1/|grid|) sum_theta (R(theta) (x) R(-theta))^{(x)2} with the
    analytic uniform-angle integral; the quarter-turn grid should match to
    machine precision, coarser grids should not.
    """
    support, loc = _axis_local(axis)
    if len(support) > 2:
        raise ValueError("check supports axes on at most 2 qubits")
    d = 2 ** len(support)
    eye = np.eye(d)

    def q_of(theta):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        r_plus = c * eye - 1j * s * loc
        r_minus = c * eye + 1j * s * loc
        return np.kron(r_plus, r_minus)

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

