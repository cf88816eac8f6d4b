"""Reference walks the batched walker is tested against.

Both walk the full, unfused backward program (``engine._program``) one
PauliString at a time, with none of the walker's lane planes, light cones or
layers:

- :func:`backprop_term` walks one sampled Pauli path.  It draws each branch
  from the uniform the walker keys by (seed, stream id, noise-site ordinal),
  so a batched lane reproduces it bit for bit.
- :func:`exact_term` sums every Pauli path, depth first.  At a channel that
  is not diagonal it follows each non-zero entry of the word's PTM column in
  row order, with the raw entry as its factor, and it adds the path values
  in that order.

Also here are the pieces only these walks use: the scalar rotation, Clifford
and trace rules on ``SignedPauli``, the adjoint channel draw, a named random
stream, and an angle source that holds its angles as an explicit array; and
the batched walker's terminal closure in complex arithmetic
(:func:`complex_terminal_values`), which its real one must match.
"""

import functools
from dataclasses import dataclass

import numpy as np

from pqcdiag import engine
from pqcdiag.paulis import (PauliString, SignedPauli, clifford_table,
                            commutes, mask_to_words, multiply, popcount_words)
from pqcdiag.rng import DOMAIN_TAU, hash_words

_popcount = int.bit_count


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def uniforms(seed: int, domain: int, stream, slot) -> np.ndarray:
    """Uniform [0,1) draws, one per broadcast element of (stream, slot):
    the top 53 bits of the keyed hash, times 2^-53."""
    h = hash_words(seed, domain, stream, slot) >> np.uint64(11)
    return h.astype(np.float64) * 2.0 ** -53


@dataclass
class RngStream:
    """A named random stream: (seed, stream_id) fully determine all draws.

    ``uniform_at(slot)`` is pure (the engine's slot is the noise-site
    ordinal), so scalar and vectorized walks draw bit-identical histories.
    """

    seed: int
    stream_id: int

    def uniform_at(self, slot: int) -> float:
        return float(uniforms(self.seed, DOMAIN_TAU, self.stream_id, slot))


# ---------------------------------------------------------------------------
# scalar Pauli rules
# ---------------------------------------------------------------------------

def real_sign(p: SignedPauli) -> int:
    """+1 or -1 for the phase of ``p``; raises if the phase is imaginary."""
    if p.phase_q & 1:
        raise ValueError(f"imaginary phase i^{p.phase_q} where a real sign "
                         "is required")
    return 1 if p.phase_q == 0 else -1


def backprop_rotation(axis: PauliString, k: int, p: SignedPauli,
                      direction: str = "backward") -> SignedPauli:
    """Conjugate ``p`` through exp(-i theta/2 * axis) at theta = k*pi/2.

    ``backward`` gives R^dag p R (observable pulled toward the input),
    ``forward`` gives R p R^dag.  On the quarter-turn grid exactly one Pauli
    word survives:

        commuting axis      -> p unchanged (any k)
        anticommuting, k=0  -> p
        anticommuting, k=2  -> -p
        anticommuting, k=1  -> +/- i * axis * p   (sign set by direction)
        anticommuting, k=3  -> the other one
    """
    if k not in (0, 1, 2, 3):
        raise ValueError("grid angle index must be in {0,1,2,3}")
    if commutes(axis, p.pauli):
        return p
    if k == 0:
        return p
    if k == 2:
        return SignedPauli(p.pauli, (p.phase_q + 2) % 4)
    # R^dag p R = cos(theta) p + i sin(theta) (axis p); forward flips the sign
    # of the sin term.
    prod = multiply(axis, p.pauli)
    q = (prod.phase_q + p.phase_q + k) % 4
    if direction == "forward":
        q = (q + 2) % 4
    elif direction != "backward":
        raise ValueError(f"unknown direction {direction!r}")
    return SignedPauli(prod.pauli, q)


def conjugate_clifford(kind: str, qubits: tuple, p: SignedPauli,
                       direction: str = "backward") -> SignedPauli:
    """Conjugate ``p`` through a named Clifford gate on ``qubits``.

    Default direction is backward (C^dag p C), matching observable
    back-propagation; pass ``direction="forward"`` for C p C^dag.
    """
    out_idx, out_sign = clifford_table(kind, direction)
    m = len(qubits)
    if 4 ** m != out_idx.size:
        raise ValueError(f"{kind!r} acts on {'1' if out_idx.size == 4 else '2'}"
                         f" qubit(s), got {m}")
    if len(set(qubits)) != m:
        raise ValueError("repeated qubit")
    idx = p.pauli.local_index(qubits)
    return SignedPauli(p.pauli.with_local(qubits, int(out_idx[idx])),
                       p.phase_q if out_sign[idx] == 1
                       else (p.phase_q + 2) % 4)


def trace_pauli_with_entries(p: PauliString, entries) -> float:
    """tr(P rho) for rho given as an iterable of (row, col, amplitude).

    Uses <a|X^x Z^z|b> = delta_{a, b xor x} (-1)^{z.b}; the result of a trace
    against a Hermitian operator must be real, which is asserted.
    """
    x, z = p.x_bits, p.z_bits
    iq = 1j ** (_popcount(x & z) % 4)
    acc = 0j
    for row, col, amp in entries:
        # P_{col,row} * rho_{row,col}
        if col == row ^ x:
            sign = -1.0 if _popcount(z & row) & 1 else 1.0
            acc += iq * sign * amp
    if abs(acc.imag) > 1e-9 * max(1.0, abs(acc.real)):
        raise ValueError(f"trace came out complex ({acc}); state not "
                         "Hermitian?")
    return float(acc.real)


def complex_terminal_values(x, z, w, state) -> np.ndarray:
    """w * tr(P rho) per lane of (B, W) walk words against a sparse state,
    in complex arithmetic: a complex accumulator of (-1)^|z & r| amp over
    the matching entries, times i^e from ``[1, 1j, -1, -1j]``, e the
    lane's count of x & z bits mod 4.  ``engine._terminal_values`` forms
    the real part of that product in real arithmetic, bit for bit."""
    b, width = x.shape
    e = (popcount_words(x & z) & 3).astype(np.intp)
    acc = np.zeros(b, dtype=np.complex128)
    for r, c, amp in state.entries:
        t = mask_to_words(r ^ c, 64 * width)[None, :width]
        match = np.flatnonzero(np.all(x == t, axis=1))
        rz = mask_to_words(r, 64 * width)[None, :width]
        sign = 1.0 - 2.0 * (popcount_words(z[match] & rz) & 1)
        acc[match] += sign * amp
    acc *= np.array([1.0, 1.0j, -1.0, -1.0j])[e]
    scale = max(1.0, float(np.abs(acc.real).max(initial=0.0)))
    if float(np.abs(acc.imag).max(initial=0.0)) > 1e-9 * scale:
        raise AssertionError("complex trace against a Hermitian state")
    return w * acc.real


# ---------------------------------------------------------------------------
# channel draws
# ---------------------------------------------------------------------------

@dataclass
class AdjointSample:
    """One inner-layer draw: predecessor word and its importance weight."""

    tau: int
    weight: float


@functools.lru_cache(maxsize=None)
def _columns(ptm: bytes) -> "engine._BranchTables":
    """The column tables of a PTM, given as its float64 bytes, built once."""
    flat = np.frombuffer(ptm, dtype=np.float64)
    d = round(flat.size ** 0.5)
    return engine._BranchTables(flat.reshape(d, d))


def adjoint_sample(channel, s_local: int, u: float) -> AdjointSample:
    """Draw a predecessor word from PTM column ``s_local`` by uniform ``u``.

    tau comes out with probability |S[tau, s]| / column-l1 and carries weight
    sign(S[tau, s]) * column-l1, so the expected signed contribution equals
    the exact column action.  An all-zero column yields a terminal sample of
    weight 0.
    """
    tables = _columns(channel.ptm.tobytes())
    l1 = tables.l1[s_local]
    if l1 <= 0.0:
        return AdjointSample(0, 0.0)
    j = int(np.searchsorted(tables.cdf[s_local], u, side="right"))
    j = min(j, tables.cdf.shape[1] - 1)
    return AdjointSample(int(tables.tau[s_local, j]),
                         float(tables.sign[s_local, j] * l1))


# ---------------------------------------------------------------------------
# angle source
# ---------------------------------------------------------------------------

class MaterializedTheta:
    """Per-lane grid angles held as an explicit (B, N_g) uint8 array, as a
    theta source of the batched walker (``k_for``, ``len``)."""

    def __init__(self, values: np.ndarray):
        self.values = np.ascontiguousarray(values, dtype=np.uint8)

    def k_for(self, params) -> np.ndarray:
        k = self.values[:, params].T
        return engine._pack(np.stack((k & 1, k >> 1), axis=1))

    def __len__(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

@dataclass
class PathSample:
    """One sampled Pauli path: its signed contribution, whether it died on a
    zero-weight branch, and (optionally) the visited signed words."""

    value: float
    terminal: bool
    trace: "list | None" = None


def _gate(step, theta, sp: SignedPauli) -> SignedPauli:
    """A rotation or Clifford step of the backward program on ``sp``."""
    if isinstance(step, engine._RotStep):
        k = step.fixed_k if step.param is None \
            else int(theta.values[step.param])
        return backprop_rotation(step.axis, k, sp, "backward")
    return conjugate_clifford(step.kind, step.qubits, sp, "backward")


def _close(sp: SignedPauli, w: float, state) -> float:
    """A finished path's value: weight x sign x tr(P rho)."""
    return w * real_sign(sp) * trace_pauli_with_entries(sp.pauli,
                                                        state.entries)


def backprop_term(circuit, theta, term: PauliString, state,
                  stream: RngStream, collect_trace: bool = False,
                  ) -> PathSample:
    """Back-propagate a single observable word and close it against rho.

    One sampled path, walked over the full backward program on
    PauliStrings.  Returns the signed path value c-free (multiply by the term
    coefficient outside): weight x sign x tr(P_final rho).  The walk
    draws one uniform per noise site that is not diagonal, keyed by the
    site's ordinal; a zero diagonal entry is an empty column, where the walk
    dies on the identity word as it does at any other.
    """
    circuit.check_theta(theta)
    sp = SignedPauli(term, 0)
    w = 1.0
    trace = [sp] if collect_trace else None
    for step in engine._program(circuit, "backward"):
        if not isinstance(step, engine._ChanStep):
            sp = _gate(step, theta, sp)
        else:
            ch = step.channel
            idx = sp.pauli.local_index(ch.support)
            if ch.diagonal and ch.ptm[idx, idx]:
                w *= float(ch.ptm[idx, idx])
            else:  # an empty column ends the walk on the identity word
                smp = adjoint_sample(ch, idx, stream.uniform_at(step.ordinal))
                w *= smp.weight
                sp = SignedPauli(sp.pauli.with_local(ch.support, smp.tau),
                                 sp.phase_q)
        if collect_trace:
            trace.append(sp)
        if w == 0.0:
            return PathSample(0.0, True, trace)
    return PathSample(_close(sp, w, state), False, trace)


def _path_values(prog: list, start: int, theta, sp: SignedPauli, w: float,
                 state):
    """The values of every path from step ``start`` of ``prog`` on, depth
    first: at a channel that is not diagonal, one branch per non-zero entry
    of the word's column, in row order, weighted by the raw entry."""
    for i in range(start, len(prog)):
        step = prog[i]
        if not isinstance(step, engine._ChanStep):
            sp = _gate(step, theta, sp)
            continue
        ch = step.channel
        col = sp.pauli.local_index(ch.support)
        if ch.diagonal:
            w *= float(ch.ptm[col, col])
            continue
        for tau in np.flatnonzero(ch.ptm[:, col]).tolist():
            moved = SignedPauli(sp.pauli.with_local(ch.support, tau),
                                sp.phase_q)
            yield from _path_values(prog, i + 1, theta, moved,
                                    w * float(ch.ptm[tau, col]), state)
        return
    yield _close(sp, w, state)


def exact_term(circuit, theta, term: PauliString, state) -> float:
    """tr(term C(rho)) at the grid angles ``theta``: every Pauli path's
    value, added one after the other in depth-first order (c-free, like
    :func:`backprop_term`)."""
    circuit.check_theta(theta)
    total = 0.0
    for value in _path_values(engine._program(circuit, "backward"), 0, theta,
                              SignedPauli(term, 0), 1.0, state):
        total += value
    return total
