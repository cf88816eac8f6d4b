"""Pauli-path walker: observable back-propagation with channel sampling.

An expectation tr(O C(rho)) unrolls into a sum over Pauli paths: pull each
observable word backward through the circuit (rotations and Cliffords map one
word to one signed word on the quarter-turn angle grid; each noise channel
fans out into its PTM-column entries) and close the surviving word against
the initial state.  One engine computes that sum: the batched walker
(`run_backward_batch` / `run_forward_batch`) drives thousands of independent
walks, one sampled path per lane or, in exact mode, every branch as its own
lane.  The estimators and the per-theta functions (`estimate_expectation`,
`enumerate_expectation_exact`) all call it.  `backprop_term` is a one-path
scalar walk on PauliStrings, kept only as the reference the batched walker
is tested against bit for bit.

The walk state is bit-sliced (the Pauli-frame layout of Gidney's Stim,
arXiv:2103.02202): each qubit has one row of x bits and one of z bits, and a
sign row holds the rotations' sign flips; every row is a uint64 lane plane,
bit i % 64 of word i // 64 belonging to lane i, with the padding bits of the
last word always 0.  A grid rotation is then a few AND/XOR operations over
B/64 words.  Clifford and channel steps unpack only their support rows to
per-lane codes, look those up in their tables and pack the rows back.  The
sign row is folded into the float weights once, at the end of the walk;
negation is exact, so that is bit-identical to negating along the way.
Callers see lane-major words, a (B, W) uint64 array per x and z with bit
q % 64 of word q // 64 belonging to qubit q: walks convert at entry and
exit only.

Randomness is counter-based: the uniform that decides a channel's branch is
a pure function of (seed, walk stream id, noise-site ordinal), so a walk's
trajectory does not depend on batching or worker count, and the reference
walk reproduces a batched lane draw for draw.

Channels with diagonal PTMs never branch: their column action is a
deterministic factor, applied without consuming randomness.  A PTM column
that is entirely zero kills the walk (weight 0, "terminal").

A batched backward walk runs only the steps inside the conservative light
cone of its input words: walking backward from the qubits those words act
on, a step is kept when it touches a live qubit, and its qubits become live.
This is exact.  A rotation or Clifford meets the identity on every qubit
outside the live set and maps it to itself with sign +1; a channel whose
identity column is e_I multiplies by exactly 1.0 and leaves the word alone;
and since a branch uniform is keyed by its site's ordinal, skipping a site
moves no other site's draw.  Channels whose identity column is not e_I (a
non-trace-preserving raw PTM) are always kept and widen the cone.  Forward
walks run the full program: there the identity *row* matters, and it
branches under amplitude damping.  The reference walk always runs the full
program; it is what the cone is checked against.  A batch walks the joint
cone of all of its lanes' words, so callers that walk several words put them
in one batch only when that joint cone is barely longer than each word's own
(`cone_runs`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channels import adjoint_sample
from .circuits import Circuit, FixedAngle, Rotation, ThetaAssignment
from .paulis import (CODE_TO_X, CODE_TO_Z, XZ_TO_CODE, PauliString,
                     SignedPauli, backprop_rotation, clifford_table,
                     conjugate_clifford, mask_to_words, n_words,
                     phase_exponent, popcount_words, trace_pauli_with_entries)
from .reports import EstimateReport
from .rng import (DOMAIN_TAU, RngStream, angles_from_keys, compose_stream,
                  compose_stream_array, hash_words, theta_keys,
                  uniform_from_hash)

_LANE = np.dtype("<u8")  # one word of a lane plane: bit i % 64 is lane i
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_NONE = np.uint64(0)
_TILE_BITS = 1 << 20  # unpacked bits (bytes) in one tile of _transpose

# per-site phase/anticommutation tables: entry [a, b] looks at axis code a
# against walk-word code b on one qubit
_QTAB = np.zeros((4, 4), dtype=np.int64)
_ATAB = np.zeros((4, 4), dtype=np.int64)
for _a in range(4):
    for _b in range(4):
        _xa, _za = (0, 1, 1, 0)[_a], (0, 0, 1, 1)[_a]
        _xb, _zb = (0, 1, 1, 0)[_b], (0, 0, 1, 1)[_b]
        _QTAB[_a, _b] = phase_exponent(_xa, _za, _xb, _zb)
        _ATAB[_a, _b] = (_xa & _zb) ^ (_za & _xb)


def _xor_form(by_code) -> tuple:
    """A one-qubit table (indexed by the walk word's code there) as a XOR of
    the word's x, z and x & z bits: the three coefficients.  Every table
    here scores the identity word 0, so no constant term (which would set
    the padding bits of a lane plane) is needed."""
    f = {(xb, zb): int(by_code[XZ_TO_CODE[xb + 2 * zb]])
         for xb in (0, 1) for zb in (0, 1)}
    assert f[0, 0] == 0
    return f[1, 0], f[0, 1], f[1, 1] ^ f[1, 0] ^ f[0, 1]


#: [axis code] -> XOR forms of a rotation site's anticommutation bit and of
#: bits 0 and 1 of its phase exponent
_SITE_FORMS = [(_xor_form(_ATAB[a]), _xor_form(_QTAB[a] & 1),
                _xor_form(_QTAB[a] >> 1)) for a in range(4)]

_I_POWS = np.array([1.0, 1.0j, -1.0, -1.0j])
_CODE_BITS = np.array([CODE_TO_X, CODE_TO_Z], dtype=np.uint8)


def _row_tables(m: int) -> tuple:
    """Local word indices on m qubits against their 2m plane-row bits (the
    x rows, then the z rows): (row-bit index -> local index, (2m, 4^m) row
    bits of each local index)."""
    local = np.arange(4 ** m)
    codes = (local >> (2 * np.arange(m)[:, None])) & 3
    bits = _CODE_BITS[:, codes].reshape(2 * m, -1)
    to_local = np.empty(4 ** m, dtype=np.intp)
    to_local[(1 << np.arange(2 * m)) @ bits] = local
    return to_local, bits


#: [m] -> _row_tables(m), for the 1..3 qubits a Clifford or channel acts on
_ROW_TABLES = {m: _row_tables(m) for m in (1, 2, 3)}


# ---------------------------------------------------------------------------
# compiled walk programs
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _RotStep:
    axis: PauliString
    param: "int | None"
    fixed_k: int
    sites: list  # [(qubit, axis_code), ...] where the axis is not I
    mask: int  # qubits acted on, as a bit mask
    pinned = False  # never dropped from a light cone


@dataclass(eq=False)
class _CliffStep:
    kind: str
    qubits: tuple
    out_idx: np.ndarray
    sign: np.ndarray
    rows: list  # plane rows: the qubits' x rows, then their z rows
    mask: int
    pinned = False


@dataclass(eq=False)
class _ChanStep:
    ordinal: int  # global noise-site index, doubles as the RNG slot
    channel: object
    rows: list
    mask: int
    pinned: bool  # does not map the identity word to itself with weight 1


def _rot_sites(axis: PauliString) -> list:
    mask = axis.x_bits | axis.z_bits
    return [(q, axis.code_at(q)) for q in range(mask.bit_length())
            if mask >> q & 1]


def _plane_rows(qubits, n: int) -> list:
    return list(qubits) + [n + q for q in qubits]


def _qubit_mask(qubits) -> int:
    return sum(1 << q for q in qubits)


def _fixes_identity(channel, direction: str) -> bool:
    """True when walking ``direction`` maps the identity word to itself with
    weight exactly 1: the PTM's identity column (backward) or row (forward)
    is e_I.  Trace-preserving channels pass backward; a non-trace-preserving
    raw PTM does not, and neither does amplitude damping forward."""
    line = channel.ptm[:, 0] if direction == "backward" else channel.ptm[0]
    return line[0] == 1.0 and not np.any(line[1:])


def _compile(circuit: Circuit, direction: str) -> list:
    sites_at: dict[int, list] = {}
    for ordinal, s in enumerate(circuit.noise_sites):
        sites_at.setdefault(s.position, []).append((ordinal, s))

    def op_step(op):
        if isinstance(op, Rotation):
            fixed = op.param.k if isinstance(op.param, FixedAngle) else 0
            param = None if isinstance(op.param, FixedAngle) else op.param
            return _RotStep(op.axis, param, fixed, _rot_sites(op.axis),
                            op.axis.x_bits | op.axis.z_bits)
        out_idx, sign = clifford_table(op.kind, direction)
        return _CliffStep(op.kind, op.qubits, out_idx,
                          sign.astype(np.float64),
                          _plane_rows(op.qubits, circuit.n),
                          _qubit_mask(op.qubits))

    def chan_step(ordinal, site):
        ch = site.channel
        return _ChanStep(ordinal, ch, _plane_rows(ch.support, circuit.n),
                         _qubit_mask(ch.support),
                         not _fixes_identity(ch, direction))

    prog: list = []
    if direction == "backward":
        for p in range(len(circuit.ops) - 1, -1, -1):
            for ordinal, s in reversed(sites_at.get(p, ())):
                prog.append(chan_step(ordinal, s))
            prog.append(op_step(circuit.ops[p]))
    elif direction == "forward":
        for p, op in enumerate(circuit.ops):
            prog.append(op_step(op))
            for ordinal, s in sites_at.get(p, ()):
                prog.append(chan_step(ordinal, s))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return prog


def _light_cone(prog: list, live: int) -> list:
    """The steps of a backward program inside the conservative light cone
    of words supported on the qubit mask ``live``.

    Walking backward, a step touching a live qubit is kept and makes all of
    its qubits live; a step touching none of them meets the identity there
    and is dropped, unless it is pinned (its identity word does not map to
    itself), in which case it is kept and its qubits become live too.
    """
    kept = []
    for step in prog:
        if step.pinned or step.mask & live:
            kept.append(step)
            live |= step.mask
    return kept


def _program(circuit: Circuit, direction: str, support: "int | None" = None
             ) -> list:
    """The compiled walk program; for a backward walk with a ``support``
    mask, only the steps inside that support's light cone.  Both are cached
    on the circuit, the cone by (direction, support); a cone that keeps
    every step is the full program itself."""
    cache = circuit.__dict__.setdefault("_walk_programs", {})
    if direction not in cache:
        cache[direction] = _compile(circuit, direction)
    full = cache[direction]
    if support is None or direction != "backward":
        return full
    key = (direction, support)
    if key not in cache:
        cone = _light_cone(full, support)
        cache[key] = full if len(cone) == len(full) else cone
    return cache[key]


def _support_mask(x, z) -> int:
    """Qubits on which any lane's word acts, as a bit mask."""
    words = np.bitwise_or.reduce(x | z, axis=0)
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def cone_runs(circuit: Circuit, words, limit: int) -> list:
    """Split the PauliStrings ``words`` into runs of consecutive indices, at
    most ``limit`` long, each to be walked backward in one batch.

    A batch walks the light cone of its lanes' joint support, so a word
    joins the current run only while that joint cone stays within 1/16 of
    the shortest cone of the run's own words.  Words that share nearly all
    of their cone (the terms of a local observable) then share one walk and
    one draw of every angle, and words spread over a large register are
    walked apart, each in its own cone.
    """
    runs, mask, shortest = [], 0, 0
    for i, w in enumerate(words):
        own = w.x_bits | w.z_bits
        steps = len(_program(circuit, "backward", own))
        if runs and len(runs[-1]) < limit:
            joint = len(_program(circuit, "backward", mask | own))
            if 16 * joint <= 17 * min(shortest, steps):
                runs[-1].append(i)
                mask, shortest = mask | own, min(shortest, steps)
                continue
        runs.append([i])
        mask, shortest = own, steps
    return runs


def cone_params(circuit: Circuit, words) -> set:
    """Parameters that drive a rotation inside the backward light cone of
    at least one of the PauliStrings ``words``.  The expectation of such a
    word cannot depend on any other parameter."""
    out = set()
    for w in words:
        for step in _program(circuit, "backward", w.x_bits | w.z_bits):
            if isinstance(step, _RotStep) and step.param is not None:
                out.add(step.param)
    return out


# ---------------------------------------------------------------------------
# scalar reference walk
# ---------------------------------------------------------------------------

@dataclass
class PathSample:
    """One sampled Pauli path: its signed contribution, whether it died on a
    zero-weight branch, and (optionally) the visited signed words."""

    value: float
    terminal: bool
    trace: "list | None" = None


def _replace_local(p: PauliString, support, local_idx: int) -> PauliString:
    x, z = p.x_bits, p.z_bits
    for i, q in enumerate(support):
        c = (local_idx >> (2 * i)) & 3
        x = (x & ~(1 << q)) | (((c == 1) | (c == 2)) << q)
        z = (z & ~(1 << q)) | (((c == 2) | (c == 3)) << q)
    return PauliString(p.n, x, z)


def _local_index(p: PauliString, support) -> int:
    idx = 0
    for i, q in enumerate(support):
        idx |= p.code_at(q) << (2 * i)
    return idx


def backprop_term(circuit: Circuit, theta: ThetaAssignment, term: PauliString,
                  state, stream: RngStream, collect_trace: bool = False,
                  ) -> PathSample:
    """Back-propagate a single observable word and close it against rho.

    The test reference for the batched walker: one sampled path, walked over
    the full backward program on PauliStrings.  Returns the signed path
    value c-free (multiply by the term coefficient outside): weight x sign x
    tr(P_final rho).  The walk consumes one uniform per non-diagonal noise
    site, keyed by the site's ordinal.
    """
    circuit.check_theta(theta)
    sp = SignedPauli(term, 0)
    w = 1.0
    trace = [sp] if collect_trace else None
    for step in _program(circuit, "backward"):
        if isinstance(step, _RotStep):
            k = step.fixed_k if step.param is None \
                else int(theta.values[step.param])
            sp = backprop_rotation(step.axis, k, sp, "backward")
        elif isinstance(step, _CliffStep):
            sp = conjugate_clifford(step.kind, step.qubits, sp, "backward")
        else:
            ch = step.channel
            idx = _local_index(sp.pauli, ch.support)
            if ch.diagonal:
                w *= float(ch.ptm[idx, idx])
            else:
                smp = adjoint_sample(ch, idx, RngStream(
                    stream.seed, stream.stream_id, counter=step.ordinal))
                w *= smp.weight
                if w != 0.0:
                    sp = SignedPauli(_replace_local(sp.pauli, ch.support,
                                                    smp.tau), sp.phase_q)
        if collect_trace:
            trace.append(sp)
        if w == 0.0:
            return PathSample(0.0, True, trace)
    value = w * sp.real_sign() * trace_pauli_with_entries(sp.pauli,
                                                          state.entries)
    return PathSample(value, False, trace)


# ---------------------------------------------------------------------------
# per-theta expectations on the batched walker
# ---------------------------------------------------------------------------

def estimate_expectation(circuit: Circuit, obs, state, theta: ThetaAssignment,
                         *, n_tau: int = 1, seed: int = 0,
                         outer_index: int = 0) -> EstimateReport:
    """Monte-Carlo estimate of <O> at one theta (exact when nothing branches).

    Each observable term gets its own independent inner draws: one batched
    walk with a lane per (draw, term), its stream keyed by
    ``compose_stream(outer_index, draw, term)`` (ValueError when any index
    is out of that packing's range).  When every noise channel is diagonal
    the walk is deterministic, so a single pass is the exact value,
    ``n_tau`` is forced to 1 and the stderr is 0.
    """
    t0 = time.perf_counter()
    circuit.check_theta(theta)
    stochastic = circuit.branching()
    n_eff = max(1, int(n_tau)) if stochastic else 1
    n_terms = len(obs.terms)
    draws = np.full(n_eff, obs.identity_offset, dtype=np.float64)
    if n_terms:
        compose_stream(outer_index, n_eff - 1, n_terms - 1)  # bounds check
        x0, z0 = words_for_paulis([w for _, w in obs.terms], circuit.n)
        streams = compose_stream_array(
            outer_index, np.arange(n_eff)[:, None], np.arange(n_terms))
        vals = run_backward_batch(
            circuit, state, np.tile(x0, (n_eff, 1)), np.tile(z0, (n_eff, 1)),
            _SharedTheta(theta), seed=seed, stream_ids=streams.ravel())
        for h, (coeff, _) in enumerate(obs.terms):
            draws += coeff * vals[h::n_terms]
    mean = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    return EstimateReport(
        quantity="expectation", mean=mean, stderr=stderr, n_theta=1,
        n_tau=n_eff, n_sigma=0, seed=seed,
        wall_time_s=time.perf_counter() - t0,
        config={"outer_index": outer_index})


def exact_branch_estimate(circuit: Circuit) -> int:
    """Upper bound on the number of paths one word can fan out into."""
    est = 1
    for s in circuit.noise_sites:
        if not s.channel.diagonal:
            est *= int(s.channel.cols.count.max())
            if est > 10 ** 18:
                break
    return est


def enumerate_expectation_exact(circuit: Circuit, obs, state,
                                theta: ThetaAssignment, *,
                                branch_cap: int = 200_000) -> float:
    """Exact <O> at one theta: every channel branch of every term walked.

    Refuses upfront (RuntimeError) if the worst-case branch count per
    observable term exceeds ``branch_cap``.  Terms are walked one at a time,
    so no walk holds more than ``branch_cap`` lanes.
    """
    circuit.check_theta(theta)
    est = exact_branch_estimate(circuit)
    if est > branch_cap:
        raise RuntimeError(
            f"exact enumeration would visit up to {est} paths per term "
            f"(cap {branch_cap}); use the sampling estimator instead")
    total = obs.identity_offset
    for coeff, word in obs.terms:
        x0, z0 = words_for_paulis([word], circuit.n)
        vals = run_backward_batch(circuit, state, x0, z0, _SharedTheta(theta),
                                  exact=True, lane_cap=branch_cap)
        total += coeff * float(vals[0])
    return float(total)


# ---------------------------------------------------------------------------
# theta sources for the batched walker
# ---------------------------------------------------------------------------

class _SharedTheta:
    """One grid-angle assignment shared by every lane, branch copies too."""

    def __init__(self, theta: ThetaAssignment):
        self.values = theta.values

    def k_for(self, param: int) -> int:
        return int(self.values[param])

    def take(self, idx: np.ndarray) -> "_SharedTheta":
        return self


class MaterializedTheta:
    """Per-lane grid angles held as an explicit (B, N_g) uint8 array."""

    def __init__(self, values: np.ndarray):
        self.values = np.ascontiguousarray(values, dtype=np.uint8)

    def k_for(self, param: int) -> np.ndarray:
        return self.values[:, param]

    def take(self, idx: np.ndarray) -> "MaterializedTheta":
        return MaterializedTheta(self.values[idx])

    def __len__(self) -> int:
        return self.values.shape[0]


class HashedTheta:
    """Lazy i.i.d. grid angles: k(lane, param) = hash(seed, uid, param) & 3.

    Regenerating angles on demand keeps memory flat for huge parameter
    counts; the same (seed, uid) always yields the same assignment, so outer
    samples are reproducible without storing them.  The uid part of the
    hash is computed once, here (``rng.theta_keys``), which leaves one mix
    per parameter and lane.  ``shift_param``/``delta`` implement the
    quarter-turn parameter shift per lane (-1 = no shift).
    """

    def __init__(self, seed: int, uids: np.ndarray,
                 shift_param: "np.ndarray | None" = None,
                 shift_delta: "np.ndarray | None" = None):
        self.seed = seed
        self.uids = np.ascontiguousarray(uids, dtype=np.uint64)
        self.keys = theta_keys(seed, self.uids)
        self.shift_param = None if shift_param is None else \
            np.ascontiguousarray(shift_param, dtype=np.int64)
        self.shift_delta = None if shift_delta is None else \
            np.ascontiguousarray(shift_delta, dtype=np.int64)

    def k_for(self, param: int) -> np.ndarray:
        k = angles_from_keys(self.keys, param)
        if self.shift_param is not None:
            k = ((k + np.where(self.shift_param == param,
                               self.shift_delta, 0)) % 4).astype(np.uint8)
        return k

    def take(self, idx: np.ndarray) -> "HashedTheta":
        return HashedTheta(
            self.seed, self.uids[idx],
            None if self.shift_param is None else self.shift_param[idx],
            None if self.shift_delta is None else self.shift_delta[idx])

    def __len__(self) -> int:
        return self.uids.shape[0]


class TiledTheta:
    """``reps`` copies of a theta source's lanes, one after the other: the
    angles of a walk that puts several words on each lane's assignment.
    Each parameter's angles are drawn once and tiled."""

    def __init__(self, theta, reps: int):
        self.theta = theta
        self.reps = reps

    def k_for(self, param: int) -> np.ndarray:
        return np.tile(self.theta.k_for(param), self.reps)


def codes_to_words(codes: np.ndarray):
    """(B, n) per-qubit codes -> ((B, W) x-words, (B, W) z-words)."""
    bits = _CODE_BITS[:, np.asarray(codes, dtype=np.intp)]
    return _pack(bits[0]), _pack(bits[1])


def words_for_paulis(paulis, n: int):
    """Stack PauliStrings into ((T, W), (T, W)) word arrays."""
    x = np.stack([mask_to_words(p.x_bits, n) for p in paulis])
    z = np.stack([mask_to_words(p.z_bits, n) for p in paulis])
    return x, z


# ---------------------------------------------------------------------------
# batched walker
# ---------------------------------------------------------------------------

def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., B) 0/1 values -> (..., ceil(B/64)) uint64 words, bit i % 64 of
    word i // 64 holding value i; the padding bits of the last word are 0."""
    *lead, b = bits.shape
    n_bytes, n_words_ = (b + 7) // 8, (b + 63) // 64
    if b % 8:
        bits = np.concatenate(
            (bits, np.zeros((*lead, 8 * n_bytes - b), dtype=np.uint8)), -1)
    packed = np.packbits(np.ascontiguousarray(bits), axis=None,
                         bitorder="little").reshape(*lead, n_bytes)
    if n_bytes % 8:
        out = np.zeros((*lead, 8 * n_words_), dtype=np.uint8)
        out[..., :n_bytes] = packed
        packed = out
    return packed.view(_LANE)


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`_pack`: the first ``count`` bits of each row of
    unsigned words, as (..., count) uint8."""
    words = np.ascontiguousarray(words)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count,
                         bitorder="little")


def _transpose(words: np.ndarray, count: int) -> np.ndarray:
    """Bit-matrix transpose: (R, C) words holding ``count`` bits a row ->
    (count, ceil(R/64)) words.  Lane-major walk words (a row per lane, a bit
    per qubit) become per-qubit lane planes (a row per qubit, a bit per
    lane), and back.  Done in tiles of at most ``_TILE_BITS`` bits, so the
    unpacked temporaries stay small however many lanes a walk holds."""
    rows = words.shape[0]
    out = np.empty((count, (rows + 63) // 64), dtype=_LANE)
    tc = max(64, min(count, _TILE_BITS // max(1, rows)) // 64 * 64)
    tr = max(64, _TILE_BITS // tc // 64 * 64)
    for r in range(0, rows, tr):
        for c in range(0, count, tc):
            bits = _unpack(words[r:r + tr, c // 64:(c + tc) // 64],
                           min(tc, count - c))
            out[c:c + tc, r // 64:(r + tr) // 64] = _pack(
                np.ascontiguousarray(bits.T))
    return out


def _take_lanes(planes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Planes whose lane i is lane ``idx[i]`` of ``planes``, gathered a row
    at a time from the packed words; rows with no bit set stay zero."""
    word, shift = idx >> 6, (idx & 63).astype(_LANE)
    out = np.zeros((planes.shape[0], (idx.size + 63) // 64), dtype=_LANE)
    for r in np.flatnonzero(planes.any(axis=1)):
        out[r] = _pack(((planes[r, word] >> shift) & np.uint64(1))
                       .astype(np.uint8))
    return out


def _local_codes(planes: np.ndarray, rows: list, b: int) -> np.ndarray:
    """Local word index per lane on a step's qubits (first qubit lowest),
    from their x and z plane rows."""
    bits = _unpack(planes[rows], b).astype(np.intp)
    index = bits[0]
    for r in range(1, len(rows)):
        index |= bits[r] << r
    return _ROW_TABLES[len(rows) // 2][0][index]


def _set_codes(planes: np.ndarray, rows: list, idx: np.ndarray) -> None:
    """Write per-lane local word indices back into the step's plane rows."""
    planes[rows] = _pack(_ROW_TABLES[len(rows) // 2][1][:, idx])


def _rotate(planes: np.ndarray, n: int, step: _RotStep, k, b: int,
            backward: bool) -> None:
    """Grid rotation on all lanes, as AND/XOR over lane planes.

    ``k`` is a scalar or (B,) angle indices.  A lane whose word anticommutes
    with the axis takes k; its 2-bit phase exponent q (summed per site from
    _QTAB) plus k plus the direction's offset must stay even when k is odd,
    then k odd flips the word by the axis, and k == 2 or an odd k with phase
    2 negates the lane's sign.
    """
    if np.ndim(k):
        bits = np.empty((2, b), dtype=np.uint8)
        np.bitwise_and(k, 1, out=bits[0], casting="unsafe")
        np.bitwise_and(k, 2, out=bits[1], casting="unsafe")
        k0, k1 = _pack(bits)
    else:
        k0, k1 = (_ALL if k & 1 else _NONE), (_ALL if k & 2 else _NONE)
    anti = q0 = q1 = None
    for q, a in step.sites:
        x, z = planes[q], planes[n + q]
        terms = (x, z, x & z)
        site, v0, v1 = (reduce(np.bitwise_xor,
                               [t for t, c in zip(terms, form) if c])
                        for form in _SITE_FORMS[a])
        if anti is None:
            anti, q0, q1 = site, v0, v1
        else:  # 2-bit add of the site's exponent
            anti = anti ^ site
            q1 = q1 ^ v1 ^ (q0 & v0)
            q0 = q0 ^ v0
    # kk = k where the word anticommutes, else 0; ph = q + kk + offset
    # (mod 4), whose bit 0 is q0 ^ kk0 and whose bit 1 takes the carry
    kk0, kk1 = anti & k0, anti & k1
    if np.any(kk0 & (q0 ^ kk0)):
        raise AssertionError("imaginary phase escaped a grid rotation")
    ph1 = q1 ^ kk1 ^ (q0 & kk0)
    if not backward:  # offset 2
        ph1 = ~ph1
    planes[2 * n] ^= (kk1 & ~kk0) | (kk0 & ph1)
    for q, a in step.sites:
        if a in (1, 2):  # axis has X here
            planes[q] ^= kk0
        if a in (2, 3):  # axis has Z here
            planes[n + q] ^= kk0


def _terminal_values(x, z, w, state) -> np.ndarray:
    """w * tr(P rho) per lane against a sparse state."""
    b, width = x.shape
    e = (popcount_words(x & z) & 3).astype(np.intp)
    acc = np.zeros(b, dtype=np.complex128)
    for r, c, amp in state.entries:
        t = mask_to_words(r ^ c, 64 * width)[None, :width]
        match = np.flatnonzero(np.all(x == t, axis=1))
        rz = mask_to_words(r, 64 * width)[None, :width]
        sign = 1.0 - 2.0 * (popcount_words(z[match] & rz) & 1)
        acc[match] += sign * amp
    acc *= _I_POWS[e]
    scale = max(1.0, float(np.abs(acc.real).max(initial=0.0)))
    if float(np.abs(acc.imag).max(initial=0.0)) > 1e-9 * scale:
        raise AssertionError("complex trace against a Hermitian state")
    return w * acc.real


def _run_batch(circuit: Circuit, direction: str, x0, z0, theta, *,
               seed: int = 0, stream_ids=None, w0=None, exact: bool = False,
               lane_cap: int = 1 << 22, slot_offset: int = 0,
               collect_flags: bool = False):
    """Drive B simultaneous walks; returns (x, z, w, origin, flags).

    In sampled mode ``origin`` is None and lanes map 1:1 to inputs.  In exact
    mode every branching channel splits lanes into all nonzero column (or
    row) entries; ``origin[i]`` maps expanded lane i back to its input lane.

    ``collect_flags`` additionally records, per lane and noise site, whether
    the walking word was non-identity on the channel's support at the moment
    the channel acted (the factor sensitivity analysis differentiates).
    Flags are None unless requested, and are per expanded lane in exact mode.

    The walk state is bit-sliced: ``planes`` holds the x row of every qubit,
    then every z row, then the sign row, each a lane plane (see
    :func:`_transpose`).  Lane-major words exist only at entry and exit.
    """
    n = circuit.n
    x0 = np.asarray(x0, dtype=np.uint64)
    z0 = np.asarray(z0, dtype=np.uint64)
    if x0.shape[1:] != (n_words(n),) or z0.shape != x0.shape:
        raise ValueError(f"walk words must be (lanes, {n_words(n)}) arrays "
                         f"for {n} qubits, got {x0.shape} and {z0.shape}")
    support = _support_mask(x0, z0)
    if support >> n:
        raise ValueError(f"walk words act on qubits beyond the {n}-qubit "
                         "register")
    prog = _program(circuit, direction, support)
    b = x0.shape[0]
    planes = np.concatenate((_transpose(x0, n), _transpose(z0, n),
                             np.zeros((1, (b + 63) // 64), dtype=_LANE)))
    w = np.ones(b) if w0 is None else np.array(w0, dtype=np.float64,
                                               copy=True)
    if not exact:
        if circuit.branching():
            if stream_ids is None:
                raise ValueError("sampled walk through branching channels "
                                 "needs per-lane stream ids")
            stream_ids = np.ascontiguousarray(stream_ids, dtype=np.uint64)
    origin = np.arange(b, dtype=np.int64) if exact else None
    flags = np.zeros((b, len(circuit.noise_sites)), dtype=bool) \
        if collect_flags else None

    for step in prog:
        if isinstance(step, _RotStep):
            k = step.fixed_k if step.param is None else theta.k_for(step.param)
            _rotate(planes, n, step, k, b, direction == "backward")
            continue
        col = _local_codes(planes, step.rows, b)
        if isinstance(step, _CliffStep):
            w *= step.sign[col]
            _set_codes(planes, step.rows, step.out_idx[col])
            continue
        ch = step.channel
        tabs = ch.cols if direction == "backward" else ch.rows
        if flags is not None:
            flags[:, step.ordinal] = col != 0
        if ch.diagonal:
            w *= np.diagonal(ch.ptm)[col]
        elif exact:
            counts = tabs.count[col]
            total = int(counts.sum())
            if total > lane_cap:
                raise RuntimeError(
                    f"branch expansion needs {total} lanes "
                    f"(cap {lane_cap})")
            rep = np.repeat(np.arange(b), counts)
            starts = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) \
                - np.repeat(starts, counts)
            planes = _take_lanes(planes, rep)
            origin = origin[rep]
            if flags is not None:
                flags = flags[rep]
            colr = col[rep]
            w = w[rep] * tabs.val[colr, within]
            theta = theta.take(rep)
            b = total
            _set_codes(planes, step.rows, tabs.tau[colr, within])
        else:
            u = uniform_from_hash(hash_words(
                seed, DOMAIN_TAU, stream_ids,
                np.uint64(slot_offset + step.ordinal)))
            jj = np.minimum((u[:, None] >= tabs.cdf[col]).sum(axis=1),
                            tabs.cdf.shape[1] - 1)
            w *= tabs.sign[col, jj] * tabs.l1[col]
            _set_codes(planes, step.rows, tabs.tau[col, jj])
        if not np.any(w):
            break
    # negation is exact, so folding the sign row in now is bit-identical to
    # negating each lane's weight at the rotation that flipped it
    np.negative(w, out=w, where=_unpack(planes[2 * n], b).astype(bool))
    return (_transpose(planes[:n], b), _transpose(planes[n:2 * n], b), w,
            origin, flags)


def run_backward_batch(circuit: Circuit, state, x0, z0, theta, *,
                       seed: int = 0, stream_ids=None, w0=None,
                       exact: bool = False, lane_cap: int = 1 << 22,
                       slot_offset: int = 0, collect_flags: bool = False):
    """Batched observable back-propagation closed against ``state``.

    Returns one value per input lane: weight x sign x tr(P_final rho),
    branch-exact when ``exact`` (all channel branches summed), otherwise one
    sampled path per lane.  With ``collect_flags`` returns (values, flags)
    where flags[i, s] says walk i met noise site s with a non-identity word
    (sampled mode only: per-branch flags have no single aggregate).
    """
    if collect_flags and exact and circuit.branching():
        raise ValueError("site flags are per path; use sampled walks when "
                         "channels branch")
    x, z, w, origin, flags = _run_batch(
        circuit, "backward", x0, z0, theta, seed=seed, stream_ids=stream_ids,
        w0=w0, exact=exact, lane_cap=lane_cap, slot_offset=slot_offset,
        collect_flags=collect_flags)
    vals = _terminal_values(x, z, w, state)
    if exact:
        vals = np.bincount(origin, weights=vals, minlength=x0.shape[0])
    if collect_flags:
        return vals, flags
    return vals


def run_forward_batch(circuit: Circuit, x0, z0, theta, *, seed: int = 0,
                      stream_ids=None, w0=None, exact: bool = False,
                      lane_cap: int = 1 << 22, slot_offset: int = 0):
    """Batched forward (Heisenberg) push of words through the circuit.

    Returns (x, z, w, origin): the evolved words and weights, to be chained
    into a backward walk (expressibility's two-circuit overlap).
    """
    x, z, w, origin, _ = _run_batch(circuit, "forward", x0, z0, theta,
                                    seed=seed, stream_ids=stream_ids, w0=w0,
                                    exact=exact, lane_cap=lane_cap,
                                    slot_offset=slot_offset)
    return x, z, w, origin
