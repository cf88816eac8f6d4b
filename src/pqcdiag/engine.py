"""Pauli-path walker: observable back-propagation with channel sampling.

An expectation tr(O C(rho)) unrolls into a sum over Pauli paths: pull each
observable word backward through the circuit (rotations and Cliffords map one
word to one signed word on the quarter-turn angle grid; each noise channel
fans out into its PTM-column entries) and close the surviving word against
the initial state.  One engine samples that sum: the batched walker
(`run_backward_batch` / `run_forward_batch`) drives thousands of independent
walks, one sampled path per lane.  Every estimator calls it, and there is no
per-theta entry point: one theta is a batch whose lanes share one angle row,
and `oracle.dense_expectation` gives the exact value at any angles.

The walk state is bit-sliced (the Pauli-frame layout of Gidney's Stim,
arXiv:2103.02202): each qubit has one row of x bits and one of z bits, and a
sign row holds the rotations' and Cliffords' sign flips; every row is a
uint64 lane plane, bit i % 64 of word i // 64 belonging to lane i, with the
padding bits of the last word always 0.  Clifford steps are AND/XOR work on
their support rows: each output x and z row is a XOR of input rows (a
Clifford is linear there), and the sign bit, a XOR of ANDs of those rows
(the table's algebraic normal form), XORs into the sign row.  Every
channel step samples its PTM's columns (its rows, forward) by |entry| /
l1, as 2MC-OBPPP does, and a diagonal PTM is the case where each column
has one entry.  For the lanes at columns with a single entry, the step
computes, from its rows, the bit planes of each lane's class among the
distinct factors of those entries, multiplies each weight by its class's
factor, and XORs in planes of the row bits that entry flips (on a
diagonal, none).  Only the lanes at columns with more than one entry
become indices: their columns are read from the unpacked step rows (or,
when one column branches, as under amplitude damping, are known without
reading them), they draw their branches, and the bits of the words that
moved are scattered back into the rows, as Stim XORs a sampled error into
the frames it hits.  When no channel step of a walk can zero a weight,
and every factor of every step is 1.0 or one value f (uniform
depolarizing or dephasing noise, or backward amplitude damping, whose
branching column carries 1.0 on both of its branches), the walk
multiplies nothing there: each step adds its one class plane (x | z on its
qubits, for depolarizing; x for amplitude damping) into a byte counter per
lane, and at the end each weight is read from the power table of |f| and
signed (`_fold_hits`).  Per-lane codes remain only in site-entry
collection.  Callers see lane-major words, a (B, W) uint64 array per x and
z with bit q % 64 of word q // 64 belonging to qubit q: walks convert at
entry and exit only.  One bit-matrix transpose (`_transpose`, six rounds of
masked swaps on 64x64 blocks) does every such conversion, words to planes
and back; angles need none, since their stream is plane-major, and the
random Pauli words of `pauli_codes`, read as angles are, need one.

Rotations are walked a layer at a time, as Stim applies one instruction to
all of its targets at once.  A compile pass (`_fuse`) groups the rotations
of each cached walk program into layers on pairwise disjoint qubits, moving
a rotation only across steps on other qubits and across rotations about
commuting axes; channel and Clifford steps keep their order.  A layer step
gathers its rotations' rows into (L, W) slabs and applies all L grid
rotations in a few AND/XOR operations.  Its angles arrive as packed bit
planes, two per rotation (`k_for`): a job's angle source keys each group
of 64 consecutive uids once, and a view of it hashes the layer's 2L words
a group from those keys in one call, each word one angle bit of one
parameter for the group's 64 uids, and lays them out on the lanes in one
layout: lane i reads draw i % draws, so every extra lane a draw needs (an
inner replicate, a sub-draw, a sigma word, a sibling walk, a term) is one
more whole copy of the draws.  Grid rotations change no weight, and their
sign flips XOR into the sign row, as do Clifford signs; the row is folded
into the float weights once, at the end of the walk, by XORing it into
their sign bits.  Negation is exact, so that is bit-identical to
negating along the way, and the fused walk is bit-identical to walking one
rotation at a time.  Counted factors are folded in just before, and are
bit-identical too: multiplying by 1.0 is exact, and IEEE rounding is
symmetric in sign, so a weight's magnitude is the same sequential product of
|f|, the table's entry for its hits.  A start weight that is itself an entry
P[j] (as a forward walk's weights are, for the backward walk of the HS
overlap) goes on to P[j + hits]; start weights the table does not hold are
multiplied out a hit at a time.  A batch whose every lane has died stops
early.  It tests for that after each channel step with a zero factor, where
a lane can die, and after the first channel step of a walk given start
weights, which may all be 0; its words, and the sign of its zero weights,
are then unspecified.

Randomness is counter-based: the uniform that decides a channel's branch is
a pure function of (seed, walk stream id, noise-site ordinal), so a walk's
trajectory does not depend on batching or worker count, and a scalar walk
keyed the same way reproduces a batched lane draw for draw.  A channel
step hashes only the lanes at columns with more than one entry: a
single-entry column takes its one branch whatever the uniform, and a column
that maps its word to itself with weight exactly 1 leaves the lane as it
is.  Such lanes consume no uniform, and skipping them moves no other lane's
draw.  A walk hashes the (seed, DOMAIN_TAU, stream id) prefix of all of its
lanes once, at its first step that has such a lane, and each uniform is
then one more mix of its lane's prefix with its slot (``rng.hash_words``
appends a word that way); a walk in which no lane draws hashes nothing.

Channels with diagonal PTMs never branch: no column has more than one
entry, so their column action is a deterministic factor, applied without
consuming randomness.  A PTM column that is entirely zero kills the walk:
its weight is multiplied by the column's diagonal entry, 0.0 or -0.0, and
its word becomes the identity.

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
branches under amplitude damping.  The scalar reference walks of the test
suite run the full unfused program; they are what the cone and the layers
are checked against.
The cone is cut from the unfused program and fused afterwards, so the cone,
`cone_runs` and `cone_params` never see a layer.  A batch walks the joint
cone of all of its lanes' words, so callers that walk several words put them
in one batch only when that joint cone is barely longer than each word's own
(`cone_runs`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, FixedAngle, NoiseSite, Rotation
from .paulis import (CODE_TO_X, CODE_TO_Z, XZ_TO_CODE, PauliString,
                     clifford_table, commutes, mask_to_words, n_words,
                     phase_exponent, popcount_words)
from .rng import (DOMAIN_SIGMA, DOMAIN_TAU, DOMAIN_THETA, hash_words,
                  mix64, theta_keys, theta_words)

_LANE = np.dtype("<u8")  # one word of a lane plane: bit i % 64 is lane i
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_NONE = np.uint64(0)

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
#: bit 1 of its phase exponent.  Bit 0 of the exponent needs no form of its
#: own: it is odd exactly where the word anticommutes with the axis there.
_SITE_FORMS = [(_xor_form(_ATAB[a]), _xor_form(_QTAB[a] >> 1))
               for a in range(4)]
assert all(_SITE_FORMS[a][0] == _xor_form(_QTAB[a] & 1) for a in range(4))

_CODE_BITS = np.array([CODE_TO_X, CODE_TO_Z], dtype=np.uint8)


def _row_tables(m: int) -> tuple:
    """Local word indices on m qubits against their row indices, the 2m-bit
    vectors of their plane-row bits (bit r is row r: the x rows, then the z
    rows): (row index -> local index, local index -> row index)."""
    local = np.arange(4 ** m)
    codes = (local >> (2 * np.arange(m)[:, None])) & 3
    row_of = (1 << np.arange(2 * m)) @ _CODE_BITS[:, codes].reshape(2 * m, -1)
    to_local = np.empty(4 ** m, dtype=np.intp)
    to_local[row_of] = local
    return to_local, row_of


#: [m] -> _row_tables(m), for the 1..3 qubits a Clifford or channel acts on
_ROW_TABLES = {m: _row_tables(m) for m in (1, 2, 3)}


def _anf(truth) -> list:
    """The algebraic normal form of a boolean function of a step's plane
    rows, given by its truth table over row-bit vectors (bit r of the index
    is row r): the monomials XORed together, each a mask of ANDed rows."""
    f = np.array(truth, dtype=bool)
    for r in range(f.size.bit_length() - 1):  # Moebius transform
        pairs = f.reshape(-1, 2, 1 << r)
        pairs[:, 1] ^= pairs[:, 0]
    return np.flatnonzero(f).tolist()


@dataclass(frozen=True)
class _Form:
    """A boolean function of a step's plane rows, as a few AND/OR/XOR
    operations on lane planes: the OR of the rows ``any_of`` when it is one;
    else the AND of the rows ``common`` with the XOR of the monomials
    ``terms`` (tuples of ANDed rows), complemented first when ``negate``.
    ``common`` holds the rows every monomial of the algebraic normal form
    shares, so CZ's sign bit x0 x1 z0 ^ x0 x1 z1 is (x0 & x1) & (z0 ^ z1).
    A form has no constant term (it is 0 on the identity word), so its
    value keeps a plane's padding bits 0."""
    any_of: tuple
    common: tuple
    terms: tuple
    negate: bool

    @staticmethod
    def of(truth) -> "_Form | None":
        """The form of a truth table (see :func:`_anf`); None when it is
        identically 0."""
        truth = np.asarray(truth, dtype=bool)
        monos = _anf(truth)
        if not monos:
            return None
        assert not truth[0], "a form has no constant term"
        union = functools.reduce(operator.or_, monos)
        if np.array_equal(truth, np.arange(truth.size) & union != 0):
            return _Form(tuple(_mask_qubits(union)), (), (), False)
        common = functools.reduce(operator.and_, monos)
        rest = [mono & ~common for mono in monos]
        return _Form((), tuple(_mask_qubits(common)),
                     tuple(tuple(_mask_qubits(r)) for r in rest if r),
                     0 in rest)

    def value(self, v) -> np.ndarray:
        """The form's lane plane from the step's rows (row r is v[r])."""
        if self.any_of:
            return functools.reduce(np.bitwise_or,
                                    [v[r] for r in self.any_of])
        acc = None  # None stands for all ones until a term is seen
        for t in self.terms:
            mono = functools.reduce(np.bitwise_and, [v[r] for r in t])
            acc = mono if acc is None else acc ^ mono
        if self.negate and acc is not None:
            acc = ~acc  # the common rows, never empty here, clear the padding
        for r in self.common:
            acc = v[r] if acc is None else acc & v[r]
        return acc


@functools.lru_cache(maxsize=None)
def _clifford_form(kind: str, direction: str) -> tuple:
    """The table ``clifford_table(kind, direction)`` as work on the step's
    plane rows: (updates, sign form, snapshot).  Every output x and z row is
    a XOR of input rows; an update (j, copy, xors) sets row j to input row
    ``copy`` when that is not None (else row j keeps its own input bits)
    and XORs in the input rows ``xors``.  Rows that map to themselves have
    no update.  The sign form gives the lanes the table negates.
    ``snapshot`` says an update reads a row another one writes, so the
    input rows must be copied first.  Shared between steps, read only."""
    out_idx, sign = clifford_table(kind, direction)
    to_local, row_of = _ROW_TABLES[(out_idx.size.bit_length() - 1) // 2]
    out = row_of[out_idx[to_local]]
    updates = []
    for j in range(out.size.bit_length() - 1):
        monos = _anf(out >> j & 1)
        assert all(mono & (mono - 1) == 0 for mono in monos), "not linear"
        srcs = [mono.bit_length() - 1 for mono in monos]
        if srcs == [j]:
            continue
        if j in srcs:
            updates.append((j, None, tuple(r for r in srcs if r != j)))
        else:
            updates.append((j, srcs[0], tuple(srcs[1:])))
    written = {j for j, _, _ in updates}
    snapshot = any(r in written for _, copy, xors in updates
                   for r in (copy, *xors))
    return tuple(updates), _Form.of(sign[to_local] < 0), snapshot


def _class_forms(factors: np.ndarray) -> tuple:
    """Per-local-word float factors as (values, class-bit forms, byte
    table): each lane's class indexes ``values``, the distinct factors
    (distinct bit patterns, so 0.0 and -0.0 differ) in order of first
    appearance, and form k gives bit k of the class from the step's plane
    rows.  The identity word is in class 0, so no form has a constant term.
    With one form, row y of the (256, 8) byte table holds the factors of
    eight lanes whose class bits are the bits of y, so lanes are looked up
    a byte at a time; it is None otherwise."""
    classes: dict = {}  # bit pattern -> class
    cls = np.array([classes.setdefault(key, len(classes)) for key in
                    np.ascontiguousarray(factors).view(np.uint64).tolist()])
    values = np.array(list(classes), dtype=np.uint64).view(np.float64)
    values.setflags(write=False)
    to_local = _ROW_TABLES[(factors.size.bit_length() - 1) // 2][0]
    forms = tuple(_Form.of(cls[to_local] >> k & 1)
                  for k in range((len(values) - 1).bit_length()))
    by_byte = None
    if len(forms) == 1:
        by_byte = values[np.arange(256)[:, None] >> np.arange(8) & 1]
        by_byte.setflags(write=False)
    return values, forms, by_byte


def _lane_form(truth) -> tuple:
    """A set of lanes, given by a truth table over a step's row indices, as
    (form, constant): the lanes of ``form`` (None: no lanes), complemented
    when ``constant``, that is when the set holds the identity word.  A
    form has no constant term, so a complemented one is ANDed with the live
    lanes to keep the padding bits 0 (:func:`_lane_set`)."""
    truth = np.asarray(truth, dtype=bool)
    return _Form.of(truth ^ truth[0]), bool(truth[0])


class _BranchTables:
    """Per-column sampling tables of a matrix (padded to the widest column).

    Column j of ``matrix`` is read as an importance distribution: branch i of
    column j lands on word ``tau[j, i]`` with probability |entry| / l1[j] and
    carries ``sign[j, i] * l1[j]``; ``count[j]`` is the number of entries.
    Zero columns get cdf rows that no uniform in [0,1) can reach, sign 0
    and tau 0 — a sampled visit weights the walk to 0 and leaves it on the
    identity word.

    ``stays[j]`` marks a column that maps word j to itself with weight
    exactly 1.0 (one entry, ``tau[j, 0] == j``, ``sign * l1 == 1.0``).
    ``branches[j]`` marks a column with more than one entry, the only kind
    whose branch needs a uniform; every other column has a single entry (or
    none) and takes branch 0.  A diagonal matrix is the case where no column
    branches.  The batched walker reads these tables only through
    :func:`_branch_form`.
    """

    def __init__(self, matrix: np.ndarray):
        d = matrix.shape[0]
        self.l1 = np.abs(matrix).sum(axis=0)
        branches = [np.nonzero(np.abs(matrix[:, j]) > 0.0)[0] for j in range(d)]
        width = max(1, max(len(b) for b in branches))
        self.count = np.array([len(b) for b in branches], dtype=np.int64)
        self.tau = np.zeros((d, width), dtype=np.int64)
        self.sign = np.zeros((d, width), dtype=np.float64)
        self.cdf = np.full((d, width), 2.0)  # padding > any uniform
        for j, rows in enumerate(branches):
            if len(rows) == 0:
                continue
            p = np.abs(matrix[rows, j]) / self.l1[j]
            self.tau[j, :len(rows)] = rows
            self.sign[j, :len(rows)] = np.sign(matrix[rows, j])
            self.cdf[j, :len(rows)] = np.cumsum(p)
            self.cdf[j, len(rows) - 1] = 1.0 + 1e-9  # guard rounding
        self.stays = (self.count == 1) & (self.tau[:, 0] == np.arange(d)) \
            & (self.sign[:, 0] * self.l1 == 1.0)
        self.branches = self.count > 1
        for arr in (self.l1, self.count, self.tau, self.sign, self.cdf,
                    self.stays, self.branches):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _BranchForm:
    """The branch tables (:class:`_BranchTables`) of one direction of a
    channel as work on a channel step's plane rows.  Lane sets are
    :func:`_lane_form` pairs.

    ``hot`` is the set of lanes at columns with more than one entry, the
    only lanes that draw a uniform; None when there is no such column, as
    on a diagonal PTM.  Every other lane takes its column's single entry,
    or dies at an empty column, whose word becomes the identity: ``moves``
    pairs each row that entry changes with the set of lanes whose bit
    there flips, and ``classes`` are the class forms (:func:`_class_forms`)
    of its factor sign * l1, set to 1.0 at hot columns.  An empty column's
    factor is its diagonal entry, 0.0 or -0.0, so a lane that dies there
    carries, bit for bit, its weight times that entry.  A diagonal PTM
    moves no word but at its empty columns, and its class values are its
    diagonal's distinct bit patterns.  ``kills`` says some class value is
    0.0 (or -0.0): only such a step can zero a weight.  ``stays`` says the
    identity word maps to itself with weight exactly 1.0
    (``_BranchTables.stays``).

    The hot lanes' tables are indexed by the lane's row index p (see
    :func:`_row_tables`) and, flattened, by p * width + j for branch j:
    ``cdf[k]`` is the cdf column k < width - 1 a draw is compared with, as
    uint64 thresholds ceil(max(e, 0) * 2^53) of its entries e: a draw is
    the top 53 bits m of a hash, the uniform u = m * 2^-53 exactly, so
    u >= e holds exactly when m >= ceil(e * 2^53), and m is compared with
    the threshold in integers.  ``factor`` is the branch's sign * l1 and
    ``move`` the XOR of p with the row index of the branch's output word.
    ``hot_p`` is the row index of the hot column when there is only one
    (amplitude damping's Z column backward, its identity column forward),
    so that every hot lane's p is known without reading its rows; else
    None.  ``unit_hot`` says every branch of every hot column has factor
    exactly 1.0 (so does a form without hot columns), so that a hot lane's
    weight is multiplied by 1.0 whichever branch it draws: with the class
    values of :func:`_counted_factor`, such a step's factors can be
    counted.
    """
    hot: "tuple | None"
    moves: tuple  # ((row, lane set), ...)
    classes: tuple
    width: int
    cdf: np.ndarray  # (width - 1, 4^m) uint64 thresholds
    factor: np.ndarray  # (4^m * width,)
    move: np.ndarray  # (4^m * width,)
    hot_p: "int | None"
    unit_hot: bool
    kills: bool
    stays: bool


@functools.lru_cache(maxsize=256)
def _branch_form(matrix: bytes) -> _BranchForm:
    """The branch tables of a square matrix whose columns a walk samples
    (the PTM backward, its transpose forward), given as its float64 bytes,
    as a :class:`_BranchForm`.  Keyed by content, so circuits built afresh
    with the same channels share their forms; shared between steps, read
    only."""
    flat = np.frombuffer(matrix, dtype=np.float64)
    d = round(flat.size ** 0.5)
    square = flat.reshape(d, d)
    tabs = _BranchTables(square)
    width = tabs.tau.shape[1]
    to_local, row_of = _ROW_TABLES[(d.bit_length() - 1) // 2]
    hot = tabs.branches
    # a single-entry column's output word (an empty column's is 0) and the
    # row bits that flip on the way there
    flips = (row_of ^ row_of[np.where(hot, np.arange(d), tabs.tau[:, 0])]
             )[to_local]
    moves = []
    for r in range(d.bit_length() - 1):
        lanes = _lane_form(flips >> r & 1)
        if lanes != (None, False):
            moves.append((r, lanes))
    cdf = np.ceil(np.maximum(tabs.cdf[to_local, :-1].T, 0.0)
                  * 2.0 ** 53).astype(np.uint64)
    factors = tabs.sign * tabs.l1[:, None]
    factor = factors[to_local].ravel()
    move = (np.arange(d)[:, None] ^ row_of[tabs.tau[to_local]]).ravel()
    for t in (cdf, factor, move):
        t.setflags(write=False)
    (hot_cols,) = np.nonzero(hot)
    drawn = hot[:, None] & (np.arange(width) < tabs.count[:, None])
    # a single entry's factor; an empty column's is its diagonal entry
    single = np.where(tabs.count == 0, np.diagonal(square), factors[:, 0])
    classes = _class_forms(np.where(hot, 1.0, single))
    return _BranchForm(_lane_form(hot[to_local]) if hot.any() else None,
                       tuple(moves), classes, width, cdf, factor, move,
                       int(row_of[hot_cols[0]]) if hot_cols.size == 1
                       else None, bool(np.all(factors[drawn] == 1.0)),
                       bool(np.any(classes[0] == 0.0)), bool(tabs.stays[0]))


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
class _RotLayer:
    """Grid rotations on pairwise disjoint qubits, walked as one step.

    Row r of every (L, ...) array below belongs to rotation r.  Each site
    slot j lists the j-th site of every rotation: its qubits (L,) and the
    XOR terms of its anticommutation bit and of bit 1 of its phase, as
    (part, mask) pairs over the parts (x, z, x & z); a rotation with fewer
    sites has mask 0 there.  ``flip_rows``/``flip_of`` are the plane rows
    its axis flips and the rotation flipping each.
    """
    rots: list  # the program's _RotSteps, one per row
    params: np.ndarray  # (P,) parameters of the parameterized rotations
    param_at: np.ndarray  # (P,) their rows
    fixed_k: np.ndarray  # (L, 2, 1) angle bits of the fixed rows, else 0
    slots: list  # [(qubits, anti terms, phase-bit-1 terms), ...]
    flip_rows: np.ndarray
    flip_of: np.ndarray


@dataclass(eq=False)
class _CliffStep:
    """A Clifford gate, walked as AND/XOR work on its plane rows (the
    shared :func:`_clifford_form` of its kind and direction)."""
    kind: str
    qubits: tuple
    form: tuple  # _clifford_form(kind, direction)
    rows: list  # plane rows: the qubits' x rows, then their z rows
    mask: int
    pinned = False


@dataclass(eq=False)
class _ChanStep:
    ordinal: int  # global noise-site index, doubles as the RNG slot
    channel: object
    form: _BranchForm
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


def _compile(circuit: Circuit, direction: str) -> list:
    """One step per item of ``circuit.schedule()``, in that order forward
    and in reverse backward; steps carry the direction's forms."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction {direction!r}")
    backward = direction == "backward"
    ordinals = itertools.count()  # the k-th scheduled site is noise site k
    forms: dict = {}  # id of a PTM -> the form of the sites sharing it
    prog: list = []
    for item in circuit.schedule():
        if isinstance(item, NoiseSite):
            ch = item.channel
            if id(ch.ptm) not in forms:  # the matrix the walk samples
                forms[id(ch.ptm)] = _branch_form(
                    (ch.ptm if backward else ch.ptm.T).tobytes())
            form = forms[id(ch.ptm)]
            prog.append(_ChanStep(next(ordinals), ch, form,
                                  _plane_rows(ch.support, circuit.n),
                                  _qubit_mask(ch.support), not form.stays))
        elif isinstance(item, Rotation):
            fixed = isinstance(item.param, FixedAngle)
            prog.append(_RotStep(item.axis, None if fixed else item.param,
                                 item.param.k if fixed else 0,
                                 _rot_sites(item.axis),
                                 item.axis.x_bits | item.axis.z_bits))
        else:
            prog.append(_CliffStep(item.kind, item.qubits,
                                   _clifford_form(item.kind, direction),
                                   _plane_rows(item.qubits, circuit.n),
                                   _qubit_mask(item.qubits)))
    return prog[::-1] if backward else prog


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


def _mask_qubits(mask: int) -> list:
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def _fuse(prog: list, n: int, backward: bool) -> list:
    """The walk program ``prog`` with its rotation steps grouped into
    :class:`_RotLayer` steps; every other step stays as it is, and channel
    and Clifford steps keep their order.

    Layers are scheduled as early as possible in forward order, so a
    backward program is fused reversed (as late as possible in walk order,
    where each rotation follows its own noise site).  A rotation moves
    earlier across any step on disjoint qubits that is not pinned, and
    across rotations whose axes commute with its own (grid rotations about
    commuting axes map words identically in either order); it joins the
    earliest layer it reaches that shares none of its qubits, or else opens
    a new layer at the end.  Every moved step acts on other qubits or
    commutes, and channel weights are multiplied in the same order, so the
    walk is bit-identical to the unfused one.
    """
    items: list = []  # steps, and lists of rotation steps (the layers)
    layers: list = []  # positions of the layers in ``items``, increasing
    # qubit -> [(position, rotation axis or None)] of the items acting on it,
    # sorted; a qubit meets at most one item per position
    on: dict = {}
    fence = -1  # position of the last pinned step
    for step in (prog[::-1] if backward else prog):
        if not isinstance(step, _RotStep):
            pos = len(items)
            items.append(step)
            for q in _mask_qubits(step.mask):
                on.setdefault(q, []).append((pos, None))
            if step.pinned:
                fence = pos
            continue
        stop, shared = fence, set()
        for q, _ in step.sites:
            for pos, axis in reversed(on.get(q, ())):
                if pos <= stop:
                    break
                if axis is None or not commutes(axis, step.axis):
                    stop = pos
                    break
                shared.add(pos)
        i = bisect.bisect_right(layers, stop)
        while i < len(layers) and layers[i] in shared:
            i += 1
        if i == len(layers):
            layers.append(len(items))
            items.append([])
        pos = layers[i]
        items[pos].append(step)
        for q, _ in step.sites:
            bisect.insort(on.setdefault(q, []), (pos, step.axis))
    fused = [_rot_layer(it, n) if isinstance(it, list) else it
             for it in items]
    return fused[::-1] if backward else fused


@functools.lru_cache(maxsize=256)
def _slot_terms(codes: tuple) -> tuple:
    """The XOR terms of a site slot whose rotations have axis ``codes``
    there (0 for a rotation without that site): (anticommutation bit terms,
    phase bit 1 terms), each a list of (part, mask) over the parts used by
    some row, with mask None when every row uses it.  Shared between layers
    and read only."""
    def terms(form):
        out = []
        for t in range(3):
            use = [_SITE_FORMS[a][form][t] for a in codes]
            if any(use):
                out.append((t, None if all(use) else
                            np.where(use, _ALL, _NONE)[:, None]))
        return out
    return terms(0), terms(1)


def _rot_layer(rots: list, n: int) -> _RotLayer:
    """Compile rotations on pairwise disjoint qubits into one step."""
    slots = []
    for j in range(max(len(r.sites) for r in rots)):
        sites = [r.sites[j] if j < len(r.sites) else (0, 0) for r in rots]
        slots.append((np.array([q for q, _ in sites], dtype=np.intp),
                      *_slot_terms(tuple(a for _, a in sites))))
    flip_rows, flip_of = [], []
    fixed_k = np.zeros((len(rots), 2, 1), dtype=_LANE)
    for r, rot in enumerate(rots):
        for q, a in rot.sites:
            if a in (1, 2):  # the axis has X here
                flip_rows.append(q)
                flip_of.append(r)
            if a in (2, 3):  # the axis has Z here
                flip_rows.append(n + q)
                flip_of.append(r)
        if rot.param is None:
            fixed_k[r, :, 0] = [_ALL if rot.fixed_k >> b & 1 else _NONE
                                for b in (0, 1)]
    at = [r for r, rot in enumerate(rots) if rot.param is not None]
    return _RotLayer(rots,
                     np.array([rots[r].param for r in at], dtype=np.int64),
                     np.array(at, dtype=np.intp), fixed_k, slots,
                     np.array(flip_rows, dtype=np.intp),
                     np.array(flip_of, dtype=np.intp))


def _fused_program(circuit: Circuit, direction: str,
                   support: "int | None" = None) -> tuple:
    """:func:`_program` with its rotations fused into layers (:func:`_fuse`),
    and its counted factor (:func:`_counted_factor`), both cached beside it:
    (steps, counted).  Only a counted program stores its factor, so the
    others cost the cache nothing more.  Only the batched walker walks it;
    the light cone, ``cone_runs`` and ``cone_params`` read the unfused
    program."""
    prog = _program(circuit, direction, support)
    cache = circuit.__dict__["_walk_programs"]
    key = ("fused", direction,
           None if prog is cache[direction] else support)
    if key not in cache:
        fused = cache[key] = _fuse(prog, circuit.n, direction == "backward")
        counted = _counted_factor(fused)
        if counted is not None:
            cache[("counted", *key[1:])] = counted
    return cache[key], cache.get(("counted", *key[1:]))


def _counted_factor(prog: list) -> "tuple | None":
    """(f, counter dtype) when the channel steps of the walk program
    ``prog`` can be counted, else None.

    They can when none of them can kill, every factor a step multiplies by
    is 1.0 or one finite value f (bit for bit), and f occurs somewhere.  A
    step's factors are its class values at its single-entry columns, the
    identity word's first (1.0 when that column is hot), as a diagonal
    step's are its diagonal's; its hot columns' branches must all carry
    exactly 1.0 (``_BranchForm.unit_hot``, decided once per form), as
    backward amplitude damping's Z column does.  A walk then counts each
    lane's hits, the steps that multiply it by f, in a byte counter (two
    bytes past 255 counting steps) and folds them in at the end
    (:func:`_fold_hits`)."""
    forms = [step.form for step in prog if isinstance(step, _ChanStep)]
    if any(form.kills or not form.unit_hot for form in forms):
        return None
    # the class values of the forms, which a channel's sites share; none is
    # 0.0 or -0.0, so equal values have equal bits
    values = {id(form): form.classes[0] for form in forms}.values()
    if any(v[0] != 1.0 or len(v) > 2 for v in values):
        return None
    fs = {float(v[1]) for v in values if len(v) == 2}
    steps = sum(len(form.classes[0]) == 2 for form in forms)
    if len(fs) != 1 or not np.isfinite(f := fs.pop()) or steps > 0xFFFF:
        return None
    return f, np.uint8 if steps <= 0xFF else np.uint16


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
# theta sources for the batched walker: ``k_for(params)`` gives the angle
# planes of the (L,) parameters ``params``, an (L, 2, W) uint64 array of lane
# planes over the input lanes: [r, 0] the low bit of parameter params[r]'s
# grid angle index, [r, 1] its high bit
# ---------------------------------------------------------------------------

class AngleSource:
    """The grid angles of one job's outer draws, one uid a draw, keyed once
    for every walk of the job.

    The angle stream is plane-major (``rng.grid_angle``): one hash of a
    64-uid group's key gives one angle bit of one parameter for all 64
    uids.  The constructor hashes the key of each group its draws meet once
    (``rng.theta_keys``) in ``domain``, whose ``DOMAIN_SIGMA`` gives the
    Pauli codes of :func:`pauli_codes`, a qubit for a parameter.
    :meth:`draw_planes` turns the words hashed from those keys
    (``rng.theta_words``) into draw planes, bit i % 64 of word i // 64
    holding draw i's bit.  The uids are one run of consecutive integers, as
    the draws of every estimator's job are, so the planes are read straight
    from the words, joining two adjacent group words by a funnel shift when
    the run does not start on a multiple of 64; other uids are refused.
    Walks read the angles through views (:meth:`view`), which lay whole
    copies of the draws end to end on their lanes.
    """

    def __init__(self, seed: int, uids, domain: int = DOMAIN_THETA):
        self.uids = np.asarray(uids, dtype=np.uint64)
        u = self.uids.size
        first = int(self.uids[0]) if u else 0
        if u and (int(self.uids[-1]) - first != u - 1
                  or not np.all(np.diff(self.uids) == 1)):
            raise ValueError("angle source uids must be one run of "
                             "consecutive integers")
        self._offset = first & 63  # the run's first lane in its group
        self.keys = theta_keys(seed, np.arange(first >> 6,
                                               (first + u + 63) >> 6,
                                               dtype=np.uint64), domain)

    def draw_planes(self, words: np.ndarray) -> np.ndarray:
        """(L, b, ceil(draws / 64)) draw planes from the (L, b, G) words of
        the source's groups, their padding bits 0; may be ``words``."""
        return _bit_field(words, self._offset, len(self))

    def view(self, copies: int = 1, shift=None) -> "HashedTheta":
        """A :class:`HashedTheta` over ``copies * len(self)`` lanes, the
        draws ``copies`` times end to end: lane i reads draw
        i % len(self).  ``shift`` is None or (param, delta), two arrays
        over every lane."""
        view = HashedTheta.__new__(HashedTheta)
        view._setup(self, copies, shift)
        return view

    def __len__(self) -> int:
        return self.uids.shape[0]


class HashedTheta:
    """Lazy i.i.d. grid angles: k(lane, param) = rng.grid_angle(seed, uid,
    param), a view of an :class:`AngleSource`.

    Regenerating angles on demand keeps memory flat for huge parameter
    counts; the same (seed, uid) always yields the same assignment, so outer
    samples are reproducible without storing them.  A view lays its
    source's draws out ``copies`` times end to end (``np.tile(uids,
    copies)``), so every extra lane a draw needs is one more whole copy of
    the draws: the inner replicates, sub-draws and sigma words of a draw,
    the sibling walks of a merged walk and the terms of a multi-term pass.

    Each ``k_for`` hashes its parameters' words for every group of the
    source in one ``rng.theta_words`` call, takes the source's draw planes
    from them (:meth:`AngleSource.draw_planes`) and lays those out on the
    lanes (:meth:`_tile`); nothing is kept between calls.  One copy's lane
    planes are the draw planes.  Draws that fill whole words are copied
    word for word to each copy; others are unpacked to bits, tiled and
    packed again.  ``shift`` = (param, delta) implements the
    quarter-turn parameter shift per lane (param -1 = no shift): +delta mod
    4, added with a 2-bit carry to the rows of the lanes' shift parameters
    (:meth:`_add_shift`).

    ``HashedTheta(seed, uids)`` is the view, one lane a uid, of a source of
    its own.
    """

    def __init__(self, seed: int, uids: np.ndarray):
        self._setup(AngleSource(seed, uids), 1, None)

    def _setup(self, source, copies, shift) -> None:
        self._source, self._copies = source, copies
        self._lanes = copies * len(source)
        self._shift = self._lanes_by_param = None
        if shift is not None:
            param = np.asarray(shift[0], dtype=np.int64)
            delta = np.asarray(shift[1], dtype=np.int64)
            self._shift = (param, delta)
            order = np.argsort(param, kind="stable")
            d = (delta & 3).astype(np.uint8)
            # the lanes in parameter order, their parameters, and the
            # planes of bit i of each lane's delta, (2, W)
            self._lanes_by_param = (order, param[order],
                                    _pack(np.stack((d & 1, d >> 1))))

    def tiled(self, k: int) -> "HashedTheta":
        """This view's lanes ``k`` times end to end: the angles of a walk
        that puts ``k`` words on each lane's assignment."""
        if k == 1:
            return self
        return self._source.view(
            self._copies * k, None if self._shift is None
            else tuple(np.tile(a, k) for a in self._shift))

    def k_for(self, params) -> np.ndarray:
        """(L, 2, W) angle planes of the (L,) parameters ``params``."""
        params = np.asarray(params, dtype=np.int64)
        if not self._lanes:
            return np.zeros((params.size, 2, 0), dtype=_LANE)
        planes = self._source.draw_planes(
            theta_words(self._source.keys, params))
        if self._copies > 1:
            planes = self._tile(planes)
        if self._shift is not None:
            self._add_shift(planes, params)
        return planes

    def _tile(self, d: np.ndarray) -> np.ndarray:
        """The (L, 2, W) lane planes of the draw planes ``d``, ``copies``
        times end to end: copied word for word when the draws fill whole
        words, else unpacked to bits, tiled and packed again."""
        c, u = self._copies, len(self._source)
        if u % 64 == 0:
            out = np.empty((*d.shape[:2], c, d.shape[-1]), dtype=_LANE)
            out[...] = d[:, :, None]
            return out.reshape(*d.shape[:2], -1)
        return _pack(np.tile(_unpack(d, u), c))

    def _add_shift(self, planes: np.ndarray, params: np.ndarray) -> None:
        """planes += delta (mod 4) in place, at each row r, on the lanes
        whose shift parameter is params[r]: those lanes become a mask row
        (looked up in the lanes sorted by parameter), and the mask rows
        ANDed with the planes of the lanes' deltas are added with a 2-bit
        carry."""
        order, by_param, deltas = self._lanes_by_param
        lo = np.searchsorted(by_param, params)
        count = np.searchsorted(by_param, params, side="right") - lo
        total = int(count.sum())
        if not total:
            return
        lanes = order[np.arange(total)
                      + np.repeat(lo - (np.cumsum(count) - count), count)]
        on = np.zeros((params.size, planes.shape[-1]), dtype=_LANE)
        # each lane's bit is its word's only one in its row, so adding ORs it
        np.add.at(on, (np.repeat(np.arange(params.size), count), lanes >> 6),
                  np.left_shift(np.uint64(1), (lanes & 63).astype(_LANE)))
        d0, d1 = on & deltas[0], on & deltas[1]
        planes[:, 1] ^= d1 ^ (planes[:, 0] & d0)
        planes[:, 0] ^= d0

    def __len__(self) -> int:
        return self._lanes


def pauli_codes(seed: int, uids, n: int, *, zx_only: bool = False) -> tuple:
    """Random Pauli words for ``uids``, one run of consecutive integers
    (:class:`AngleSource` refuses any other), one word per uid, as the
    walk's lane-major ``(x, z)`` words: two (B, ``n_words(n)``) uint64
    arrays, bit ``q & 63`` of word ``q >> 6`` holding qubit q and the
    padding bits 0.  Qubit q of word ``uid`` has the code
    ``rng.grid_angle(seed, uid, q, DOMAIN_SIGMA)`` (0=I, 1=X, 2=Y, 3=Z), so
    (x, z) = (b0 ^ b1, b1) of its bits; with ``zx_only``, (0, b1), and
    only the b1 words are hashed.  The codes' planes are read as angles
    are, by an :class:`AngleSource` of the sigma domain, and one
    :func:`_transpose` of the x and z planes makes the words.
    """
    source = AngleSource(seed, uids, DOMAIN_SIGMA)
    d = source.draw_planes(theta_words(source.keys, np.arange(n),
                                       (1,) if zx_only else (0, 1)))
    if zx_only:
        z = _transpose(d[:, 0], len(source))
        return np.zeros_like(z), z
    d[:, 0] ^= d[:, 1]  # the x planes, b0 ^ b1
    words = _transpose(d.swapaxes(0, 1).reshape(2 * n, d.shape[-1]),
                       len(source))
    z = _bit_field(words, n, n)  # before x, which may mask words in place
    return _bit_field(words, 0, n), z


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


def _bit_field(words: np.ndarray, start: int, count: int) -> np.ndarray:
    """Bits ``start`` to ``start + count - 1`` of each row of ``words``, as
    (..., ceil(count / 64)) words, padding bits 0: a funnel shift of
    adjacent words, or when 64 divides ``start`` a view of ``words``, whose
    last word is masked in place."""
    w, o = divmod(start, 64)
    width = -(-count // 64)
    d = words[..., w:w + width]
    if o:
        d = d >> np.uint64(o)
        n = min(width, words.shape[-1] - w - 1)
        d[..., :n] |= words[..., w + 1:w + 1 + n] << np.uint64(64 - o)
    if count % 64:
        d[..., -1] &= np.uint64((1 << count % 64) - 1)
    return d


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`_pack`: the first ``count`` bits of each row of
    unsigned words, as (..., count) uint8."""
    words = np.ascontiguousarray(words)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count,
                         bitorder="little")


#: (distance d, mask) of the six rounds of a 64x64 bit-matrix transpose:
#: within each group of 2d rows, row i < d swaps its bits above the mask (the
#: high d of every 2d) with the masked bits of row i + d
_TRANSPOSE_ROUNDS = [(np.uint64(d), np.uint64(m)) for d, m in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333), (1, 0x5555555555555555))]


def _transpose(words: np.ndarray, count: int) -> np.ndarray:
    """Bit-matrix transpose: (R, C) words holding ``count`` bits a row ->
    (count, ceil(R/64)) words, whose padding bits are 0.  Lane-major walk
    words (a row per lane, a bit per qubit) become per-qubit lane planes (a
    row per qubit, a bit per lane), and back.

    Word c of each group of 64 rows is a 64x64 bit matrix, transposed by
    six rounds of masked swaps (Warren, Hacker's Delight, 2nd ed., section
    7-3), all at once: the (64, groups, C) work array holds row i of every
    matrix in its row i, so each round runs on long contiguous rows.

    The round of distance d swaps the bit of value d in each row index with
    the one in each column index, so the rounds commute, and a call orders
    them to skip rows that hold nothing it needs.  With fewer than 64 input
    rows (a walk's exit: a row per qubit) the rounds run smallest distance
    first, each over the rows its input can have set: the live prefix,
    rounded up to whole groups of 2d rows.  Otherwise they run largest
    distance first.  When the output is one word of fewer than 64 rows (a
    walk's entry on a register under 64 qubits), a round whose distance d
    is at least ``count`` writes only the low half of each group of 2d
    rows: no later round moves a row whose bit of value d is set into a row
    below d.  In the largest-first order, every later round then works on
    those d rows only.  A transpose with nothing to skip runs all six rounds
    on 64 rows, largest distance first."""
    rows, c = words.shape
    full, rest = divmod(rows, 64)
    groups = full + (rest > 0)
    m = np.empty((64, groups, c), dtype=_LANE)
    m[:, :full] = words[:64 * full].reshape(full, 64, c).swapaxes(0, 1)
    m[:rest, full:] = words[64 * full:, None]
    m[rest:, full:] = 0
    live = min(rows, 64) or 64  # input rows of a group that can be set
    need = count if c == 1 else 64  # output rows of a group that are read
    top = 64
    for d, mask in (_TRANSPOSE_ROUNDS[::-1] if live < 64
                    else _TRANSPOSE_ROUNDS):
        if live < 64:
            top = -(-live // (2 * int(d))) * 2 * int(d)
        low = need <= d
        pairs = m[:top].reshape(top // (2 * int(d)), 2, int(d), groups * c)
        lo, hi = pairs[:, 0], pairs[:, 1]
        t = lo >> d
        t ^= hi
        t &= mask
        if low:
            top = int(d)
        else:
            hi ^= t
        t <<= d
        lo ^= t
    return m[:top].transpose(2, 0, 1).reshape(top * c, groups)[:count]


def _row_index(v: np.ndarray, b: int) -> np.ndarray:
    """Row index per lane (see :func:`_row_tables`) from a step's rows
    ``v``, as (b,) uint8."""
    bits = _unpack(v, b)
    index = bits[0]
    for r in range(1, len(bits)):
        index |= bits[r] << r
    return index


def _local_codes(planes: np.ndarray, rows: list, b: int) -> np.ndarray:
    """Local word index per lane on a step's qubits (first qubit lowest),
    from their x and z plane rows."""
    return _ROW_TABLES[len(rows) // 2][0][_row_index(planes[rows], b)]


def _xor_lanes(planes: np.ndarray, rows: list, lanes: np.ndarray,
               delta: np.ndarray) -> None:
    """XOR bit r of ``delta[i]`` into plane row ``rows[r]`` at lane
    ``lanes[i]``, for distinct lanes."""
    bits = np.zeros((len(rows), 64 * planes.shape[1]), dtype=np.uint8)
    for r in range(len(rows)):
        bits[r, lanes] = delta >> r & 1
    planes[rows] ^= np.packbits(bits, axis=-1, bitorder="little").view(_LANE)


def _clifford(planes: np.ndarray, n: int, step: _CliffStep) -> None:
    """One Clifford step on all lanes: its sign form XORs into the sign
    row, and its updates rewrite the x and z rows it moves."""
    updates, sign, snapshot = step.form
    v = planes[step.rows] if snapshot else [planes[r] for r in step.rows]
    if sign is not None:
        planes[2 * n] ^= sign.value(v)
    for j, copy, xors in updates:
        out = planes[step.rows[j]]
        if copy is not None:
            out[...] = v[copy]
        for r in xors:
            out ^= v[r]


def _class_factors(classes: tuple, v, b: int):
    """Each of the ``b`` lanes' factor by class, from the class forms
    ``classes`` (:func:`_class_forms`) and the step's rows ``v``: the one
    value when there is one class; else the entry of ``values`` the class
    bits select, read from the byte table when there is one class plane
    and from the unpacked class planes otherwise."""
    values, forms, by_byte = classes
    if not forms:
        return values[0]
    if by_byte is not None:
        return by_byte.take(forms[0].value(v).view(np.uint8),
                            axis=0).reshape(-1)[:b]
    cls = _unpack(forms[0].value(v), b)
    for k, form in enumerate(forms[1:], 1):
        cls |= _unpack(form.value(v), b) << k
    return values.take(cls)


#: the largest power-table index a counted walk looks a start weight up
#: at; start weights further down the table are multiplied out
_START_CAP = 4095


def _powers(f: float, size: int) -> np.ndarray:
    """The (size,) power table of |f|: P[0] = 1.0 and P[k] = P[k-1] * |f|,
    each a rounded product, as a walk forms it one step at a time."""
    table = np.full(size, abs(f))
    table[0] = 1.0
    return np.multiply.accumulate(table, out=table)


def _fold_hits(w: np.ndarray, hits: np.ndarray, f: float,
               given: bool) -> None:
    """Multiply each weight w[i] by f ``hits[i]`` times, in place and bit
    for bit as one multiply a hit does, also with the walk's multiplies by
    1.0 in between.  ``given``: w holds start weights, else it is all 1.0.

    IEEE rounding is symmetric in sign, so w * f * ... * f is the product
    of magnitudes |w| * |f| * ... * |f| with sign signbit(w) ^ (signbit(f)
    & hits odd).  From |w| = P[j] of the power table (:func:`_powers`) that
    product is P[j + hits].  A start weight's j is estimated as
    log|w| / log|f|, rounded, and checked: P[j] == |w|.  The lanes the
    check fails (NaN, a weight that is not a power of |f|, a j past
    ``_START_CAP``) are multiplied out a hit at a time.  Every ``take``
    clips its indices, which are in range, so that it writes straight into
    ``out`` instead of buffering a copy."""
    top = int(hits.max(initial=0))
    if not given:
        np.take(_powers(f, top + 1), hits.astype(np.intp), out=w,
                mode="clip")
    else:
        log_f = np.log(abs(f))  # 0 when |f| = 1: then j = 0, P = 1
        est = np.abs(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(est, out=est)
            est *= 1.0 / log_f if log_f else 0.0
        np.rint(est, out=est)
        np.fmax(est, 0.0, out=est)  # NaN -> 0
        np.fmin(est, _START_CAP, out=est)
        at = est.astype(np.intp)
        table = _powers(f, int(est.max(initial=0.0)) + top + 1)
        np.take(table, at, out=est, mode="clip")
        np.copysign(est, w, out=est)
        slow = np.flatnonzero(est != w)
        slow_w, slow_hits = w[slow], hits[slow]
        slow_w *= 1.0  # as a step's 1.0 quiets a signaling NaN
        for k in range(int(slow_hits.max(initial=0))):
            slow_w[slow_hits > k] *= f
        at += hits
        np.take(table, at, out=est, mode="clip")
        np.copysign(est, w, out=w)
    if np.signbit(f):
        odd = (hits & 1).astype(np.uint8, copy=False)
        odd <<= 7
        top_bytes = _sign_bytes(w)
        top_bytes ^= odd
    if given:
        w[slow] = slow_w


def _lane_set(lanes: tuple, v, b: int) -> np.ndarray:
    """The lane plane of a non-empty :func:`_lane_form` set over ``b``
    lanes, from a step's rows ``v``."""
    form, constant = lanes
    if not constant:
        return form.value(v)
    live = np.full((b + 63) // 64, _ALL)
    if b % 64:
        live[-1] = _ALL >> np.uint64(64 - b % 64)
    return live if form is None else ~form.value(v) & live


def _branch(planes: np.ndarray, step: _ChanStep, w: np.ndarray, hits,
            uniforms) -> None:
    """One channel step on all lanes, in place: its PTM's columns sampled
    backward, its rows forward (``step.form``, a :class:`_BranchForm`).

    Lanes at columns with one entry (or none) take it: the step's ``moves``
    planes XOR into the rows they change, and the entry's factor comes from
    class planes.  A diagonal PTM is the case where every column has one
    entry (or none) and no word moves but at an empty column.  Only the hot
    lanes, at columns with more than one entry, become indices:
    ``uniforms(lanes, ordinal)`` gives their branch draws at the step's
    noise site, uint64 values m below 2^53 standing for the uniforms
    m * 2^-53, and the branch is the number of the column's cdf thresholds
    at or below the draw.  A column's last cdf entry is 1 + 1e-9 and its
    padding 2.0, both above any uniform, so the last cdf column is never
    compared.  A step with one hot column (``hot_p``) knows every hot
    lane's row index, so it reads none from the rows and compares the draws
    with that column's cdf thresholds, not with a gather of them.  The row
    bits of the hot lanes whose word moved are XORed in by a scatter
    (:func:`_xor_lanes`).  The ``moves`` read the rows after the scatter
    and after each other, so a step with moves reads a copy of its rows;
    any other step, such as a diagonal one without empty columns, reads
    views of them.

    ``hits`` is None in a walk that multiplies its factors: the hot lanes'
    factors replace the class factor (1.0 there) in the full-lane factor
    array, so every weight is multiplied once, by the branch's sign * l1
    double, or by its class's value.  In a counted walk
    (:func:`_counted_factor`) ``hits`` holds the lanes' counters, and the
    step adds its one class plane, the lanes whose factor is f, into them.
    Every other factor it has is 1.0, its hot branches' included, so it
    neither reads the hot lanes' factors nor touches ``w``.
    """
    f = step.form
    b = w.size
    v = planes[step.rows] if f.moves else [planes[r] for r in step.rows]
    factors = None
    if hits is not None:
        if f.classes[1]:
            hits += _unpack(f.classes[1][0].value(v), b)
    else:
        factors = _class_factors(f.classes, v, b)
        if not f.classes[1]:
            factors = None if factors == 1.0 else np.full(b, factors)
    lanes = () if f.hot is None else \
        np.flatnonzero(_unpack(_lane_set(f.hot, v, b), b).view(bool))
    if len(lanes):
        u = uniforms(lanes, step.ordinal)
        p = _row_index(v, b)[lanes].astype(np.intp) if f.hot_p is None \
            else f.hot_p
        at = np.zeros(len(lanes), dtype=np.intp)
        at += p * f.width
        for col in f.cdf:
            at += u >= col[p]
        if factors is not None:
            factors[lanes] = f.factor[at]
        elif hits is None:
            w[lanes] *= f.factor[at]
        delta = f.move[at]
        moved = delta != 0
        if moved.any():
            _xor_lanes(planes, step.rows, lanes[moved], delta[moved])
    if factors is not None:
        w *= factors
    for r, lanes_r in f.moves:
        planes[step.rows[r]] ^= _lane_set(lanes_r, v, b)


def _rotate(planes: np.ndarray, n: int, layer: _RotLayer, k,
            backward: bool) -> None:
    """One layer of grid rotations on all lanes, as AND/XOR over (L, W)
    slabs: row r of a slab belongs to the layer's rotation r.

    ``k`` holds the layer's angle planes, (L, 2, W) or broadcast (L, 2, 1):
    k[r, 0] the low bit of rotation r's angle index, k[r, 1] the high bit.  A
    lane whose word anticommutes with rotation r's axis takes k there; its
    2-bit phase exponent q (summed over the axis's sites from _QTAB) plus k
    plus the direction's offset is even when k is odd, then k odd
    flips the word by the axis, and k == 2 or an odd k with phase 2 negates
    the lane's sign.  The layer's rotations act on disjoint qubits, so each
    reads only rows no other one writes, and their sign flips XOR into the
    sign row in any order.
    """
    anti = q1 = None
    for qubits, anti_terms, v1_terms in layer.slots:
        x, z = planes[qubits], planes[n + qubits]
        parts = (x, z, x & z)
        site, v1 = _xor_terms(parts, anti_terms), _xor_terms(parts, v1_terms)
        if anti is None:
            anti, q1 = site, v1
        else:  # 2-bit add of the site's exponent, whose bit 0 is ``site``
            q1 = q1 ^ v1 ^ (anti & site)
            anti = anti ^ site
    # kk = k where the word anticommutes, else 0; ph = q + kk + offset
    # (mod 4), whose bit 0 is q0 ^ kk0 (q0 is ``anti``, as the assert after
    # _SITE_FORMS checks) and whose bit 1 takes the carry.  kk0 is set only
    # where anti is, so ph is even wherever k is odd: the phase stays real
    kk0, kk1 = anti & k[:, 0], anti & k[:, 1]
    ph1 = q1 ^ kk1 ^ kk0
    if not backward:  # offset 2
        ph1 = ~ph1
    planes[2 * n] ^= np.bitwise_xor.reduce((kk1 & ~kk0) | (kk0 & ph1),
                                           axis=0)
    planes[layer.flip_rows] ^= kk0[layer.flip_of]


def _xor_terms(parts, terms):
    """XOR of the (L, W) slabs ``parts[t]``, each masked to the rows whose
    form uses it (``mask`` None: every row)."""
    out = None
    for t, mask in terms:
        v = parts[t] if mask is None else parts[t] & mask
        out = v if out is None else out ^ v
    return out


def _angles(layer: _RotLayer, theta) -> np.ndarray:
    """The layer's (L, 2, W) angle planes, or (L, 2, 1) when every angle
    is fixed."""
    if not layer.params.size:
        return layer.fixed_k
    k = theta.k_for(layer.params)
    if layer.params.size == len(layer.fixed_k):
        return k
    out = np.repeat(layer.fixed_k, k.shape[-1], axis=2)
    out[layer.param_at] = k
    return out


#: the byte of a float64 holding its sign bit (as bit 7)
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _sign_bytes(a: np.ndarray) -> np.ndarray:
    """The byte holding the sign bit (bit 7) of each float64 of the
    contiguous ``a``, as a uint8 view."""
    return a.view(np.uint8)[_SIGN_BYTE::8]


def _fold_signs(w: np.ndarray, sign: np.ndarray) -> None:
    """Negate, in place, the weights of the lanes set in the lane plane
    ``sign``: XOR each lane's sign bit into the sign bit of its float64
    weight, which is what IEEE negation does.  Negation is exact, so
    folding the sign row in at the end of a walk is bit-identical to
    negating each lane's weight at the step that flipped it."""
    bits = _unpack(sign, w.size)
    bits <<= 7
    top = _sign_bytes(w)
    top ^= bits


def _terminal_values(x, z, w, state) -> np.ndarray:
    """w * tr(P rho) per lane against a sparse state, in real arithmetic,
    bit for bit the real part of the complex product numpy would form,
    signed zeros included.

    tr(P rho) is i^e times the sum of s * amp over the state's entries (r,
    c, amp) with r ^ c = x, where s = (-1)^|z & r| and e is the lane's
    count of x & z bits mod 4.  The sum's real and imaginary parts (ar, ai)
    add the parts of (s + 0j) * amp: s * amp.real - 0.0 * amp.imag and
    s * amp.imag + 0.0 * amp.real.  With (c, d) = i^e, which numpy holds as
    (1, 0), (0, 1), (-1, 0) or (-0, -1), the real part re = ar*c - ai*d is
    one part times +-1 plus a signed zero: ar, -ai, -ar or ai for e = 0..3,
    plus the other part times +-0.  So the parts are summed straight into
    ``main`` (ar for even e, ai for odd e) and ``other``, and main is
    negated where e is 1 or 2.  A sum of x and a signed zero is x, except
    that -0.0 + 0.0 is 0.0; the zero term has the sign of ``other``,
    flipped unless e is 1, so re is main with its zeros set to 0.0 where
    that term is 0.0.  The imaginary part im = ar*d + ai*c has the
    magnitude of ``other``, which the Hermitian check reads."""
    b, width = x.shape
    e = popcount_words(x & z)
    e &= 3
    e = e.astype(np.uint8)
    odd = (e & 1).view(bool)
    main, other = np.zeros(b), np.zeros(b)
    for r, c, amp in state.entries:
        t = mask_to_words(r ^ c, 64 * width)[None, :width]
        match = np.flatnonzero(np.all(x == t, axis=1))
        # the parts of (s + 0j) * amp, at 2 * [s = -1] + [part is im]
        parts = np.array([amp.real - 0.0 * amp.imag,
                          amp.imag + 0.0 * amp.real,
                          -amp.real - 0.0 * amp.imag,
                          -amp.imag + 0.0 * amp.real])
        at = odd[match].view(np.uint8)
        if r:
            rz = mask_to_words(r, 64 * width)[None, :width]
            odd_z = popcount_words(z[match] & rz) & 1
            at = at + 2 * odd_z.astype(np.uint8)
        main[match] += parts[at]
        other[match] += parts[at ^ 1]
    flip = (e ^ e >> 1) & 1
    flip <<= 7
    top = _sign_bytes(main)
    top ^= flip
    main[(main == 0.0) & (_sign_bytes(other) >> 7 == (e != 1))] = 0.0
    scale = max(1.0, float(np.abs(main).max(initial=0.0)))
    if float(np.abs(other).max(initial=0.0)) > 1e-9 * scale:
        raise AssertionError("complex trace against a Hermitian state")
    main *= w
    return main


def _run_batch(circuit: Circuit, direction: str, x0, z0, theta, *,
               seed: int = 0, stream_ids=None, w0=None, slot_offset: int = 0,
               collect_flags: bool = False):
    """Drive B simultaneous walks, one sampled path per input lane; returns
    (x, z, w, flags).

    The theta source, ``stream_ids`` and ``w0`` each cover the B lanes of
    ``x0`` and ``z0``.  A sampled channel step draws the branch of lane i
    at noise site j from the uniform keyed by (``seed``, ``stream_ids[i]``,
    ``slot_offset + j``), so the walks need stream ids when channels branch.
    The walk hashes each lane's (``seed``, ``stream_ids[i]``) prefix once,
    at the first step that draws, and a uniform is one more mix of it.

    ``collect_flags`` additionally records, per lane and noise site, the
    matrix entry the lane used there, as its index tau * 4^m + s into the
    sampled matrix (the PTM backward, its transpose forward): s is the word
    the lane brought (the entry's input word), tau the word it left with
    (its output word; the identity, 0, when the lane died at an empty
    column).  A site outside the light cone records 0, the identity entry.
    None unless requested.

    The walk state is bit-sliced: ``planes`` holds the x row of every qubit,
    then every z row, then the sign row, each a lane plane.  Lane-major
    words exist only at entry and exit, and one bit-matrix transpose
    (:func:`_transpose`) converts both ways, skipping the rows a register
    under 64 qubits leaves empty.  The walk follows the fused program
    (:func:`_fused_program`): one step per layer of rotations, and per
    Clifford and channel.  Rotation layers, Clifford steps
    (:func:`_clifford`) and channel steps, diagonal or not
    (:func:`_branch`), work on the planes; only ``collect_flags`` unpacks a
    step's rows to per-lane codes (:func:`_local_codes`).  A program whose
    channel factors can be counted (its ``counted`` factor f, see
    :func:`_counted_factor`) does not multiply at its channel steps: each
    adds the lanes it multiplies by f (its class plane) into a per-lane
    counter, uint8 or past 255 counting steps uint16, and the weights are
    read from the power table of |f| at the end (:func:`_fold_hits`).  The
    sign row is folded into the weights last (:func:`_fold_signs`).

    The walk stops early once no lane has a non-zero weight.  Only a step
    with a zero factor (``_BranchForm.kills``) can zero a weight,
    so the test runs after such a step, and after the first channel step
    when ``w0`` is given; a sampled branch's own factor is never 0.  A
    product of non-zero factors can still underflow to 0, and a batch that
    dies so walks on to its end: its weights are 0 either way.  A counted
    walk has no step that kills, and its test after the first channel step
    reads the start weights themselves.
    """
    n = circuit.n
    x0 = np.asarray(x0, dtype=np.uint64)
    z0 = np.asarray(z0, dtype=np.uint64)
    if x0.shape[1:] != (n_words(n),) or z0.shape != x0.shape:
        raise ValueError(f"walk words must be (lanes, {n_words(n)}) arrays "
                         f"for {n} qubits, got {x0.shape} and {z0.shape}")
    b = x0.shape[0]
    for what, given in (("the theta source", theta),
                        ("stream_ids", stream_ids), ("w0", w0)):
        if given is not None and len(given) != b:
            raise ValueError(f"{what} covers {len(given)} lanes, the walk "
                             f"words {b}")
    support = _support_mask(x0, z0)
    if support >> n:
        raise ValueError(f"walk words act on qubits beyond the {n}-qubit "
                         "register")
    prog, counted = _fused_program(circuit, direction, support)
    backward = direction == "backward"
    planes = np.concatenate((_transpose(x0, n), _transpose(z0, n),
                             np.zeros((1, (b + 63) // 64), dtype=_LANE)))
    w = np.ones(b) if w0 is None else np.array(w0, dtype=np.float64,
                                               copy=True)
    if circuit.branching():
        if stream_ids is None:
            raise ValueError("sampled walk through branching channels "
                             "needs per-lane stream ids")
        stream_ids = np.ascontiguousarray(stream_ids, dtype=np.uint64)
    flags = np.zeros((b, len(circuit.noise_sites)), dtype=np.int32) \
        if collect_flags else None
    hits = None if counted is None else np.zeros(b, dtype=counted[1])

    prefix = None  # every lane's hash_words(seed, DOMAIN_TAU, stream id)

    def uniforms(lanes, ordinal):
        nonlocal prefix
        if prefix is None:
            prefix = hash_words(seed, DOMAIN_TAU, stream_ids)
        h = prefix[lanes]
        h ^= np.uint64(slot_offset + ordinal)
        h = mix64(h, out=h)
        h >>= np.uint64(11)  # the draw m of the uniform m * 2^-53
        return h

    test_w0 = w0 is not None  # a given w0 may have no live lane
    for step in prog:
        if isinstance(step, _RotLayer):
            _rotate(planes, n, step, _angles(step, theta), backward)
            continue
        if isinstance(step, _CliffStep):
            _clifford(planes, n, step)
            continue
        col = None if flags is None else _local_codes(planes, step.rows, b)
        _branch(planes, step, w, hits, uniforms)
        if flags is not None:
            flags[:, step.ordinal] = _local_codes(planes, step.rows, b) \
                * len(step.channel.ptm) + col
        if (step.form.kills or test_w0) and not w.any():
            break
        test_w0 = False
    if hits is not None:
        _fold_hits(w, hits, counted[0], w0 is not None)
        del hits  # before the exit transposes, where a walk peaks
    _fold_signs(w, planes[2 * n])
    return (_transpose(planes[:n], b), _transpose(planes[n:2 * n], b), w,
            flags)


def run_backward_batch(circuit: Circuit, state, x0, z0, theta, *,
                       seed: int = 0, stream_ids=None, w0=None,
                       slot_offset: int = 0, collect_flags: bool = False):
    """Batched observable back-propagation closed against ``state``.

    Returns one value per input lane, from one sampled path per lane:
    weight x sign x tr(P_final rho).  With ``collect_flags`` returns
    (values, flags), flags[i, j] the index into ``ptm.ravel()`` of the entry
    walk i used at noise site j (see :func:`_run_batch`).
    """
    x, z, w, flags = _run_batch(
        circuit, "backward", x0, z0, theta, seed=seed, stream_ids=stream_ids,
        w0=w0, slot_offset=slot_offset, collect_flags=collect_flags)
    vals = _terminal_values(x, z, w, state)
    if collect_flags:
        return vals, flags
    return vals


def run_forward_batch(circuit: Circuit, x0, z0, theta, *, seed: int = 0,
                      stream_ids=None):
    """Batched forward (Heisenberg) push of words through the circuit.

    Returns (x, z, w): the evolved words and weights, one sampled path per
    lane, to be chained into a backward walk (expressibility's two-circuit
    overlap).
    """
    x, z, w, _ = _run_batch(circuit, "forward", x0, z0, theta, seed=seed,
                            stream_ids=stream_ids)
    return x, z, w
