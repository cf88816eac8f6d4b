"""Pauli-word algebra on integer bit masks.

An n-qubit Pauli word is stored as two masks: bit ``j`` of ``x_bits`` /
``z_bits`` says whether qubit ``j`` carries an X / Z factor.  The canonical
matrix attached to a mask pair is

    P(x, z) = i^{|x & z|} * X^x * Z^z

so the code pair (1, 1) is exactly the Hermitian Y, not i*XZ.  All phases that
appear when multiplying or conjugating words are powers of i and are tracked
as an exponent ``q`` in {0, 1, 2, 3} (:class:`SignedPauli`).

Qubit 0 sits at bit 0 of the masks and at the *least significant* bit of
computational-basis indices (so dense kroneckers are built qubit-(n-1) down to
qubit-0).  Text form prints qubit 0 first: ``+XIZ`` means X on qubit 0, Z on
qubit 2.

The same algebra is exposed twice: an object layer (PauliString/SignedPauli)
for everything user-facing, the oracle, and ``engine.backprop_term`` (the
scalar walk the tests check the engine against), and a handful of vectorized
helpers operating on uint64 word arrays for the one walk engine, the batched
walker.  Both take their phases from the one formula, :func:`phase_exponent`
(the batched walker tabulates it per qubit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # python 3.10
    def _popcount(v: int) -> int:
        return bin(v).count("1")


# local single-qubit codes: 0=I, 1=X, 2=Y, 3=Z
CODE_CHARS = "IXYZ"
CODE_TO_X = (0, 1, 1, 0)
CODE_TO_Z = (0, 0, 1, 1)
# indexed by x + 2*z
XZ_TO_CODE = (0, 1, 3, 2)

_PAULI_MATS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class PauliString:
    """Unsigned n-qubit Pauli word as (x, z) bit masks."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n) - 1
        if self.x_bits & ~full or self.z_bits & ~full:
            raise ValueError("mask has bits outside the register")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_codes(cls, codes) -> "PauliString":
        """Build from a sequence of per-qubit codes (0=I,1=X,2=Y,3=Z)."""
        x = z = 0
        for j, c in enumerate(codes):
            c = int(c)
            x |= CODE_TO_X[c] << j
            z |= CODE_TO_Z[c] << j
        return cls(len(codes), x, z)

    @classmethod
    def single(cls, n: int, qubit: int, code: int) -> "PauliString":
        """One non-identity factor on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError("qubit out of range")
        return cls(n, CODE_TO_X[code] << qubit, CODE_TO_Z[code] << qubit)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse ``[+-]?[IXYZ]+`` (qubit 0 leftmost)."""
        body = text
        if body and body[0] in "+-":
            if body[0] == "-":
                raise ValueError("bare PauliString cannot carry a sign; "
                                 "parse via SignedPauli.from_text")
            body = body[1:]
        if not body:
            raise ValueError("empty Pauli text")
        try:
            codes = [CODE_CHARS.index(ch) for ch in body.upper()]
        except ValueError:
            raise ValueError(f"bad Pauli text {text!r}") from None
        return cls.from_codes(codes)

    # -- views -------------------------------------------------------------

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return _popcount(self.x_bits | self.z_bits)

    def is_identity(self) -> bool:
        return not (self.x_bits | self.z_bits)

    def code_at(self, qubit: int) -> int:
        x = (self.x_bits >> qubit) & 1
        z = (self.z_bits >> qubit) & 1
        return XZ_TO_CODE[x + 2 * z]

    def to_codes(self) -> np.ndarray:
        return np.array([self.code_at(j) for j in range(self.n)],
                        dtype=np.uint8)

    def to_text(self) -> str:
        return "+" + "".join(CODE_CHARS[self.code_at(j)]
                             for j in range(self.n))

    def __str__(self) -> str:
        return self.to_text()

    def to_dense(self) -> np.ndarray:
        """2^n x 2^n complex matrix (qubit 0 least significant). n <= 12."""
        if self.n > 12:
            raise ValueError("dense form capped at 12 qubits")
        m = np.array([[1.0 + 0j]])
        for j in range(self.n):
            m = np.kron(_PAULI_MATS[self.code_at(j)], m)
        return m


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli word times i^phase_q.

    Walk intermediates may hold any q in {0,1,2,3}; at path boundaries
    (where a real number must come out) q must be even, which
    :meth:`real_sign` enforces.
    """

    pauli: PauliString
    phase_q: int

    def __post_init__(self) -> None:
        if self.phase_q not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be in {0,1,2,3}")

    def real_sign(self) -> int:
        """+1 or -1; raises if the phase is imaginary."""
        if self.phase_q & 1:
            raise ValueError(f"imaginary phase i^{self.phase_q} where a real "
                             "sign is required")
        return 1 if self.phase_q == 0 else -1

    def to_text(self) -> str:
        prefix = ("+", "+i", "-", "-i")[self.phase_q]
        return prefix + self.pauli.to_text()[1:]

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "SignedPauli":
        q = 0
        body = text
        for prefix, qq in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if body.startswith(prefix):
                q = qq
                body = body[len(prefix):]
                break
        return cls(PauliString.from_text(body), q)

    def to_dense(self) -> np.ndarray:
        return (1j ** self.phase_q) * self.pauli.to_dense()


# ---------------------------------------------------------------------------
# products, commutation, conjugation
# ---------------------------------------------------------------------------

def phase_exponent(xa: int, za: int, xb: int, zb: int) -> int:
    """Exponent q of i in P(a) * P(b) = i^q * P(a xor b).

    Derived once from the canonical form P = i^{|x&z|} X^x Z^z: pushing
    Z^{za} through X^{xb} costs (-1)^{|za & xb|}, and the i-prefactors of
    the operands and the result supply the rest.
    """
    return (
        _popcount(xa & za)
        + _popcount(xb & zb)
        + 2 * _popcount(za & xb)
        - _popcount((xa ^ xb) & (za ^ zb))
    ) % 4


def multiply(a: PauliString, b: PauliString) -> SignedPauli:
    """Exact product a * b with its i^q phase."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    q = phase_exponent(a.x_bits, a.z_bits, b.x_bits, b.z_bits)
    return SignedPauli(
        PauliString(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits), q)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the words commute (symplectic-form parity is even)."""
    return (_popcount(a.x_bits & b.z_bits)
            + _popcount(a.z_bits & b.x_bits)) % 2 == 0


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


# -- Clifford conjugation tables --------------------------------------------
#
# Tables are generated from generator images, not typed in by hand: a gate is
# specified by where it sends each X_j and Z_j under forward conjugation
# C g C^dag, and the image of an arbitrary local word follows from the
# canonical form and `multiply`.  Backward conjugation C^dag g C uses the
# forward table of the inverse gate.

_GEN_IMAGES_1Q = {
    "i":   {"x0": "+X", "z0": "+Z"},
    "x":   {"x0": "+X", "z0": "-Z"},
    "y":   {"x0": "-X", "z0": "-Z"},
    "z":   {"x0": "-X", "z0": "+Z"},
    "h":   {"x0": "+Z", "z0": "+X"},
    "s":   {"x0": "+Y", "z0": "+Z"},
    "sdg": {"x0": "-Y", "z0": "+Z"},
}

_GEN_IMAGES_2Q = {
    # qubit order in text: first char = qubits[0] (control for cnot)
    "cnot": {"x0": "+XX", "z0": "+ZI", "x1": "+IX", "z1": "+ZZ"},
    "cz":   {"x0": "+XZ", "z0": "+ZI", "x1": "+ZX", "z1": "+IZ"},
    "swap": {"x0": "+IX", "z0": "+IZ", "x1": "+XI", "z1": "+ZI"},
}

_INVERSE_KIND = {"s": "sdg", "sdg": "s"}

CLIFFORD_1Q_KINDS = tuple(_GEN_IMAGES_1Q)
CLIFFORD_2Q_KINDS = tuple(_GEN_IMAGES_2Q)


def _parse_signed(text: str, m: int) -> SignedPauli:
    sp = SignedPauli.from_text(text)
    assert sp.pauli.n == m
    return sp


def _build_table(m: int, images: dict) -> tuple[np.ndarray, np.ndarray]:
    """(out_code_index, sign) lookup over all 4^m local words."""
    gen = {key: _parse_signed(txt, m) for key, txt in images.items()}
    size = 4 ** m
    out_idx = np.zeros(size, dtype=np.int64)
    out_sign = np.zeros(size, dtype=np.int8)
    for idx in range(size):
        codes = [(idx >> (2 * j)) & 3 for j in range(m)]
        p = PauliString.from_codes(codes)
        # image of i^{|x&z|} X^x Z^z, factor by factor
        acc = SignedPauli(PauliString.identity(m),
                          _popcount(p.x_bits & p.z_bits) % 4)
        for j in range(m):
            if (p.x_bits >> j) & 1:
                img = gen[f"x{j}"]
                prod = multiply(acc.pauli, img.pauli)
                acc = SignedPauli(prod.pauli,
                                  (acc.phase_q + img.phase_q + prod.phase_q) % 4)
        for j in range(m):
            if (p.z_bits >> j) & 1:
                img = gen[f"z{j}"]
                prod = multiply(acc.pauli, img.pauli)
                acc = SignedPauli(prod.pauli,
                                  (acc.phase_q + img.phase_q + prod.phase_q) % 4)
        assert acc.phase_q % 2 == 0, "clifford image must stay Hermitian"
        j_idx = 0
        for j in range(m):
            j_idx |= acc.pauli.code_at(j) << (2 * j)
        out_idx[idx] = j_idx
        out_sign[idx] = 1 if acc.phase_q == 0 else -1
    return out_idx, out_sign


_FWD_TABLES: dict[str, tuple[np.ndarray, np.ndarray]] = {}
for _kind, _imgs in _GEN_IMAGES_1Q.items():
    _FWD_TABLES[_kind] = _build_table(1, _imgs)
for _kind, _imgs in _GEN_IMAGES_2Q.items():
    _FWD_TABLES[_kind] = _build_table(2, _imgs)


def clifford_table(kind: str, direction: str = "backward"
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(out_code_index, sign) arrays over local code indices.

    Local index packs per-qubit codes little-endian: idx = sum_j code_j 4^j
    with gate qubit 0 in the low bits.
    """
    if direction == "backward":
        kind = _INVERSE_KIND.get(kind, kind)
    elif direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    try:
        return _FWD_TABLES[kind]
    except KeyError:
        raise ValueError(f"unknown clifford kind {kind!r}") from None


def conjugate_clifford(kind: str, qubits: tuple[int, ...], p: SignedPauli,
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
    ps = p.pauli
    idx = 0
    for i, q in enumerate(qubits):
        idx |= ps.code_at(q) << (2 * i)
    new_idx = int(out_idx[idx])
    sign = int(out_sign[idx])
    x, z = ps.x_bits, ps.z_bits
    for i, q in enumerate(qubits):
        c = (new_idx >> (2 * i)) & 3
        x = (x & ~(1 << q)) | (CODE_TO_X[c] << q)
        z = (z & ~(1 << q)) | (CODE_TO_Z[c] << q)
    return SignedPauli(PauliString(ps.n, x, z),
                       p.phase_q if sign == 1 else (p.phase_q + 2) % 4)


# ---------------------------------------------------------------------------
# traces against sparse states
# ---------------------------------------------------------------------------

def trace_pauli_with_entries(p: PauliString, entries) -> float:
    """tr(P rho) for rho given as an iterable of (row, col, amplitude).

    Uses <a|X^x Z^z|b> = delta_{a, b xor x} (-1)^{z.b}; the result of a trace
    against a Hermitian operator must be real, which is asserted.
    """
    x, z, n = p.x_bits, p.z_bits, p.n
    iq = 1j ** (_popcount(x & z) % 4)
    acc = 0j
    for row, col, amp in entries:
        # P_{col,row} * rho_{row,col}
        if col == row ^ x:
            sign = -1.0 if _popcount(z & row) & 1 else 1.0
            acc += iq * sign * amp
    if abs(acc.imag) > 1e-9 * max(1.0, abs(acc.real)):
        raise ValueError(f"trace came out complex ({acc}); state not Hermitian?")
    return float(acc.real)


def trace_with_sparse_state(p: PauliString, entries,
                            normalized: bool = True) -> float:
    """Inner product of a Pauli word with a sparse density operator.

    With ``normalized=True`` (default) the word is scaled to unit
    Hilbert-Schmidt norm, i.e. the value is tr(P rho) / 2^{n/2}; e.g. Z...Z
    against |0...0> gives 2^{-n/2}.
    """
    val = trace_pauli_with_entries(p, entries)
    if normalized:
        val /= 2.0 ** (p.n / 2.0)
    return val


# ---------------------------------------------------------------------------
# vectorized word-array helpers (batched walker)
# ---------------------------------------------------------------------------
#
# A batch of B Pauli words on n qubits is a pair of uint64 arrays of shape
# (B, W), W = ceil(n/64), word w of lane b holding qubits 64w .. 64w+63.

def n_words(n: int) -> int:
    return (n + 63) // 64


def mask_to_words(mask: int, n: int) -> np.ndarray:
    w = n_words(n)
    return np.array([(mask >> (64 * i)) & 0xFFFFFFFFFFFFFFFF
                     for i in range(w)], dtype=np.uint64)


def words_to_mask(words: np.ndarray) -> int:
    mask = 0
    for i, w in enumerate(np.asarray(words, dtype=np.uint64).ravel()):
        mask |= int(w) << (64 * i)
    return mask


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Total set bits per lane, summing over the word axis (last axis)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def parity_words(words: np.ndarray) -> np.ndarray:
    """popcount mod 2 per lane (0/1, int64)."""
    return popcount_words(words) & 1


def phase_exponent_words(xa, za, xb, zb) -> np.ndarray:
    """Vectorized :func:`phase_exponent` over (..., W) uint64 word arrays."""
    t = (popcount_words(xa & za)
         + popcount_words(xb & zb)
         + 2 * popcount_words(za & xb)
         - popcount_words((xa ^ xb) & (za ^ zb)))
    return t % 4
