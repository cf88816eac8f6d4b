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

The same algebra is exposed twice.  The object layer (PauliString /
SignedPauli) describes circuits, observables and their text form, and builds
the Clifford tables the batched walker looks up (:func:`clifford_table`,
from :func:`multiply`).  It has no dense form: ``oracle.pauli_dense`` is the
one dense reference.  It also owns the local word index that every gate,
channel and transfer-matrix table is indexed by
(:meth:`PauliString.local_index`, :meth:`~PauliString.with_local`,
:meth:`~PauliString.from_local`).  A handful of vectorized helpers on uint64
word arrays serve the one walk engine, the batched walker, which reads the
same index off its lane planes.  Both layers take their phases from the one
formula, :func:`phase_exponent` (the batched walker tabulates it per qubit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_popcount = int.bit_count


# local single-qubit codes: 0=I, 1=X, 2=Y, 3=Z
CODE_CHARS = "IXYZ"
CODE_TO_X = (0, 1, 1, 0)
CODE_TO_Z = (0, 0, 1, 1)
# indexed by x + 2*z
XZ_TO_CODE = (0, 1, 3, 2)


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

    @classmethod
    def from_local(cls, idx: int, m: int) -> "PauliString":
        """The m-qubit word with local index ``idx``."""
        return cls.identity(m).with_local(range(m), idx)

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

    def to_text(self) -> str:
        return "+" + "".join(CODE_CHARS[self.code_at(j)]
                             for j in range(self.n))

    def __str__(self) -> str:
        return self.to_text()

    # -- local word indices ------------------------------------------------
    #
    # A word's codes on an ordered ``support`` pack little-endian into a
    # local index, idx = sum_i code(support[i]) * 4^i: the index of the
    # gate, channel and transfer-matrix tables.

    def local_index(self, support) -> int:
        """This word's local index on ``support``."""
        return sum(self.code_at(q) << (2 * i) for i, q in enumerate(support))

    def with_local(self, support, idx: int) -> "PauliString":
        """This word with its codes on ``support`` set from local index
        ``idx``; the other qubits keep theirs."""
        x, z = self.x_bits, self.z_bits
        for i, q in enumerate(support):
            c = (idx >> (2 * i)) & 3
            x = (x & ~(1 << q)) | (CODE_TO_X[c] << q)
            z = (z & ~(1 << q)) | (CODE_TO_Z[c] << q)
        return PauliString(self.n, x, z)


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli word times i^phase_q, q in {0,1,2,3}."""

    pauli: PauliString
    phase_q: int

    def __post_init__(self) -> None:
        if self.phase_q not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be in {0,1,2,3}")

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
        p = PauliString.from_local(idx, m)
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
        out_idx[idx] = acc.pauli.local_index(range(m))
        out_sign[idx] = 1 if acc.phase_q == 0 else -1
    return out_idx, out_sign


_FWD_TABLES: dict[str, tuple[np.ndarray, np.ndarray]] = {}
for _kind, _imgs in _GEN_IMAGES_1Q.items():
    _FWD_TABLES[_kind] = _build_table(1, _imgs)
for _kind, _imgs in _GEN_IMAGES_2Q.items():
    _FWD_TABLES[_kind] = _build_table(2, _imgs)


def clifford_table(kind: str, direction: str = "backward"
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(out_code_index, sign) arrays over the local word indices on the
    gate's qubits (:meth:`PauliString.local_index`, gate qubit 0 lowest).
    """
    if direction == "backward":
        kind = _INVERSE_KIND.get(kind, kind)
    elif direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    try:
        return _FWD_TABLES[kind]
    except KeyError:
        raise ValueError(f"unknown clifford kind {kind!r}") from None


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


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Total set bits per lane, summing over the word axis (last axis, at
    least one word) as int64.  Each word column's counts are added into one
    array: numpy sums a short last axis row by row, several times slower
    from two words on."""
    count = np.bitwise_count(words[..., 0]).astype(np.int64)
    for j in range(1, words.shape[-1]):
        count += np.bitwise_count(words[..., j])
    return count

