"""Counter-based splittable random streams.

Every random draw in this package is a pure function of
``(seed, domain, stream, slot)``.  Nothing is stateful at the engine level, so
partitioning work across any number of workers (or vectorizing it) cannot
change a single drawn value.  The mixer is the standard SplitMix64 finalizer
applied as a keyed hash; it is used here the way counter-based generators are
used in parallel Monte Carlo (one independent stream per sample index).

Domains keep draw families from colliding:

- ``DOMAIN_TAU``    channel-branch draws inside a path walk (slot = noise-site
  ordinal within the compiled circuit)
- ``DOMAIN_THETA``  grid-angle draws (stream = outer sample uid, slot = param)
- ``DOMAIN_SIGMA``  random-Pauli draws for expressibility (slot = 64-bit word)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DOMAIN_TAU = 0x7A75
DOMAIN_THETA = 0x7468
DOMAIN_SIGMA = 0x7369

#: 2^-53, converts the top 53 bits of a uint64 into a float64 in [0, 1)
_INV_2_53 = float(2.0 ** -53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z + _U64(_GOLDEN)) & _U64(_MASK64)
        z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
        z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
        return z ^ (z >> _U64(31))


def hash_words(seed: int, *words) -> np.ndarray:
    """Keyed hash of any number of uint64 words (scalars or arrays).

    Words broadcast against each other, so a single call can produce a whole
    lattice of independent values, e.g. ``hash_words(s, tag, outer[:, None],
    k[None, :])``.
    """
    h = mix64(np.asarray(seed & _MASK64, dtype=np.uint64))
    for w in words:
        w = np.asarray(w, dtype=np.uint64)
        h = mix64(h ^ w)
    return h


def uniform_from_hash(h: np.ndarray) -> np.ndarray:
    """Map hashed uint64 values to float64 uniforms in [0, 1)."""
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53


def uniforms(seed: int, domain: int, stream, slot) -> np.ndarray:
    """Uniform [0,1) draws, one per broadcast element of (stream, slot)."""
    return uniform_from_hash(hash_words(seed, domain, stream, slot))


def grid_angle(seed: int, uid, param) -> np.ndarray:
    """Grid-angle index k in {0,1,2,3} (theta_k = (pi/2)*k) of parameter
    ``param`` in outer sample ``uid``, as uint8.

    The one place a uid turns into angles: every other angle source calls
    it.  ``uid`` and ``param`` broadcast against each other.
    """
    return (hash_words(seed, DOMAIN_THETA, uid, param) & _U64(3)).astype(
        np.uint8)


def angle_indices(seed: int, outer_uid, n_params: int) -> np.ndarray:
    """Grid angles of the first ``n_params`` parameters, k uniform on
    {0,1,2,3}.

    ``outer_uid`` may be a scalar or an array of outer-sample uids; the result
    has shape ``outer_uid.shape + (n_params,)`` and dtype uint8.
    """
    uid = np.asarray(outer_uid, dtype=np.uint64)
    return grid_angle(seed, uid[..., None],
                      np.arange(n_params, dtype=np.uint64))


def pauli_codes(seed: int, outer_uid, n: int, *, zx_only: bool = False) -> np.ndarray:
    """Random Pauli words as per-qubit codes (0=I,1=X,2=Y,3=Z).

    Uniform over all 4^n words, or over {I,Z}^n with ``zx_only``.  Result
    shape: ``outer_uid.shape + (n,)``, dtype uint8.
    """
    uid = np.asarray(outer_uid, dtype=np.uint64)
    qs = np.arange(n, dtype=np.uint64)
    h = hash_words(seed, DOMAIN_SIGMA, uid[..., None], qs)
    if zx_only:
        # map a single bit to {0, 3} = {I, Z}
        return ((h & _U64(1)).astype(np.uint8)) * np.uint8(3)
    return (h & _U64(3)).astype(np.uint8)


def compose_stream(outer: int, inner: int = 0, term: int = 0) -> int:
    """Pack (outer sample, inner sample, observable term) into one stream id.

    Layout: outer in the top 32 bits, inner in the next 20, term in the low 12.
    Bounds are validated so distinct triples can never collide.
    """
    if not 0 <= outer < (1 << 32):
        raise ValueError(f"outer sample index {outer} out of 32-bit range")
    if not 0 <= inner < (1 << 20):
        raise ValueError(f"inner sample index {inner} out of 20-bit range")
    if not 0 <= term < (1 << 12):
        raise ValueError(f"term index {term} out of 12-bit range")
    return (outer << 32) | (inner << 12) | term


def compose_stream_array(outer, inner, term) -> np.ndarray:
    """Vectorized :func:`compose_stream` (no bounds re-check per element)."""
    outer = np.asarray(outer, dtype=np.uint64)
    inner = np.asarray(inner, dtype=np.uint64)
    term = np.asarray(term, dtype=np.uint64)
    return (outer << _U64(32)) | (inner << _U64(12)) | term


@dataclass
class RngStream:
    """A named random stream: (seed, stream_id) fully determine all draws.

    ``uniform()`` is a convenience for stateful-looking consumption (slot
    auto-increments); ``uniform_at(slot)`` is the pure form the engine uses
    (slot = noise-site ordinal), which is what makes scalar and vectorized
    walks produce bit-identical histories.
    """

    seed: int
    stream_id: int
    counter: int = field(default=0, compare=False)

    def uniform_at(self, slot: int) -> float:
        return float(uniforms(self.seed, DOMAIN_TAU, self.stream_id, slot))

    def uniform(self) -> float:
        u = self.uniform_at(self.counter)
        self.counter += 1
        return u
