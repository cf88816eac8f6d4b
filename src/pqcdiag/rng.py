"""Counter-based splittable random streams.

Every random draw in this package is a pure function of
``(seed, domain, stream, slot)``.  Nothing is stateful at the engine level, so
partitioning work across any number of workers (or vectorizing it) cannot
change a single drawn value.  The mixer is the standard SplitMix64 finalizer
applied as a keyed hash; it is used here the way counter-based generators are
used in parallel Monte Carlo (one independent stream per sample index).

Domains keep draw families from colliding:

- ``DOMAIN_TAU``    channel-branch draws inside a path walk (stream = walk
  stream id, whose prefix a walk hashes once; slot = noise-site ordinal
  within the compiled circuit, one more mix of that prefix)
- ``DOMAIN_THETA``  grid-angle draws (stream = a group of 64 consecutive
  outer sample uids, slot = 2 * parameter + b; bit j of the slot's hash is
  bit b of that parameter's angle for the group's uid j)
- ``DOMAIN_SIGMA``  random-Pauli draws for expressibility, laid out as the
  angles are (stream = a group of 64 consecutive word uids, slot = 2 *
  qubit + b; bit j of the slot's hash is bit b of that qubit's 2-bit Pauli
  code in the group's word uid j)
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DOMAIN_TAU = 0x7A75
DOMAIN_THETA = 0x7468
DOMAIN_SIGMA = 0x7369

def mix64(z, out=None):
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic).

    With ``out`` (which may be ``z`` itself) the result is written there, so
    mixing a fresh array in place allocates no result array.  The three
    shifts share one temporary.
    """
    with np.errstate(over="ignore"):
        z = np.add(z, _U64(_GOLDEN), out=out)
        tmp = np.empty_like(z)
        z ^= np.right_shift(z, _U64(30), out=tmp)
        z *= _U64(_MIX1)
        z ^= np.right_shift(z, _U64(27), out=tmp)
        z *= _U64(_MIX2)
        z ^= np.right_shift(z, _U64(31), out=tmp)
    return z


def hash_words(seed: int, *words) -> np.ndarray:
    """Keyed hash of any number of uint64 words (scalars or arrays).

    Words broadcast against each other, so a single call can produce a whole
    lattice of independent values, e.g. ``hash_words(s, tag, outer[:, None],
    k[None, :])``.  Appending a word mixes it into the hash of the words
    before it: ``hash_words(s, *ws, w) == mix64(hash_words(s, *ws) ^ w)``,
    which is what lets :func:`theta_keys` hash a group's prefix once.
    """
    h = mix64(np.asarray(seed & _MASK64, dtype=np.uint64))
    for w in words:
        w = np.asarray(w, dtype=np.uint64)
        h = mix64(h ^ w)
    return h


def theta_keys(seed: int, group, domain: int = DOMAIN_THETA) -> np.ndarray:
    """Key of a group of 64 uids of the plane-major stream ``domain``,
    ``hash_words(seed, domain, group)`` for ``group = uid // 64``: computed
    once per group (``engine.AngleSource`` hashes each of a job's groups
    once), it leaves one :func:`mix64` per bit of a parameter's 2-bit draw
    for all 64 uids of the group (see :func:`theta_words`)."""
    return hash_words(seed, domain, group)


def theta_words(keys, params, bits=(0, 1)) -> np.ndarray:
    """The (L, len(bits), G) words of the (L,) parameters ``params`` from
    the :func:`theta_keys` of G groups: word [l, i, g] is ``mix64(keys[g] ^
    (2 * params[l] + bits[i]))``, whose bit j is bit ``bits[i]`` of the
    draw of parameter ``params[l]`` for uid ``64 * group + j`` (see
    :func:`grid_angle`).  One :func:`mix64` call, in place."""
    ctr = (np.asarray(params, dtype=np.uint64)[:, None] << _U64(1)) \
        | np.asarray(bits, dtype=np.uint64)
    h = np.bitwise_xor(np.asarray(keys, dtype=np.uint64), ctr[:, :, None])
    return mix64(h, out=h)


def grid_angle(seed: int, uid, param, domain: int = DOMAIN_THETA
               ) -> np.ndarray:
    """Grid-angle index k in {0,1,2,3} (theta_k = (pi/2)*k) of parameter
    ``param`` in outer sample ``uid``, as uint8.

    The one definition of the angle stream, plane-major: bit b of k is bit
    ``uid % 64`` of ``mix64(theta_keys(seed, uid // 64) ^ (2 * param +
    b))``, so one counter-based hash yields bit b of one parameter's angle
    for 64 consecutive uids (a counter-based generator may lay its counters
    out in any injective way, and one call yields many outputs: Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A walk's
    angle planes are those words, a bit a lane, as Stim keeps its Pauli
    frames plane-major (Gidney, arXiv:2103.02202).  Every other angle
    source goes through it or through :func:`theta_keys` and
    :func:`theta_words`, which hash the same words a group at a time.
    ``uid`` and ``param`` broadcast against each other; parameters are
    below 2^63.  With ``domain`` = ``DOMAIN_SIGMA`` it defines the sigma
    stream, the random Pauli words of ``engine.pauli_codes``: k is qubit
    ``param``'s code (0=I, 1=X, 2=Y, 3=Z) in word ``uid``, and (x, z) = (b0
    ^ b1, b1).
    """
    uid = np.asarray(uid, dtype=np.uint64)
    ctr = np.asarray(param, dtype=np.uint64) << _U64(1)
    key = theta_keys(seed, uid >> _U64(6), domain)
    bit = uid & _U64(63)
    k = (mix64(key ^ ctr) >> bit) & _U64(1)
    k |= ((mix64(key ^ (ctr | _U64(1))) >> bit) & _U64(1)) << _U64(1)
    return k.astype(np.uint8)


def angle_indices(seed: int, outer_uid, n_params: int) -> np.ndarray:
    """Grid angles of the first ``n_params`` parameters, k uniform on
    {0,1,2,3}.

    ``outer_uid`` may be a scalar or an array of outer-sample uids; the result
    has shape ``outer_uid.shape + (n_params,)`` and dtype uint8.
    """
    uid = np.asarray(outer_uid, dtype=np.uint64)
    return grid_angle(seed, uid[..., None],
                      np.arange(n_params, dtype=np.uint64))


#: bit widths of a stream id's fields: (outer sample, inner sample, term),
#: packed in that order from the top bit down
_STREAM_BITS = (32, 20, 12)


def check_stream_budget(n_outer: int, n_inner: int, n_terms: int) -> None:
    """Refuse (ValueError) counts whose indices do not fit the stream-id
    fields of :func:`compose_stream_array`, so that distinct triples can
    never collide."""
    for count, bits, what in zip(
            (n_outer, n_inner, n_terms), _STREAM_BITS,
            ("outer draws", "inner draws per outer sample",
             "observable terms")):
        if count > (1 << bits):
            raise ValueError(f"{count} {what} exceed the {bits}-bit stream "
                             "budget")


def compose_stream_array(outer, inner, term) -> np.ndarray:
    """Pack (outer sample, inner sample, observable term) indices, which
    broadcast against each other, into stream ids, in the fields of
    ``_STREAM_BITS``.  Indices are not re-checked here;
    :func:`check_stream_budget` bounds their counts."""
    _, inner_bits, term_bits = _STREAM_BITS
    outer = np.asarray(outer, dtype=np.uint64)
    inner = np.asarray(inner, dtype=np.uint64)
    term = np.asarray(term, dtype=np.uint64)
    return (outer << _U64(inner_bits + term_bits)) \
        | (inner << _U64(term_bits)) | term
