"""Counter-based RNG: purity, range, collisions, and rough uniformity."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plane_angles
from pqcdiag import engine, rng
from reference import RngStream, uniforms
from pqcdiag.paulis import XZ_TO_CODE, n_words

u64 = st.integers(0, 2 ** 64 - 1)


@settings(deadline=None)
@given(u64)
def test_mix64_deterministic_and_bijective_sample(v):
    a = rng.mix64(np.uint64(v))
    assert a == rng.mix64(np.uint64(v))
    # the finalizer is a bijection; at minimum distinct neighbours differ
    if v < 2 ** 64 - 1:
        assert a != rng.mix64(np.uint64(v + 1))


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), u64, u64)
def test_uniforms_pure_and_in_range(seed, stream, slot):
    a = uniforms(seed, rng.DOMAIN_TAU, stream, slot)
    b = uniforms(seed, rng.DOMAIN_TAU, stream, slot)
    assert a == b
    assert 0.0 <= a < 1.0


def test_uniforms_broadcast_matches_scalar():
    streams = np.arange(7, dtype=np.uint64)
    slots = np.arange(5, dtype=np.uint64)
    grid = uniforms(3, rng.DOMAIN_TAU, streams[:, None], slots[None, :])
    assert grid.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert grid[i, j] == uniforms(3, rng.DOMAIN_TAU, i, j)


def test_domains_are_separated():
    a = uniforms(0, rng.DOMAIN_TAU, 5, 5)
    b = uniforms(0, rng.DOMAIN_THETA, 5, 5)
    c = uniforms(0, rng.DOMAIN_SIGMA, 5, 5)
    assert len({a, b, c}) == 3


def test_seed_changes_everything():
    slots = np.arange(256, dtype=np.uint64)
    a = uniforms(1, rng.DOMAIN_TAU, 0, slots)
    b = uniforms(2, rng.DOMAIN_TAU, 0, slots)
    assert not np.any(a == b)


def test_uniformity_coarse():
    # 64k draws: each decile within a few sigma of 10%
    vals = uniforms(9, rng.DOMAIN_TAU, np.arange(1 << 16, dtype=np.uint64), 0)
    hist, _ = np.histogram(vals, bins=10, range=(0, 1))
    assert abs(hist - 6553.6).max() < 5 * np.sqrt(6553.6)


def test_angle_indices_shape_and_range():
    ks = rng.angle_indices(4, np.arange(1000, dtype=np.uint64), 6)
    assert ks.shape == (1000, 6) and ks.dtype == np.uint8
    assert set(np.unique(ks)) == {0, 1, 2, 3}
    counts = np.bincount(ks.ravel(), minlength=4)
    assert abs(counts - 1500).max() < 5 * np.sqrt(1500)
    assert np.array_equal(rng.angle_indices(4, 17, 6), ks[17])


def _splitmix64(v: int) -> int:
    """SplitMix64's finalizer on Python integers (the reference mix64)."""
    m = (1 << 64) - 1
    z = (v + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def test_in_place_mix64_is_splitmix64():
    vals = [0, 1, 2 ** 63, 2 ** 64 - 1]
    a = np.array(vals, dtype=np.uint64)
    assert rng.mix64(a, out=a) is a
    assert [int(v) for v in a] == [_splitmix64(v) for v in vals]
    for v in vals:
        assert int(rng.mix64(np.uint64(v))) == _splitmix64(v)


def _ref_angle(seed: int, uid: int, p: int) -> int:
    """Grid angle of parameter p in outer sample uid, from the definition:
    bit b of k is bit uid % 64 of the SplitMix64 hash of 2p + b, keyed by
    the DOMAIN_THETA prefix of the uid's group uid // 64 (all on Python
    integers)."""
    key = _splitmix64(_splitmix64(_splitmix64(seed) ^ rng.DOMAIN_THETA)
                      ^ (uid >> 6))
    return sum(((_splitmix64(key ^ (2 * p + b)) >> (uid & 63)) & 1) << b
               for b in (0, 1))


#: uids and parameters at the edges of the 64-uid groups, of uint64, and of
#: the parameter counters 2p and 2p + 1
_EDGE_UIDS = (0, 1, 63, 64, 65, 127, 2 ** 63, 2 ** 64 - 1)
_EDGE_PARAMS = (0, 1, 5, 31, 32, 33, 63, 64, 95, 96, 2 ** 40, 2 ** 62 - 1)


def test_grid_angle_is_the_angle_hash():
    uids = np.array(_EDGE_UIDS + tuple(range(2, 40)), dtype=np.uint64)
    ks = rng.angle_indices(3, uids, 70)
    assert ks.shape == (uids.size, 70) and ks.dtype == np.uint8
    want = [[_ref_angle(3, int(u), p) for p in range(70)] for u in uids]
    assert np.array_equal(ks, want)
    for p in _EDGE_PARAMS:
        got = rng.grid_angle(3, uids, p)
        assert got.dtype == np.uint8
        assert [int(k) for k in got] == [_ref_angle(3, int(u), p)
                                         for u in uids]
    assert int(rng.grid_angle(3, 2 ** 64 - 1, 2 ** 62 - 1)) \
        == _ref_angle(3, 2 ** 64 - 1, 2 ** 62 - 1)


def test_keyed_angles_are_the_angle_hash():
    groups = np.array([u >> 6 for u in _EDGE_UIDS], dtype=np.uint64)
    keys = rng.theta_keys(9, groups)
    assert [int(k) for k in keys] == [
        _splitmix64(_splitmix64(_splitmix64(9) ^ rng.DOMAIN_THETA) ^ g)
        for g in map(int, groups)]
    words = rng.theta_words(keys, np.array(_EDGE_PARAMS))
    assert words.shape == (len(_EDGE_PARAMS), 2, groups.size)
    for i, p in enumerate(_EDGE_PARAMS):
        for b in (0, 1):
            assert [int(w) for w in words[i, b]] == [
                _splitmix64(int(k) ^ (2 * p + b)) for k in keys]
        # bit uid % 64 of the two words is the uid's angle
        for g, u in enumerate(_EDGE_UIDS):
            k = sum(((int(words[i, b, g]) >> (u & 63)) & 1) << b
                    for b in (0, 1))
            assert k == _ref_angle(9, u, p)


#: chi-square critical values at a per-test level of 1e-3 / 111, the
#: Bonferroni split of a 1e-3 family-wise level over the 111 tests below
#: (scipy.stats.chi2.isf(1e-3 / 111, df) for df = 3 and 15)
_CHI2_DF3, _CHI2_DF15 = 26.12, 50.77


def _chi2(cells: np.ndarray, n_cells: int) -> float:
    counts = np.bincount(cells, minlength=n_cells)
    expect = cells.size / n_cells
    return float(((counts - expect) ** 2).sum() / expect)


def test_angles_are_uniform_and_pairwise_independent():
    # 2^19 uids in 8192 groups, parameters 0 to 32: each of the first 32
    # parameters' k (df 3); k of parameters p and p + 1 of one uid for
    # p < 31 (df 15); k of one parameter at two uids of one group, adjacent
    # (j, j + 1) and apart (j, j + 32), 8 pairs each (df 15); and k of one
    # parameter at the same lane j of adjacent groups, for j < 32 (df 15):
    # 32 + 31 + 16 + 32 tests
    groups = 1 << 13
    words = rng.theta_words(
        rng.theta_keys(2024, np.arange(groups, dtype=np.uint64)),
        np.arange(33))
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    k = bits[:, 0] | bits[:, 1] << 1  # (param, uid): uid = 64 * group + j
    lanes = k[0].reshape(groups, 64)  # parameter 0 by (group, j)
    singles = [_chi2(k[p], 4) for p in range(32)]
    pairs = [(k[p], k[p + 1]) for p in range(31)]
    pairs += [(lanes[:, j], lanes[:, j + 1]) for j in range(0, 64, 8)]
    pairs += [(lanes[:, j], lanes[:, j + 32]) for j in range(0, 32, 4)]
    pairs += [(lanes[0::2, j], lanes[1::2, j]) for j in range(32)]
    joint = [_chi2(4 * a + b, 16) for a, b in pairs]
    assert len(singles) + len(joint) == 111
    assert max(singles) < _CHI2_DF3, singles
    assert max(joint) < _CHI2_DF15, joint


#: parameters read out of order, re-reading blocks 0, 1, 2 and 2**35
_READ_ORDER = (64, 0, 2 ** 40, 31, 63, 32, 0, 64, 31, 2 ** 40, 63, 1)


def test_hashed_theta_lanes_use_the_angle_hash():
    # the cached block hash gives rng.grid_angle at block edges read in any
    # order, plain, per-lane shifted by +-1 and tiled
    uids = np.arange(2 ** 40, 2 ** 40 + 42, dtype=np.uint64)
    shift = np.array([(0, 31, 32, 63, 64, 2 ** 40, -1)[i % 7]
                      for i in range(42)])  # each target meets both signs
    delta = np.where(np.arange(42) % 2 == 0, 1, -1)
    plain = engine.HashedTheta(4, uids)
    shifted = engine.AngleSource(4, uids).view(shift=(shift, delta))
    tiled = shifted.tiled(3)
    for p in _READ_ORDER:
        base = rng.grid_angle(4, uids, p)
        assert np.array_equal(plane_angles(plain, [p], 42)[0], base)
        moved = (base.astype(np.int64) + np.where(shift == p, delta, 0)) % 4
        assert np.array_equal(plane_angles(shifted, [p], 42)[0], moved)
        assert np.array_equal(plane_angles(tiled, [p], 126)[0],
                              np.tile(moved, 3))


def _word_codes(x, z, n: int) -> np.ndarray:
    """(B, n) per-qubit codes (0=I,1=X,2=Y,3=Z) of lane-major words."""
    q = np.arange(n)
    xb, zb = ((w[:, q >> 6] >> (q & 63).astype(np.uint64)) & np.uint64(1)
              for w in (x, z))
    return np.asarray(XZ_TO_CODE, dtype=np.uint8)[xb + 2 * zb]


def test_pauli_codes_full_and_zx():
    x, z = engine.pauli_codes(8, np.arange(4000, dtype=np.uint64), 3)
    assert x.shape == z.shape == (4000, 1)
    c = _word_codes(x, z, 3)
    assert set(np.unique(c)) == {0, 1, 2, 3}
    xz, zz = engine.pauli_codes(8, np.arange(4000, dtype=np.uint64), 3,
                                zx_only=True)
    assert not xz.any()
    zx = _word_codes(xz, zz, 3)
    assert set(np.unique(zx)) <= {0, 3}
    frac = (zx == 3).mean()
    assert abs(frac - 0.5) < 0.05


@functools.lru_cache(maxsize=None)
def _ref_sigma_words(seed: int, group: int, n: int) -> tuple:
    """The sigma stream's words of counters 2q + b for q < n, b in {0, 1},
    of a group of 64 word uids, from the definition on Python integers."""
    key = _splitmix64(_splitmix64(_splitmix64(seed) ^ rng.DOMAIN_SIGMA)
                      ^ group)
    return tuple(_splitmix64(key ^ ctr) for ctr in range(2 * n))


def _ref_sigma(seed: int, uids, n: int, zx_only: bool) -> tuple:
    """Lane-major (x, z) words of ``uids``: qubit q's code bit b is bit uid
    % 64 of its group's word 2q + b, and (x, z) = (b0 ^ b1, b1), or (0, b1)
    with ``zx_only``; packed by ``np.packbits``, padding bits 0."""
    uids = [int(u) for u in uids]
    table = np.array([_ref_sigma_words(seed, u >> 6, n) for u in uids],
                     dtype=np.uint64).reshape(len(uids), n, 2)
    lane = np.array([u & 63 for u in uids], dtype=np.uint64)
    b = (table >> lane[:, None, None]) & np.uint64(1)
    x = np.zeros_like(b[..., 0]) if zx_only else b[..., 0] ^ b[..., 1]
    pad = ((0, 0), (0, 64 * n_words(n) - n))
    return tuple(np.packbits(np.pad(v.astype(np.uint8), pad), axis=1,
                             bitorder="little").view("<u8")
                 for v in (x, b[..., 1]))


#: uid layouts of each count: a run from a group edge; a run that starts
#: 27 uids into a group and crosses 2**63; a run that ends at 2**64 - 1;
#: and uids 3 apart, descending from 2**64 - 1, which are not a run past
#: one uid and are refused
_SIGMA_LAYOUTS = {
    "aligned": lambda c: 2 ** 40 + np.arange(c, dtype=np.uint64),
    "unaligned": lambda c: 2 ** 63 - 37 + np.arange(c, dtype=np.uint64),
    "top": lambda c: np.arange(2 ** 64 - c, 2 ** 64, dtype=np.uint64),
    "strided": lambda c: np.uint64(2 ** 64 - 1)
    - np.uint64(3) * np.arange(c, dtype=np.uint64),
}


@pytest.mark.parametrize("n", [1, 9, 32, 33, 63, 64, 65, 130])
@pytest.mark.parametrize("zx_only", [False, True])
def test_pauli_codes_are_the_sigma_stream(n, zx_only):
    # every read path (an aligned run, a funnel shift of an unaligned one)
    # against the definition on Python integers, bit for bit, padding bits
    # 0; 130 qubits are 260 x and z rows, five 64-row groups of the
    # transpose.  Uids that are not one run are refused
    for count in (0, 1, 63, 64, 65, 1000):
        for layout, make in _SIGMA_LAYOUTS.items():
            uids = make(count)
            if layout == "strided" and count > 1:
                with pytest.raises(ValueError, match="one run"):
                    engine.pauli_codes(6, uids, n, zx_only=zx_only)
                continue
            got = engine.pauli_codes(6, uids, n, zx_only=zx_only)
            for w, want in zip(got, _ref_sigma(6, uids, n, zx_only)):
                assert w.dtype == np.uint64
                assert w.shape == (count, n_words(n)), (layout, count)
                assert np.array_equal(w, want), (layout, count)


def test_sigma_stream_is_the_grid_angle_in_its_domain():
    # rng.grid_angle in DOMAIN_SIGMA is qubit q's code in word uid, for runs
    # of uids over the edge uids
    q = np.arange(70, dtype=np.uint64)
    for first, count in ((0, 40), (62, 70), (2 ** 63 - 1, 3),
                         (2 ** 64 - 2, 2)):
        uids = np.uint64(first) + np.arange(count, dtype=np.uint64)
        assert set(_EDGE_UIDS) & set(uids.tolist())
        codes = rng.grid_angle(6, uids[:, None], q, rng.DOMAIN_SIGMA)
        for zx_only in (False, True):
            x, z = engine.pauli_codes(6, uids, 70, zx_only=zx_only)
            want = 3 * (codes >> 1) if zx_only else codes
            assert np.array_equal(_word_codes(x, z, 70), want)


#: chi-square critical values at a per-test level of 1e-3 / 143, the
#: Bonferroni split over the 143 tests of the sigma stream below
#: (scipy.stats.chi2.isf(1e-3 / 143, df) for df = 1, 3 and 15)
_SIGMA_DF1, _SIGMA_DF3, _SIGMA_DF15 = 20.20, 26.64, 51.44


def test_sigma_codes_are_uniform_and_pairwise_independent():
    # 2^19 word uids in 8192 groups, qubits 0 to 32: each of the first 32
    # qubits' code uniform on {0..3} (df 3) and on {I, Z} with zx_only (df
    # 1); codes of qubits q and q + 1 of one word for q < 31 (df 15); codes
    # of qubit 0 at two uids of one group, adjacent (j, j + 1) and apart
    # (j, j + 32), 8 pairs each (df 15); and codes of qubit 0 at the same
    # lane j of adjacent groups, for j < 32 (df 15): 32 + 32 + 31 + 16 + 32
    # tests
    groups, n = 1 << 13, 33
    uids = np.arange(64 * groups, dtype=np.uint64)
    full = engine.pauli_codes(2024, uids, n)
    zx = engine.pauli_codes(2024, uids, n, zx_only=True)
    assert not zx[0].any()

    def codes(x, z):  # (qubit, uid) codes, 0=I, 1=X, 2=Y, 3=Z
        return np.stack([_word_codes(x >> np.uint64(q), z >> np.uint64(q),
                                     1)[:, 0] for q in range(n)])

    k, kz = codes(*full), codes(*zx)
    assert set(np.unique(kz)) == {0, 3}
    lanes = k[0].reshape(groups, 64)  # qubit 0 by (group, j)
    singles = [_chi2(k[q], 4) for q in range(32)]
    halves = [_chi2(kz[q] >> 1, 2) for q in range(32)]
    pairs = [(k[q], k[q + 1]) for q in range(31)]
    pairs += [(lanes[:, j], lanes[:, j + 1]) for j in range(0, 64, 8)]
    pairs += [(lanes[:, j], lanes[:, j + 32]) for j in range(0, 32, 4)]
    pairs += [(lanes[0::2, j], lanes[1::2, j]) for j in range(32)]
    joint = [_chi2(4 * a + b, 16) for a, b in pairs]
    assert len(singles) + len(halves) + len(joint) == 143
    assert max(singles) < _SIGMA_DF3, singles
    assert max(halves) < _SIGMA_DF1, halves
    assert max(joint) < _SIGMA_DF15, joint


class TestComposeStream:
    def test_pack_unpack(self):
        s = int(rng.compose_stream_array(77, 13, 5))
        assert s >> 32 == 77
        assert (s >> 12) & ((1 << 20) - 1) == 13
        assert s & 0xFFF == 5

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 20 - 1),
           st.integers(0, 2 ** 12 - 1))
    def test_array_form_agrees(self, outer, inner, term):
        want = (outer << 32) | (inner << 12) | term
        got = rng.compose_stream_array(outer, inner, term)
        assert int(got) == want

    def test_bounds(self):
        rng.check_stream_budget(1 << 32, 1 << 20, 1 << 12)  # every id fits
        with pytest.raises(ValueError, match="32-bit"):
            rng.check_stream_budget((1 << 32) + 1, 1, 1)
        with pytest.raises(ValueError, match="20-bit"):
            rng.check_stream_budget(1, (1 << 20) + 1, 1)
        with pytest.raises(ValueError, match="12-bit"):
            rng.check_stream_budget(1, 1, (1 << 12) + 1)

    def test_no_collisions_on_lattice(self):
        outs = np.arange(64, dtype=np.uint64)
        inners = np.arange(64, dtype=np.uint64)
        ids = rng.compose_stream_array(outs[:, None], inners[None, :], 0)
        assert len(np.unique(ids)) == 64 * 64


def test_rng_stream_counter_and_pure_slot():
    s = RngStream(seed=5, stream_id=42)
    first, second = s.uniform_at(0), s.uniform_at(1)
    assert first == uniforms(5, rng.DOMAIN_TAU, 42, 0)
    assert second == uniforms(5, rng.DOMAIN_TAU, 42, 1)
    assert first != second
    # slot access is pure: a fresh stream at the same id replays it
    t = RngStream(seed=5, stream_id=42)
    assert t.uniform_at(0) == first
