"""Counter-based RNG: purity, range, collisions, and rough uniformity."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pqcdiag import engine, rng

u64 = st.integers(0, 2 ** 64 - 1)


@given(u64)
def test_mix64_deterministic_and_bijective_sample(v):
    a = rng.mix64(np.uint64(v))
    assert a == rng.mix64(np.uint64(v))
    # the finalizer is a bijection; at minimum distinct neighbours differ
    if v < 2 ** 64 - 1:
        assert a != rng.mix64(np.uint64(v + 1))


@given(st.integers(0, 2 ** 32 - 1), u64, u64)
def test_uniforms_pure_and_in_range(seed, stream, slot):
    a = rng.uniforms(seed, rng.DOMAIN_TAU, stream, slot)
    b = rng.uniforms(seed, rng.DOMAIN_TAU, stream, slot)
    assert a == b
    assert 0.0 <= a < 1.0


def test_uniforms_broadcast_matches_scalar():
    streams = np.arange(7, dtype=np.uint64)
    slots = np.arange(5, dtype=np.uint64)
    grid = rng.uniforms(3, rng.DOMAIN_TAU, streams[:, None], slots[None, :])
    assert grid.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert grid[i, j] == rng.uniforms(3, rng.DOMAIN_TAU, i, j)


def test_domains_are_separated():
    a = rng.uniforms(0, rng.DOMAIN_TAU, 5, 5)
    b = rng.uniforms(0, rng.DOMAIN_THETA, 5, 5)
    c = rng.uniforms(0, rng.DOMAIN_SIGMA, 5, 5)
    assert len({a, b, c}) == 3


def test_seed_changes_everything():
    slots = np.arange(256, dtype=np.uint64)
    a = rng.uniforms(1, rng.DOMAIN_TAU, 0, slots)
    b = rng.uniforms(2, rng.DOMAIN_TAU, 0, slots)
    assert not np.any(a == b)


def test_uniformity_coarse():
    # 64k draws: each decile within a few sigma of 10%
    vals = rng.uniforms(9, rng.DOMAIN_TAU, np.arange(1 << 16, dtype=np.uint64), 0)
    hist, _ = np.histogram(vals, bins=10, range=(0, 1))
    assert abs(hist - 6553.6).max() < 5 * np.sqrt(6553.6)


def test_angle_indices_shape_and_range():
    ks = rng.angle_indices(4, np.arange(1000, dtype=np.uint64), 6)
    assert ks.shape == (1000, 6) and ks.dtype == np.uint8
    assert set(np.unique(ks)) == {0, 1, 2, 3}
    counts = np.bincount(ks.ravel(), minlength=4)
    assert abs(counts - 1500).max() < 5 * np.sqrt(1500)
    assert np.array_equal(rng.angle_indices(4, 17, 6), ks[17])


def test_grid_angle_is_the_angle_hash():
    uids = np.arange(50, dtype=np.uint64)
    ks = rng.angle_indices(3, uids, 5)
    for p in range(5):
        got = rng.grid_angle(3, uids, np.uint64(p))
        assert got.dtype == np.uint8 and np.array_equal(got, ks[:, p])
    h = rng.hash_words(3, rng.DOMAIN_THETA, uids[:, None],
                       np.arange(5, dtype=np.uint64))
    assert np.array_equal(ks, h & np.uint64(3))


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


def test_keyed_angles_are_the_angle_hash():
    uids = np.array([0, 1, 63, 64, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    keys = rng.theta_keys(9, uids)
    assert np.array_equal(keys, rng.hash_words(9, rng.DOMAIN_THETA, uids))
    for p in (0, 1, 5, 2 ** 40):
        want = rng.hash_words(9, rng.DOMAIN_THETA, uids, p) & np.uint64(3)
        got = rng.angles_from_keys(keys, p)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert np.array_equal(got, rng.grid_angle(9, uids, p))
    assert int(rng.angles_from_keys(keys[2], 5)) == int(
        rng.grid_angle(9, uids[2], 5))


def test_hashed_theta_lanes_use_the_angle_hash():
    uids = np.arange(100, 140, dtype=np.uint64)
    shift = np.where(np.arange(40) % 3 == 0, 2, -1)
    delta = np.where(np.arange(40) % 2 == 0, 1, -1)
    plain = engine.HashedTheta(4, uids)
    shifted = engine.HashedTheta(4, uids, shift, delta)
    for p in range(4):
        base = rng.grid_angle(4, uids, p)
        assert np.array_equal(plain.k_for(p), base)
        moved = (base.astype(np.int64) + np.where(shift == p, delta, 0)) % 4
        assert np.array_equal(shifted.k_for(p), moved)


def test_pauli_codes_full_and_zx():
    c = rng.pauli_codes(8, np.arange(4000, dtype=np.uint64), 3)
    assert c.shape == (4000, 3)
    assert set(np.unique(c)) == {0, 1, 2, 3}
    zx = rng.pauli_codes(8, np.arange(4000, dtype=np.uint64), 3, zx_only=True)
    assert set(np.unique(zx)) <= {0, 3}
    frac = (zx == 3).mean()
    assert abs(frac - 0.5) < 0.05


class TestComposeStream:
    def test_pack_unpack(self):
        s = rng.compose_stream(77, 13, 5)
        assert s >> 32 == 77
        assert (s >> 12) & ((1 << 20) - 1) == 13
        assert s & 0xFFF == 5

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 20 - 1),
           st.integers(0, 2 ** 12 - 1))
    def test_array_form_agrees(self, outer, inner, term):
        want = rng.compose_stream(outer, inner, term)
        got = rng.compose_stream_array(outer, inner, term)
        assert int(got) == want

    def test_bounds(self):
        import pytest
        with pytest.raises(ValueError):
            rng.compose_stream(1 << 32)
        with pytest.raises(ValueError):
            rng.compose_stream(0, 1 << 20)
        with pytest.raises(ValueError):
            rng.compose_stream(0, 0, 1 << 12)

    def test_no_collisions_on_lattice(self):
        outs = np.arange(64, dtype=np.uint64)
        inners = np.arange(64, dtype=np.uint64)
        ids = rng.compose_stream_array(outs[:, None], inners[None, :], 0)
        assert len(np.unique(ids)) == 64 * 64


def test_rng_stream_counter_and_pure_slot():
    s = rng.RngStream(seed=5, stream_id=42)
    first, second = s.uniform(), s.uniform()
    assert first == s.uniform_at(0)
    assert second == s.uniform_at(1)
    assert first != second
    # slot access is pure: a fresh stream at the same id replays it
    t = rng.RngStream(seed=5, stream_id=42)
    assert t.uniform_at(0) == first
