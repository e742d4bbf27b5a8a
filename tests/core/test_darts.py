"""Tests for dart vectors and permutations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Permutation,
    SparseVector,
    fresh_tag,
    make_dart_vector,
    validate_permutation_opening,
)
from repro.core.layout import encodings
from repro.fields import gf2k


@pytest.fixture(scope="module")
def f():
    return gf2k(16)


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(5)
        assert [p(k) for k in range(5)] == [0, 1, 2, 3, 4]

    def test_invalid_mapping(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_random_is_permutation(self):
        rng = random.Random(0)
        p = Permutation.random(20, rng)
        assert sorted(p.mapping) == list(range(20))

    def test_inverse(self):
        rng = random.Random(1)
        p = Permutation.random(10, rng)
        inv = p.inverse()
        for k in range(10):
            assert inv(p(k)) == k
            assert p(inv(k)) == k

    def test_compose(self):
        rng = random.Random(2)
        p = Permutation.random(8, rng)
        q = Permutation.random(8, rng)
        c = p.compose(q)
        for k in range(8):
            assert c(k) == p(q(k))

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_apply_convention(self, f):
        """Figure 1: w[k] = v[pi(k)]."""
        v = SparseVector(f, 4, {2: (7, 8)})
        pi = Permutation([2, 3, 0, 1])
        w = pi.apply(v)
        for k in range(4):
            assert w.pair_at(k) == v.pair_at(pi(k))

    def test_field_roundtrip(self, f):
        """Images dealt as raw field encodings decode to the permutation."""
        rng = random.Random(3)
        p = Permutation.random(12, rng)
        encoded = encodings(f, p.mapping)
        assert Permutation(validate_permutation_opening(encoded).tolist()) == p

    def test_decode_invalid_permutation(self, f):
        assert validate_permutation_opening(encodings(f, [0, 0])) is None
        assert validate_permutation_opening(encodings(f, [5, 1])) is None


class TestSparseVector:
    def test_zero_entries_dropped(self, f):
        v = SparseVector(f, 4, {1: (0, 0), 2: (1, 0)})
        assert v.nonzero_indices() == [2]

    def test_out_of_range(self, f):
        with pytest.raises(ValueError):
            SparseVector(f, 4, {4: (1, 1)})

    def test_out_of_range_error_hides_secret_index(self, f):
        """The failing index is a secret dart position (lint RL203):
        the exception names the bound, never the value."""
        with pytest.raises(ValueError) as err:
            SparseVector(f, 8, {12345: (1, 1)})
        assert "12345" not in str(err.value)
        assert "[0, 8)" in str(err.value)

    def test_add_and_cancellation(self, f):
        """Characteristic 2: equal pairs at the same index cancel."""
        a = SparseVector(f, 8, {1: (5, 6), 2: (7, 8)})
        b = SparseVector(f, 8, {1: (5, 6), 3: (1, 1)})
        s = a + b
        assert s.pair_at(1) == (0, 0)
        assert s.pair_at(2) == (7, 8)
        assert s.pair_at(3) == (1, 1)

    def test_sub_equals_add_in_char2(self, f):
        a = SparseVector(f, 8, {1: (5, 6)})
        b = SparseVector(f, 8, {1: (3, 2), 4: (9, 9)})
        assert (a - b).entries == (a + b).entries

    def test_shape_mismatch(self, f):
        a = SparseVector(f, 8, {})
        b = SparseVector(f, 9, {})
        with pytest.raises(ValueError):
            _ = a + b

    def test_component_roundtrip(self, f):
        v = SparseVector(f, 6, {0: (1, 2), 5: (3, 4)})
        back = SparseVector.from_components(f, v.component(0), v.component(1))
        assert back.entries == v.entries

    def test_component_length_mismatch(self, f):
        with pytest.raises(ValueError):
            SparseVector.from_components(f, [1], [1, 2])

    def test_is_proper(self, f):
        proper = SparseVector(f, 8, {k: (5, 6) for k in (1, 3, 7)})
        assert proper.is_proper(d=3)
        assert not proper.is_proper(d=4)
        improper = SparseVector(f, 8, {1: (5, 6), 3: (5, 7), 7: (5, 6)})
        assert not improper.is_proper(d=3)

    def test_is_zero(self, f):
        assert SparseVector(f, 4, {}).is_zero()
        assert not SparseVector(f, 4, {0: (1, 0)}).is_zero()


class TestDartConstruction:
    def test_make_dart_vector(self, f):
        rng = random.Random(4)
        v = make_dart_vector(f, ell=100, d=7, message=f(42), tag=f(9), rng=rng)
        assert v.is_proper(7)
        assert set(v.entries.values()) == {(42, 9)}

    def test_zero_message_and_tag_rejected(self, f):
        with pytest.raises(ValueError):
            make_dart_vector(f, 10, 2, f(0), f(0), random.Random(0))

    def test_bad_sparseness(self, f):
        with pytest.raises(ValueError):
            make_dart_vector(f, 10, 11, f(1), f(1), random.Random(0))
        with pytest.raises(ValueError):
            make_dart_vector(f, 10, 0, f(1), f(1), random.Random(0))

    def test_fresh_tag_nonzero(self, f):
        rng = random.Random(5)
        assert all(fresh_tag(f, rng).value != 0 for _ in range(100))

    def test_indices_uniform_smoke(self, f):
        """Dart indices cover the range over many draws."""
        rng = random.Random(6)
        seen = set()
        for _ in range(200):
            v = make_dart_vector(f, 20, 3, f(1), f(1), rng)
            seen.update(v.nonzero_indices())
        assert seen == set(range(20))


@settings(max_examples=50)
@given(
    length=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_permutation_apply_preserves_multiset(length, seed):
    f = gf2k(16)
    rng = random.Random(seed)
    entries = {
        k: (rng.randrange(1, 100), rng.randrange(1, 100))
        for k in rng.sample(range(length), min(length, 3))
    }
    v = SparseVector(f, length, entries)
    p = Permutation.random(length, rng)
    w = p.apply(v)
    assert sorted(w.entries.values()) == sorted(v.entries.values())
    assert len(w.entries) == len(v.entries)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_permute_then_subtract_is_zero(seed):
    """The b=0 branch of cut-and-choose on honest material."""
    f = gf2k(16)
    rng = random.Random(seed)
    v = make_dart_vector(f, 24, 4, f(3), f(5), rng)
    pi = Permutation.random(24, rng)
    w = pi.apply(v)
    # u[k] = v[pi(k)] - w[k] == 0 for all k
    u_entries = {}
    for k in range(24):
        a = v.pair_at(pi(k))
        b = w.pair_at(k)
        if a != b:
            u_entries[k] = (a, b)
    assert not u_entries
