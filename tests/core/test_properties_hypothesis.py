"""Property-based tests (hypothesis) for the core data structures."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnonChanParams,
    DealerLayout,
    Permutation,
    SparseVector,
    challenge_bits,
    extract_output,
    honest_material,
    validate_permutation_opening,
)
from repro.core.layout import encodings
from repro.fields import gf2k

from tests.strategies import perm_len, perm_seed, sparse_vectors


def _params(n=4, ell=24, d=4, checks=3):
    return AnonChanParams(n=n, t=1, kappa=16, ell=ell, d=d, num_checks=checks)


# -- permutations ------------------------------------------------------------


@settings(max_examples=60)
@given(length=perm_len, seed=perm_seed)
def test_permutation_group_inverse(length, seed):
    p = Permutation.random(length, random.Random(seed))
    assert p.compose(p.inverse()) == Permutation.identity(length)
    assert p.inverse().compose(p) == Permutation.identity(length)


@settings(max_examples=60)
@given(length=perm_len, s1=perm_seed, s2=perm_seed)
def test_permutation_compose_apply_homomorphism(length, s1, s2):
    """(p o q).apply == q.apply then p.apply ... with the paper's
    convention w[k] = v[pi(k)], apply reverses composition order."""
    rng = random.Random(s1 ^ s2)
    p = Permutation.random(length, random.Random(s1))
    q = Permutation.random(length, random.Random(s2))
    f = gf2k(16)
    entries = {
        k: (rng.randrange(1, 100), 1)
        for k in rng.sample(range(length), min(3, length))
    }
    v = SparseVector(f, length, entries)
    lhs = p.compose(q).apply(v)
    rhs = q.apply(p.apply(v))
    assert lhs.entries == rhs.entries


@settings(max_examples=40)
@given(length=perm_len, seed=perm_seed)
def test_permutation_field_encoding_roundtrip(length, seed):
    f = gf2k(16)
    p = Permutation.random(length, random.Random(seed))
    decoded = validate_permutation_opening(encodings(f, p.mapping))
    assert Permutation(decoded.tolist()) == p


# -- sparse vectors (shared strategy from tests.strategies) -------------------


@settings(max_examples=60)
@given(a=sparse_vectors(), b=sparse_vectors(), c=sparse_vectors())
def test_vector_addition_abelian_group(a, b, c):
    assert (a + b).entries == (b + a).entries
    assert ((a + b) + c).entries == (a + (b + c)).entries
    zero = SparseVector(a.field, a.length, {})
    assert (a + zero).entries == a.entries
    assert (a + a).entries == {}  # characteristic 2: self-inverse


@settings(max_examples=60)
@given(v=sparse_vectors(), seed=perm_seed)
def test_permute_preserves_properness(v, seed):
    p = Permutation.random(v.length, random.Random(seed))
    w = p.apply(v)
    d = len(v.entries)
    if d:
        assert v.is_proper(d) == w.is_proper(d)


@settings(max_examples=60)
@given(v=sparse_vectors())
def test_component_roundtrip_property(v):
    back = SparseVector.from_components(
        v.field, v.component(0), v.component(1)
    )
    assert back.entries == v.entries


# -- layout -------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=perm_seed,
    d=st.integers(min_value=2, max_value=5),
    checks=st.integers(min_value=1, max_value=4),
)
def test_layout_roundtrip_property(seed, d, checks):
    """Every committed value is recoverable at its layout offset."""
    params = _params(ell=4 * d + 4, d=d, checks=checks)
    layout = DealerLayout(params)
    rng = random.Random(seed)
    material = honest_material(params, params.field(7), rng)
    secrets = layout.build_secrets(material).tolist()
    assert len(secrets) == layout.total
    for k in range(params.ell):
        x, a = material.vector.pair_at(k)
        assert secrets[layout.vec_x(k)] == x
        assert secrets[layout.vec_a(k)] == a
    for j in range(checks):
        for k in range(params.ell):
            wx, wa = material.ws[j].pair_at(k)
            assert secrets[layout.w_x(j, k)] == wx
            assert secrets[layout.w_a(j, k)] == wa
            assert secrets[layout.perm(j, k)] == material.perms[j](k)
        for m in range(d):
            assert secrets[layout.idx(j, m)] == material.index_lists[j][m]


# -- challenge bits ------------------------------------------------------------


@settings(max_examples=60)
@given(
    value=st.integers(min_value=0, max_value=2**16 - 1),
    checks=st.integers(min_value=1, max_value=16),
)
def test_challenge_bits_consistent_with_encoding(value, checks):
    f = gf2k(16)
    bits = challenge_bits(f(value), checks)
    assert len(bits) == checks
    assert all(b in (0, 1) for b in bits)
    reconstructed = sum(b << i for i, b in enumerate(bits))
    assert reconstructed == value & ((1 << checks) - 1)


# -- receiver extraction ---------------------------------------------------------


@settings(max_examples=40)
@given(
    seed=perm_seed,
    copies=st.integers(min_value=1, max_value=8),
)
def test_extraction_threshold_property(seed, copies):
    """A pair enters Y iff it appears at least ceil(d/2) times."""
    params = _params(ell=64, d=6)
    f = params.field
    rng = random.Random(seed)
    indices = rng.sample(range(64), copies)
    vec = SparseVector(f, 64, {k: (55, 7) for k in indices})
    y = extract_output(params, vec)
    if copies >= params.threshold_count:
        assert y[55] == 1
    else:
        assert y[55] == 0


@settings(max_examples=40)
@given(seed=perm_seed)
def test_extraction_ignores_garbage_minority(seed):
    """Sub-threshold collision garbage never enters Y."""
    params = _params(ell=64, d=6)
    f = params.field
    rng = random.Random(seed)
    entries = {}
    # One real message at threshold...
    for k in rng.sample(range(32), params.threshold_count):
        entries[k] = (99, 1)
    # ...plus distinct garbage pairs, one occurrence each.
    for k in rng.sample(range(32, 64), 10):
        entries[k] = (rng.randrange(1, 2**16), rng.randrange(2**16))
    y = extract_output(params, SparseVector(f, 64, entries))
    assert y == Counter({99: 1})
