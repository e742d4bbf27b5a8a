"""Property-based tests across the VSS backends."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import gf2k
from repro.network import run_protocol
from repro.vss import BGWVSS, IdealVSS, RB89VSS, combine_views

from tests.strategies import seeds, values16


def _share_open(scheme, secrets, seed):
    session = scheme.new_session(random.Random(seed))

    def party(pid, rng):
        batch = yield from session.share_program(
            pid, 0, secrets if pid == 0 else None, rng, count=len(secrets)
        )
        values = yield from session.open_program(pid, batch.views)
        return values.tolist()

    programs = {
        pid: party(pid, random.Random(seed * 11 + pid))
        for pid in range(scheme.n)
    }
    return run_protocol(programs).outputs


@pytest.mark.parametrize(
    "make_scheme",
    [
        lambda f: IdealVSS(f, n=4, t=1),
        lambda f: BGWVSS(f, n=4, t=1),
        lambda f: RB89VSS(f, n=5, t=2),
    ],
    ids=["ideal", "bgw", "rb89"],
)
@settings(max_examples=12, deadline=None)
@given(a=values16, b=values16, seed=seeds)
def test_share_open_roundtrip_property(make_scheme, a, b, seed):
    f = gf2k(16)
    scheme = make_scheme(f)
    outputs = _share_open(scheme, [f(a), f(b)], seed)
    for out in outputs.values():
        assert out == [f(a), f(b)]


@pytest.mark.parametrize(
    "make_scheme",
    [
        lambda f: IdealVSS(f, n=4, t=1),
        lambda f: BGWVSS(f, n=4, t=1),
        lambda f: RB89VSS(f, n=5, t=2),
    ],
    ids=["ideal", "bgw", "rb89"],
)
@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(values16, min_size=2, max_size=4),
    coeffs=st.lists(values16, min_size=2, max_size=4),
    seed=seeds,
)
def test_linearity_property(make_scheme, values, coeffs, seed):
    """Opening a random linear combination equals the combination of
    the secrets, for every backend."""
    f = gf2k(16)
    size = min(len(values), len(coeffs))
    values, coeffs = values[:size], coeffs[:size]
    scheme = make_scheme(f)
    session = scheme.new_session(random.Random(seed))
    secrets = [f(v) for v in values]
    scalars = [f(c) for c in coeffs]

    def party(pid, rng):
        batch = yield from session.share_program(
            pid, 0, secrets if pid == 0 else None, rng, count=size
        )
        combo = combine_views(list(batch.views), scalars)
        opened = yield from session.open_program(pid, [combo])
        return opened[0]

    programs = {
        pid: party(pid, random.Random(seed * 13 + pid))
        for pid in range(scheme.n)
    }
    outputs = run_protocol(programs).outputs
    expected = f.sum([c * s for c, s in zip(scalars, secrets)])
    for out in outputs.values():
        assert out == expected
