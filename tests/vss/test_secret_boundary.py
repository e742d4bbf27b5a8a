"""The dealt-secrets check at the VSS boundary, on every backend.

``share_program`` takes the dealer's secrets as one 1-D array of raw
encodings and refuses, with ``ValueError``, anything that is not
exactly ``count`` integers in ``[0, order)``.  Before the check an
out-of-field secret — a GF(2^32) element dealt on a GF(2^16) scheme —
reached the field's table lookups and crashed with ``IndexError``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.fields import gf2k
from repro.network import run_protocol
from repro.vss import (
    BGWVSS,
    DEALER_DISQUALIFIED,
    RB89VSS,
    IdealVSS,
    encoding_dtype,
    secret_array,
)

F16 = gf2k(16)

#: One scheme per backend; the ideal one twice, below and above the
#: batch size at which it deals through the numpy kernels.
SCHEMES = {
    "ideal-3": (lambda: IdealVSS(F16, n=4, t=1), 3),
    "ideal-40": (lambda: IdealVSS(F16, n=4, t=1), 40),
    "rb89": (lambda: RB89VSS(F16, n=5, t=2), 3),
    "bgw": (lambda: BGWVSS(F16, n=4, t=1), 3),
}


def _share_and_open(scheme, secrets, count):
    session = scheme.new_session(random.Random(0))

    def party(pid, rng):
        batch = yield from session.share_program(
            pid, 0, secrets if pid == 0 else None, rng, count=count
        )
        if batch is DEALER_DISQUALIFIED:
            return batch
        return (yield from session.open_program(pid, batch.views))

    programs = {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
    return run_protocol(programs).outputs


def _hostile(count):
    """Secrets the boundary must refuse, by label."""
    good = list(range(1, count + 1))
    return {
        "gf2^32-element": [gf2k(32)(2**20)] + [F16(v) for v in good[1:]],
        "order": np.array([F16.order] + good[1:], dtype=np.uint64),
        "uint64-top": np.array([2**64 - 1] + good[1:], dtype=np.uint64),
        "negative": np.array([-1] + good[1:], dtype=np.int64),
        "huge-int": [2**80] + good[1:],
        "float": np.array(good, dtype=np.float64),
        "bool": np.ones(count, dtype=bool),
        "str": [str(v) for v in good],
        "2-d": np.array([good, good], dtype=np.uint64),
        "short": np.array(good[:-1], dtype=np.uint64),
        "long": np.array(good + [1], dtype=np.uint64),
        "scalar": np.uint64(1),
        "not-iterable": 7,
    }


@pytest.mark.parametrize("backend", sorted(SCHEMES))
class TestDealtSecretsRefused:
    @pytest.mark.parametrize("label", sorted(_hostile(3)))
    def test_refused_before_any_round(self, backend, label):
        make, count = SCHEMES[backend]
        session = make().new_session(random.Random(0))
        secrets = _hostile(count)[label]
        program = session.share_program(0, 0, secrets, random.Random(0), count=count)
        with pytest.raises(ValueError):
            next(program)

    def test_array_and_elements_deal_alike(self, backend):
        make, count = SCHEMES[backend]
        values = [(37 * k + 5) % F16.order for k in range(count)]
        for secrets in (
            np.array(values, dtype=np.uint64),
            np.array(values, dtype=np.int64),
            np.array(values, dtype=object),
            [F16(v) for v in values],
        ):
            for out in _share_and_open(make(), secrets, count).values():
                assert out.dtype == np.uint64
                assert out.tolist() == values


def test_fields_beyond_64_bits_open_as_object_arrays():
    field = gf2k(80)
    values = [2**79 + 3, 2**64 + 1, 5]
    assert encoding_dtype(field) == np.dtype(object)
    outputs = _share_and_open(IdealVSS(field, n=4, t=1), values, 3)
    for out in outputs.values():
        assert out.dtype == object and out.tolist() == values
    with pytest.raises(ValueError):
        secret_array(field, [2**80] + values[1:], 3)
