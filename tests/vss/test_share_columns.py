"""Hostile share columns against the ideal backend's array openings.

An opening travels as one :class:`~repro.network.ShareColumn` per
sender, which the verifier checks with array compares.  A corrupted
sender can put anything on the wire, so every entry point that parses
columns — ``open_program``, ``reconstruct_private_batch`` and the
receiver's ``collect_step4_columns`` — is fed mutated columns and junk.
Only two outcomes are allowed: the bad sender's positions are rejected
(the honest quorum still opens every value exactly), or a strict
opening without an honest quorum raises ``ReconstructionError`` (a
private reconstruction masks that position out instead).  Any other
exception, or a wrong opened value, fails.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.receiver import collect_step4_columns
from repro.fields import gf2k
from repro.network import RoundInput, ShareColumn, SizedPayload, run_protocol
from repro.vss import IdealVSS, ReconstructionError

N, T = 5, 2
FIELD = gf2k(16)
SECRETS = [FIELD((7 * k + 3) % FIELD.order) for k in range(48)]
DIFF_A = list(range(0, 32))
DIFF_B = list(range(16, 48))


def _openings(backend):
    """A session and every party's block of one mixed opening.

    The opening joins a slice of the dealt batch (one term a row) with
    batched differences (two terms a row), so the columns carry ragged
    term ranges.
    """
    session = IdealVSS(FIELD, n=N, t=T, backend=backend).new_session(
        random.Random(0)
    )

    def party(pid):
        batch = yield from session.share_program(
            pid, 0, SECRETS if pid == 0 else None, random.Random(pid),
            count=len(SECRETS),
        )
        return batch

    batches = run_protocol({pid: party(pid) for pid in range(N)}).outputs
    blocks = {
        pid: session.join_views(
            [
                batch.views[:20],
                session.diff_offsets_batch(batch, DIFF_A, DIFF_B),
            ]
        )
        for pid, batch in batches.items()
    }
    expected = SECRETS[:20] + [
        SECRETS[a] + SECRETS[b] for a, b in zip(DIFF_A, DIFF_B)
    ]
    return session, blocks, expected


SESSIONS = {backend: _openings(backend) for backend in ("vectorized", "scalar")}

MUTATIONS = (
    "truncate", "extend", "float-values", "int64-values", "object-values",
    "str-values", "negative-serial", "big-serial", "coefficient",
    "shift-starts", "junk-starts", "float-starts", "lying-size",
    "lying-junk-size", "wrong-sender", "numpy-sender", "flip-values",
    "junk",
)

JUNK = (
    "garbage", None, 42, (1, 2, 3), {"a": 1}, b"bytes",
    [None] * 52, [1] * 52, [("x",)] * 52, [(0, "terms", 1)] * 52,
    [(0, ((10**9, 1),), 5)] * 52, [(0, [[0, 1]], 5)] * 52,
)


@st.composite
def mutations(draw):
    return (
        draw(st.sampled_from(MUTATIONS)),
        draw(st.integers(min_value=0, max_value=10**6)),
        draw(st.integers(min_value=-(2**40), max_value=2**40)),
    )


def _mutate(column: ShareColumn, sender: int, mutation):
    """A hostile variant of ``sender``'s honest ``column``."""
    kind, where, value = mutation
    m = len(column)
    k = where % m
    starts, serials = column.starts.copy(), column.serials.copy()
    coefficients, values = column.coefficients.copy(), column.values.copy()
    j = where % len(serials)
    if kind == "truncate":
        return ShareColumn(sender, starts[:-1], serials[: starts[-2]],
                           coefficients[: starts[-2]], values[:-1])
    if kind == "extend":
        return ShareColumn(sender, np.append(starts, starts[-1]), serials,
                           coefficients, np.append(values, values[0]))
    if kind == "float-values":
        return ShareColumn(sender, starts, serials, coefficients,
                           values.astype(np.float64) + 0.5 * (value % 2))
    if kind == "int64-values":
        return ShareColumn(sender, starts, serials, coefficients,
                           values.astype(np.int64) - (value % 2))
    if kind == "object-values":
        return ShareColumn(sender, starts, serials, coefficients,
                           values.astype(object))
    if kind == "str-values":
        return ShareColumn(sender, starts, serials, coefficients,
                           values.astype(str))
    if kind == "negative-serial":
        serials[j] = -1 - abs(value)
    elif kind == "big-serial":
        serials[j] = len(SECRETS) + abs(value)
    elif kind == "coefficient":
        coefficients = coefficients.astype(np.int64)
        coefficients[j] = value
    elif kind == "shift-starts":
        starts[1 + k % (m - 1)] += 1 if value >= 0 else -1
    elif kind == "junk-starts":
        starts[k] = value
    elif kind == "float-starts":
        starts = starts.astype(np.float64) + 0.25
    elif kind == "lying-size":
        return SizedPayload(column.payloads(), abs(value))
    elif kind == "lying-junk-size":
        return SizedPayload(["x"] * m, abs(value))
    elif kind == "wrong-sender":
        return ShareColumn((sender + 1 + k) % N, starts, serials,
                           coefficients, values)
    elif kind == "numpy-sender":
        return ShareColumn(np.int64(sender), starts, serials, coefficients,
                           values)
    elif kind == "flip-values":
        values[k] ^= values.dtype.type(1 + abs(value) % 255)
    else:  # junk
        return JUNK[where % len(JUNK)]
    return ShareColumn(sender, starts, serials, coefficients, values)


def _inbox(session, blocks, verifier, bad):
    """Honest columns from everyone but ``bad``, whose are mutated."""
    inbox = {}
    for sender, block in blocks.items():
        if sender == verifier:
            continue
        column = session.reveal_payloads_batch(sender, block)
        if sender in bad:
            column = _mutate(_as_column(column), sender, bad[sender])
        inbox[sender] = column
    return inbox


def _as_column(payloads) -> ShareColumn:
    """A reveal payload list packed as the column it is equivalent to."""
    if isinstance(payloads, ShareColumn):
        return payloads
    starts, serials, coefficients, values = [0], [], [], []
    for sender, terms, value in payloads:
        serials += [s for s, _ in terms]
        coefficients += [c for _, c in terms]
        starts.append(len(serials))
        values.append(value)
    return ShareColumn(
        payloads[0][0], starts, np.array(serials, dtype=np.int64),
        np.array(coefficients, dtype=np.uint32),
        np.array(values, dtype=np.uint32),
    )


def _open(session, block, verifier, inbox):
    program = session.open_program(verifier, block)
    next(program)
    try:
        program.send(RoundInput(private=inbox))
    except StopIteration as stop:
        return stop.value
    raise AssertionError("open_program took more than one round")


#: 1..n-1 corrupted senders (party 0 verifies), each with a mutation;
#: the count is uniform so quorum-losing cases are common.
bad_senders = st.integers(min_value=1, max_value=N - 1).flatmap(
    lambda count: st.lists(mutations(), min_size=count, max_size=count).map(
        lambda chosen: dict(zip(range(N - count, N), chosen))
    )
)

#: Forged values at one position from the only sender that could have
#: completed that position's quorum.
LOST_QUORUM = {2: ("flip-values", 3, 5), 3: ("junk", 0, 0), 4: ("junk", 1, 0)}

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _opens(session, blocks, columns):
    """Per position: do ``t + 1`` senders carry the honest payload?

    A payload counts only if it is exactly the honest tuple with plain
    ``int`` atoms — what :meth:`verify_and_combine` accepts.  This is
    the oracle: such positions must open to the right value, every
    other position must fail.
    """
    count = len(next(iter(blocks.values())))
    honest = {
        sender: _as_column(session.reveal_payloads_batch(sender, block)).payloads()
        for sender, block in blocks.items()
    }

    def honest_at(sender, payload, k):
        if not isinstance(payload, (list, tuple, ShareColumn)) or len(payload) != count:
            return False
        got = payload[k]
        want = honest[sender][k]
        return (
            type(got) is tuple
            and len(got) == 3
            and type(got[0]) is int
            and type(got[2]) is int
            and type(got[1]) is tuple
            and all(type(x) is int for term in got[1] for x in term)
            and got == want
        )

    return [
        sum(honest_at(s, p, k) for s, p in columns.items()) > T
        for k in range(count)
    ]


@pytest.mark.parametrize("backend", sorted(SESSIONS))
class TestHostileColumns:
    @SETTINGS
    @given(bad=bad_senders)
    @example(bad=LOST_QUORUM)
    def test_open_program(self, backend, bad):
        session, blocks, expected = SESSIONS[backend]
        inbox = _inbox(session, blocks, 0, bad)
        own = session.reveal_payloads_batch(0, blocks[0])
        opens = _opens(session, blocks, {**inbox, 0: own})
        if N - len(bad) > T:
            assert all(opens), "an honest quorum must always open"
        try:
            opened = _open(session, blocks[0], 0, inbox)
        except ReconstructionError:
            assert not all(opens)
        else:
            assert all(opens) and opened.tolist() == expected

    @SETTINGS
    @given(bad=bad_senders)
    @example(bad=LOST_QUORUM)
    def test_reconstruct_private_batch(self, backend, bad):
        session, blocks, expected = SESSIONS[backend]
        columns = _inbox(session, blocks, 0, bad)
        columns[0] = session.reveal_payloads_batch(0, blocks[0])
        opened, ok = session.reconstruct_private_batch(
            columns, count=len(expected), verifier=0, views=blocks[0]
        )
        assert isinstance(opened, np.ndarray) and opened.dtype == np.uint64
        assert ok.dtype == bool
        opens = _opens(session, blocks, columns)
        assert ok.tolist() == opens
        assert opened.tolist() == [
            want if good else 0 for want, good in zip(expected, opens)
        ]

    @SETTINGS
    @given(bad=bad_senders, strangers=st.dictionaries(
        st.one_of(st.integers(-3, 2 * N), st.text(max_size=2)),
        st.sampled_from(JUNK), max_size=3,
    ))
    def test_collect_step4_columns(self, backend, bad, strangers):
        session, blocks, expected = SESSIONS[backend]
        inbox = {**strangers, **_inbox(session, blocks, 0, bad)}
        collected = collect_step4_columns(inbox, len(expected), 0, N)
        for sender, column in collected.items():
            assert type(sender) is int and 0 < sender < N
            assert len(column) == len(expected)
        collected[0] = session.reveal_payloads_batch(0, blocks[0])
        opened, ok = session.reconstruct_private_batch(
            collected, count=len(expected), verifier=0, views=blocks[0]
        )
        opens = _opens(session, blocks, collected)
        assert ok.tolist() == opens
        assert opened.tolist() == [
            want if good else 0 for want, good in zip(expected, opens)
        ]


def test_honest_opening_is_one_column_per_sender():
    """The array path really runs: honest blocks reveal as columns whose
    wire size is that of the tuple list they stand for."""
    from repro.network import payload_size

    session, blocks, expected = SESSIONS["vectorized"]
    column = session.reveal_payloads_batch(1, blocks[1])
    assert isinstance(column, ShareColumn)
    assert payload_size(column) == payload_size(column.payloads())
    opened = _open(session, blocks[0], 0, _inbox(session, blocks, 0, {}))
    assert opened.tolist() == expected
