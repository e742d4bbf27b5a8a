"""Tests for the reusable fault-injection library."""

import random

import pytest

from repro.network import (
    RoundOutput,
    RushedView,
    compose_tampers,
    crash_after,
    drop_messages,
    faulty_adversary,
    flip_integers,
    garble_everything,
    only_in_rounds,
    run_protocol,
)


def _view(round_index=0):
    return RushedView(round_index=round_index, broadcasts={}, to_corrupted={})


def chatter(pid, n, rounds):
    """Send (pid, round) to everyone each round; collect everything."""
    seen = []
    for r in range(rounds):
        inbox = yield RoundOutput(
            private={j: (pid, r) for j in range(n) if j != pid}
        )
        seen.append(dict(inbox.private))
    return seen


def _run(n, rounds, corrupted, *tampers):
    programs = {pid: chatter(pid, n, rounds) for pid in range(n)}
    adv = faulty_adversary(
        corrupted,
        {pid: chatter(pid, n, rounds) for pid in corrupted},
        *tampers,
    )
    return run_protocol(programs, adversary=adv)


class TestCrashAfter:
    def test_silent_from_given_round(self):
        res = _run(3, 4, {2}, crash_after(2))
        seen = res.outputs[0]
        assert 2 in seen[0] and 2 in seen[1]
        assert 2 not in seen[2] and 2 not in seen[3]

    def test_crash_at_zero_is_fully_silent(self):
        res = _run(3, 2, {2}, crash_after(0))
        assert all(2 not in r for r in res.outputs[0])


class TestDropMessages:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            drop_messages(1.5, random.Random(0))

    def test_drop_all(self):
        res = _run(3, 3, {2}, drop_messages(1.0, random.Random(0)))
        assert all(2 not in r for r in res.outputs[0])

    def test_drop_none(self):
        res = _run(3, 3, {2}, drop_messages(0.0, random.Random(0)))
        assert all(2 in r for r in res.outputs[0])

    def test_partial_drop_rate(self):
        rng = random.Random(1)
        res = _run(4, 40, {3}, drop_messages(0.5, rng))
        received = sum(1 for r in res.outputs[0] if 3 in r)
        assert 8 <= received <= 32  # ~20 expected


class TestGarbleAndFlip:
    def test_garble(self):
        res = _run(3, 1, {2}, garble_everything())
        assert res.outputs[0][0][2] == "garbage"

    def test_flip_integers_tuple(self):
        res = _run(3, 1, {2}, flip_integers(0xFF))
        pid, r = res.outputs[0][0][2]
        assert (pid, r) == (2, 0 ^ 0xFF)

    def test_flip_integers_list(self):
        def prog(pid):
            inbox = yield RoundOutput(private={1 - pid: [1, 2, 3]})
            return inbox.private

        adv = faulty_adversary({1}, {1: prog(1)}, flip_integers(1))
        res = run_protocol({0: prog(0), 1: prog(1)}, adversary=adv)
        assert res.outputs[0][1] == [0, 3, 2]


class TestCrashAfterZeroDirect:
    """crash_after(0): silent from round zero at the tamper level."""

    def test_silences_private_and_broadcast_at_round_zero(self):
        out = RoundOutput(private={0: (9, 9), 1: (9, 9)}, broadcast="hello")
        silenced = crash_after(0)(2, _view(0), out)
        assert silenced.private == {}
        assert silenced.broadcast is None

    def test_never_speaks_in_any_later_round(self):
        t = crash_after(0)
        out = RoundOutput(private={0: 1}, broadcast=2)
        for r in range(5):
            assert t(2, _view(r), out) == RoundOutput.silent()


class TestDropBoundariesDirect:
    """drop_messages at the 0.0 / 1.0 boundaries is exact, not just
    probable: random() lies in [0, 1), so >= 0.0 always keeps and
    >= 1.0 always drops — for every message, every round."""

    def test_probability_zero_keeps_everything(self):
        t = drop_messages(0.0, random.Random(123))
        out = RoundOutput(private={j: (j, j) for j in range(50)})
        for r in range(10):
            assert t(9, _view(r), out).private == out.private

    def test_probability_one_drops_everything(self):
        t = drop_messages(1.0, random.Random(123))
        out = RoundOutput(private={j: (j, j) for j in range(50)})
        for r in range(10):
            assert t(9, _view(r), out).private == {}

    def test_boundaries_preserve_broadcast(self):
        out = RoundOutput(private={0: 1}, broadcast="keepme")
        for p in (0.0, 1.0):
            t = drop_messages(p, random.Random(0))
            assert t(9, _view(), out).broadcast == "keepme"


class TestComposition:
    def test_only_in_rounds(self):
        res = _run(3, 3, {2}, only_in_rounds(garble_everything(), {1}))
        seen = res.outputs[0]
        assert seen[0][2] == (2, 0)
        assert seen[1][2] == "garbage"
        assert seen[2][2] == (2, 2)

    def test_compose_order(self):
        t = compose_tampers(flip_integers(0b01), flip_integers(0b10))
        out = t(0, None, RoundOutput(private={1: 0}))
        assert out.private[1] == 0b11

    def test_compose_applies_left_to_right(self):
        """Non-commutative tampers pin the ordering (XOR masks cannot:
        they commute, so either order would pass the test above)."""

        def double(pid, view, out):
            return RoundOutput(
                private={j: v * 2 for j, v in out.private.items()},
                broadcast=out.broadcast,
            )

        def increment(pid, view, out):
            return RoundOutput(
                private={j: v + 1 for j, v in out.private.items()},
                broadcast=out.broadcast,
            )

        start = RoundOutput(private={1: 3})
        assert compose_tampers(double, increment)(
            0, _view(), start
        ).private[1] == 3 * 2 + 1
        assert compose_tampers(increment, double)(
            0, _view(), start
        ).private[1] == (3 + 1) * 2

    def test_compose_with_crash_is_not_commutative(self):
        """crash-then-garble stays silent; garble-then-crash is also
        silent — but drop-then-flip differs from flip-then-drop only in
        rng stream, so use crash + a payload-adding tamper instead."""

        def add_message(pid, view, out):
            private = dict(out.private)
            private[0] = "extra"
            return RoundOutput(private=private, broadcast=out.broadcast)

        start = RoundOutput(private={1: 3})
        crashed_then_added = compose_tampers(crash_after(0), add_message)(
            2, _view(0), start
        )
        added_then_crashed = compose_tampers(add_message, crash_after(0))(
            2, _view(0), start
        )
        assert crashed_then_added.private == {0: "extra"}
        assert added_then_crashed.private == {}

    def test_faults_against_anonchan(self):
        """Library faults drive a full protocol run (smoke)."""
        from repro.core import AnonChan, scaled_parameters
        from repro.vss import IdealVSS

        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        protocol = AnonChan(params, vss)
        session = vss.new_session(random.Random(0))
        msgs = {i: params.field(50 + i) for i in range(4)}

        def prog(pid):
            return protocol.party_program(
                pid, session, msgs[pid], random.Random(pid)
            )

        adv = faulty_adversary(
            {3},
            {3: prog(3)},
            drop_messages(0.3, random.Random(5)),
            only_in_rounds(flip_integers(0x7), {2, 3}),
        )
        res = run_protocol({pid: prog(pid) for pid in range(4)}, adversary=adv)
        out = res.outputs[0]
        for i in range(3):
            assert out.output[50 + i] >= 1  # honest messages survive


class TestTampersOnShareColumns:
    """Every fault model treats a share column exactly like the list of
    ``(sender, terms, value)`` tuples it stands for: each recipient gets
    the same content and the same accounted size from both forms."""

    @staticmethod
    def _column(seed):
        import numpy as np

        from repro.network import ShareColumn

        rng = random.Random(seed)
        lengths = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 30))]
        starts = [0]
        for length in lengths:
            starts.append(starts[-1] + length)
        serials = [rng.randrange(1000) for _ in range(starts[-1])]
        coefficients = [rng.randrange(1 << 16) for _ in range(starts[-1])]
        values = [rng.randrange(1 << 16) for _ in lengths]
        return ShareColumn(
            3, starts, np.array(serials, dtype=np.int64),
            np.array(coefficients, dtype=np.uint32),
            np.array(values, dtype=np.uint32),
        )

    @staticmethod
    def _content(payload):
        from repro.network import ShareColumn

        if isinstance(payload, ShareColumn):
            return ("column", payload.payloads())
        if isinstance(payload, list):
            return ("column", list(payload))
        return ("other", payload)

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: flip_integers(0x7),
            lambda seed: flip_integers(1 << 40),
            lambda seed: drop_messages(0.5, random.Random(seed)),
            lambda seed: garble_everything(),
            lambda seed: compose_tampers(
                drop_messages(0.3, random.Random(seed)), flip_integers(1)
            ),
        ],
        ids=["flip", "flip-wide-mask", "drop", "garble", "drop+flip"],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_column_and_tuple_list_tamper_alike(self, make, seed):
        from repro.network import payload_size

        column = self._column(seed)
        tuples = column.payloads()
        recipients = [0, 1, 2, 4]
        got = {}
        for form, payload in (("column", column), ("tuples", tuples)):
            out = RoundOutput(private={j: payload for j in recipients})
            tampered = make(seed)(3, _view(), out)
            got[form] = {
                j: (self._content(p), payload_size(p))
                for j, p in tampered.private.items()
            }
        assert got["column"] == got["tuples"]

    def test_flip_builds_one_column_per_call(self):
        """A column sent to several recipients is flipped once per round,
        into a new column: the sender's own arrays never change."""
        column = self._column(1)
        before = column.values.copy()
        out = RoundOutput(private={j: column for j in (0, 1, 2)})
        tampered = flip_integers(0x7)(3, _view(), out)
        flipped = {id(p) for p in tampered.private.values()}
        assert len(flipped) == 1
        assert (column.values == before).all()
        assert (tampered.private[0].values == before ^ 0x7).all()
