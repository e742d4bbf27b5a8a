"""Tests for the synchronous simulator, programs, and adversaries."""

import pytest

from repro.network import (
    Adversary,
    PassiveAdversary,
    ProtocolViolation,
    RoundOutput,
    SilentAdversary,
    TamperingAdversary,
    parallel,
    payload_size,
    run_protocol,
    sequence,
    silent_rounds,
)


def echo_program(pid, n, value):
    """Round 1: send value to everyone privately; return what was received."""
    inbox = yield RoundOutput(private={j: value for j in range(n) if j != pid})
    return dict(inbox.private)


class RecordingAdversary(PassiveAdversary):
    """A passive adversary that keeps every corrupted party's view."""

    def __init__(self, corrupted, programs):
        super().__init__(corrupted, programs)
        self.views = []

    def observe_inputs(self, inputs):
        self.views.append(dict(inputs))
        super().observe_inputs(inputs)


def broadcast_program(pid, n, value):
    """Round 1: broadcast value; return the broadcast map received."""
    inbox = yield RoundOutput(broadcast=value)
    return dict(inbox.broadcast)


class TestBasicDelivery:
    def test_private_exchange(self):
        n = 4
        programs = {i: echo_program(i, n, f"msg{i}") for i in range(n)}
        result = run_protocol(programs)
        for i in range(n):
            expected = {j: f"msg{j}" for j in range(n) if j != i}
            assert result.outputs[i] == expected

    def test_broadcast_consistency(self):
        n = 5
        programs = {i: broadcast_program(i, n, i * 10) for i in range(n)}
        result = run_protocol(programs)
        views = list(result.outputs.values())
        assert all(v == views[0] for v in views)
        assert views[0] == {i: i * 10 for i in range(n)}

    def test_message_to_unknown_party_dropped(self):
        def prog():
            yield RoundOutput(private={99: "x"})
            return "done"

        result = run_protocol({0: prog()})
        assert result.outputs[0] == "done"

    def test_immediate_return(self):
        def prog():
            return 42
            yield  # pragma: no cover

        result = run_protocol({0: prog()})
        assert result.outputs[0] == 42
        assert result.metrics.rounds == 0


class TestMetrics:
    def test_round_counting(self):
        n = 3
        programs = {i: silent_rounds(4) for i in range(n)}
        result = run_protocol(programs)
        assert result.metrics.rounds == 4
        assert result.metrics.broadcast_rounds == 0

    def test_broadcast_round_counting(self):
        def prog(pid):
            yield RoundOutput()  # silent round
            yield RoundOutput(broadcast="hello")
            yield RoundOutput()

        result = run_protocol({i: prog(i) for i in range(3)})
        assert result.metrics.rounds == 3
        assert result.metrics.broadcast_rounds == 1
        assert result.metrics.broadcasts_sent == 3

    def test_message_counting(self):
        n = 4
        programs = {i: echo_program(i, n, 7) for i in range(n)}
        result = run_protocol(programs)
        assert result.metrics.private_messages == n * (n - 1)

    def test_merge(self):
        from repro.network import ProtocolMetrics

        a = ProtocolMetrics(rounds=2, broadcast_rounds=1, broadcasts_sent=3)
        b = ProtocolMetrics(rounds=5, broadcast_rounds=0)
        m = a.merge(b)
        assert m.rounds == 7
        assert m.broadcast_rounds == 1
        assert "rounds=7" in m.summary()

    def test_merge_carries_extra(self):
        from repro.network import ProtocolMetrics

        a = ProtocolMetrics(rounds=1, extra={"a": 1, "note": "x", "ok": True})
        b = ProtocolMetrics(rounds=1, extra={"a": 2, "b": 3, "note": "y"})
        merged = a.merge(b)
        # Numeric extras shared by both operands add (bools excluded);
        # everything else keeps the right-hand operand's value.
        assert merged.extra == {"a": 3, "b": 3, "note": "y", "ok": True}
        # Neither operand is mutated.
        assert a.extra == {"a": 1, "note": "x", "ok": True}
        assert b.extra == {"a": 2, "b": 3, "note": "y"}

    def test_merge_bool_numeric_collision_keeps_later_value(self):
        from repro.network import ProtocolMetrics

        # bool is an int subclass, but flags are not costs: a collision
        # between a bool and a number must NOT add them (True + 1 == 2
        # would silently corrupt the ledger) — later execution wins.
        a = ProtocolMetrics(extra={"flag": True, "count": 1})
        b = ProtocolMetrics(extra={"flag": 1, "count": False})
        assert a.merge(b).extra == {"flag": 1, "count": False}
        assert b.merge(a).extra == {"flag": True, "count": 1}

    def test_record_round_rejects_negative_counts(self):
        import pytest

        from repro.network import ProtocolMetrics

        m = ProtocolMetrics()
        for bad in [(-1, 0, 0), (0, -2, 0), (0, 0, -3)]:
            with pytest.raises(ValueError, match="non-negative"):
                m.record_round(*bad)
        # Rejected rounds leave the ledger untouched.
        assert m == ProtocolMetrics()
        m.record_round(0, 0, 0)
        assert m.rounds == 1

    def test_max_rounds_guard(self):
        def forever():
            while True:
                yield RoundOutput()

        with pytest.raises(ProtocolViolation):
            run_protocol({0: forever()}, max_rounds=10)


class TestParallelComposition:
    def test_two_subprotocols(self):
        n = 3

        def party(pid):
            result = yield from parallel(
                {
                    "a": echo_program(pid, n, f"a{pid}"),
                    "b": broadcast_program(pid, n, f"b{pid}"),
                }
            )
            return result

        result = run_protocol({i: party(i) for i in range(n)})
        assert result.metrics.rounds == 1  # both subprotocols share the round
        out0 = result.outputs[0]
        assert out0["a"] == {1: "a1", 2: "a2"}
        assert out0["b"] == {0: "b0", 1: "b1", 2: "b2"}

    def test_unequal_lengths(self):
        def short(pid):
            yield RoundOutput(broadcast=("s", pid))
            return "short-done"

        def long(pid):
            yield RoundOutput()
            inbox = yield RoundOutput(broadcast=("l", pid))
            return sorted(inbox.broadcast)

        def party(pid):
            return (yield from parallel({"s": short(pid), "l": long(pid)}))

        result = run_protocol({i: party(i) for i in range(3)})
        assert result.metrics.rounds == 2
        assert result.outputs[0]["s"] == "short-done"
        assert result.outputs[0]["l"] == [0, 1, 2]

    def test_nested_parallel(self):
        n = 2

        def party(pid):
            inner = parallel(
                {
                    "x": echo_program(pid, n, f"x{pid}"),
                    "y": echo_program(pid, n, f"y{pid}"),
                }
            )
            result = yield from parallel({"inner": inner, "z": silent_rounds(1)})
            return result

        result = run_protocol({i: party(i) for i in range(n)})
        assert result.metrics.rounds == 1
        assert result.outputs[0]["inner"]["x"] == {1: "x1"}
        assert result.outputs[0]["inner"]["y"] == {1: "y1"}

    def test_sequence(self):
        def party(pid):
            return (
                yield from sequence(
                    broadcast_program(pid, 2, "r1"),
                    broadcast_program(pid, 2, "r2"),
                )
            )

        result = run_protocol({i: party(i) for i in range(2)})
        assert result.metrics.rounds == 2
        assert result.outputs[0] == [{0: "r1", 1: "r1"}, {0: "r2", 1: "r2"}]


class TestAdversaries:
    def test_silent_adversary(self):
        n = 4
        programs = {i: echo_program(i, n, f"m{i}") for i in range(n)}
        result = run_protocol(programs, adversary=SilentAdversary({3}))
        # Party 3 sent nothing; honest parties see only each other.
        assert result.outputs[0] == {1: "m1", 2: "m2"}
        assert 3 not in result.outputs

    def test_passive_adversary_follows_protocol(self):
        n = 4
        programs = {i: echo_program(i, n, f"m{i}") for i in range(n)}
        adv = RecordingAdversary({3}, {3: echo_program(3, n, "m3")})
        result = run_protocol(programs, adversary=adv)
        assert result.outputs[0] == {1: "m1", 2: "m2", 3: "m3"}
        # The adversary recorded party 3's view.
        assert adv.views[0][3].private == {0: "m0", 1: "m1", 2: "m2"}

    def test_tampering_adversary(self):
        n = 3
        programs = {i: broadcast_program(i, n, i) for i in range(n)}

        def tamper(pid, view, out):
            return RoundOutput(broadcast=999)

        adv = TamperingAdversary(
            {2}, {2: broadcast_program(2, n, 2)}, tamper
        )
        result = run_protocol(programs, adversary=adv)
        assert result.outputs[0][2] == 999
        assert result.outputs[0] == result.outputs[1]  # broadcast consistent

    def test_rushing_sees_honest_broadcasts(self):
        """Corrupted output can depend on honest same-round broadcasts."""
        n = 3
        programs = {i: broadcast_program(i, n, i * 7) for i in range(n)}
        observed = {}

        class Rusher(Adversary):
            def act(self, view):
                observed.update(view.broadcasts)
                total = sum(view.broadcasts.values())
                return {2: RoundOutput(broadcast=total)}

        result = run_protocol(programs, adversary=Rusher({2}))
        assert observed == {0: 0, 1: 7}
        assert result.outputs[0][2] == 7  # adversary echoed the honest sum

    def test_rushing_cannot_see_honest_private_traffic(self):
        seen = []

        def secret_exchange(pid):
            inbox = yield RoundOutput(private={1 - pid: "secret"})
            return dict(inbox.private)

        class Spy(Adversary):
            def act(self, view):
                seen.append(dict(view.to_corrupted[2]))
                return {2: RoundOutput()}

        programs = {0: secret_exchange(0), 1: secret_exchange(1), 2: silent_rounds(1)}
        run_protocol(programs, adversary=Spy({2}))
        assert seen == [{}]  # nothing addressed to the corrupted party

    def test_adversary_output_for_honest_party_rejected(self):
        class Bad(Adversary):
            def act(self, view):
                return {0: RoundOutput(), 1: RoundOutput()}

        programs = {i: silent_rounds(1) for i in range(3)}
        with pytest.raises(ProtocolViolation):
            run_protocol(programs, adversary=Bad({1}))

    def test_unknown_corrupted_party_rejected(self):
        with pytest.raises(ValueError):
            run_protocol({0: silent_rounds(1)}, adversary=SilentAdversary({5}))

    def test_adaptive_corruption(self):
        n = 3

        class Adaptive(Adversary):
            def maybe_corrupt(self, round_index, total, used):
                return {1} if round_index == 1 else set()

        def prog(pid):
            for r in range(3):
                yield RoundOutput(broadcast=(pid, r))
            return "ok"

        adv = Adaptive(set())
        result = run_protocol({i: prog(i) for i in range(n)}, adversary=adv)
        # Party 1 was taken over after round 1 and stopped broadcasting.
        assert 1 not in result.outputs
        assert result.outputs[0] == "ok"
        assert 1 in adv.corrupted


class TestPayloadSize:
    def test_atoms(self):
        from repro.fields import gf2k

        assert payload_size(None) == 0
        assert payload_size(5) == 1
        assert payload_size(gf2k(8)(3)) == 1

    def test_containers(self):
        assert payload_size([1, 2, 3]) == 3
        # Dict keys count as wire payload too: "a" + [1, 2] + "b" + 3.
        assert payload_size({"a": [1, 2], "b": 3}) == 5
        assert payload_size((None, 1)) == 1

    def test_dict_keys_counted(self):
        # Structured keys carry real atoms — a labelled broadcast like
        # {("deal", 3): "vss-share"} costs 2 (key) + 1 (value).
        assert payload_size({("deal", 3): "vss-share"}) == 3
        assert payload_size({0: None}) == 1
        assert payload_size({None: None}) == 0
        assert payload_size({(1, 2): (3, 4), "tag": []}) == 5

    def test_polynomial(self):
        from repro.fields import Polynomial, gf2k

        f = gf2k(8)
        assert payload_size(Polynomial(f, [1, 2, 3])) == 3

    def test_dataclass(self):
        from repro.sharing import Share
        from repro.fields import gf2k

        f = gf2k(8)
        assert payload_size(Share(f(1), f(2))) == 2


class TestElementCountingToggle:
    def test_count_elements_disabled(self):
        def prog(pid):
            inbox = yield RoundOutput(
                private={1 - pid: [1, 2, 3]}, broadcast=[4, 5]
            )
            return len(inbox.private)

        result = run_protocol(
            {0: prog(0), 1: prog(1)}, count_elements=False
        )
        assert result.metrics.field_elements_sent == 0
        assert result.metrics.private_messages == 2  # still counted
        assert result.metrics.broadcast_rounds == 1

    def test_count_elements_default_on(self):
        def prog(pid):
            yield RoundOutput(private={1 - pid: [1, 2, 3]})
            return None

        result = run_protocol({0: prog(0), 1: prog(1)})
        assert result.metrics.field_elements_sent == 6
