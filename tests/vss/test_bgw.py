"""Tests for the executable perfect VSS (t < n/3), incl. attack runs."""

import random

import pytest

from repro.fields import Polynomial, gf2k
from repro.network import (
    PassiveAdversary,
    RoundOutput,
    TamperingAdversary,
    parallel,
    run_protocol,
)
from repro.sharing import SymmetricBivariate
from repro.vss import BGWVSS, DEALER_DISQUALIFIED, ReconstructionError

from .harness import share_and_open, sum_across_dealers


@pytest.fixture
def scheme():
    return BGWVSS(gf2k(16), n=4, t=1)


@pytest.fixture
def scheme7():
    return BGWVSS(gf2k(16), n=7, t=2)


def _honest_party(session, pid, dealer, secrets, rng, count):
    """Share one batch, then publicly open all of its values."""

    def prog():
        batch = yield from session.share_program(
            pid, dealer, secrets if pid == dealer else None, rng, count=count
        )
        if batch is DEALER_DISQUALIFIED:
            return DEALER_DISQUALIFIED
        values = yield from session.open_program(pid, batch.views)
        return values.tolist()

    return prog()


def _run(scheme, dealer, secrets, adversary=None, seed=0, overrides=None):
    session = scheme.new_session(random.Random(seed))
    programs = {}
    for pid in range(scheme.n):
        rng = random.Random(seed * 100 + pid)
        programs[pid] = _honest_party(
            session, pid, dealer, secrets, rng, len(secrets)
        )
    if overrides:
        for pid, prog in overrides.items():
            programs[pid] = prog(session)
    result = run_protocol(programs, adversary=adversary)
    return result, session


class TestHonestExecution:
    def test_roundtrip(self, scheme):
        f = scheme.field
        result, _ = _run(scheme, dealer=0, secrets=[f(321)])
        for out in result.outputs.values():
            assert out == [f(321)]

    def test_batch_roundtrip(self, scheme7):
        f = scheme7.field
        secrets = [f(v) for v in (1, 2, 3, 4, 5)]
        result, _ = _run(scheme7, dealer=3, secrets=secrets)
        for out in result.outputs.values():
            assert out == secrets

    def test_fast_path_costs(self, scheme):
        """Honest dealer: 3 sharing rounds, 0 broadcast rounds, +1 to open."""
        f = scheme.field
        result, _ = _run(scheme, dealer=0, secrets=[f(5)])
        assert result.metrics.rounds == 4
        assert result.metrics.broadcast_rounds == 0

    def test_parallel_dealers(self, scheme):
        f = scheme.field
        secrets = {d: [f(10 + d)] for d in range(scheme.n)}
        result, _ = share_and_open(scheme, secrets)
        for out in result.outputs.values():
            for d in range(scheme.n):
                assert out[d] == [f(10 + d)]

    def test_cross_dealer_sum(self, scheme):
        f = scheme.field
        secrets = {d: [f(7 * (d + 1))] for d in range(scheme.n)}
        result, _ = sum_across_dealers(scheme, secrets)
        expected = f.sum([s[0] for s in secrets.values()])
        for out in result.outputs.values():
            assert out == expected

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BGWVSS(gf2k(16), n=6, t=2)


class TestRobustReconstruction:
    def test_corrupt_party_lies_at_opening(self, scheme7):
        """t corrupted parties flip their opened shares; BW absorbs it."""
        f = scheme7.field
        corrupted = {5, 6}

        def tamper(pid, view, out):
            if not out.private:
                return out
            return RoundOutput(
                private={
                    j: [v ^ 12345 if isinstance(v, int) else v for v in payload]
                    if isinstance(payload, list)
                    else payload
                    for j, payload in out.private.items()
                },
                broadcast=out.broadcast,
            )

        session = scheme7.new_session(random.Random(0))
        programs = {
            pid: _honest_party(
                session, pid, 0, [f(999)], random.Random(pid), 1
            )
            for pid in range(scheme7.n)
        }
        adv_programs = {
            pid: _honest_party(session, pid, 0, [f(999)], random.Random(pid), 1)
            for pid in corrupted
        }
        adv = TamperingAdversary(corrupted, adv_programs, tamper)
        result = run_protocol(programs, adversary=adv)
        for pid, out in result.outputs.items():
            assert out == [f(999)]

    def test_withholding_parties(self, scheme7):
        from repro.network import SilentAdversary

        f = scheme7.field
        result, _ = _run(
            scheme7, dealer=0, secrets=[f(55)], adversary=SilentAdversary({5, 6})
        )
        for out in result.outputs.values():
            assert out == [f(55)]

    def test_verify_and_combine_needs_quorum(self, scheme):
        session = scheme.new_session(random.Random(0))
        with pytest.raises(ReconstructionError):
            session.verify_and_combine({0: 1})

    def test_verify_and_combine_filters_garbage(self, scheme7):
        """Non-integer payloads are ignored, not fatal."""
        f = scheme7.field
        session = scheme7.new_session(random.Random(1))
        from repro.fields import Polynomial as P

        poly = P.random(f, scheme7.t, random.Random(2), constant=f(42))
        payloads = {pid: poly(pid + 1).value for pid in range(scheme7.n)}
        payloads[6] = "garbage"
        payloads[5] = None
        assert session.verify_and_combine(payloads) == f(42)


def _make_tampering_dealer(victim, resolve_honestly, secrets):
    """A dealer that hands ``victim`` a corrupted row in round 1.

    If ``resolve_honestly`` it afterwards answers complaints and
    accusations with the true polynomial (should stay qualified); if not
    it answers the accusation with a garbage row (must be disqualified).
    """

    def factory(session):
        def prog():
            scheme = session.scheme
            field = scheme.field
            n, t = scheme.n, scheme.t
            pid = 0  # dealer id in these tests
            rng = random.Random(12321)
            bivs = [
                SymmetricBivariate.random(field, t, s, rng) for s in secrets
            ]
            true_rows = {
                j: [b.row(j + 1) for b in bivs] for j in range(n)
            }
            msgs = dict(true_rows)
            msgs[victim] = [
                r + Polynomial(field, [1]) for r in true_rows[victim]
            ]
            yield RoundOutput(
                private={j: msgs[j] for j in range(n) if j != pid}
            )
            # R2: crossings from the true polynomials.
            inbox = yield RoundOutput(
                private={
                    j: [b(pid + 1, j + 1).value for b in bivs]
                    for j in range(n)
                    if j != pid
                }
            )
            # R3: dealer has nothing to complain about.
            inbox = yield RoundOutput()
            complaints = {
                s: p for s, p in inbox.broadcast.items() if isinstance(p, list)
            }
            if not complaints:
                return None
            # R4: resolve with true values.
            resolutions = {"values": {}, "rows": {}}
            for complainer, items in complaints.items():
                for kind, arg in items:
                    if kind == "bad-row":
                        resolutions["rows"][complainer] = true_rows[complainer]
                    elif kind == "cross":
                        for k, b in enumerate(bivs):
                            resolutions["values"][(k, complainer, arg)] = b(
                                complainer + 1, arg + 1
                            ).value
            inbox = yield RoundOutput(broadcast=resolutions)
            unhappy = set(resolutions["rows"])
            while True:
                inbox = yield RoundOutput()
                new = {
                    s
                    for s, p in inbox.broadcast.items()
                    if p == "accuse" and s not in unhappy
                }
                if not new:
                    break
                unhappy |= new
                if resolve_honestly:
                    answer = {m: true_rows[m] for m in new}
                else:
                    answer = {
                        m: [
                            Polynomial(field, [99] * (t + 1))
                            for _ in secrets
                        ]
                        for m in new
                    }
                inbox = yield RoundOutput(broadcast=answer)
            return None

        return prog()

    return factory


class TestMaliciousDealer:
    def test_silent_dealer_disqualified(self, scheme):
        from repro.network import SilentAdversary

        f = scheme.field
        result, _ = _run(
            scheme, dealer=0, secrets=[f(1)], adversary=SilentAdversary({0})
        )
        for out in result.outputs.values():
            assert out is DEALER_DISQUALIFIED

    def test_inconsistent_row_resolved_honestly(self, scheme):
        """Dealer corrupts one row but answers truthfully: stays qualified,
        and all honest parties reconstruct the committed value."""
        f = scheme.field
        secrets = [f(246)]
        factory = _make_tampering_dealer(
            victim=2, resolve_honestly=True, secrets=secrets
        )
        session = scheme.new_session(random.Random(0))
        programs = {
            pid: _honest_party(session, pid, 0, None, random.Random(pid), 1)
            for pid in range(1, scheme.n)
        }
        programs[0] = factory(session)
        adv = PassiveAdversary({0}, {0: programs[0]})
        # Give the honest runner a placeholder for party 0 (adversary speaks).
        result = run_protocol(programs, adversary=adv)
        outs = [result.outputs[pid] for pid in range(1, scheme.n)]
        assert all(o == outs[0] for o in outs)
        assert outs[0] == [f(246)]

    def test_inconsistent_row_resolved_with_garbage(self, scheme):
        """Dealer answers the accusation with a garbage row: disqualified."""
        f = scheme.field
        secrets = [f(246)]
        factory = _make_tampering_dealer(
            victim=2, resolve_honestly=False, secrets=secrets
        )
        session = scheme.new_session(random.Random(0))
        programs = {
            pid: _honest_party(session, pid, 0, None, random.Random(pid), 1)
            for pid in range(1, scheme.n)
        }
        programs[0] = factory(session)
        adv = PassiveAdversary({0}, {0: programs[0]})
        result = run_protocol(programs, adversary=adv)
        for pid in range(1, scheme.n):
            assert result.outputs[pid] is DEALER_DISQUALIFIED

    def test_verdict_agreement_under_attack(self, scheme7):
        """All honest parties always agree on the sharing verdict."""
        f = scheme7.field
        for resolve in (True, False):
            factory = _make_tampering_dealer(
                victim=4, resolve_honestly=resolve, secrets=[f(13)]
            )
            session = scheme7.new_session(random.Random(1))
            programs = {
                pid: _honest_party(
                    session, pid, 0, None, random.Random(pid), 1
                )
                for pid in range(1, scheme7.n)
            }
            programs[0] = factory(session)
            adv = PassiveAdversary({0}, {0: programs[0]})
            result = run_protocol(programs, adversary=adv)
            outs = [result.outputs[pid] for pid in range(1, scheme7.n)]
            assert all(
                (o is DEALER_DISQUALIFIED) == (outs[0] is DEALER_DISQUALIFIED)
                for o in outs
            )
            if outs[0] is not DEALER_DISQUALIFIED:
                assert all(o == outs[0] for o in outs)


class TestFalseComplaints:
    def test_false_complaint_about_honest_dealer(self, scheme):
        """A corrupted party complains falsely; the dealer survives and the
        secret still reconstructs (at the cost of extra rounds)."""
        f = scheme.field
        secrets = [f(88)]

        def tamper(pid, view, out):
            if view.round_index == 2:  # the complaint round
                return RoundOutput(
                    private=out.private, broadcast=[("cross", 1)]
                )
            return out

        session = scheme.new_session(random.Random(3))
        programs = {
            pid: _honest_party(session, pid, 0, secrets, random.Random(pid), 1)
            for pid in range(scheme.n)
        }
        adv = TamperingAdversary(
            {3},
            {3: _honest_party(session, 3, 0, None, random.Random(3), 1)},
            tamper,
        )
        result = run_protocol(programs, adversary=adv)
        for pid in range(scheme.n - 1):
            assert result.outputs[pid] == [f(88)]
        assert result.metrics.rounds > 4  # slower than the fast path
        assert result.metrics.broadcast_rounds >= 1
