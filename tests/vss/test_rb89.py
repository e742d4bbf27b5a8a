"""Tests for the executable statistical VSS (t < n/2)."""

import random

import pytest

from repro.fields import gf2k
from repro.network import (
    RoundOutput,
    SilentAdversary,
    TamperingAdversary,
    run_protocol,
)
from repro.vss import DEALER_DISQUALIFIED, RB89VSS, ReconstructionError

from .harness import share_and_open, sum_across_dealers


@pytest.fixture
def scheme():
    # n=5, t=2: an honest-majority setting perfect VSS cannot handle
    # (3t = 6 > n) — exactly the paper's regime.
    return RB89VSS(gf2k(16), n=5, t=2)


def _run_single(scheme, secrets, adversary=None, seed=0):
    session = scheme.new_session(random.Random(seed))

    def party(pid, rng):
        batch = yield from session.share_program(
            pid, 0, secrets if pid == 0 else None, rng, count=len(secrets)
        )
        if batch is DEALER_DISQUALIFIED:
            return DEALER_DISQUALIFIED
        values = yield from session.open_program(pid, batch.views)
        return values

    programs = {
        pid: party(pid, random.Random(seed * 91 + pid))
        for pid in range(scheme.n)
    }
    return run_protocol(programs, adversary=adversary), session


class TestHonest:
    def test_roundtrip_beyond_perfect_threshold(self, scheme):
        f = scheme.field
        result, _ = _run_single(scheme, [f(1234), f(5678)])
        for out in result.outputs.values():
            assert out == [f(1234), f(5678)]

    def test_fast_path_costs(self, scheme):
        f = scheme.field
        result, _ = _run_single(scheme, [f(9)])
        assert result.metrics.rounds == 4  # 3 share + 1 open
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
        secrets = {d: [f(3 * (d + 1))] for d in range(scheme.n)}
        result, _ = sum_across_dealers(scheme, secrets)
        expected = f.sum([s[0] for s in secrets.values()])
        for out in result.outputs.values():
            assert out == expected

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RB89VSS(gf2k(16), n=4, t=2)


class TestRobustness:
    def test_lying_shareholders_rejected_by_icp(self, scheme):
        """t=2 corrupted parties flip their revealed shares; the MACs
        reject them and everyone still reconstructs correctly —
        impossible without authentication at n=5, t=2."""
        f = scheme.field
        corrupted = {3, 4}
        session = scheme.new_session(random.Random(5))

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, [f(777)] if pid == 0 else None, rng, count=1
            )
            values = yield from session.open_program(pid, batch.views)
            return values[0]

        def tamper(pid, view, out):
            if not out.private:
                return out
            tampered = {}
            for j, payload in out.private.items():
                if isinstance(payload, list) and payload and isinstance(payload[0], tuple):
                    # flip the claimed share value in every payload
                    tampered[j] = [
                        (p[0], p[1], p[2] ^ 0x1234, p[3])
                        if isinstance(p, tuple) and len(p) == 4
                        else p
                        for p in payload
                    ]
                else:
                    tampered[j] = payload
            return RoundOutput(private=tampered, broadcast=out.broadcast)

        programs = {
            pid: party(pid, random.Random(pid)) for pid in range(scheme.n)
        }
        adv_programs = {
            pid: party(pid, random.Random(pid)) for pid in corrupted
        }
        adv = TamperingAdversary(corrupted, adv_programs, tamper)
        result = run_protocol(programs, adversary=adv)
        for pid in range(3):
            assert result.outputs[pid] == f(777)

    def test_withholding_parties(self, scheme):
        f = scheme.field
        result, _ = _run_single(
            scheme, [f(55)], adversary=SilentAdversary({3, 4})
        )
        for pid in range(3):
            assert result.outputs[pid] == [f(55)]

    def test_silent_dealer_disqualified(self, scheme):
        f = scheme.field
        result, _ = _run_single(
            scheme, [f(1)], adversary=SilentAdversary({0})
        )
        for pid in range(1, scheme.n):
            assert result.outputs[pid] is DEALER_DISQUALIFIED

    def test_too_few_payloads(self, scheme):
        session = scheme.new_session(random.Random(0))
        with pytest.raises(ReconstructionError):
            session.verify_and_combine({0: None}, verifier=1)


class TestLinearity:
    def test_scaled_combination(self, scheme):
        from repro.network import parallel
        from repro.vss import combine_views

        f = scheme.field
        session = scheme.new_session(random.Random(1))

        def party(pid, rng):
            batches = yield from parallel(
                {
                    d: session.share_program(
                        pid, d, [f(d + 1)] if pid == d else None, rng, count=1
                    )
                    for d in range(2)
                }
            )
            combo = combine_views([batches[0][0], batches[1][0]], [f(3), f(5)])
            values = yield from session.open_program(pid, [combo])
            return values[0]

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
        )
        expected = f(3) * f(1) + f(5) * f(2)
        for out in result.outputs.values():
            assert out == expected

    def test_same_dealer_batch_sum(self, scheme):
        from repro.vss import combine_views

        f = scheme.field
        session = scheme.new_session(random.Random(2))

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, [f(10), f(20), f(30)] if pid == 0 else None, rng, count=3
            )
            total = combine_views(list(batch.views))
            values = yield from session.open_program(pid, [total])
            return values[0]

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
        )
        for out in result.outputs.values():
            assert out == f(10) + f(20) + f(30)


class TestAnonChanOverRB89:
    def test_public_openings_end_to_end(self):
        """AnonChan's public reconstruction steps work over the
        statistical backend at t < n/2 (the anonymity-critical private
        step 4 runs on the ideal/perfect backends; see DESIGN.md)."""
        from repro.core import DealerLayout, honest_material, scaled_parameters

        params = scaled_parameters(n=5, t=2, d=4, num_checks=2, kappa=16, margin=4)
        scheme = RB89VSS(params.field, params.n, params.t)
        session = scheme.new_session(random.Random(3))
        layout = DealerLayout(params)
        material = honest_material(params, params.field(42), random.Random(4))
        secrets = layout.build_secrets(material)

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, secrets if pid == 0 else None, rng, count=layout.total
            )
            # Open the challenge share publicly (step 2's shape).
            values = yield from session.open_program(
                pid, [batch[layout.challenge()]]
            )
            return values[0]

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(params.n)}
        )
        for out in result.outputs.values():
            assert out == material.challenge_share


class TestRevealSizes:
    """RB89 reveal columns carry their wire size from construction; it
    must equal what ``payload_size`` counts walking the same payloads."""

    @pytest.mark.parametrize("garbler", [None, 3], ids=["honest", "garbled"])
    def test_precomputed_size_equals_the_walk(self, garbler, monkeypatch):
        from repro.core import run_anonchan, scaled_parameters
        from repro.network import SizedPayload, payload_size
        from repro.network.faults import garble_everything
        from repro.vss.rb89 import RB89VSSSession

        columns = []
        reveal = RB89VSSSession.reveal_payloads_batch

        def recording(self, pid, views):
            column = reveal(self, pid, views)
            columns.append(column)
            return column

        monkeypatch.setattr(RB89VSSSession, "reveal_payloads_batch", recording)
        params = scaled_parameters(n=4, d=3, kappa=16, num_checks=2)
        scheme = RB89VSS(params.field, params.n, params.t)
        messages = {pid: params.field(50 + pid) for pid in range(params.n)}
        factory = None
        if garbler is not None:
            def factory(protocol, session):
                program = protocol.party_program(
                    garbler, session, messages[garbler],
                    random.Random((5 << 16) | garbler),
                )
                return TamperingAdversary(
                    {garbler}, {garbler: program}, garble_everything()
                )
        result = run_anonchan(
            params, scheme, messages, seed=5, adversary_factory=factory
        )
        if garbler is not None:
            assert garbler not in result.outputs[0].vss_qualified
        assert columns and all(type(c) is SizedPayload for c in columns)
        for column in columns:
            assert column.payload_elements == payload_size(list(column))
        # Views combined across dealers carry several terms and tags.
        assert max(len(p[1]) for c in columns for p in c) > 1
