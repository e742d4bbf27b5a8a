"""Shared helpers for driving VSS executions in tests."""

import random

from repro.network import run_protocol
from repro.vss import combine_views


def share_and_open(
    scheme,
    secrets_by_dealer,
    adversary=None,
    seed=0,
    corrupt_programs=None,
):
    """Run: every dealer shares its batch in parallel, then open everything.

    ``secrets_by_dealer`` maps dealer id -> list of FieldElements.
    Returns (ExecutionResult, session).  Each honest party's output is a
    dict: dealer -> list of reconstructed values (or DEALER_DISQUALIFIED).
    """
    from repro.network import parallel
    from repro.vss import DEALER_DISQUALIFIED

    session = scheme.new_session(random.Random(seed))
    counts = {
        d: len(s) if hasattr(s, "__len__") else 1
        for d, s in secrets_by_dealer.items()
    }

    def party(pid, rng):
        batches = yield from parallel(
            {
                ("share", d): session.share_program(
                    pid,
                    d,
                    secrets_by_dealer[d] if pid == d else None,
                    rng,
                    count=counts[d],
                )
                for d in secrets_by_dealer
            }
        )
        open_views = []
        labels = []
        for d in sorted(secrets_by_dealer):
            batch = batches[("share", d)]
            if batch is DEALER_DISQUALIFIED:
                continue
            for k, view in enumerate(batch.views):
                open_views.append(view)
                labels.append((d, k))
        values = (yield from session.open_program(pid, open_views)).tolist()
        out = {
            d: (
                DEALER_DISQUALIFIED
                if batches[("share", d)] is DEALER_DISQUALIFIED
                else [None] * counts[d]
            )
            for d in secrets_by_dealer
        }
        for (d, k), v in zip(labels, values):
            out[d][k] = v
        return out

    programs = {
        pid: party(pid, random.Random(seed * 1000 + pid))
        for pid in range(scheme.n)
    }
    if corrupt_programs:
        from repro.network import PassiveAdversary

        adversary = PassiveAdversary(set(corrupt_programs), corrupt_programs)
    result = run_protocol(programs, adversary=adversary)
    return result, session


def sum_across_dealers(scheme, secrets_by_dealer, seed=0):
    """Share batches from several dealers, open only the cross-dealer sum."""
    from repro.network import parallel
    from repro.vss import DEALER_DISQUALIFIED

    session = scheme.new_session(random.Random(seed))
    counts = {
        d: len(s) if hasattr(s, "__len__") else 1
        for d, s in secrets_by_dealer.items()
    }

    def party(pid, rng):
        batches = yield from parallel(
            {
                d: session.share_program(
                    pid,
                    d,
                    secrets_by_dealer[d] if pid == d else None,
                    rng,
                    count=counts[d],
                )
                for d in secrets_by_dealer
            }
        )
        views = [
            batches[d][0]
            for d in sorted(secrets_by_dealer)
            if batches[d] is not DEALER_DISQUALIFIED
        ]
        total = combine_views(views)
        values = yield from session.open_program(pid, [total])
        return int(values[0])

    programs = {
        pid: party(pid, random.Random(seed * 1000 + pid))
        for pid in range(scheme.n)
    }
    return run_protocol(programs), session
