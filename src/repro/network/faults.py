"""Reusable fault-injection building blocks.

Tamper functions for :class:`~repro.network.adversary.TamperingAdversary`
expressing the standard failure models: message drops, crashes at a
given round, payload garbling.  They compose with :func:`compose_tampers`
(applied left to right).
"""

from __future__ import annotations

import random
from typing import Callable

from .adversary import RushedView, TamperingAdversary
from .messages import RoundOutput, ShareColumn, SizedPayload
from .program import Program

Tamper = Callable[[int, RushedView, RoundOutput], RoundOutput]


def crash_after(round_index: int) -> Tamper:
    """Behave honestly through ``round_index - 1``, then send nothing."""

    def tamper(pid, view, out):
        if view.round_index >= round_index:
            return RoundOutput.silent()
        return out

    return tamper


def drop_messages(probability: float, rng: random.Random) -> Tamper:
    """Drop each outgoing private payload independently w.p. ``probability``."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")

    def tamper(pid, view, out):
        kept = {
            j: payload
            for j, payload in out.private.items()
            if rng.random() >= probability
        }
        return RoundOutput(private=kept, broadcast=out.broadcast)

    return tamper


def garble_everything() -> Tamper:
    """Replace every payload (private and broadcast) with junk."""

    def tamper(pid, view, out):
        return RoundOutput(
            private={j: "garbage" for j in out.private},
            broadcast="garbage" if out.broadcast is not None else None,
        )

    return tamper


def flip_integers(mask: int) -> Tamper:
    """XOR ``mask`` into every int found at the top level of payloads.

    Models a bit-flipping (value-substituting) party: lists of ints and
    tuples ending in an int (the common share-payload shapes) are
    flipped, and a :class:`ShareColumn` has ``mask`` XORed into its
    value array; anything else passes through unchanged.  Flipping
    keeps a payload's shape, so a precomputed size carries over.  A
    payload sent to several recipients is flipped once per round.
    """

    def flip(payload):
        if isinstance(payload, int):
            return payload ^ mask
        if type(payload) is ShareColumn:
            import numpy as np

            values = payload.values
            if values.dtype.kind in "ui" and 0 <= mask <= np.iinfo(values.dtype).max:
                return payload.with_values(values ^ values.dtype.type(mask))
            return [flip(v) for v in payload.payloads()]  # mask too wide
        if isinstance(payload, list):
            flipped = [flip(v) for v in payload]
            if type(payload) is SizedPayload:
                return SizedPayload(flipped, payload.payload_elements)
            return flipped
        if isinstance(payload, tuple) and payload and isinstance(payload[-1], int):
            return payload[:-1] + (payload[-1] ^ mask,)
        return payload

    def tamper(pid, view, out):
        flipped: dict[int, object] = {}

        def flip_once(payload):
            key = id(payload)
            if key not in flipped:
                flipped[key] = flip(payload)
            return flipped[key]

        return RoundOutput(
            private={j: flip_once(p) for j, p in out.private.items()},
            broadcast=out.broadcast,
        )

    return tamper


def only_in_rounds(inner: Tamper, rounds: set[int]) -> Tamper:
    """Apply ``inner`` only in the given round indices."""

    def tamper(pid, view, out):
        if view.round_index in rounds:
            return inner(pid, view, out)
        return out

    return tamper


def compose_tampers(*tampers: Tamper) -> Tamper:
    """Apply several tamper functions left to right."""

    def tamper(pid, view, out):
        for t in tampers:
            out = t(pid, view, out)
        return out

    return tamper


def faulty_adversary(
    corrupted: set[int],
    honest_programs: dict[int, Program],
    *tampers: Tamper,
) -> TamperingAdversary:
    """Convenience constructor: honest programs + composed tampers."""
    return TamperingAdversary(
        corrupted, honest_programs, compose_tampers(*tampers)
    )
