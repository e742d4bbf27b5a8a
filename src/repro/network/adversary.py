"""Adversary models for the synchronous simulator.

The paper's adversary (Section 2) is a centralized, computationally
unbounded, *active*, *rushing* ``t``-adversary: it corrupts up to
``t < n/2`` parties, sees all honest messages addressed to corrupted
parties (and all broadcasts) *before* choosing the corrupted parties'
round messages, and may be static or adaptive.

The simulator realizes rushing by computing honest parties' round
outputs first and handing the adversary a :class:`RushedView` before the
corrupted parties' outputs are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .messages import RoundInput, RoundOutput
from .program import Program


@dataclass(frozen=True)
class RushedView:
    """What a rushing adversary observes before acting in a round.

    Attributes
    ----------
    round_index:
        Zero-based index of the current round.
    broadcasts:
        Honest parties' broadcast payloads this round (sender -> payload).
    to_corrupted:
        Private payloads honest parties addressed to corrupted parties:
        ``to_corrupted[corrupt_pid][honest_sender] -> payload``.  Honest
        to honest private traffic is *not* visible (secure channels).
    """

    round_index: int
    broadcasts: Mapping[int, Any]
    to_corrupted: Mapping[int, Mapping[int, Any]]


class Adversary:
    """Base adversary: controls a set of corrupted parties.

    Subclasses override :meth:`act` to choose the corrupted parties'
    round outputs.  The default implementation is *crash-like*: corrupted
    parties send nothing (the model's convention replaces missing
    messages with defaults at the protocol layer).
    """

    def __init__(self, corrupted: set[int] | frozenset[int]):
        self.corrupted = frozenset(corrupted)

    def observe_inputs(self, inputs: Mapping[int, RoundInput]) -> None:
        """Receive corrupted parties' round inputs (their joint view).

        The base adversary ignores them; a subclass that needs the
        view overrides this (keeping every round's inbox alive for a
        whole run costs hundreds of MB at n=9).
        """

    def act(self, view: RushedView) -> dict[int, RoundOutput]:
        """Return this round's outputs for every corrupted party."""
        return {pid: RoundOutput.silent() for pid in self.corrupted}

    def maybe_corrupt(
        self, round_index: int, n: int, budget: int
    ) -> set[int]:
        """Adaptive hook: return additional party ids to corrupt.

        Called between rounds with the remaining corruption ``budget``;
        the default (static) adversary corrupts nobody new.
        """
        return set()

    def finalize(self, outputs: Mapping[int, Any]) -> None:
        """Called once with honest parties' protocol outputs (for analysis)."""


class PassiveAdversary(Adversary):
    """Honest-but-curious: corrupted parties follow the protocol."""

    def __init__(
        self,
        corrupted: set[int],
        programs: Mapping[int, Program],
    ):
        super().__init__(corrupted)
        self._programs = dict(programs)
        self._pending: dict[int, RoundOutput] = {}
        self._started = False
        self.results: dict[int, Any] = {}

    def _start(self) -> None:
        for pid, prog in list(self._programs.items()):
            try:
                self._pending[pid] = next(prog)
            except StopIteration as stop:
                self.results[pid] = stop.value
                del self._programs[pid]
        self._started = True

    def observe_inputs(self, inputs: Mapping[int, RoundInput]) -> None:
        for pid, prog in list(self._programs.items()):
            if pid not in inputs:
                continue
            try:
                self._pending[pid] = prog.send(inputs[pid])
            except StopIteration as stop:
                self.results[pid] = stop.value
                del self._programs[pid]

    def act(self, view: RushedView) -> dict[int, RoundOutput]:
        if not self._started:
            self._start()
        outputs = {}
        for pid in self.corrupted:
            outputs[pid] = self._pending.pop(pid, RoundOutput.silent())
        return outputs


class TamperingAdversary(PassiveAdversary):
    """Runs given programs for corrupted parties but tampers with outputs.

    ``tamper(pid, view, output) -> RoundOutput`` is applied to each
    corrupted party's pending output after the rushed view is available,
    which suffices to express most concrete attacks (jamming, targeted
    equivocation, dependent-input injection).
    """

    def __init__(
        self,
        corrupted: set[int],
        programs: Mapping[int, Program],
        tamper: Callable[[int, RushedView, RoundOutput], RoundOutput],
    ):
        super().__init__(corrupted, programs)
        self._tamper = tamper

    def act(self, view: RushedView) -> dict[int, RoundOutput]:
        outputs = super().act(view)
        return {
            pid: self._tamper(pid, view, out) for pid, out in outputs.items()
        }


class SilentAdversary(Adversary):
    """Corrupted parties never send anything (fail-stop from round 0)."""
