"""The benchmark's four AnonChan workloads: inputs, one epoch, output check.

One *epoch* is one ``run_anonchan`` call in which every party sends and
the receiver (party 0) outputs the multiset ``Y``; on ``traced-mix-n4``
the epoch also carries a ``Tracer`` and runs the four trace analyses.
Every input is derived from the epoch seed (see :func:`epoch_seed`), so
the program under test sees only generated inputs.

The output check separates two kinds of failure:

- a *fault* is an outcome the protocol rules out with certainty (an
  exception, honest parties disagreeing on the public verdicts, an
  honest prover disqualified, a cheater passing although Claim 1's
  survival condition does not hold for it, a garbling RB89 dealer
  qualified).  Any fault makes the run incorrect;
- a *bounded error* is an outcome the protocol allows with a small,
  stated probability at these scaled parameters: a cheater that guessed
  every challenge bit (``2^-num_checks``), or an honest message lost to
  dart collisions.  It fails the epoch but not the run.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from repro.core import anonchan, scaled_parameters
from repro.core.adversaries import guessing_cheater_material, jamming_material
from repro.core.cutandchoose import challenge_bits
from repro.core.receiver import non_malleability_shape_holds, reliability_holds
from repro.network import PassiveAdversary, TamperingAdversary
from repro.network.faults import flip_integers, garble_everything
from repro.obs import CommReport, RunReport, TimingReport, Tracer, scan_events
from repro.vss import RB89VSS, IdealVSS

RECEIVER = 0


def epoch_seed(workload: str, seed: int, index: int) -> int:
    """The 48-bit seed of epoch ``index`` of a run seeded with ``seed``."""
    digest = hashlib.blake2b(
        f"{workload}/{seed}/{index}".encode(), digest_size=6
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class Inputs:
    """Everything one epoch needs, generated from its seed."""

    seed: int
    messages: dict[int, Any]
    honest: tuple[int, ...]
    adversary_factory: Callable | None = None
    #: pid -> predicate on the challenge bits: True iff Claim 1 lets
    #: this cheater pass (exact, from how its material was built).
    survives: dict[int, Callable[[list[int]], bool]] = dc_field(
        default_factory=dict
    )
    #: pids that must end outside ``passed`` unless they survive.
    expect_disqualified: tuple[int, ...] = ()
    #: pids that must end outside ``vss_qualified``.
    expect_unqualified: tuple[int, ...] = ()
    #: The epoch carries a Tracer and runs the trace analyses.
    with_tracer: bool = False


@dataclass
class Epoch:
    """What one epoch produced."""

    result: Any
    events: int = 0


@dataclass
class Check:
    """The output check of one epoch."""

    faults: list[str]
    bounded: list[str]
    delivered: int


@dataclass
class Setup:
    """A built workload: parameters, field and VSS, ready for epochs."""

    name: str
    params: Any
    vss: Any
    make_inputs: Callable[[int, int], Inputs]
    #: Typical epoch time (ms) at reference speed, the settling before
    #: it included; it turns ``--seconds`` into a number of epochs.
    epoch_ms: float
    #: Inputs repeat their shape every ``cycle`` epoch indices; a
    #: measuring run covers whole cycles, so every run weighs them alike.
    cycle: int = 1

    def epochs(self, seconds: float, least: int = 1) -> int:
        """Epochs that fill ``seconds`` on the reference host: at least
        ``least``, in whole cycles.

        The count depends only on ``seconds``, never on the clock, so a
        seed always runs the same epochs and meets the same bounded
        errors.
        """
        count = max(least, math.ceil(seconds * 1000 / self.epoch_ms))
        return math.ceil(count / self.cycle) * self.cycle


def _distinct_messages(params, rng: random.Random) -> dict[int, Any]:
    field = params.field
    values = rng.sample(range(1, field.order), params.n)
    return {pid: field(v) for pid, v in enumerate(values)}


def _tampering_factory(programs_for: Callable, corrupted, tamper):
    def factory(protocol, session):
        return TamperingAdversary(
            set(corrupted), programs_for(protocol, session), tamper
        )

    return factory


def _corrupt_programs(params, seed, messages, materials):
    """Programs of corrupted parties, with run_anonchan's rng derivation."""

    def programs_for(protocol, session):
        return {
            pid: protocol.party_program(
                pid,
                session,
                messages.get(pid),
                random.Random((seed << 16) | pid),
                material=materials.get(pid),
            )
            for pid in sorted(materials)
        }

    return programs_for


# -- workload builders ------------------------------------------------------


def _honest_n9() -> Setup:
    params = scaled_parameters(n=9, d=8, kappa=16, num_checks=6, margin=8)
    vss = IdealVSS(params.field, params.n, params.t)

    def make_inputs(seed: int, index: int) -> Inputs:
        rng = random.Random(seed)
        return Inputs(
            seed=seed,
            messages=_distinct_messages(params, rng),
            honest=tuple(range(params.n)),
        )

    return Setup("honest-n9", params, vss, make_inputs, epoch_ms=2800)


def _attacked_n9() -> Setup:
    params = scaled_parameters(n=9, d=8, kappa=32, num_checks=6, margin=8)
    vss = IdealVSS(params.field, params.n, params.t)
    guessers, jammers = (5, 6), (7, 8)
    field = params.field

    def make_inputs(seed: int, index: int) -> Inputs:
        rng = random.Random(seed)
        messages = _distinct_messages(params, rng)
        materials, survives = {}, {}
        for pid in guessers:
            guesses = [rng.randrange(2) for _ in range(params.num_checks)]
            payload = [field(v) for v in rng.sample(range(1, 1 << 20), 2)]
            materials[pid] = guessing_cheater_material(
                params, payload, random.Random(rng.getrandbits(64)),
                bit_guesses=guesses,
            )
            # Claim 1 is tight: a guessing cheater passes iff every
            # guess equals its challenge bit.
            survives[pid] = lambda bits, g=guesses: list(bits) == g
        for pid in jammers:
            materials[pid] = jamming_material(
                params, random.Random(rng.getrandbits(64))
            )
            # Prepared for branch 0 only: passes iff every bit is 0.
            survives[pid] = lambda bits: not any(bits)
        programs_for = _corrupt_programs(params, seed, messages, materials)
        return Inputs(
            seed=seed,
            messages=messages,
            honest=tuple(range(5)),
            adversary_factory=_tampering_factory(
                programs_for, materials, flip_integers(0x7)
            ),
            survives=survives,
            expect_disqualified=guessers + jammers,
        )

    return Setup("attacked-n9", params, vss, make_inputs, epoch_ms=4800)


def _traced_mix_n4() -> Setup:
    from repro.testkit import FAULTS, STRATEGIES

    params = scaled_parameters(n=4, d=4, kappa=16, num_checks=6)
    vss = IdealVSS(params.field, params.n, params.t)
    faults = ("none", "drop-half", "crash-mid", "flip", "garble")
    cells = [(s, f) for s in STRATEGIES for f in faults]
    corrupt = 3

    def make_inputs(seed: int, index: int) -> Inputs:
        # Consecutive epochs walk the strategy x fault grid.
        strategy, fault = cells[index % len(cells)]
        rng = random.Random(seed)
        messages = _distinct_messages(params, rng)
        spec = STRATEGIES[strategy]
        material = spec.build(
            params, corrupt, random.Random(rng.getrandbits(64))
        )
        tamper = FAULTS[fault].build(
            params, vss.cost, random.Random(rng.getrandbits(64))
        )
        programs_for = _corrupt_programs(
            params, seed, messages, {corrupt: material}
        )
        if tamper is None:
            def factory(protocol, session):
                return PassiveAdversary(
                    {corrupt}, programs_for(protocol, session)
                )
        else:
            factory = _tampering_factory(programs_for, (corrupt,), tamper)
        return Inputs(
            seed=seed,
            messages=messages,
            honest=(0, 1, 2),
            adversary_factory=factory,
            expect_disqualified=(corrupt,) if spec.improper else (),
            with_tracer=True,
        )

    return Setup(
        "traced-mix-n4", params, vss, make_inputs, epoch_ms=180, cycle=len(cells)
    )


def _rb89_n4() -> Setup:
    params = scaled_parameters(n=4, d=3, kappa=16, num_checks=2)
    vss = RB89VSS(params.field, params.n, params.t)
    garbler = 3

    def make_inputs(seed: int, index: int) -> Inputs:
        rng = random.Random(seed)
        messages = _distinct_messages(params, rng)
        programs_for = _corrupt_programs(
            params, seed, messages, {garbler: None}
        )
        return Inputs(
            seed=seed,
            messages=messages,
            honest=(0, 1, 2),
            adversary_factory=_tampering_factory(
                programs_for, (garbler,), garble_everything()
            ),
            expect_unqualified=(garbler,),
        )

    return Setup("rb89-n4", params, vss, make_inputs, epoch_ms=800)


BUILDERS: dict[str, Callable[[], Setup]] = {
    "honest-n9": _honest_n9,
    "attacked-n9": _attacked_n9,
    "traced-mix-n4": _traced_mix_n4,
    "rb89-n4": _rb89_n4,
}


# -- one epoch ----------------------------------------------------------------


def analyse(events) -> None:
    """The four trace analyses a traced trial runs on its event stream."""
    RunReport.from_events(events)
    CommReport.from_events(events)
    TimingReport.from_events(events)
    scan_events(events)


def run_epoch(setup: Setup, inputs: Inputs) -> Epoch:
    """One epoch: the unit of work the benchmark times."""
    tracer = Tracer() if inputs.with_tracer else None
    result = anonchan.run_anonchan(
        setup.params,
        setup.vss,
        inputs.messages,
        receiver=RECEIVER,
        seed=inputs.seed,
        adversary_factory=inputs.adversary_factory,
        tracer=tracer,
    )
    if tracer is None:
        return Epoch(result)
    analyse(tracer.events)
    return Epoch(result, events=len(tracer.events))


def check(setup: Setup, inputs: Inputs, epoch: Epoch) -> Check:
    """Check one epoch's outputs against the protocol's guarantees."""
    params = setup.params
    outputs = epoch.result.outputs
    faults: list[str] = []
    bounded: list[str] = []
    receiver = outputs.get(RECEIVER)
    if receiver is None or receiver.output is None:
        return Check(["receiver produced no output"], [], 0)
    y = receiver.output

    honest_views = {
        (o.vss_qualified, o.passed, o.challenge.value)
        for pid, o in outputs.items()
        if pid in inputs.honest
    }
    if len(honest_views) != 1:
        faults.append("honest outputs disagree on vss_qualified/passed/challenge")

    honest = set(inputs.honest)
    if not honest <= receiver.passed:
        faults.append(f"honest provers {sorted(honest - receiver.passed)} disqualified")
    bits = challenge_bits(receiver.challenge, params.num_checks)
    for pid in inputs.expect_disqualified:
        survived = pid in receiver.passed
        predicate = inputs.survives.get(pid)
        if predicate is not None and survived != predicate(bits):
            faults.append(
                f"party {pid} {'passed' if survived else 'failed'} against "
                f"Claim 1 for challenge bits {bits}"
            )
        elif survived:
            bounded.append(f"cheater {pid} survived cut-and-choose")
    for pid in inputs.expect_unqualified:
        if pid in receiver.vss_qualified:
            faults.append(f"party {pid} stayed VSS-qualified")

    x = Counter(inputs.messages[pid].value for pid in inputs.honest)
    if not reliability_holds(x, y):
        bounded.append("reliability: an honest message is missing from Y")
    if not non_malleability_shape_holds(params.n, x, y):
        bounded.append("non-malleability shape: |Y| > n or X not in Y")
    delivered = sum(
        1 for pid in inputs.honest if y.get(inputs.messages[pid].value, 0) >= 1
    )
    return Check(faults, bounded, delivered)
