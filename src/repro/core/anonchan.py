"""Protocol AnonChan (Figure 1 of the paper).

A constant-round, unconditionally secure many-to-one anonymous channel
for ``t < n/2``, built black-box on a linear VSS scheme:

1. Every party VSS-shares (in one parallel sharing phase) its tagged
   dart vector ``v``, the re-randomized copies ``w_j``, the linking
   permutations, the copies' non-zero index lists, and a random
   challenge contribution; the receiver additionally shares one random
   permutation ``g_i`` per party.
2. The challenge ``r`` (sum of all contributions) is opened and read as
   bits.
3. Cut-and-choose (two reconstruction steps): challenge bit 0 opens the
   permutation and the difference ``pi_j(v) - w_j``; bit 1 opens the
   index list, the alleged zeros and the entry differences.  Failures
   disqualify the prover.
4. The receiver's permutations are opened; each party locally combines
   its shares of ``v = sum over PASS of g_i(v^(i))`` (VSS linearity)
   and sends them *privately* to ``P*``, who simulates VSS-Rec
   internally, thresholds at ``d/2`` occurrences, strips tags and
   outputs the multiset ``Y``.

The protocol adds **no broadcast rounds beyond those of the VSS**: all
openings use the private-channel robust reconstruction of the VSS layer
and step 4 is private by design.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.fields import FieldElement
from repro.network import (
    Adversary,
    ExecutionResult,
    PassiveAdversary,
    Program,
    RoundOutput,
    parallel,
    run_protocol,
)
from repro.obs import NULL_TRACER, OpProfiler, Tracer, profiled
from repro.vss import (
    DEALER_DISQUALIFIED,
    VSSScheme,
    combine_views,
)

from .cutandchoose import (
    challenge_bits,
    stage1_slice,
    stage2_offsets_bit0,
    stage2_offsets_bit1,
    stage2_passes,
    validate_index_list_opening,
    validate_permutation_opening,
)
from .darts import Permutation, SparseVector
from .layout import (
    DealerLayout,
    ProverMaterial,
    ReceiverLayout,
    honest_material,
    step4_offsets,
)
from .params import AnonChanParams
from .receiver import (
    collect_step4_columns,
    extract_output,
    pair_opened_coordinates,
    vector_from_opened,
)
from .trace import (
    comm_bounds,
    round_schedule,
    total_broadcast_rounds,
    total_rounds,
)


@dataclass
class AnonChanOutput:
    """A party's result of one AnonChan execution.

    ``output`` (the multiset ``Y``) is populated only at the receiver;
    the bookkeeping fields let tests and experiments inspect agreement
    on disqualifications and the challenge.
    """

    pid: int
    receiver: int
    vss_qualified: frozenset[int]
    passed: frozenset[int]
    challenge: FieldElement
    output: Counter | None = None
    final_vector: SparseVector | None = None
    diagnostics: dict = dc_field(default_factory=dict)


class AnonChan:
    """One configured instance of the anonymous channel protocol."""

    def __init__(
        self, params: AnonChanParams, vss: VSSScheme, receiver: int = 0
    ):
        if vss.n != params.n or vss.t != params.t:
            raise ValueError("VSS scheme party set does not match parameters")
        if vss.field != params.field:
            raise ValueError("VSS scheme field does not match parameters")
        if not 0 <= receiver < params.n:
            raise ValueError(f"receiver {receiver} out of range")
        self.params = params
        self.vss = vss
        self.receiver = receiver
        self.layout = DealerLayout(params)
        self.receiver_layout = ReceiverLayout(params)

    # ------------------------------------------------------------------
    def party_program(
        self,
        pid: int,
        session,
        message: FieldElement | None,
        rng: random.Random,
        material: ProverMaterial | None = None,
        receiver_perms: Sequence[Permutation] | None = None,
        tracer: Tracer | None = None,
    ) -> Program:
        """Party ``pid``'s complete protocol code.

        ``material`` overrides the honest step-1 commitment (used by
        attack strategies); ``receiver_perms`` overrides the receiver's
        ``g_i`` (used by the permutation-ablation experiment).
        ``tracer`` attaches observability spans; exactly one party per
        execution should carry it (the spans describe the shared
        synchronous schedule, not per-party state), and the span names
        deliberately equal the phase labels of
        :func:`repro.core.trace.round_schedule` so observed rounds can
        be diffed against the static prediction.
        """
        params = self.params
        layout = self.layout
        rlayout = self.receiver_layout
        field = params.field
        n = params.n
        tr = tracer if tracer is not None else NULL_TRACER

        # ---- step 1: parallel VSS sharing --------------------------------
        if material is None:
            if message is None:
                raise ValueError(f"party {pid} needs a message to send")
            material = honest_material(params, message, rng)
        secrets = layout.build_secrets(material)

        with tr.span("step 1: VSS-Share", dealers=n, values=layout.total):
            subprograms: dict[Any, Program] = {
                ("deal", i): session.share_program(
                    pid,
                    i,
                    secrets if pid == i else None,
                    rng,
                    count=layout.total,
                )
                for i in range(n)
            }
            if pid == self.receiver:
                if receiver_perms is None:
                    receiver_perms = [
                        Permutation.random(params.ell, rng) for _ in range(n)
                    ]
                recv_secrets = rlayout.build_secrets(list(receiver_perms))
            else:
                recv_secrets = None
            subprograms["recv"] = session.share_program(
                pid, self.receiver, recv_secrets, rng, count=rlayout.total
            )
            batches = yield from parallel(subprograms)

        dealer_batches = {i: batches[("deal", i)] for i in range(n)}
        recv_batch = batches["recv"]
        vss_qualified = {
            i for i in range(n) if dealer_batches[i] is not DEALER_DISQUALIFIED
        }
        tr.annotate("vss-qualified", parties=sorted(vss_qualified))

        # ---- step 2: open the joint challenge ------------------------------
        with tr.span("step 2: challenge"):
            if vss_qualified:
                r_view = combine_views(
                    [
                        dealer_batches[i][layout.challenge()]
                        for i in sorted(vss_qualified)
                    ]
                )
                opened = yield from session.open_program(pid, [r_view])
                challenge = opened[0]
            else:
                yield RoundOutput.silent()
                challenge = field.zero()
        bits = challenge_bits(challenge, params.num_checks)

        # ---- step 3, stage 1: open permutations / index lists --------------
        # Stage-1 openings are contiguous in the dealer layout, so each
        # is a slice of the batch; all of them open as one joined batch.
        stage1_parts = []
        stage1_slices: list[tuple[int, int, int, int]] = []  # (i, j, lo, hi)
        cursor = 0
        for i in sorted(vss_qualified):
            for j in range(params.num_checks):
                lo, hi = stage1_slice(layout, j, bits[j])
                stage1_parts.append(dealer_batches[i].views[lo:hi])
                stage1_slices.append((i, j, cursor, cursor + hi - lo))
                cursor += hi - lo
        stage1_views = session.join_views(stage1_parts)
        with tr.span("step 3a: cut-and-choose openings", opened=cursor):
            stage1_values = yield from session.open_program(pid, stage1_views)

        passed = set(vss_qualified)
        decoded: dict[tuple[int, int], Any] = {}
        for i, j, lo, hi in stage1_slices:
            values = stage1_values[lo:hi]
            if bits[j] == 0:
                perm = validate_permutation_opening(values)
                if perm is None:
                    passed.discard(i)
                decoded[(i, j)] = perm
            else:
                idx = validate_index_list_opening(values, params.ell, params.d)
                if idx is None:
                    passed.discard(i)
                decoded[(i, j)] = idx

        # ---- step 3, stage 2: open the derived zero-combinations ------------
        # Per check, bit 0 opens the 2l differences pi_j(v) - w_j and
        # bit 1 the alleged-zero passthroughs plus the 2(d-1)
        # consecutive-entry differences.  Each prover's passthroughs and
        # differences are one VSS-layer call each (gather_views,
        # diff_offsets_batch); their slices are joined back in the plan
        # order, so the opened-value stream (and hence the trace and
        # every disqualification decision) is that of the per-view path.
        stage2_parts = []
        stage2_slices = []
        cursor = 0
        for i in sorted(passed):
            batch = dealer_batches[i]
            plan: list[tuple[int, int, int]] = []  # (j, passthroughs, diffs)
            pass_offs: list[np.ndarray] = []
            diff_a: list[np.ndarray] = []
            diff_b: list[np.ndarray] = []
            for j in range(params.num_checks):
                if bits[j] == 0:
                    passthrough = np.zeros(0, dtype=np.int64)
                    offs_a, offs_b = stage2_offsets_bit0(layout, j, decoded[(i, j)])
                else:
                    passthrough, offs_a, offs_b = stage2_offsets_bit1(
                        layout, j, decoded[(i, j)]
                    )
                plan.append((j, len(passthrough), len(offs_a)))
                pass_offs.append(passthrough)
                diff_a.append(offs_a)
                diff_b.append(offs_b)
            passthroughs = session.gather_views(batch, np.concatenate(pass_offs))
            diffs = session.diff_offsets_batch(
                batch, np.concatenate(diff_a), np.concatenate(diff_b)
            )
            p_done = d_done = 0
            for j, num_pass, num_diff in plan:
                stage2_parts.append(passthroughs[p_done : p_done + num_pass])
                stage2_parts.append(diffs[d_done : d_done + num_diff])
                p_done += num_pass
                d_done += num_diff
                stage2_slices.append((i, j, cursor, cursor + num_pass + num_diff))
                cursor += num_pass + num_diff
        stage2_views = session.join_views(stage2_parts)
        with tr.span("step 3b: cut-and-choose verification", opened=cursor):
            stage2_values = yield from session.open_program(pid, stage2_views)
        for i, j, lo, hi in stage2_slices:
            if not stage2_passes(stage2_values[lo:hi]):
                passed.discard(i)
        tr.annotate("cut-and-choose-passed", parties=sorted(passed))

        # ---- step 4: open g, combine, send privately to the receiver --------
        with tr.span("step 4a: receiver permutations"):
            if recv_batch is not DEALER_DISQUALIFIED:
                # g(i, k) = i * ell + k: the receiver batch is exactly
                # the n permutations in order, so open it as one slice.
                g_views = recv_batch.views[: rlayout.total]
                g_values = yield from session.open_program(pid, g_views)
                g_perms = []
                for i in range(n):
                    perm = validate_permutation_opening(
                        g_values[i * params.ell : (i + 1) * params.ell]
                    )
                    # A malformed g_i (only possible if the receiver cheats,
                    # in which case no guarantee involving it applies) falls
                    # back to the identity so the protocol still terminates.
                    g_perms.append(
                        perm
                        if perm is not None
                        else Permutation.identity(params.ell)
                    )
            else:
                yield RoundOutput.silent()
                g_perms = [Permutation.identity(params.ell) for _ in range(n)]

        pass_sorted = sorted(passed)
        payloads = []
        step4_views: list = []
        if pass_sorted:
            # The receiver sum over all l coordinates (both halves) in
            # one batched cross-dealer combination: view k*2 is
            # sum over PASS of vec_x(g_i(k)), view k*2+1 the tag half.
            step4_views = session.sum_offsets_batch(
                [dealer_batches[i] for i in pass_sorted],
                [step4_offsets(layout, g_perms[i]) for i in pass_sorted],
            )
            payloads = session.reveal_payloads_batch(pid, step4_views)

        if pid == self.receiver:
            with tr.span("step 4b: private transfer"):
                inbox = yield RoundOutput.silent()
            if pass_sorted:
                collected: dict[int, Any] = {pid: payloads}
                collected.update(
                    collect_step4_columns(
                        inbox.private, len(payloads), pid, n
                    )
                )
                # Batched "internally simulate VSS-Rec": both halves of
                # all l coordinates are verified and recombined in one
                # call (the VSS layer's numpy fast path); corrupted
                # coordinates come back as None and zero out that
                # coordinate only.
                opened = session.reconstruct_private_batch(
                    collected,
                    count=len(payloads),
                    verifier=pid,
                    views=step4_views,
                )
                xs, tags, failed = pair_opened_coordinates(
                    field, opened, params.ell
                )
            else:
                # No prover survived cut-and-choose: nothing was dealt
                # into the final vector, so there is nothing to
                # reconstruct — any column arriving now is unsolicited.
                xs = [field.zero() for _ in range(params.ell)]
                tags = [field.zero() for _ in range(params.ell)]
                failed = 0
            final_vector = vector_from_opened(field, xs, tags)
            output = extract_output(params, final_vector)
            tr.annotate("receiver-output", failed_coordinates=failed)
            return AnonChanOutput(
                pid=pid,
                receiver=self.receiver,
                vss_qualified=frozenset(vss_qualified),
                passed=frozenset(passed),
                challenge=challenge,
                output=output,
                final_vector=final_vector,
                diagnostics={"failed_coordinates": failed},
            )

        with tr.span("step 4b: private transfer"):
            yield RoundOutput(private={self.receiver: payloads})
        return AnonChanOutput(
            pid=pid,
            receiver=self.receiver,
            vss_qualified=frozenset(vss_qualified),
            passed=frozenset(passed),
            challenge=challenge,
        )


def run_anonchan(
    params: AnonChanParams,
    vss: VSSScheme,
    messages: Mapping[int, FieldElement],
    receiver: int = 0,
    seed: int = 0,
    adversary_factory=None,
    corrupt_materials: Mapping[int, ProverMaterial] | None = None,
    receiver_perms: Sequence[Permutation] | None = None,
    count_elements: bool = True,
    tracer: Tracer | None = None,
    profiler: "OpProfiler | None" = None,
    transport: Any = None,
) -> ExecutionResult:
    """Convenience runner for one AnonChan execution.

    ``corrupt_materials`` maps party ids to malicious step-1 material;
    those parties are modeled as corrupted (they otherwise follow the
    protocol, the standard shape of AnonChan-level attacks).
    ``adversary_factory(protocol, session) -> Adversary`` supports
    arbitrary attacks.  ``tracer`` observes the execution: the runner
    emits ``run_start`` (with the statically predicted schedule) and
    ``run_end`` events, attaches the tracer's spans to the
    lowest-numbered *honest* party, and passes it to the simulator for
    per-round accounting.  ``profiler`` counts compute ops for the
    execution (installed globally and on the protocol field for the
    run's duration); its records are folded into the trace as ``prof``
    events right before ``run_end``.  ``transport`` selects the
    execution engine (a :class:`~repro.network.runtime.Transport`
    instance, a registered name, or ``None`` for the default); traces
    are transport-agnostic by design, so equivalent runs compare
    byte-identical across transports.
    """
    protocol = AnonChan(params, vss, receiver=receiver)
    session = vss.new_session(random.Random(seed ^ 0x5EED))
    if params.sharing_backend != "auto":
        # An explicit params-level backend choice overrides the VSS
        # session's default; "auto" defers to the scheme's own policy.
        configure_backend = getattr(session, "configure_backend", None)
        if configure_backend is not None:
            configure_backend(params.sharing_backend)

    def prog(pid: int, material=None, tracer: Tracer | None = None) -> Program:
        return protocol.party_program(
            pid,
            session,
            messages.get(pid),
            random.Random((seed << 16) | pid),
            material=material,
            receiver_perms=receiver_perms if pid == receiver else None,
            tracer=tracer,
        )

    adversary: Adversary | None = None
    if corrupt_materials:
        adversary = PassiveAdversary(
            set(corrupt_materials),
            {
                pid: prog(pid, material=mat)
                for pid, mat in corrupt_materials.items()
            },
        )
    elif adversary_factory is not None:
        adversary = adversary_factory(protocol, session)

    corrupted = adversary.corrupted if adversary is not None else frozenset()
    trace_owner: int | None = None
    if tracer is not None:
        honest = set(range(params.n)) - corrupted
        trace_owner = min(honest) if honest else None
        predicted = [
            {"index": r.index, "phase": r.phase,
             "uses_broadcast": r.uses_broadcast}
            for r in round_schedule(params, vss.cost)
        ]
        # Local bindings keep the (public) VSS cost constants clear of
        # RL004's secret-token heuristic inside the emission call.
        sharing_rounds = vss.cost.share_rounds
        sharing_broadcast_rounds = vss.cost.share_broadcast_rounds
        tracer.run_start(
            protocol="AnonChan",
            n=params.n,
            t=params.t,
            ell=params.ell,
            d=params.d,
            num_checks=params.num_checks,
            kappa=params.kappa,
            receiver=receiver,
            seed=seed,
            vss=vss.name,
            sharing_rounds=sharing_rounds,
            sharing_broadcast_rounds=sharing_broadcast_rounds,
            corrupted=sorted(corrupted),
            trace_owner=trace_owner,
            predicted_schedule=predicted,
            predicted_rounds=total_rounds(params, vss.cost),
            predicted_broadcast_rounds=total_broadcast_rounds(
                params, vss.cost
            ),
            predicted_comm=comm_bounds(params, vss.cost),
        )

    programs = {
        pid: prog(pid, tracer=tracer if pid == trace_owner else None)
        for pid in range(params.n)
    }

    if profiler is not None:
        if profiler.tracer is None:
            # Phase attribution needs the run's tracer; wire it up when
            # the caller did not do so explicitly.
            profiler.tracer = tracer
        with profiled(profiler, params.field):
            result = run_protocol(
                programs,
                adversary=adversary,
                count_elements=count_elements,
                tracer=tracer,
                transport=transport,
            )
        if tracer is not None:
            tracer.record_profile(profiler.records())
    else:
        result = run_protocol(
            programs,
            adversary=adversary,
            count_elements=count_elements,
            tracer=tracer,
            transport=transport,
        )
    if tracer is not None:
        tracer.run_end(
            rounds=result.metrics.rounds,
            broadcast_rounds=result.metrics.broadcast_rounds,
            broadcasts_sent=result.metrics.broadcasts_sent,
            private_messages=result.metrics.private_messages,
            field_elements_sent=result.metrics.field_elements_sent,
            makespan_ms=result.metrics.makespan_ms,
        )
    return result
