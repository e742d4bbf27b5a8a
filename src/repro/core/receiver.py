"""Receiver-side output extraction (end of step 4, Figure 1).

``P*`` reconstructs the summed, permuted dart vector ``v``, collects the
set ``T`` of non-zero pairs appearing at least ``d/2`` times, strips the
tags and outputs the multiset ``Y``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

from repro.fields import Field, FieldElement
from repro.network import ShareColumn

from .darts import SparseVector
from .params import AnonChanParams


def collect_step4_columns(
    private: Mapping[int, Any], expected_len: int, receiver: int, n: int
) -> dict[int, Any]:
    """Filter the receiver's step-4 inbox down to plausible share columns.

    A column is accepted only from a *known* party — an integer sender
    id in ``[0, n)`` other than the receiver itself — and only when the
    payload is a list or :class:`~repro.network.ShareColumn` of exactly
    ``expected_len`` reveal entries (the VSS layer verifies what they
    hold).  The sender-id filter matters once delivery leaves the ideal
    simulator: an id outside the party set must never become a row of
    the reconstruction input, where it would masquerade as a share from
    a nonexistent evaluation point.
    """
    collected: dict[int, Any] = {}
    for sender, payload in private.items():
        if not isinstance(sender, int) or not (0 <= sender < n):
            continue
        if sender == receiver:
            continue
        if isinstance(payload, (list, ShareColumn)) and len(payload) == expected_len:
            collected[sender] = payload
    return collected


def pair_opened_coordinates(
    field: Field, opened: Sequence[FieldElement | None], ell: int
) -> tuple[list[FieldElement], list[FieldElement], int]:
    """Split the opened step-4 batch into ``(xs, tags, failed)``.

    The batch interleaves the two halves of each coordinate:
    ``opened[2k]`` is ``x_k`` and ``opened[2k + 1]`` its tag.  A batch
    whose length is not exactly ``2 * ell`` is malformed — the VSS
    layer reports corrupted coordinates as ``None``, never by
    truncation — and raises instead of silently zeroing a trailing
    coordinate.  Each half is guarded independently; a coordinate with
    either half corrupted is zeroed (and counted) as a pair.
    """
    if len(opened) != 2 * ell:
        raise ValueError(
            f"malformed step-4 batch: expected {2 * ell} opened values "
            f"for ell={ell}, got {len(opened)}"
        )
    xs: list[FieldElement] = []
    tags: list[FieldElement] = []
    failed = 0
    for k in range(ell):
        x_val = opened[2 * k]
        tag_val = opened[2 * k + 1]
        if x_val is None or tag_val is None:
            xs.append(field.zero())
            tags.append(field.zero())
            failed += 1
        else:
            xs.append(x_val)
            tags.append(tag_val)
    return xs, tags, failed


def extract_output(
    params: AnonChanParams, vector: SparseVector
) -> Counter:
    """The multiset ``Y`` of messages carried by the final vector.

    A pair ``(x, a) != (0, 0)`` enters ``T`` iff it appears at least
    ``ceil(d/2)`` times; each element of ``T`` contributes its message
    half ``x`` to ``Y`` once (distinct random tags keep distinct honest
    transmissions of equal messages apart, so equal messages still
    appear with the right multiplicity).
    """
    pair_counts: Counter = Counter(vector.entries.values())
    y: Counter = Counter()
    for (x, _a), count in pair_counts.items():
        if count >= params.threshold_count:
            y[x] += 1
    return y


def vector_from_opened(
    field: Field, xs: Sequence[FieldElement], tags: Sequence[FieldElement]
) -> SparseVector:
    """Assemble the receiver's reconstructed dense halves into a vector."""
    return SparseVector.from_components(
        field, [v.value for v in xs], [v.value for v in tags]
    )


def honest_input_multiset(messages: Sequence[FieldElement]) -> Counter:
    """The multiset X of honest senders' messages (for property checks)."""
    return Counter(m.value for m in messages)


def reliability_holds(x: Counter, y: Counter) -> bool:
    """The Reliability property: ``X`` is a sub-multiset of ``Y``."""
    return all(y[value] >= count for value, count in x.items())


def non_malleability_shape_holds(n: int, x: Counter, y: Counter) -> bool:
    """The checkable half of Non-Malleability: ``|Y| <= n`` and X ⊆ Y.

    (Independence of ``Y \\ X`` from ``X`` is distributional and is
    exercised statistically in the experiment suite.)
    """
    return sum(y.values()) <= n and reliability_holds(x, y)
