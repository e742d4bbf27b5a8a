"""Round message containers for the synchronous network model.

The paper's model (Section 2): a complete synchronous network of n
players pairwise connected by secure (private and authenticated)
channels, plus a physical broadcast channel.  Computation evolves in
rounds; in each round a party sends one (possibly empty) private payload
to each other party and optionally one broadcast payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class RoundOutput:
    """What one party emits in one round.

    Attributes
    ----------
    private:
        Mapping from recipient party id to payload, carried over the
        secure pairwise channels.  Only the recipient (and an adversary
        corrupting it) sees a private payload.
    broadcast:
        Optional payload for the physical broadcast channel; delivered
        identically to every party.  ``None`` means the broadcast
        channel is not used by this party this round.
    """

    private: Mapping[int, Any] = field(default_factory=dict)
    broadcast: Any = None

    @staticmethod
    def silent() -> "RoundOutput":
        """A round in which the party sends nothing."""
        return RoundOutput()


@dataclass(frozen=True)
class RoundInput:
    """What one party receives at the end of one round.

    Attributes
    ----------
    private:
        Mapping from sender id to the private payload addressed to this
        party (absent senders sent nothing).
    broadcast:
        Mapping from sender id to that sender's broadcast payload
        (absent senders did not broadcast).  By the broadcast channel's
        guarantee, every party receives the *same* mapping.
    """

    private: Mapping[int, Any] = field(default_factory=dict)
    broadcast: Mapping[int, Any] = field(default_factory=dict)


_ATOMS = (int, str, bool, float)
_CONTAINERS = (list, tuple, set, frozenset)


class SizedPayload(list):
    """A payload list whose accounting size was precomputed by its builder.

    Layers that assemble large, regularly-shaped payloads (the VSS
    reveal columns) know their :func:`payload_size` in O(1) per item at
    construction time; carrying it here lets the accounting skip the
    per-atom walk.  The precomputed value must equal what the generic
    walk would return — sizes are protocol-visible (traces, comm
    bounds), not advisory.  Slicing yields a plain ``list`` that is
    sized by the walk; a tamper that keeps every atom in place
    (:func:`~repro.network.faults.flip_integers`) keeps the size.
    """

    __slots__ = ("payload_elements",)

    def __init__(self, items: Any, payload_elements: int):
        super().__init__(items)
        self.payload_elements = payload_elements

    def __reduce__(self):
        # Serialized copies (wire transports) degrade to a plain list:
        # correct sizing beats carrying a size the receiver can't trust.
        return (list, (list(self),))


def _frozen_flat(values: Any) -> Any:
    """``values`` as a read-only 1-D array (never freezes the caller's)."""
    import numpy as np

    arr = np.asarray(values).reshape(-1)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


class ShareColumn:
    """One sender's reveal payloads for a batch of openings, as arrays.

    The column stands for the payload list ``[col[k] for k in
    range(len(col))]`` with ``col[k] = (sender, terms_k, values[k])``,
    where ``terms_k`` pairs ``serials`` with ``coefficients`` over the
    flat range ``starts[k]:starts[k + 1]`` (the linear combination of
    dealt values a VSS opening reveals).  Its wire size is that list's
    :func:`payload_size` read off the array shapes: 2 per value (sender
    and value) plus 2 per term.

    The arrays are read-only and a column never changes: tampering
    builds a new column (:meth:`with_values`), so a sender's own state
    cannot be altered through a payload it shared.  Nothing is
    validated here — the constructor accepts any array-likes, and
    receivers check the shapes and dtypes of what they are sent.
    """

    __slots__ = (
        "sender", "starts", "serials", "coefficients", "values",
        "payload_elements",
    )

    def __init__(self, sender: Any, starts: Any, serials: Any,
                 coefficients: Any, values: Any):
        self.sender = sender
        self.starts = _frozen_flat(starts)
        self.serials = _frozen_flat(serials)
        self.coefficients = _frozen_flat(coefficients)
        self.values = _frozen_flat(values)
        self.payload_elements = (
            2 * self.values.size + self.serials.size + self.coefficients.size
        )

    def with_values(self, values: Any) -> "ShareColumn":
        """The same terms carrying other values."""
        return ShareColumn(
            self.sender, self.starts, self.serials, self.coefficients, values
        )

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> Any:
        """Payload ``k`` as a tuple; ``None`` where the arrays are malformed."""
        if not 0 <= k < self.values.size:
            raise IndexError("share column index out of range")
        try:
            lo, hi = int(self.starts[k]), int(self.starts[k + 1])
            if not 0 <= lo <= hi <= self.serials.size:
                return None
            terms = tuple(
                zip(
                    self.serials[lo:hi].tolist(),
                    self.coefficients[lo:hi].tolist(),
                    strict=True,
                )
            )
        except (IndexError, TypeError, ValueError, OverflowError):
            return None
        value = self.values[k]
        if self.values.dtype.kind in "ui":
            value = int(value)
        return (self.sender, terms, value)

    def payloads(self) -> list:
        """The payload list this column stands for."""
        return [self[k] for k in range(len(self))]


def payload_size(payload: Any) -> int:
    """Approximate payload size in field elements / atoms.

    Used for bandwidth accounting: ints and field elements count 1,
    containers count the sum of their items, ``None`` counts 0.  This
    sits on the simulator's per-message hot path, hence the flat,
    concrete-type dispatch.

    Mappings count *keys as well as values*: a transmitted dict's keys
    (recipient ids, sub-protocol labels, non-zero index lists) travel on
    the wire like any other atom, so ``{("deal", 3): "vss-share"}`` is
    3 elements, not 1.
    """
    if payload is None:
        return 0
    tp = type(payload)
    if tp is SizedPayload or tp is ShareColumn:
        return payload.payload_elements
    if tp in _ATOMS or tp.__name__ == "FieldElement":
        return 1
    if tp is dict:
        total = 0
        for k, v in payload.items():
            total += (1 if type(k) is int else payload_size(k)) + (
                1 if type(v) is int else payload_size(v)
            )
        return total
    if tp in _CONTAINERS:
        # Ints are by far the dominant leaves (share values, serials,
        # coefficients) and nested lists/tuples the dominant structure
        # (reveal payloads); an explicit stack walks them without
        # re-entering the full dispatch above per node.
        total = 0
        stack = [payload]
        while stack:
            for v in stack.pop():
                tv = type(v)
                if tv is int:
                    total += 1
                elif tv is tuple or tv is list:
                    stack.append(v)
                else:
                    total += payload_size(v)
        return total
    if isinstance(payload, _ATOMS):
        return 1
    if isinstance(payload, Mapping):
        return sum(payload_size(k) + payload_size(v) for k, v in payload.items())
    if isinstance(payload, _CONTAINERS):
        return sum(payload_size(v) for v in payload)
    # Dataclass-like objects: count their public attributes.
    if hasattr(payload, "__dataclass_fields__"):
        return sum(
            payload_size(getattr(payload, name))
            for name in payload.__dataclass_fields__
        )
    if hasattr(payload, "coeffs"):  # Polynomial
        return len(payload.coeffs)
    return 1


class LamportClock:
    """One party's logical clock (Lamport 1978).

    The simulator keeps one per party and stamps every emitted message
    with the sender's post-tick value, so the partial order of stamps is
    consistent with happens-before even once delivery stops being
    lockstep (the planned async runtime).  Rules:

    - ``tick()`` before sending; the returned value stamps every message
      the party emits that round.
    - ``observe(stamps)`` on receipt: the clock jumps past the largest
      stamp seen, so the party's *next* send is causally after every
      message it has received.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def tick(self) -> int:
        """Advance for a local/send event; returns the new stamp."""
        self.value += 1
        return self.value

    def observe(self, stamps: "Any") -> int:
        """Merge received stamps (iterable of ints); returns the clock.

        Sets the clock to the max of itself and every received stamp, so
        the next ``tick()`` — the party's next send — is strictly above
        everything it has seen.
        """
        for stamp in stamps:
            if stamp > self.value:
                self.value = stamp
        return self.value
