"""Executable perfect VSS for t < n/3 (BGW-style bivariate sharing).

A fully message-level linear VSS in the paper's model, following the
classical structure (cf. BGW88 as formalized by Asharov–Lindell):

1. The dealer picks, per secret, a random symmetric bivariate
   polynomial ``F(x, y)`` of degree ``t`` with ``F(0,0) = s`` and sends
   ``P_i`` the row ``f_i(y) = F(i, y)`` (private).
2. Parties exchange crossing values ``f_i(j)`` pairwise (private).
3. Parties broadcast complaints about mismatched crossings or
   missing/malformed rows.  *No complaints -> sharing complete after 3
   rounds and zero broadcast rounds (the honest-dealer fast path).*
4. The dealer broadcasts resolutions (true crossing values, or full
   rows of parties whose row was bad).
5. Parties whose private data contradicts the public record broadcast
   accusations; the dealer answers by broadcasting their full rows;
   this repeats while new accusations appear.  All control flow after
   step 3 depends only on broadcast data, so honest parties always
   agree on the schedule and on the verdict.

The dealer is disqualified iff the public record is inconsistent or
more than ``t`` parties ended up accused/unresolved.  Shares are the
row values at 0; with ``n >= 3t + 1`` reconstruction is error-corrected
by Berlekamp–Welch, which is what makes the paper's *private*
reconstruction at ``P*`` (step 4 of AnonChan) robust: the receiver just
decodes locally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.fields import FieldElement, Polynomial
from repro.network import Program, RoundOutput
from repro.sharing import DecodingError, SymmetricBivariate, berlekamp_welch

from .base import (
    DEALER_DISQUALIFIED,
    ReconstructionError,
    SharedBatch,
    ShareView,
    VSSScheme,
    VSSSession,
    secret_array,
)
from .costs import BGW_COST


@dataclass(frozen=True)
class BGWShareView(ShareView):
    """A party's Shamir share of one value (point on ``F(x, 0)``)."""

    session: "BGWVSSSession"
    pid: int
    value: int  # raw field encoding

    def __add__(self, other: ShareView) -> "BGWShareView":
        if not isinstance(other, BGWShareView) or other.pid != self.pid:
            raise ValueError("cannot combine views of different parties")
        field = self.session.scheme.field
        return BGWShareView(
            self.session, self.pid, field.add(self.value, other.value)
        )

    def scale(self, scalar: FieldElement) -> "BGWShareView":
        field = self.session.scheme.field
        return BGWShareView(
            self.session, self.pid, field.mul(self.value, scalar.value)
        )


class BGWVSSSession(VSSSession):
    """Stateless session (all state lives in the party programs)."""

    # -- helpers -------------------------------------------------------------
    def _row_ok(self, row: Any) -> bool:
        """Syntactic validity of a received row polynomial."""
        scheme = self.scheme
        return (
            isinstance(row, Polynomial)
            and row.field == scheme.field
            and row.degree <= scheme.t
        )

    def share_program(
        self,
        pid: int,
        dealer: int,
        secrets: np.ndarray | Sequence[FieldElement] | None,
        rng: random.Random,
        count: int = 1,
    ) -> Program:
        scheme = self.scheme
        field = scheme.field
        n, t = scheme.n, scheme.t
        others = [j for j in range(n) if j != pid]

        # ---- round 1: dealer distributes rows --------------------------------
        if pid == dealer:
            if secrets is None:
                raise ValueError("dealer must supply secrets")
            secrets = secret_array(field, secrets, count)
            bivariates = [
                SymmetricBivariate.random(field, t, FieldElement(field, s), rng)
                for s in secrets.tolist()
            ]
            row_msgs = {
                j: [b.row(j + 1) for b in bivariates] for j in range(n)
            }
            my_rows: list[Polynomial] | None = row_msgs[pid]
            inbox = yield RoundOutput(
                private={j: row_msgs[j] for j in others}
            )
        else:
            inbox = yield RoundOutput.silent()
            raw = inbox.private.get(dealer)
            if (
                isinstance(raw, list)
                and len(raw) == count
                and all(self._row_ok(r) for r in raw)
            ):
                my_rows = list(raw)
            else:
                my_rows = None  # missing or malformed: will complain
        # ---- round 2: pairwise crossing exchange ------------------------------
        if my_rows is not None:
            crossings = {
                j: [row(j + 1).value for row in my_rows] for j in others
            }
        else:
            crossings = {}
        inbox = yield RoundOutput(private=crossings)
        received_crossings: dict[int, list[int]] = {}
        for j, payload in inbox.private.items():
            if isinstance(payload, list) and all(
                isinstance(v, int) for v in payload
            ):
                received_crossings[j] = payload

        # ---- round 3: broadcast complaints -----------------------------------
        complaints: list[tuple[str, Any]] = []
        if my_rows is None:
            complaints.append(("bad-row", None))
        else:
            for j in others:
                got = received_crossings.get(j)
                if got is None or len(got) != len(my_rows):
                    complaints.append(("cross", j))
                    continue
                for k, row in enumerate(my_rows):
                    if row(j + 1).value != got[k]:
                        complaints.append(("cross", j))
                        break
        inbox = yield RoundOutput(
            broadcast=complaints if complaints else None
        )
        all_complaints: dict[int, list[tuple[str, Any]]] = {}
        for sender, payload in inbox.broadcast.items():
            if isinstance(payload, list):
                all_complaints[sender] = [
                    c for c in payload
                    if isinstance(c, tuple) and len(c) == 2
                ]

        if not all_complaints:
            # Honest-dealer fast path: 3 rounds, no broadcast was used.
            return self._finish(pid, my_rows, {}, count)

        # ---- round 4: dealer broadcasts resolutions ---------------------------
        if pid == dealer:
            resolutions: dict[str, Any] = {"values": {}, "rows": {}}
            for complainer, items in all_complaints.items():
                for kind, arg in items:
                    if kind == "bad-row":
                        resolutions["rows"][complainer] = [
                            b.row(complainer + 1) for b in bivariates
                        ]
                    elif kind == "cross" and isinstance(arg, int) and 0 <= arg < n:
                        for k, b in enumerate(bivariates):
                            resolutions["values"][(k, complainer, arg)] = b(
                                complainer + 1, arg + 1
                            ).value
            inbox = yield RoundOutput(broadcast=resolutions)
        else:
            inbox = yield RoundOutput.silent()
        public = inbox.broadcast.get(dealer)
        if not isinstance(public, dict) or "values" not in public or "rows" not in public:
            return DEALER_DISQUALIFIED  # dealer failed to answer complaints
        public_values: dict[tuple[int, int, int], int] = {
            key: value
            for key, value in dict(public["values"]).items()
            if isinstance(key, tuple)
            and len(key) == 3
            and all(isinstance(v, int) for v in key)
            and isinstance(value, int)
        }
        public_rows: dict[int, list[Polynomial]] = {
            i: rows
            for i, rows in dict(public["rows"]).items()
            if isinstance(i, int) and 0 <= i < n and isinstance(rows, list)
        }

        # Dealer must have answered every complaint.
        def complaint_answered(complainer: int, kind: str, arg: Any) -> bool:
            if complainer in public_rows:
                return True
            if kind == "bad-row":
                return False
            if kind == "cross":
                return all(
                    (k, complainer, arg) in public_values for k in range(count)
                )
            return True  # malformed complaint needs no answer

        unresolved = any(
            not complaint_answered(c, kind, arg)
            for c, items in all_complaints.items()
            for kind, arg in items
        )

        # ---- accusation loop ---------------------------------------------------
        unhappy: set[int] = set(public_rows)
        disqualified = unresolved or not self._public_consistent(
            public_values, public_rows, count
        )

        def i_am_unhappy() -> bool:
            if pid in unhappy or pid == dealer:
                return False
            if my_rows is None or len(my_rows) != count:
                return True
            for (k, i, j), value in public_values.items():
                if i == pid and k < count and my_rows[k](j + 1).value != value:
                    return True
                if j == pid and k < count and my_rows[k](i + 1).value != value:
                    return True
            for m, rows in public_rows.items():
                if len(rows) != count:
                    continue
                for k in range(count):
                    if rows[k](pid + 1) != my_rows[k](m + 1):
                        return True
            return False

        while True:
            accuse = (not disqualified) and i_am_unhappy()
            inbox = yield RoundOutput(broadcast="accuse" if accuse else None)
            new_accusers = {
                sender
                for sender, payload in inbox.broadcast.items()
                if payload == "accuse" and sender not in unhappy and sender != dealer
            }
            if not new_accusers:
                break
            unhappy |= new_accusers
            if pid == dealer:
                answer = {
                    m: [b.row(m + 1) for b in bivariates] for m in new_accusers
                }
                inbox = yield RoundOutput(broadcast=answer)
            else:
                inbox = yield RoundOutput.silent()
            answer = inbox.broadcast.get(dealer)
            if not isinstance(answer, dict) or set(answer) != new_accusers:
                disqualified = True
                continue
            for m, rows in answer.items():
                if (
                    isinstance(rows, list)
                    and len(rows) == count
                    and all(self._row_ok(r) for r in rows)
                ):
                    public_rows[m] = rows
                else:
                    disqualified = True
            if not self._public_consistent(public_values, public_rows, count):
                disqualified = True

        if disqualified or len(unhappy) > self.scheme.t:
            return DEALER_DISQUALIFIED
        return self._finish(pid, my_rows, public_rows, count)

    def _public_consistent(
        self,
        values: Mapping[tuple[int, int, int], int],
        rows: Mapping[int, list[Polynomial]],
        count: int,
    ) -> bool:
        """Local consistency of all broadcast data (same for everyone)."""
        for m, rlist in rows.items():
            if len(rlist) != count or not all(self._row_ok(r) for r in rlist):
                return False
        # Broadcast rows must match broadcast crossing values...
        for (k, i, j), value in values.items():
            if not (0 <= k < count):
                return False
            for party, point in ((i, j), (j, i)):
                if party in rows and rows[party][k](point + 1).value != value:
                    return False
        # ...and be pairwise consistent with each other.
        ids = sorted(rows)
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1 :]:
                for k in range(count):
                    if rows[a][k](b + 1) != rows[b][k](a + 1):
                        return False
        return True

    def _finish(
        self,
        pid: int,
        my_rows: list[Polynomial] | None,
        public_rows: Mapping[int, list[Polynomial]],
        count: int,
    ) -> SharedBatch:
        rows = public_rows.get(pid, my_rows)
        if rows is None or len(rows) != count:
            # A party without a usable row holds zero shares; with an
            # honest dealer this never happens, and with a corrupt dealer
            # at most t (corrupt) parties are affected, which Berlekamp-
            # Welch absorbs at reconstruction.
            views = [
                BGWShareView(self, pid, 0) for _ in range(count)
            ]
            return SharedBatch(dealer=-1, views=views)
        views = [BGWShareView(self, pid, row(0).value) for row in rows]
        return SharedBatch(dealer=-1, views=views)

    def zero_view(self, pid: int) -> BGWShareView:
        return BGWShareView(self, pid, 0)

    def reveal_payload(self, pid: int, view: ShareView) -> Any:
        if not isinstance(view, BGWShareView):
            raise TypeError("expected a BGWShareView")
        return view.value

    def verify_and_combine(
        self, payloads: Mapping[int, Any], verifier: int | None = None
    ) -> FieldElement:
        """Berlekamp–Welch decoding of the received share points."""
        field = self.scheme.field
        t = self.scheme.t
        points = [
            (field(sender + 1), field(value))
            for sender, value in payloads.items()
            if isinstance(value, int) and 0 <= value < field.order
        ]
        if len(points) < 2 * t + 1:
            raise ReconstructionError(
                f"only {len(points)} well-formed payloads; need {2 * t + 1}"
            )
        try:
            poly, _errors = berlekamp_welch(field, points, degree=t)
        except DecodingError as exc:
            raise ReconstructionError(str(exc)) from exc
        return poly(0)


class BGWVSS(VSSScheme):
    """Perfect, linear VSS for t < n/3 (fully executable)."""

    def __init__(self, field, n: int, t: int):
        if 3 * t >= n:
            raise ValueError(f"perfect VSS requires t < n/3, got n={n}, t={t}")
        super().__init__(field, n, t, BGW_COST)

    def new_session(self, rng: random.Random) -> BGWVSSSession:
        return BGWVSSSession(self)
