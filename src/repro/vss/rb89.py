"""Executable statistical VSS for t < n/2 (Rabin–Ben-Or style).

The paper's regime is ``t < n/2``, where perfect VSS is impossible and
Reed–Solomon decoding no longer has the redundancy to correct ``t``
wrong shares (that needs ``n >= 3t+1``).  The classical fix [RB89] is
*information checking*: shares carry unconditional MACs so that wrong
shares are detected rather than corrected.

Structure (dealing mirrors :mod:`repro.vss.bgw`):

1. The dealer deals each secret through a random symmetric bivariate
   polynomial; ``P_i`` gets the row ``f_i``.  Alongside, for every
   ordered pair ``(i, j)``, the dealer generates ICP material
   authenticating ``P_i``'s share toward verifier ``P_j``: ``P_i``
   receives tags, ``P_j`` receives keys.  One key component ``b`` is
   reused per (i, j) across the whole batch, which makes the
   authentication *linear* in the shared values.
2. Pairwise crossing checks, broadcast complaints, dealer resolutions
   and the accusation loop are as in the perfect backend; additionally
   each pair checks one *auxiliary* ICP instance in round 2, so a
   dealer handing out mismatched tag/key material is complained about
   at sharing time.
3. Reconstruction is *verifier-local*: a party (or the designated
   receiver of the paper's step 4) accepts a revealed share iff its own
   ICP keys validate it (or the share became public during sharing),
   requires at least ``t + 1`` accepted shares, and checks the accepted
   set is consistent with one degree-``t`` polynomial.  Forging against
   an honest verifier succeeds with probability ``1/|F|`` per attempt.

Documented scope (DESIGN.md, notes 3-4): ICP keys are dealer-generated,
so a corrupt dealer colluding with corrupt shareholders can equivocate
*its own* secrets at reconstruction; the consistency check turns such
attempts into detected failures rather than silently wrong values.
Full RB89 closes this with two-level subsharing.  Cross-dealer sums
carry per-dealer tags, so private reconstruction of cross-dealer sums
reveals per-dealer components to the receiver — fine for public
openings and single-dealer use; AnonChan's anonymity-critical step 4
therefore runs on the ideal or perfect backends in this repository.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.fields import FieldElement, Polynomial, interpolate_at
from repro.network import Program, RoundOutput, SizedPayload
from repro.sharing import ICPKey, ICPTag, SymmetricBivariate, icp_verify

from .base import (
    DEALER_DISQUALIFIED,
    ReconstructionError,
    SharedBatch,
    ShareView,
    VSSCost,
    VSSScheme,
    VSSSession,
    secret_array,
)
from .costs import RB89_IMPL_COST

#: Terms identifying a linear combination: (batch_id, k) -> coefficient.
RBTerms = tuple[tuple[tuple[int, int], int], ...]


@dataclass(frozen=True)
class RB89ShareView(ShareView):
    """A party's share plus its per-(batch, verifier) ICP tags."""

    session: "RB89VSSSession"
    pid: int
    terms: RBTerms
    value: int
    #: tags[(batch_id, verifier)] -> aggregated ICPTag for that verifier.
    tags: tuple[tuple[tuple[int, int], ICPTag], ...]

    def _tag_dict(self) -> dict[tuple[int, int], ICPTag]:
        return dict(self.tags)

    def __add__(self, other: ShareView) -> "RB89ShareView":
        if not isinstance(other, RB89ShareView) or other.pid != self.pid:
            raise ValueError("cannot combine views of different parties")
        field = self.session.scheme.field
        terms = dict(self.terms)
        for key, coeff in other.terms:
            terms[key] = field.add(terms.get(key, 0), coeff)
        tags = self._tag_dict()
        for key, tag in other.tags:
            if key in tags:
                tags[key] = tags[key] + tag
            else:
                tags[key] = tag
        return RB89ShareView(
            session=self.session,
            pid=self.pid,
            terms=tuple(sorted((k, c) for k, c in terms.items() if c != 0)),
            value=field.add(self.value, other.value),
            tags=tuple(sorted(tags.items())),
        )

    def scale(self, scalar: FieldElement) -> "RB89ShareView":
        field = self.session.scheme.field
        sv = scalar.value
        terms = tuple(
            (k, field.mul(c, sv)) for k, c in self.terms if field.mul(c, sv)
        )
        tags = tuple((k, t.scale(scalar)) for k, t in self.tags)
        return RB89ShareView(
            session=self.session,
            pid=self.pid,
            terms=terms,
            value=field.mul(self.value, sv),
            tags=tags,
        )


class RB89VSSSession(VSSSession):
    """Session state: per-batch verification keys and public shares."""

    def __init__(self, scheme: "RB89VSS"):
        super().__init__(scheme)
        #: per-(pid, dealer) count of share_program calls; all parties
        #: invoke sharings in the same order, so (dealer, ordinal) is a
        #: consistent batch identifier across parties.
        self._ordinals: dict[tuple[int, int], int] = {}
        #: keys[(batch_id, int_pid, verifier)] -> per-secret ICPKeys,
        #: with one auxiliary key appended.
        self._keys: dict[tuple, list[ICPKey]] = {}
        #: shares that became public during sharing (adopted rows):
        #: public_shares[(batch_id, pid)] -> list of raw share values.
        self._public_shares: dict[tuple, list[int]] = {}

    def _row_ok(self, row: Any) -> bool:
        scheme = self.scheme
        return (
            isinstance(row, Polynomial)
            and row.field == scheme.field
            and row.degree <= scheme.t
        )

    # ------------------------------------------------------------------
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
        ordinal = self._ordinals.get((pid, dealer), 0)
        self._ordinals[(pid, dealer)] = ordinal + 1
        batch_id = (dealer, ordinal)

        # ---- round 1: dealer distributes rows + ICP material -------------
        aux_tags: dict[int, ICPTag] = {}  # per verifier j: auxiliary tag
        my_tags: dict[int, list[ICPTag]] = {}  # per verifier j, per secret
        if pid == dealer:
            if secrets is None:
                raise ValueError("dealer must supply secrets")
            secrets = secret_array(field, secrets, count)
            bivariates = [
                SymmetricBivariate.random(field, t, FieldElement(field, s), rng)
                for s in secrets.tolist()
            ]
            rows_by_party = {
                i: [b.row(i + 1) for b in bivariates] for i in range(n)
            }
            # ICP material: per ordered pair (i, j), one b, a key+tag per
            # secret (authenticating f^k_i(0)) and one auxiliary instance.
            tag_msgs: dict[int, dict[int, list]] = {i: {} for i in range(n)}
            for i in range(n):
                for j in range(n):
                    if j == i:
                        continue
                    b = field.random_nonzero(rng)
                    tags, keys = [], []
                    for k in range(count):
                        share_value = FieldElement(
                            field, rows_by_party[i][k](0).value
                        )
                        y = field.random(rng)
                        c = share_value + b * y
                        tags.append(ICPTag(share_value, y))
                        keys.append(ICPKey(b, c))
                    aux_value = field.random(rng)
                    aux_y = field.random(rng)
                    aux_key = ICPKey(b, aux_value + b * aux_y)
                    tag_msgs[i][j] = [tags, ICPTag(aux_value, aux_y)]
                    # The verifier's auxiliary key rides along with the
                    # real keys in session storage.
                    self._keys[(batch_id, i, j)] = keys + [aux_key]
            row_msgs = {
                i: (rows_by_party[i], tag_msgs[i]) for i in range(n)
            }
            my_rows: list[Polynomial] | None = rows_by_party[pid]
            for j, payload in row_msgs[pid][1].items():
                my_tags[j] = payload[0]
                aux_tags[j] = payload[1]
            inbox = yield RoundOutput(
                private={j: row_msgs[j] for j in others}
            )
        else:
            inbox = yield RoundOutput.silent()
            raw = inbox.private.get(dealer)
            my_rows = None
            if (
                isinstance(raw, tuple)
                and len(raw) == 2
                and isinstance(raw[0], list)
                and len(raw[0]) == count
                and all(self._row_ok(r) for r in raw[0])
                and isinstance(raw[1], dict)
            ):
                my_rows = list(raw[0])
                for j, payload in raw[1].items():
                    if (
                        isinstance(payload, list)
                        and len(payload) == 2
                        and isinstance(payload[0], list)
                        and len(payload[0]) == count
                    ):
                        my_tags[j] = payload[0]
                        aux_tags[j] = payload[1]

        # ---- round 2: crossings + auxiliary ICP openings -------------------
        if my_rows is not None:
            msgs = {
                j: (
                    [row(j + 1).value for row in my_rows],
                    aux_tags.get(j),
                )
                for j in others
            }
        else:
            msgs = {}
        inbox = yield RoundOutput(private=msgs)
        crossings: dict[int, list[int]] = {}
        icp_complaints: list[int] = []
        for j in others:
            payload = inbox.private.get(j)
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], list)
            ):
                crossings[j] = payload[0]
                aux = payload[1]
                my_aux_keys = self._keys.get((batch_id, j, pid))
                if my_aux_keys is not None:
                    aux_key = my_aux_keys[-1]
                    if not isinstance(aux, ICPTag) or not icp_verify(aux, aux_key):
                        icp_complaints.append(j)

        # ---- round 3: broadcast complaints ------------------------------
        complaints: list[tuple[str, Any]] = []
        if my_rows is None:
            complaints.append(("bad-row", None))
        else:
            for j in others:
                got = crossings.get(j)
                if got is None or len(got) != count:
                    complaints.append(("cross", j))
                    continue
                for k, row in enumerate(my_rows):
                    if row(j + 1).value != got[k]:
                        complaints.append(("cross", j))
                        break
            for j in icp_complaints:
                # The dealer keyed the (j -> me) authentication wrongly.
                complaints.append(("icp", j))
        inbox = yield RoundOutput(broadcast=complaints if complaints else None)
        all_complaints: dict[int, list[tuple[str, Any]]] = {}
        for sender, payload in inbox.broadcast.items():
            if isinstance(payload, list):
                all_complaints[sender] = [
                    c for c in payload if isinstance(c, tuple) and len(c) == 2
                ]

        if not all_complaints:
            return self._finish(pid, dealer, batch_id, my_rows, {}, my_tags, count)

        # ---- round 4: dealer resolves ------------------------------------
        if pid == dealer:
            resolutions: dict[str, Any] = {"values": {}, "rows": {}}
            for complainer, items in all_complaints.items():
                for kind, arg in items:
                    if kind == "bad-row":
                        resolutions["rows"][complainer] = rows_by_party[complainer]
                    elif kind in ("cross", "icp") and isinstance(arg, int) and 0 <= arg < n:
                        # An ICP complaint by j about i makes i's shares
                        # public (the simple resolution: no secrecy is
                        # lost beyond i's own shares).
                        if kind == "icp":
                            resolutions["rows"][arg] = rows_by_party[arg]
                        else:
                            for k, b in enumerate(bivariates):
                                resolutions["values"][(k, complainer, arg)] = b(
                                    complainer + 1, arg + 1
                                ).value
            inbox = yield RoundOutput(broadcast=resolutions)
        else:
            inbox = yield RoundOutput.silent()
        public = inbox.broadcast.get(dealer)
        if not isinstance(public, dict) or "values" not in public or "rows" not in public:
            return DEALER_DISQUALIFIED
        public_values = {
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

        def complaint_answered(complainer: int, kind: str, arg: Any) -> bool:
            if kind == "bad-row":
                return complainer in public_rows
            if kind == "icp":
                return arg in public_rows
            if kind == "cross":
                if complainer in public_rows or arg in public_rows:
                    return True
                return all(
                    (k, complainer, arg) in public_values for k in range(count)
                )
            return True

        unresolved = any(
            not complaint_answered(c, kind, arg)
            for c, items in all_complaints.items()
            for kind, arg in items
        )
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
                s
                for s, p in inbox.broadcast.items()
                if p == "accuse" and s not in unhappy and s != dealer
            }
            if not new_accusers:
                break
            unhappy |= new_accusers
            if pid == dealer:
                answer = {
                    m: rows_by_party[m] for m in new_accusers
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

        if disqualified or len(unhappy) > t:
            return DEALER_DISQUALIFIED
        return self._finish(
            pid, dealer, batch_id, my_rows, public_rows, my_tags, count
        )

    def _public_consistent(self, values, rows, count) -> bool:
        for _m, rlist in rows.items():
            if len(rlist) != count or not all(self._row_ok(r) for r in rlist):
                return False
        for (k, i, j), value in values.items():
            if not 0 <= k < count:
                return False
            for party, point in ((i, j), (j, i)):
                if party in rows and rows[party][k](point + 1).value != value:
                    return False
        ids = sorted(rows)
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1 :]:
                for k in range(count):
                    if rows[a][k](b + 1) != rows[b][k](a + 1):
                        return False
        return True

    def _finish(
        self, pid, dealer, batch_id, my_rows, public_rows, my_tags, count
    ) -> SharedBatch:
        field = self.scheme.field
        n = self.scheme.n
        # Record publicly known shares for reconstruction-time use.
        for m, rows in public_rows.items():
            self._public_shares[(batch_id, m)] = [
                row(0).value for row in rows
            ]
        rows = public_rows.get(pid, my_rows)
        if rows is None or len(rows) != count:
            rows = None
        one = field.encode(1)
        views = []
        for k in range(count):
            value = rows[k](0).value if rows is not None else 0
            tags = []
            for j in range(n):
                if j == pid:
                    continue
                tag_list = my_tags.get(j)
                if tag_list is not None and k < len(tag_list) and isinstance(
                    tag_list[k], ICPTag
                ):
                    tags.append(((batch_id, j), tag_list[k]))
            views.append(
                RB89ShareView(
                    session=self,
                    pid=pid,
                    terms=(((batch_id, k), one),),
                    value=value,
                    tags=tuple(sorted(tags)),
                )
            )
        return SharedBatch(dealer=dealer, views=views)

    # ------------------------------------------------------------------
    def zero_view(self, pid: int) -> RB89ShareView:
        return RB89ShareView(self, pid, terms=(), value=0, tags=())

    def reveal_payload(self, pid: int, view: ShareView) -> Any:
        if not isinstance(view, RB89ShareView):
            raise TypeError("expected an RB89ShareView")
        return (pid, view.terms, view.value, view.tags)

    def reveal_payloads_batch(self, pid: int, views: Sequence[ShareView]) -> Any:
        """Reveal payloads, their wire size counted once here.

        A payload ``(pid, terms, value, tags)`` is 2 atoms plus 4 per
        term (``((dealer, ordinal), k), coefficient``) plus 5 per tag
        (the key ``((dealer, ordinal), verifier)`` and the ICP tag's two
        field elements): what :func:`~repro.network.payload_size` would
        count walking it, without the walk's dataclass path per tag.
        """
        payloads = [self.reveal_payload(pid, view) for view in views]
        size = sum(2 + 4 * len(p[1]) + 5 * len(p[3]) for p in payloads)
        return SizedPayload(payloads, size)

    def _public_value_of_terms(self, terms: RBTerms, sender: int) -> int | None:
        """If every term's share of ``sender`` is public, compute it."""
        field = self.scheme.field
        acc = 0
        try:
            for (batch_id, k), coeff in terms:
                public = self._public_shares.get((batch_id, sender))
                if public is None or not 0 <= k < len(public):
                    return None
                acc = field.add(acc, field.mul(coeff, public[k]))
        except (TypeError, ValueError):
            return None
        return acc

    def _verify_payload(self, sender: int, payload: Any, verifier: int) -> int | None:
        """Return the accepted share value, or None if rejected."""
        if (
            not isinstance(payload, tuple)
            or len(payload) != 4
            or payload[0] != sender
        ):
            return None
        _, terms, value, tags = payload
        if not isinstance(terms, tuple) or not isinstance(value, int):
            return None
        try:
            _ = [(key, coeff) for key, coeff in terms]
        except (TypeError, ValueError):
            return None
        public = self._public_value_of_terms(terms, sender)
        if public is not None:
            return public  # the public record overrides the claim
        if sender == verifier:
            return value  # a party trusts its own share
        if verifier is None:
            return None  # cannot verify without keys
        field = self.scheme.field
        try:
            tag_map = dict(tags) if isinstance(tags, tuple) else {}
        except (TypeError, ValueError):
            return None
        # Aggregate keys per batch and check every batch's tag.
        per_batch: dict[Any, list[tuple[int, int]]] = {}
        try:
            for (batch_id, k), coeff in terms:
                per_batch.setdefault(batch_id, []).append((k, coeff))
        except (TypeError, ValueError):
            return None
        total = 0
        for batch_id, items in per_batch.items():
            keys = self._keys.get((batch_id, sender, verifier))
            if keys is None:
                return None
            agg_key: ICPKey | None = None
            for k, coeff in items:
                if k >= len(keys) - 1:  # last key is the auxiliary one
                    return None
                scaled = keys[k].scale(FieldElement(field, coeff))
                agg_key = scaled if agg_key is None else agg_key + scaled
            tag = tag_map.get((batch_id, verifier))
            if agg_key is None or not isinstance(tag, ICPTag):
                return None
            if not icp_verify(tag, agg_key):
                return None
            total = field.add(total, tag.value.value)
        if total != value:
            return None
        return value

    def verify_and_combine(
        self, payloads: Mapping[int, Any], verifier: int | None = None
    ) -> FieldElement:
        field = self.scheme.field
        t = self.scheme.t
        accepted: list[tuple[int, int]] = []
        for sender, payload in payloads.items():
            value = self._verify_payload(sender, payload, verifier)
            if value is not None:
                accepted.append((sender + 1, value))
        if len(accepted) < t + 1:
            raise ReconstructionError(
                f"only {len(accepted)} authenticated shares; need {t + 1}"
            )
        # Consistency: all accepted shares on one degree-t polynomial.
        base = accepted[: t + 1]
        for x, y in accepted[t + 1 :]:
            predicted = interpolate_at(field, base, FieldElement(field, x))
            if predicted.value != y:
                raise ReconstructionError(
                    "authenticated shares are inconsistent (corrupt dealer "
                    "equivocation detected)"
                )
        return interpolate_at(field, base, 0)


class RB89VSS(VSSScheme):
    """Statistical, linear VSS for t < n/2 (fully executable)."""

    def __init__(self, field, n: int, t: int, cost: VSSCost | None = None):
        if 2 * t >= n:
            raise ValueError(f"requires t < n/2, got n={n}, t={t}")
        super().__init__(field, n, t, cost or RB89_IMPL_COST)

    def new_session(self, rng: random.Random) -> RB89VSSSession:
        return RB89VSSSession(self)
