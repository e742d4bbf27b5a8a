"""Ideal-functionality VSS backend (hybrid-model composition).

The paper composes AnonChan with VSS *black-box* and inherits its
round/broadcast cost.  This backend mirrors that hybrid-world
methodology: a trusted in-process functionality holds the dealt
polynomials and enforces Commitment (a dealer cannot change a dealt
value) and share authenticity (a corrupted party cannot open a wrong
share without detection), while the party programs consume exactly the
round/broadcast schedule of a chosen *cost profile* (RB89, Rab94,
GGOR13, ...).  This lets the experiments scale AnonChan far beyond what
a full message-level VSS execution could simulate, with metrics that
match the real composition.

The real message-passing backends (:mod:`repro.vss.bgw`,
:mod:`repro.vss.rb89`) validate the VSS properties themselves; their
tests plus this hybrid model together reproduce the paper's
composition claim.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.fields import VECTOR_BACKEND_MODES, FieldElement, draw_coefficients
from repro.network import Program, RoundOutput, ShareColumn, SizedPayload
from repro.obs.profiler import get_profiler

from .base import (
    DEALER_DISQUALIFIED,
    ReconstructionError,
    SharedBatch,
    ShareView,
    VSSCost,
    VSSScheme,
    VSSSession,
)


class RefuseType:
    """Sentinel a (corrupt) dealer passes to refuse to share properly."""

    def __repr__(self) -> str:
        return "REFUSE"


#: Pass as ``secrets`` to model a dealer that gets publicly disqualified.
REFUSE = RefuseType()

#: Terms of a linear combination: serial -> raw coefficient encoding.
Terms = tuple[tuple[int, int], ...]

#: Smallest batch for which the numpy dealing path beats the scalar one
#: (array setup costs dominate below it); ``"vectorized"`` mode ignores
#: the threshold so tests can force the kernels on tiny batches.
VECTOR_DEAL_MIN = 32

#: Same, for batched openings/reconstructions.
VECTOR_OPEN_MIN = 64

#: Same, for batched view combination (diffs/sums of whole offset
#: arrays in the AnonChan cut-and-choose and step-4 hot paths).
VECTOR_COMBINE_MIN = 64


@dataclass(frozen=True)
class IdealShareView(ShareView):
    """A party's view: symbolic terms plus its concrete share value."""

    session: "IdealVSSSession"
    pid: int
    terms: Terms
    value: int  # raw encoding of this party's Shamir share of the combo

    def __add__(self, other: ShareView) -> "IdealShareView":
        if not isinstance(other, IdealShareView) or other.session is not self.session:
            raise ValueError("cannot combine views from different sessions")
        if other.pid != self.pid:
            raise ValueError("cannot combine views of different parties")
        field = self.session.scheme.field
        merged = dict(self.terms)
        for serial, coeff in other.terms:
            merged[serial] = field.add(merged.get(serial, 0), coeff)
        terms = tuple(sorted((s, c) for s, c in merged.items() if c != 0))
        return IdealShareView(
            self.session, self.pid, terms, field.add(self.value, other.value)
        )

    def scale(self, scalar: FieldElement) -> "IdealShareView":
        field = self.session.scheme.field
        sv = scalar.value
        terms = tuple(
            (serial, field.mul(coeff, sv)) for serial, coeff in self.terms if field.mul(coeff, sv) != 0
        )
        return IdealShareView(
            self.session, self.pid, terms, field.mul(self.value, sv)
        )


class ShareBlock(Sequence):
    """One party's views of many values, held as arrays.

    Row ``k`` is the linear combination of dealt values whose terms are
    ``serials``/``coefficients`` over ``starts[k]:starts[k + 1]``
    (sorted by serial, as :class:`IdealShareView` keeps them), and
    ``values[k]`` is the party's share of it.  Dealt batches, slices,
    gathers, the cut-and-choose differences, the step-4 sum and whole
    openings stay blocks end to end; indexing one row builds its
    :class:`IdealShareView`, which equals what the view-by-view path
    computes (the differential harness pins this).
    """

    __slots__ = ("session", "pid", "starts", "serials", "coefficients", "values")

    def __init__(self, session, pid, starts, serials, coefficients, values):
        self.session = session
        self.pid = pid
        self.starts = starts
        self.serials = serials
        self.coefficients = coefficients
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                return self.take(np.arange(lo, hi, step))
            hi = max(lo, hi)
            a, b = self.starts[lo], self.starts[hi]
            return ShareBlock(
                self.session, self.pid, self.starts[lo : hi + 1] - a,
                self.serials[a:b], self.coefficients[a:b], self.values[lo:hi],
            )
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("share block index out of range")
        a, b = self.starts[k], self.starts[k + 1]
        terms = tuple(zip(self.serials[a:b].tolist(), self.coefficients[a:b].tolist()))
        return IdealShareView(self.session, self.pid, terms, int(self.values[k]))

    def take(self, rows) -> "ShareBlock":
        """The rows ``rows`` (an index array) as a block, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(self.starts)[rows]
        starts = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        src = np.repeat(self.starts[rows] - starts[:-1], lengths)
        src += np.arange(starts[-1])
        return ShareBlock(
            self.session, self.pid, starts, self.serials[src],
            self.coefficients[src], self.values[rows],
        )

    @staticmethod
    def join(blocks: Sequence["ShareBlock"]) -> "ShareBlock":
        """The blocks' rows, one after the other."""
        offsets = np.cumsum([0] + [len(b.serials) for b in blocks])
        return ShareBlock(
            blocks[0].session,
            blocks[0].pid,
            np.concatenate(
                [[0]] + [b.starts[1:] + o for b, o in zip(blocks, offsets)]
            ),
            np.concatenate([b.serials for b in blocks]),
            np.concatenate([b.coefficients for b in blocks]),
            np.concatenate([b.values for b in blocks]),
        )


def _plausible(payload: Any, count: int) -> bool:
    """A payload shaped like a column of ``count`` reveal payloads."""
    return isinstance(payload, (list, tuple, ShareColumn)) and len(payload) == count


class IdealVSSSession(VSSSession):
    """Shared trusted functionality + per-party program frontends."""

    def __init__(self, scheme: "IdealVSS"):
        super().__init__(scheme)
        # Per dealt value (by serial), its share evaluations at
        # x = 0..n (column 0 is the secret itself): one table per dealt
        # batch, read as one matrix (:attr:`_evals`).  Polynomials are
        # never materialized — the functionality needs only these points.
        self._tables: list[np.ndarray] = []
        self._dealt = 0
        self._evals_matrix: np.ndarray | None = None
        self._batches: dict[tuple[int, int], Any] = {}
        self._counters: dict[tuple[int, int], int] = {}
        self._lagrange_cache: dict[tuple[int, ...], list[int]] = {}
        self._backend_mode = scheme.backend
        self._vector = None
        self._vector_checked = False
        if self._backend_mode == "vectorized":
            from repro.fields.vectorized import vector_backend

            self._vector = vector_backend(scheme.field)  # raises if unsupported
            self._vector_checked = True

    def configure_backend(self, mode: str) -> None:
        """Select the batch-kernel policy for this session.

        ``"auto"`` (default) uses the numpy kernels for large batches on
        fields that support them, ``"vectorized"`` requires and always
        uses them (``ValueError`` if the field has no vectorized
        substrate), ``"scalar"`` forces the pure-Python reference path.
        """
        if mode not in VECTOR_BACKEND_MODES:
            raise ValueError(
                f"unknown backend {mode!r}, expected one of "
                f"{VECTOR_BACKEND_MODES}"
            )
        if mode == "vectorized":
            from repro.fields.vectorized import vector_backend

            self._vector = vector_backend(self.scheme.field)
            self._vector_checked = True
        self._backend_mode = mode

    def _vector_backend(self):
        """Lazily construct the numpy backend per the session's mode."""
        if self._backend_mode == "scalar":
            return None
        if not self._vector_checked:
            self._vector_checked = True
            try:
                from repro.fields.vectorized import vector_backend

                self._vector = vector_backend(self.scheme.field)
            except (ValueError, ImportError):
                self._vector = None
        return self._vector

    def _use_vector(self, batch_size: int, threshold: int):
        """The backend to use for a batch of ``batch_size``, or ``None``."""
        vec = self._vector_backend()
        if vec is None:
            return None
        if self._backend_mode != "vectorized":
            from repro.fields.vectorized import force_scalar

            if force_scalar():
                # REPRO_FORCE_SCALAR pins "auto" to the reference path
                # (explicit "vectorized" mode still wins, so tests can
                # keep forcing the kernels).
                return None
            if batch_size < threshold:
                return None
        return vec

    def _dtype(self):
        """Array dtype of raw encodings: the kernels' where they exist."""
        vec = self._vector_backend()
        if vec is not None:
            return vec.dtype
        return np.uint64 if self.scheme.field.order <= 1 << 64 else object

    @property
    def _evals(self) -> np.ndarray:
        """Every dealt value's evaluations at x = 0..n, row = serial."""
        if self._evals_matrix is None or len(self._evals_matrix) != self._dealt:
            self._evals_matrix = (
                np.concatenate(self._tables)
                if self._tables
                else np.zeros((0, self.scheme.n + 1), dtype=self._dtype())
            )
        return self._evals_matrix

    def _lagrange_at_zero(self, xs: tuple[int, ...]) -> list[int]:
        """Cached Lagrange-at-zero coefficients for one point set.

        Two levels: a per-session dict (no locking on the hot path)
        over the process-wide :data:`repro.fields.vectorized.TABLES`
        cache, so the coefficients survive across protocol epochs.
        """
        coeffs = self._lagrange_cache.get(xs)
        if coeffs is None:
            from repro.fields.vectorized import TABLES

            coeffs = TABLES.lagrange_at_zero(self.scheme.field, xs)
            self._lagrange_cache[xs] = coeffs
        return coeffs

    # -- functionality internals ------------------------------------------
    def _deal(
        self,
        dealer: int,
        batch_index: int,
        secrets: Sequence[FieldElement] | RefuseType,
        rng: random.Random,
    ) -> None:
        key = (dealer, batch_index)
        if key in self._batches:
            raise ValueError(f"dealer {dealer} already dealt batch {batch_index}")
        if isinstance(secrets, RefuseType):
            self._batches[key] = REFUSE
            return
        field = self.scheme.field
        t, n, count = self.scheme.t, self.scheme.n, len(secrets)
        dtype = self._dtype()
        coeffs = np.empty((count, t + 1), dtype=dtype)
        coeffs[:, 0] = [secret.value for secret in secrets]
        coeffs[:, 1:] = draw_coefficients(rng, field, count * t).reshape(count, t)
        points = [field.encode(x) for x in range(n + 1)]
        vec = self._use_vector(count, VECTOR_DEAL_MIN)
        prof = get_profiler()
        if vec is not None:
            # Horner at the small points 0..n: table-free GF(2^k)
            # multiplies by a point over its few set bits only.
            if prof.enabled:
                prof.count("vss", "deal_batched", count)
                prof.observe("vss", "deal_batch_size", count)
            table = vec.eval_at_points(coeffs, points)
        else:
            if prof.enabled:
                # field.add/field.mul below hit the instrumented field
                # methods, so fields/* is counted there, not here.
                prof.count("vss", "deal_scalar_fallback", count)
            add, mul = field.add, field.mul
            rows = []
            for row in coeffs.tolist():
                evals = []
                for x in points:
                    acc = 0
                    for c in reversed(row):  # Horner
                        acc = add(mul(acc, x), c)
                    evals.append(acc)
                rows.append(evals)
            table = np.array(rows, dtype=dtype).reshape(count, n + 1)
        first = self._dealt
        self._tables.append(table)
        self._dealt += count
        # The batch's terms (serial first + k, coefficient 1) are shared
        # by every party's block of it.
        self._batches[key] = (
            table,
            np.arange(count + 1),
            np.arange(first, first + count),
            np.full(count, field.encode(1), dtype=dtype),
        )

    def _is_dealt(self, views) -> bool:
        """``views`` is a block of dealt values: one term of coefficient 1 a row."""
        return (
            isinstance(views, ShareBlock)
            and views.session is self
            and len(views.serials) == len(views)
            and bool((np.diff(views.starts) == 1).all())
            and bool((views.coefficients == self.scheme.field.encode(1)).all())
        )

    def _as_block(self, pid: int, views) -> ShareBlock:
        """``views`` as a block (a list of views is packed into arrays)."""
        if isinstance(views, ShareBlock):
            return views
        starts, serials, coefficients, values = [0], [], [], []
        for view in views:
            if not isinstance(view, IdealShareView):
                raise TypeError("expected an IdealShareView")
            for serial, coeff in view.terms:
                serials.append(serial)
                coefficients.append(coeff)
            starts.append(len(serials))
            values.append(view.value)
        dtype = self._dtype()
        return ShareBlock(
            self, pid, np.array(starts, dtype=np.int64),
            np.array(serials, dtype=np.int64),
            np.array(coefficients, dtype=dtype), np.array(values, dtype=dtype),
        )

    def _elements(self, raw: np.ndarray) -> list[FieldElement]:
        """Field elements for raw encodings, one object per distinct value."""
        field = self.scheme.field
        distinct, inverse = np.unique(raw, return_inverse=True)
        elements = np.empty(len(distinct), dtype=object)
        elements[:] = [FieldElement(field, v) for v in distinct.tolist()]
        return elements[inverse.reshape(-1)].tolist()

    # -- VSSSession interface ----------------------------------------------
    def share_program(
        self,
        pid: int,
        dealer: int,
        secrets: Sequence[FieldElement] | RefuseType | None,
        rng: random.Random,
        count: int = 1,
    ) -> Program:
        scheme: IdealVSS = self.scheme  # type: ignore[assignment]
        batch_index = self._counters.get((pid, dealer), 0)
        self._counters[(pid, dealer)] = batch_index + 1

        if pid == dealer:
            if secrets is None:
                raise ValueError("dealer must supply secrets (or REFUSE)")
            if not isinstance(secrets, RefuseType) and len(secrets) != count:
                raise ValueError(
                    f"dealer supplied {len(secrets)} secrets for a batch of {count}"
                )
            self._deal(dealer, batch_index, secrets, rng)

        cost = scheme.cost
        for r in range(cost.share_rounds):
            if pid == dealer and r < cost.share_broadcast_rounds:
                yield RoundOutput(broadcast="vss-share")
            else:
                yield RoundOutput.silent()

        record = self._batches.get((dealer, batch_index))
        if record is None or isinstance(record, RefuseType):
            return DEALER_DISQUALIFIED
        table, starts, serials, coefficients = record
        block = ShareBlock(
            self, pid, starts, serials, coefficients, table[:, pid + 1]
        )
        return SharedBatch(dealer=dealer, views=block)

    def zero_view(self, pid: int) -> IdealShareView:
        return IdealShareView(self, pid, terms=(), value=0)

    def open_program(self, pid: int, views):
        """Public opening of ``views`` (a block or a list of views).

        Semantically identical to the base implementation.  Openings
        large enough for the kernels travel as one :class:`ShareColumn`
        per sender and are verified with array compares
        (:meth:`_reconstruct_columns`); smaller ones, and the scalar
        reference path, open view by view as payload tuples.
        """
        if self._use_vector(len(views), VECTOR_OPEN_MIN) is not None:
            views = self._as_block(pid, views)
        else:
            views = list(views)
        payloads = self.reveal_payloads_batch(pid, views)
        inbox = yield RoundOutput(
            private={j: payloads for j in range(self.scheme.n) if j != pid}
        )
        columns: list[tuple[int, Any]] = [(pid, payloads)]
        for sender, payload in inbox.private.items():
            if _plausible(payload, len(views)):
                columns.append((sender, payload))
        return self._reconstruct_columns(columns, views, pid, strict=True)

    def reconstruct_private_batch(
        self,
        columns: Mapping[int, Any],
        count: int,
        verifier: int | None = None,
        views=None,
    ) -> list[FieldElement | None]:
        """Batch private reconstruction (paper step 4).

        When the reconstructing party supplies its own ``views`` (it
        always holds shares of the values being opened), the verified
        recombination of :meth:`open_program` is reused, with ``None``
        for positions that cannot be reconstructed instead of raising.
        """
        if views is not None and len(views) == count:
            plausible = [
                (s, column) for s, column in columns.items() if _plausible(column, count)
            ]
            return self._reconstruct_columns(plausible, views, verifier, strict=False)
        return super().reconstruct_private_batch(
            columns, count, verifier=verifier, views=views
        )

    def _reconstruct_columns(self, columns, views, pid, strict):
        """Verify and recombine payload columns against the verifier's views.

        A sender's :class:`ShareColumn` counts for the array path only
        if its terms equal the verifier's exactly; its values are then
        accepted where they equal the functionality's evaluations at the
        sender's point.  Positions with ``t + 1`` accepted shares open
        to the combination's value at 0 — any ``t + 1`` accepted shares
        lie on its degree-``t`` polynomial, so they interpolate to
        exactly that.  Every other position falls back to
        :meth:`verify_and_combine` over all senders' payloads.
        ``strict`` propagates :class:`ReconstructionError` (public
        openings must abort); otherwise failed positions yield ``None``.
        """
        count = len(views)
        vec = self._use_vector(count, VECTOR_OPEN_MIN)
        prof = get_profiler()
        if prof.enabled:
            kind = "open_scalar_fallback" if vec is None else "open_batched"
            prof.count("vss", kind, count)
        if vec is None:
            results: list = [None] * count
            pending = range(count)
        else:
            if prof.enabled:
                prof.observe("vss", "open_batch_size", count)
            block = self._as_block(pid, views)
            table = self._combination_table(vec, block)
            accepted = np.zeros(count, dtype=np.int64)
            for sender, column in columns:
                if self._same_terms(sender, column, block):
                    accepted += column.values == table[:, sender + 1]
            results = self._elements(table[:, 0])
            pending = np.flatnonzero(accepted <= self.scheme.t).tolist()
        for k in pending:
            try:
                results[k] = self.verify_and_combine(
                    {sender: column[k] for sender, column in columns},
                    verifier=pid,
                )
            except ReconstructionError:
                if strict:
                    raise
                results[k] = None
        return results

    def _same_terms(self, sender, column, block: ShareBlock) -> bool:
        """``column`` is ``sender``'s, with exactly the terms of ``block``."""
        return (
            type(column) is ShareColumn
            and type(sender) is int
            and 0 <= sender < self.scheme.n
            and type(column.sender) is int
            and column.sender == sender
            and column.values.dtype == block.values.dtype
            and len(column.values) == len(block)
            and all(
                theirs.dtype == mine.dtype and np.array_equal(theirs, mine)
                for theirs, mine in (
                    (column.starts, block.starts),
                    (column.serials, block.serials),
                    (column.coefficients, block.coefficients),
                )
            )
        )

    def _combination_table(self, vec, block: ShareBlock) -> np.ndarray:
        """Each row's combination evaluated at x = 0..n, shape (rows, n+1).

        One pass per term position: pass ``w`` adds the ``w``-th term of
        every row that has one (rows without terms stay 0).
        """
        evals = self._evals
        one = self.scheme.field.encode(1)
        table = np.zeros((len(block), self.scheme.n + 1), dtype=block.values.dtype)
        rows = np.arange(len(block))
        firsts = block.starts[:-1]
        widths = block.starts[1:] - firsts
        prof = get_profiler()
        for w in range(int(widths.max(initial=0))):
            if w:
                rows = rows[widths[rows] > w]
            terms = firsts[rows] + w
            term = evals[block.serials[terms]]
            coefficients = block.coefficients[terms]
            if not (coefficients == one).all():
                term = vec.mul(term, coefficients[:, None])
            table[rows] = vec.add(table[rows], term) if w else term
            if prof.enabled:
                prof.count("fields", "add", term.size)
        return table

    def reveal_payload(self, pid: int, view: ShareView) -> Any:
        if not isinstance(view, IdealShareView):
            raise TypeError("expected an IdealShareView")
        return (pid, view.terms, view.value)

    def reveal_payloads_batch(self, pid: int, views) -> Any:
        """A block reveals as one :class:`ShareColumn`, a list per view."""
        if isinstance(views, ShareBlock):
            return ShareColumn(
                pid, views.starts, views.serials, views.coefficients, views.values
            )
        payloads = []
        size = 0
        for view in views:
            if not isinstance(view, IdealShareView):
                raise TypeError("expected an IdealShareView")
            terms = view.terms
            # Accounting size of one item (pid, terms, value): two int
            # atoms plus two per (serial, coeff) pair — precomputed here
            # so the engine's per-atom walk is skipped.
            size += 2 + 2 * len(terms)
            payloads.append((pid, terms, view.value))
        return SizedPayload(payloads, size)

    # -- batched view algebra (AnonChan hot path) ---------------------------
    # These produce blocks whose rows equal the generic view-by-view
    # fallbacks in VSSSession (tests/core/test_batched_equivalence.py
    # pins that down), computed on the dealt blocks' arrays.

    def gather_views(self, batch, offsets):
        if isinstance(batch.views, ShareBlock):
            return batch.views.take(offsets)
        return super().gather_views(batch, offsets)

    def join_views(self, parts):
        blocks = [part for part in parts if len(part)]
        if blocks and all(
            isinstance(b, ShareBlock) and b.session is self and b.pid == blocks[0].pid
            for b in blocks
        ):
            return blocks[0] if len(blocks) == 1 else ShareBlock.join(blocks)
        return super().join_views(parts)

    def diff_offsets_batch(self, batch, offsets_a, offsets_b):
        views = batch.views
        vec = self._use_vector(len(offsets_a), VECTOR_COMBINE_MIN)
        if vec is None or not self._is_dealt(views):
            return super().diff_offsets_batch(batch, offsets_a, offsets_b)
        offs_a = np.asarray(offsets_a, dtype=np.int64)
        offs_b = np.asarray(offsets_b, dtype=np.int64)
        if (
            offs_a.ndim != 1
            or offs_a.shape != offs_b.shape
            or (offs_a.size and (min(offs_a.min(), offs_b.min()) < 0
                                 or max(offs_a.max(), offs_b.max()) >= len(views)))
        ):
            # Odd shapes/offsets (negative indexing, mismatched arrays):
            # the generic path preserves exact scalar semantics.
            return super().diff_offsets_batch(batch, offsets_a, offsets_b)
        if offs_a.size == 0:
            return []
        field = self.scheme.field
        one = field.encode(1)
        minus_one = field.neg(one)
        sa, sb = views.serials[offs_a], views.serials[offs_b]
        va, vb = views.values[offs_a], views.values[offs_b]
        m = int(offs_a.size)
        prof = get_profiler()
        if prof.enabled:
            prof.count("fields", "add", m)
            prof.count("vss", "combine_batched", m)
        if minus_one != one:  # odd characteristic: a - b = a + (-1)b
            vb = vec.scale(vb, minus_one)
            if prof.enabled:
                prof.count("fields", "mul", m)
        # Terms sorted by serial; a - a cancels to no terms (and value 0).
        a_first = (sa < sb)[:, None]
        pairs = np.stack([np.minimum(sa, sb), np.maximum(sa, sb)], axis=1)
        coeffs = np.where(a_first, [one, minus_one], [minus_one, one])
        keep = np.repeat(sa != sb, 2)
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(keep.reshape(m, 2).sum(axis=1), out=starts[1:])
        return ShareBlock(
            self, views.pid, starts, pairs.reshape(-1)[keep],
            coeffs.reshape(-1)[keep].astype(views.values.dtype),
            vec.add(va, vb).astype(views.values.dtype, copy=False),
        )

    def sum_offsets_batch(self, batches, offset_columns):
        if len(batches) != len(offset_columns):
            raise ValueError("one offset column per batch required")
        if not batches:
            return []
        m = len(offset_columns[0])
        vec = self._use_vector(m * len(batches), VECTOR_COMBINE_MIN)
        blocks = [batch.views for batch in batches]
        if vec is None or not all(
            self._is_dealt(b) and b.pid == blocks[0].pid for b in blocks
        ):
            return super().sum_offsets_batch(batches, offset_columns)
        offsets = [np.asarray(column, dtype=np.int64) for column in offset_columns]
        if any(
            o.shape != (m,) or (m and (o.min() < 0 or o.max() >= len(b)))
            for b, o in zip(blocks, offsets)
        ):
            return super().sum_offsets_batch(batches, offset_columns)
        serials = np.sort(
            np.stack([b.serials[o] for b, o in zip(blocks, offsets)]), axis=0
        )
        if (np.diff(serials, axis=0) == 0).any():
            # Duplicate serials in one sum would need coefficient
            # merging; distinct dealt batches never overlap, so this
            # only happens for hand-built inputs — defer.
            return super().sum_offsets_batch(batches, offset_columns)
        values = vec.reduce_sum(
            np.stack([b.values[o] for b, o in zip(blocks, offsets)]), axis=0
        )
        prof = get_profiler()
        if prof.enabled:
            prof.count("fields", "add", m * (len(blocks) - 1))
            prof.count("vss", "combine_batched", m)
        width = len(blocks)
        dtype = blocks[0].values.dtype
        return ShareBlock(
            self, blocks[0].pid, np.arange(0, width * m + 1, width),
            serials.T.reshape(-1),
            np.full(width * m, self.scheme.field.encode(1), dtype=dtype),
            values.astype(dtype, copy=False),
        )

    def verify_and_combine(
        self, payloads: Mapping[int, Any], verifier: int | None = None
    ) -> FieldElement:
        """Models the w.h.p. guarantees of a real statistical VSS-Rec.

        A payload from party ``i`` is accepted iff its claimed share
        value matches the functionality's record for the claimed terms
        at ``i``'s evaluation point (real schemes achieve this check via
        ICP / error correction).  The value of the terms-group with at
        least ``t + 1`` accepted payloads is reconstructed by Lagrange
        interpolation of the accepted points.  Payloads from outside the
        party set, or naming values that were never dealt or
        coefficients outside the field, are rejected.
        """
        get_profiler().count("vss", "verify_and_combine")
        field = self.scheme.field
        quorum = self.scheme.t + 1
        n = self.scheme.n
        groups: dict[Terms, list[tuple[int, int]]] = {}
        for sender, payload in payloads.items():
            if (
                type(sender) is not int
                or not 0 <= sender < n
                or type(payload) is not tuple
                or len(payload) != 3
                or type(payload[0]) is not int
                or payload[0] != sender
                or type(payload[1]) is not tuple
                or type(payload[2]) is not int
            ):
                continue  # malformed or mis-attributed payload: rejected
            try:
                groups.setdefault(payload[1], []).append((sender, payload[2]))
            except TypeError:
                continue  # unhashable terms: rejected

        evals = self._evals
        dealt, order = len(evals), field.order
        add, mul = field.add, field.mul
        # Largest claimed group first; within a group, verify members
        # lazily — with >= t+1 honest contributors the first quorum of
        # verifications already succeeds.
        for terms, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
            if len(members) < quorum:
                break
            if not all(
                type(term) is tuple
                and len(term) == 2
                and type(term[0]) is int
                and 0 <= term[0] < dealt
                and type(term[1]) is int
                and 0 <= term[1] < order
                for term in terms
            ):
                continue  # never-dealt values or non-field coefficients
            pts: list[tuple[int, int]] = []
            for sender, value in members:
                x_index = sender + 1
                expected = 0
                for serial, coeff in terms:
                    expected = add(expected, mul(coeff, evals.item(serial, x_index)))
                if expected != value:
                    continue  # forged share value: rejected (w.h.p. in reality)
                pts.append((x_index, value))
                if len(pts) == quorum:
                    break
            if len(pts) < quorum:
                continue
            xs = tuple(p[0] for p in pts)
            coeffs = self._lagrange_at_zero(xs)
            acc = 0
            for (_, value), c in zip(pts, coeffs):
                acc = add(acc, mul(c, value))
            return FieldElement(field, acc)
        raise ReconstructionError(
            f"no terms-group reached {quorum} verified payloads"
        )


class IdealVSS(VSSScheme):
    """Ideal linear VSS with a pluggable round/broadcast cost profile.

    ``backend`` picks the batch-kernel policy of new sessions (see
    :meth:`IdealVSSSession.configure_backend`); per-session overrides
    remain possible via that method.
    """

    def __init__(
        self,
        field,
        n: int,
        t: int,
        cost: VSSCost | None = None,
        backend: str = "auto",
    ):
        if cost is None:
            cost = VSSCost(share_rounds=1, share_broadcast_rounds=0)
        if backend not in VECTOR_BACKEND_MODES:
            raise ValueError(
                f"unknown backend {backend!r}, expected one of "
                f"{VECTOR_BACKEND_MODES}"
            )
        super().__init__(field, n, t, cost)
        self.backend = backend

    def new_session(self, rng: random.Random) -> IdealVSSSession:
        return IdealVSSSession(self)
