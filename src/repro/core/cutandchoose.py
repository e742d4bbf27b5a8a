"""Cut-and-choose sparseness proof (step 3 of Figure 1).

For each prover ``P_i`` and each check ``j``, challenge bit ``b_j``
selects one of two openings:

- ``b_j = 0``: open the permutation ``pi_j``; then reconstruct
  ``u = pi_j(v) - w_j`` coordinate-wise and verify it is the zero
  vector.  (``u``'s coordinates are *linear combinations* of committed
  values with public coefficients once ``pi_j`` is public, so no new
  sharing is needed — this is where VSS linearity earns its keep.)
- ``b_j = 1``: open ``w_j``'s claimed non-zero index list; then
  reconstruct the alleged zero coordinates of ``w_j`` (must all be
  zero) and the consecutive differences of its alleged non-zero
  entries (must all be zero, proving the entries are equal).

This module computes which batch offsets/combinations to open and
validates the opened values; the protocol driver in
:mod:`repro.core.anonchan` wires it to actual VSS reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fields import FieldElement
from repro.vss import ShareView, integers_below

from .layout import DealerLayout


@dataclass(frozen=True)
class Stage2Plan:
    """Derived openings for one (prover, check) after stage 1 succeeded.

    ``views`` are the linear-combination share views to reconstruct;
    the check passes iff every reconstructed value is zero.
    """

    views: list[ShareView]


def stage1_slice(layout: DealerLayout, j: int, bit: int) -> tuple[int, int]:
    """Contiguous batch range ``[lo, hi)`` opened first for check ``j``.

    Both stage-1 openings (the permutation for bit 0, the index list
    for bit 1) occupy contiguous offsets in the dealer layout, so the
    protocol can slice the batch instead of gathering per-offset.
    """
    if bit == 0:
        lo = layout.perm(j, 0)
        return lo, lo + layout.ell
    lo = layout.idx(j, 0)
    return lo, lo + layout.d


def stage1_offsets(layout: DealerLayout, j: int, bit: int) -> list[int]:
    """Batch offsets opened first for check ``j`` under challenge ``bit``."""
    return list(range(*stage1_slice(layout, j, bit)))


def _indices_below(values: np.ndarray, bound: int) -> np.ndarray | None:
    """``values`` as int64 indices if each is an integer in ``[0, bound)``.

    Opened encodings arrive as ``uint64`` or, beyond 64-bit fields,
    ``object`` arrays; both are range-checked before the cast, so a
    large encoding can never wrap into a valid index.
    """
    if values.ndim == 1 and integers_below(values, bound):
        return values.astype(np.int64)
    return None


def validate_permutation_opening(values: np.ndarray) -> np.ndarray | None:
    """Decode an opened permutation; ``None`` disqualifies the prover.

    Valid = the ``m`` opened images are exactly ``0 .. m-1``.  Returns
    the images as an int64 index array.
    """
    values = np.asarray(values)
    images = _indices_below(values, values.size)
    if images is None:
        return None
    seen = np.zeros(len(images), dtype=bool)
    seen[images] = True
    return images if seen.all() else None


def validate_index_list_opening(
    values: np.ndarray, ell: int, d: int
) -> np.ndarray | None:
    """Decode an opened index list; ``None`` disqualifies the prover.

    Valid = exactly ``d`` distinct indices within ``[0, ell)``.  Returns
    them in opened order as an int64 index array.
    """
    values = np.asarray(values)
    if values.size != d:
        return None
    indices = _indices_below(values, ell)
    if indices is None:
        return None
    ordered = np.sort(indices)
    if (ordered[1:] == ordered[:-1]).any():
        return None
    return indices


def stage2_plan_bit0(
    layout: DealerLayout,
    j: int,
    images: Sequence[int],
    batch_views: Sequence[ShareView],
) -> Stage2Plan:
    """Views of ``u = pi_j(v) - w_j`` (both halves of every coordinate).

    ``images`` are pi_j's decoded images.  ``u[k] = v[pi_j(k)] - w_j[k]``;
    the difference is computed via the generic ``scale(-1)`` so the code
    stays field-agnostic, but in a characteristic-2 field ``-1 == 1``
    and the scaling is skipped — these plans cover ``2 l`` view
    combinations per (prover, check), so the no-op copies were
    measurable.
    """
    negate = _negate_fn(layout)
    views = []
    for k, src in enumerate(np.asarray(images).tolist()):
        views.append(
            batch_views[layout.vec_x(src)]
            + negate(batch_views[layout.w_x(j, k)])
        )
        views.append(
            batch_views[layout.vec_a(src)]
            + negate(batch_views[layout.w_a(j, k)])
        )
    return Stage2Plan(views=views)


def _negate_fn(layout: DealerLayout):
    """View negation for the layout's field (identity in char 2)."""
    field = layout.params.field
    minus_one = field(field.neg(field.encode(1)))
    if minus_one.value == field.encode(1):
        return lambda view: view
    return lambda view: view.scale(minus_one)


def stage2_plan_bit1(
    layout: DealerLayout,
    j: int,
    index_list: Sequence[int],
    batch_views: Sequence[ShareView],
) -> Stage2Plan:
    """Views of w_j's alleged zero coordinates and entry differences.

    Order: for each non-listed k ascending, (x half, tag half); then for
    consecutive listed pairs, the differences of both halves.
    """
    negate = _negate_fn(layout)
    index_list = np.asarray(index_list).tolist()
    listed = set(index_list)
    views: list[ShareView] = []
    for k in range(layout.ell):
        if k in listed:
            continue
        views.append(batch_views[layout.w_x(j, k)])
        views.append(batch_views[layout.w_a(j, k)])
    for prev, cur in zip(index_list, index_list[1:]):
        views.append(
            batch_views[layout.w_x(j, cur)]
            + negate(batch_views[layout.w_x(j, prev)])
        )
        views.append(
            batch_views[layout.w_a(j, cur)]
            + negate(batch_views[layout.w_a(j, prev)])
        )
    return Stage2Plan(views=views)


def stage2_offsets_bit0(
    layout: DealerLayout, j: int, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Offset arrays for the bit-0 differences ``u = pi_j(v) - w_j``.

    ``images`` are pi_j's decoded images.  Returns parallel
    ``(minuend, subtrahend)`` offset arrays of length ``2 l``,
    interleaved exactly like :func:`stage2_plan_bit0`'s views:
    ``(x half, tag half)`` per coordinate.  Feeding them to the VSS
    layer's ``diff_offsets_batch`` yields view-for-view the same result
    as the scalar plan (the differential harness asserts this).
    """
    ell = layout.ell
    src = np.asarray(images, dtype=np.int64)
    ks = np.arange(ell, dtype=np.int64)
    offs_a = np.empty(2 * ell, dtype=np.int64)
    offs_b = np.empty(2 * ell, dtype=np.int64)
    offs_a[0::2] = src  # vec_x(pi_j(k))
    offs_a[1::2] = ell + src  # vec_a(pi_j(k))
    w_x0 = layout.w_x(j, 0)
    offs_b[0::2] = w_x0 + ks  # w_x(j, k)
    offs_b[1::2] = w_x0 + ell + ks  # w_a(j, k)
    return offs_a, offs_b


def stage2_offsets_bit1(
    layout: DealerLayout, j: int, index_list: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offset arrays for the bit-1 openings of ``w_j``.

    Returns ``(passthrough, minuend, subtrahend)``: ``passthrough``
    holds the ``2 (l - d)`` offsets of the alleged-zero coordinates
    (opened as-is), the other two the ``2 (d - 1)`` difference pairs of
    consecutive listed entries — in :func:`stage2_plan_bit1`'s order.
    """
    ell = layout.ell
    w_x0 = layout.w_x(j, 0)
    idx = np.asarray(index_list, dtype=np.int64)
    listed = np.zeros(ell, dtype=bool)
    listed[idx] = True
    ks = np.flatnonzero(~listed)
    passthrough = np.empty(2 * ks.size, dtype=np.int64)
    passthrough[0::2] = w_x0 + ks
    passthrough[1::2] = w_x0 + ell + ks
    cur, prev = idx[1:], idx[:-1]
    offs_a = np.empty(2 * cur.size, dtype=np.int64)
    offs_b = np.empty(2 * cur.size, dtype=np.int64)
    offs_a[0::2] = w_x0 + cur
    offs_a[1::2] = w_x0 + ell + cur
    offs_b[0::2] = w_x0 + prev
    offs_b[1::2] = w_x0 + ell + prev
    return passthrough, offs_a, offs_b


def stage2_passes(values: np.ndarray) -> bool:
    """Both branches succeed iff every reconstructed value is zero."""
    return not np.asarray(values).any()


def challenge_bits(r: FieldElement, num_checks: int) -> list[int]:
    """Interpret the jointly reconstructed ``r`` as challenge bits.

    Figure 1, step 2: ``r`` is read as a bit string; we take the low
    ``num_checks`` bits of its GF(2^kappa) encoding.
    """
    value = r.value
    return [(value >> j) & 1 for j in range(num_checks)]
