"""Flat layout of each dealer's VSS batch in protocol AnonChan.

Step 1 of the protocol has each prover VSS-share, in parallel: every
coordinate of ``v`` and of the ``w_j``'s (two field elements each — the
message half and the tag half), each permutation ``pi_j``, each
``w_j``'s list of non-zero indices, and one random challenge
contribution ``r``.  Batching them as *one* flat vector of secrets per
dealer keeps the whole of step 1 to a single parallel VSS-Share phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.fields import Field, FieldElement
from repro.vss import encoding_dtype, integers_below

from .darts import Permutation, SparseVector, fresh_tag, make_dart_vector
from .params import AnonChanParams


@dataclass
class ProverMaterial:
    """Everything a prover commits to in step 1.

    ``ws[j]`` is ``v`` permuted by ``perms[j]`` for an honest prover;
    cheating strategies may populate these fields differently (that is
    exactly what the cut-and-choose proof is designed to catch).
    """

    vector: SparseVector
    perms: list[Permutation]
    ws: list[SparseVector]
    index_lists: list[list[int]]
    challenge_share: FieldElement

    def validate_shape(self, params: AnonChanParams) -> None:
        """Check the material has the protocol-mandated shape."""
        if self.vector.length != params.ell:
            raise ValueError("vector length mismatch")
        for seq in (self.perms, self.ws, self.index_lists):
            if len(seq) != params.num_checks:
                raise ValueError("need one w/perm/index-list per check")
        for w in self.ws:
            if w.length != params.ell:
                raise ValueError("w length mismatch")
        for perm in self.perms:
            if len(perm) != params.ell:
                raise ValueError("permutation length mismatch")
        for idx in self.index_lists:
            if len(idx) != params.d:
                raise ValueError("index lists must have length d")


def honest_material(
    params: AnonChanParams, message: FieldElement, rng: random.Random
) -> ProverMaterial:
    """Figure 1, step 1, honest prover: random tag, darts, permuted copies."""
    field = params.field
    tag = fresh_tag(field, rng)
    vector = make_dart_vector(field, params.ell, params.d, message, tag, rng)
    perms = [
        Permutation.random(params.ell, rng) for _ in range(params.num_checks)
    ]
    ws = [p.apply(vector) for p in perms]
    index_lists = [w.nonzero_indices() for w in ws]
    return ProverMaterial(
        vector=vector,
        perms=perms,
        ws=ws,
        index_lists=index_lists,
        challenge_share=field.random(rng),
    )


class DealerLayout:
    """Offsets of every shared value within a dealer's flat batch."""

    def __init__(self, params: AnonChanParams):
        self.params = params
        self.ell = params.ell
        self.d = params.d
        self.num_checks = params.num_checks
        self._per_check = 3 * self.ell + self.d
        self.total = 2 * self.ell + params.num_checks * self._per_check + 1

    # -- offset accessors ---------------------------------------------------
    def vec_x(self, k: int) -> int:
        """Message half of coordinate k of v."""
        return k

    def vec_a(self, k: int) -> int:
        """Tag half of coordinate k of v."""
        return self.ell + k

    def _check_base(self, j: int) -> int:
        return 2 * self.ell + j * self._per_check

    def w_x(self, j: int, k: int) -> int:
        """Message half of coordinate k of w_j."""
        return self._check_base(j) + k

    def w_a(self, j: int, k: int) -> int:
        """Tag half of coordinate k of w_j."""
        return self._check_base(j) + self.ell + k

    def perm(self, j: int, k: int) -> int:
        """Image pi_j(k), encoded as a field element."""
        return self._check_base(j) + 2 * self.ell + k

    def idx(self, j: int, m: int) -> int:
        """m-th entry of w_j's non-zero index list (ascending)."""
        return self._check_base(j) + 3 * self.ell + m

    def challenge(self) -> int:
        """The dealer's random challenge contribution r^(i)."""
        return self.total - 1

    # -- serialization ------------------------------------------------------
    def build_secrets(self, material: ProverMaterial) -> np.ndarray:
        """Flatten prover material into the batch of secrets to share.

        One 1-D array of raw encodings, a slice per layout block.
        """
        material.validate_shape(self.params)
        ell, d = self.ell, self.d
        out: list = [0] * self.total
        out[self.vec_x(0) : self.vec_x(0) + ell] = material.vector.component(0)
        out[self.vec_a(0) : self.vec_a(0) + ell] = material.vector.component(1)
        for j in range(self.num_checks):
            w = material.ws[j]
            out[self.w_x(j, 0) : self.w_x(j, 0) + ell] = w.component(0)
            out[self.w_a(j, 0) : self.w_a(j, 0) + ell] = w.component(1)
            out[self.perm(j, 0) : self.perm(j, 0) + ell] = material.perms[j].mapping
            out[self.idx(j, 0) : self.idx(j, 0) + d] = material.index_lists[j]
        out[self.challenge()] = material.challenge_share.value
        return encodings(self.params.field, out)


def encodings(field: Field, values: list) -> np.ndarray:
    """``values`` as a raw-encoding array of ``field``.

    Entries outside ``[0, order)`` — only a hostile prover's material
    has them — go through :meth:`Field.encode`, as
    :meth:`Field.element` would map them.
    """
    dtype = encoding_dtype(field)
    raw = np.array(values)
    if integers_below(raw, field.order):
        return raw.astype(dtype)
    return np.array([field.encode(v) for v in values], dtype=dtype)


def step4_offsets(layout: DealerLayout, images: np.ndarray) -> np.ndarray:
    """Offsets of one prover's permuted vector for the step-4 sum.

    ``images`` are the receiver permutation's images ``g(k)``, decoded
    by :func:`~repro.core.cutandchoose.validate_permutation_opening`.
    Interleaved ``(vec_x(g(k)), vec_a(g(k)))`` per coordinate ``k`` —
    the per-prover offset column of the receiver sum
    ``v = sum over PASS of g_i(v^(i))``, consumed by the VSS layer's
    ``sum_offsets_batch``.
    """
    src = np.asarray(images, dtype=np.int64)
    out = np.empty(2 * src.size, dtype=np.int64)
    out[0::2] = src  # vec_x(g(k))
    out[1::2] = layout.ell + src  # vec_a(g(k))
    return out


class ReceiverLayout:
    """Offsets of the receiver's extra batch: its n permutations g_i."""

    def __init__(self, params: AnonChanParams):
        self.params = params
        self.ell = params.ell
        self.total = params.n * params.ell

    def g(self, i: int, k: int) -> int:
        """Image g_i(k), encoded as a field element."""
        return i * self.ell + k

    def build_secrets(self, perms: list[Permutation]) -> np.ndarray:
        """The n permutations' images, one after the other, as encodings."""
        if len(perms) != self.params.n:
            raise ValueError("need one permutation per party")
        out: list = []
        for p in perms:
            if len(p) != self.ell:
                raise ValueError("permutation length mismatch")
            out.extend(p.mapping)
        return encodings(self.params.field, out)
