"""Dart vectors and permutations — the "throwing darts" substrate.

A sender's dart vector ``v`` lives in ``(F x F)^l``: each coordinate is
a *pair* (message component, tag component), and exactly ``d``
coordinates carry the sender's tagged message ``(x, a)``.  Vectors are
stored sparsely (only non-zero coordinates), since ``d << l``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from repro.fields import Field, FieldElement


class Permutation:
    """A permutation of ``[l] = {0, ..., l-1}``.

    ``mapping[k]`` is the image of ``k``; the paper's convention for
    permuting a vector is ``w[k] = v[pi(k)]`` (see Figure 1), realized
    by :meth:`apply`.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        m = list(mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError("not a permutation of [0, l)")
        self.mapping = m

    @classmethod
    def identity(cls, length: int) -> "Permutation":
        return cls(list(range(length)))

    @classmethod
    def random(cls, length: int, rng: random.Random) -> "Permutation":
        m = list(range(length))
        rng.shuffle(m)
        return cls(m)

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, k: int) -> int:
        return self.mapping[k]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for k, image in enumerate(self.mapping):
            inv[image] = k
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """The permutation ``self o other``: ``k -> self(other(k))``."""
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return Permutation([self.mapping[other.mapping[k]] for k in range(len(self))])

    def apply(self, vector: "SparseVector") -> "SparseVector":
        """The vector ``w`` with ``w[k] = v[self(k)]``."""
        inv = self.inverse()
        return SparseVector(
            vector.field,
            len(self),
            {inv(k): pair for k, pair in vector.entries.items()},
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"Permutation({self.mapping!r})"


@dataclass
class SparseVector:
    """A vector in ``(F x F)^l`` stored by its non-zero coordinates.

    ``entries[k] = (x_raw, a_raw)`` holds raw field encodings of the
    message and tag halves of coordinate ``k``; absent coordinates are
    ``(0, 0)``.
    """

    field: Field
    length: int
    entries: dict[int, tuple[int, int]] = dc_field(default_factory=dict)

    def __post_init__(self):
        for k, pair in list(self.entries.items()):
            if not 0 <= k < self.length:
                # The failing index is a secret dart position: name the
                # bound, not the value (exception text reaches logs).
                raise ValueError(f"entry index out of range [0, {self.length})")
            if pair == (0, 0):
                del self.entries[k]

    # -- queries ----------------------------------------------------------
    def nonzero_indices(self) -> list[int]:
        return sorted(self.entries)

    def pair_at(self, k: int) -> tuple[int, int]:
        return self.entries.get(k, (0, 0))

    def is_proper(self, d: int) -> bool:
        """The paper's properness: d-sparse with all non-zero entries equal."""
        if len(self.entries) != d:
            return False
        values = set(self.entries.values())
        return len(values) == 1

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "SparseVector") -> "SparseVector":
        if other.length != self.length or other.field != self.field:
            raise ValueError("vector shape/field mismatch")
        f = self.field
        out = dict(self.entries)
        for k, (x, a) in other.entries.items():
            ox, oa = out.get(k, (0, 0))
            pair = (f.add(ox, x), f.add(oa, a))
            if pair == (0, 0):
                out.pop(k, None)
            else:
                out[k] = pair
        return SparseVector(f, self.length, out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        # Characteristic-2 fields make this the same as addition, but we
        # stay generic via field.sub.
        if other.length != self.length or other.field != self.field:
            raise ValueError("vector shape/field mismatch")
        f = self.field
        out = dict(self.entries)
        for k, (x, a) in other.entries.items():
            ox, oa = out.get(k, (0, 0))
            pair = (f.sub(ox, x), f.sub(oa, a))
            if pair == (0, 0):
                out.pop(k, None)
            else:
                out[k] = pair
        return SparseVector(f, self.length, out)

    def is_zero(self) -> bool:
        return not self.entries

    # -- (de)serialization for VSS sharing ------------------------------------
    def component(self, which: int) -> list[int]:
        """Dense raw encodings of one half: 0 = message (x), 1 = tag (a)."""
        out = [0] * self.length
        for k, pair in self.entries.items():
            out[k] = pair[which]
        return out

    @classmethod
    def from_components(
        cls, field: Field, xs: Sequence[int], tags: Sequence[int]
    ) -> "SparseVector":
        if len(xs) != len(tags):
            raise ValueError("component length mismatch")
        entries = {
            k: (x, a)
            for k, (x, a) in enumerate(zip(xs, tags))
            if (x, a) != (0, 0)
        }
        return cls(field, len(xs), entries)


def make_dart_vector(
    field: Field,
    ell: int,
    d: int,
    message: FieldElement,
    tag: FieldElement,
    rng: random.Random,
) -> SparseVector:
    """An honest sender's dart vector: d random coordinates set to (x, a)."""
    if not 0 < d <= ell:
        raise ValueError(f"require 0 < d <= ell, got d={d}, ell={ell}")
    indices = rng.sample(range(ell), d)
    pair = (message.value, tag.value)
    if pair == (0, 0):
        raise ValueError("the tagged message must be non-zero")
    return SparseVector(field, ell, {k: pair for k in indices})


def fresh_tag(field: Field, rng: random.Random) -> FieldElement:
    """A random non-zero kappa-bit tag (Figure 1, first bullet)."""
    return field.random_nonzero(rng)
