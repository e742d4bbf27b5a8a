"""Hostile openings against the cut-and-choose array decoders.

The step-3 openings are chosen by the prover, so ``validate_*_opening``
and ``stage2_passes`` parse peer-controlled values.  Each is fed
arbitrary encoding arrays — ``uint64`` (the dtype of fields up to
2^64, values up to and beyond 2^63) and ``object`` (larger fields,
values beyond 2^64) — with duplicates, out-of-range images, wrong
lengths and empty slices.  Every verdict must equal the per-value
oracle below, which is the list implementation these decoders
replaced, and no input may raise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    stage2_passes,
    validate_index_list_opening,
    validate_permutation_opening,
)

# -- the oracle: the per-value list implementations ------------------------


def oracle_permutation(values: list[int]) -> list[int] | None:
    m = [int(v) for v in values]
    return m if sorted(m) == list(range(len(m))) else None


def oracle_index_list(values: list[int], ell: int, d: int) -> list[int] | None:
    indices = [int(v) for v in values]
    if len(indices) != d or len(set(indices)) != d:
        return None
    if any(not 0 <= k < ell for k in indices):
        return None
    return indices


def oracle_stage2(values: list[int]) -> bool:
    return all(not v for v in values)


# -- hostile encoding arrays --------------------------------------------------

#: Values a decoder could mishandle: the top of uint64 (-1 and
#: INT64_MIN once wrapped to int64), and object values beyond 2^64 that
#: wrap to small indices modulo 2^64.
U64_EDGES = (2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
BIG_EDGES = (2**64, 2**64 + 1, 2**64 + 3, 2**80 - 1, 2**79)


@st.composite
def hostile(draw, base, bound):
    """``base`` (a list of ints) mutated, as a uint64 or object array.

    ``bound`` is the decoder's index bound (ℓ, or the permutation
    length), so the images at and just above it are drawn too.
    """
    values = list(base)
    dtype = draw(st.sampled_from(("uint64", "object")))
    edges = U64_EDGES if dtype == "uint64" else U64_EDGES + BIG_EDGES
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("duplicate", "bound", "edge", "any", "drop", "append")
        ))
        if kind == "append" or not values:
            values.append(draw(st.integers(0, bound + 2)))
        elif kind == "drop":
            del values[draw(st.integers(0, len(values) - 1))]
        else:
            k = draw(st.integers(0, len(values) - 1))
            if kind == "duplicate":
                values[k] = values[draw(st.integers(0, len(values) - 1))]
            elif kind == "bound":
                values[k] = bound + draw(st.integers(0, 2))
            elif kind == "edge":
                values[k] = draw(st.sampled_from(edges))
            else:
                values[k] = draw(st.integers(0, 2**64 - 1))
    if dtype == "uint64":
        return np.array(values, dtype=np.uint64)
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def permutation_openings(draw):
    length = draw(st.integers(0, 12))
    images = draw(st.permutations(range(length)))
    return draw(hostile(images, length))


@st.composite
def index_list_openings(draw):
    ell = draw(st.integers(1, 16))
    d = draw(st.integers(1, ell))
    listed = draw(st.lists(
        st.integers(0, ell - 1), min_size=d, max_size=d, unique=True
    ))
    return draw(hostile(listed, ell)), ell, d


@st.composite
def stage2_openings(draw):
    size = draw(st.integers(0, 12))
    return draw(hostile([0] * size, 1))


def _u64(values):
    return np.array(values, dtype=np.uint64)


def _object(values):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


SETTINGS = settings(max_examples=300, deadline=None)


@SETTINGS
@given(values=permutation_openings())
@example(values=_u64([0, 0]))
@example(values=_u64([1, 2**64 - 1]))
@example(values=_object([2**64 + 1, 0]))
@example(values=_u64([]))
def test_permutation_decoder_matches_oracle(values):
    want = oracle_permutation(values.tolist())
    got = validate_permutation_opening(values)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.tolist() == want


@SETTINGS
@given(opening=index_list_openings())
@example(opening=(_u64([1, 1, 2, 3]), 10, 4))
@example(opening=(_u64([3, 2**64 - 7]), 8, 2))
@example(opening=(_object([2**64 + 2, 2]), 8, 2))
@example(opening=(_u64([]), 8, 1))
def test_index_list_decoder_matches_oracle(opening):
    values, ell, d = opening
    want = oracle_index_list(values.tolist(), ell, d)
    got = validate_index_list_opening(values, ell, d)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.tolist() == want


@SETTINGS
@given(values=stage2_openings())
@example(values=_u64([0, 2**63]))
@example(values=_object([0, 2**64]))
@example(values=_u64([]))
def test_stage2_verdict_matches_oracle(values):
    assert stage2_passes(values) == oracle_stage2(values.tolist())
