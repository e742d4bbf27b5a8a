"""Unit tests for receiver-side helpers and misc core utilities."""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    SparseVector,
    extract_output,
    honest_input_multiset,
    non_malleability_shape_holds,
    reliability_holds,
    scaled_parameters,
    vector_from_opened,
)
from repro.fields import gf2k


@pytest.fixture(scope="module")
def params():
    return scaled_parameters(n=4, d=6, num_checks=3, kappa=16)


class TestExtraction:
    def test_empty_vector(self, params):
        vec = SparseVector(params.field, params.ell, {})
        assert extract_output(params, vec) == Counter()

    def test_exactly_threshold(self, params):
        f = params.field
        k = params.threshold_count
        vec = SparseVector(f, params.ell, {i: (9, 3) for i in range(k)})
        assert extract_output(params, vec) == Counter({9: 1})

    def test_one_below_threshold(self, params):
        f = params.field
        k = params.threshold_count - 1
        vec = SparseVector(f, params.ell, {i: (9, 3) for i in range(k)})
        assert extract_output(params, vec) == Counter()

    def test_distinct_tags_count_separately(self, params):
        """Same message, different tags: two entries in Y."""
        f = params.field
        k = params.threshold_count
        entries = {}
        for i in range(k):
            entries[i] = (9, 1)
        for i in range(k, 2 * k):
            entries[i] = (9, 2)
        vec = SparseVector(f, params.ell, entries)
        assert extract_output(params, vec) == Counter({9: 2})

    def test_vector_from_opened(self, params):
        f = params.field
        xs = np.zeros(params.ell, dtype=np.uint64)
        tags = np.zeros(params.ell, dtype=np.uint64)
        xs[3], tags[3] = 7, 8
        vec = vector_from_opened(f, xs, tags)
        assert vec.pair_at(3) == (7, 8)
        assert len(vec.entries) == 1


class TestPropertyPredicates:
    def test_reliability_holds(self):
        x = Counter({1: 2, 2: 1})
        assert reliability_holds(x, Counter({1: 2, 2: 1, 3: 1}))
        assert not reliability_holds(x, Counter({1: 1, 2: 1}))
        assert reliability_holds(Counter(), Counter())

    def test_non_malleability_shape(self):
        x = Counter({1: 1})
        assert non_malleability_shape_holds(4, x, Counter({1: 1, 2: 1}))
        assert not non_malleability_shape_holds(1, x, Counter({1: 1, 2: 1}))
        assert not non_malleability_shape_holds(4, x, Counter({2: 1}))

    def test_honest_input_multiset(self):
        f = gf2k(16)
        assert honest_input_multiset([f(5), f(5), f(9)]) == Counter(
            {5: 2, 9: 1}
        )


class TestProgramCombinators:
    def test_map_result(self):
        from repro.network import map_result, run_protocol, silent_rounds

        def prog():
            yield from silent_rounds(1)
            return 21

        result = run_protocol({0: map_result(prog(), lambda v: v * 2)})
        assert result.outputs[0] == 42

    def test_combine_views_validation(self):
        import random

        from repro.vss import IdealVSS, combine_views

        scheme = IdealVSS(gf2k(16), n=4, t=1)
        session = scheme.new_session(random.Random(0))
        z = session.zero_view(0)
        with pytest.raises(ValueError):
            combine_views([])
        with pytest.raises(ValueError):
            combine_views([z, z], [scheme.field(1)])  # length mismatch

    def test_open_program_empty_views_consumes_round(self):
        import random

        from repro.network import run_protocol
        from repro.vss import IdealVSS

        scheme = IdealVSS(gf2k(16), n=3, t=1)
        session = scheme.new_session(random.Random(0))

        def party(pid):
            values = yield from session.open_program(pid, [])
            return values

        result = run_protocol({pid: party(pid) for pid in range(3)})
        assert result.metrics.rounds == 1
        assert all(v.tolist() == [] for v in result.outputs.values())
