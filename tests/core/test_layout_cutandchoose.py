"""Tests for the batch layout, honest material, and cut-and-choose logic."""

import random

import numpy as np
import pytest

from repro.core import (
    DealerLayout,
    Permutation,
    ReceiverLayout,
    challenge_bits,
    honest_material,
    scaled_parameters,
    stage1_offsets,
    validate_index_list_opening,
    validate_permutation_opening,
)
from repro.core.layout import encodings


@pytest.fixture
def params():
    return scaled_parameters(n=4, d=4, num_checks=3, kappa=16, margin=4)


@pytest.fixture
def layout(params):
    return DealerLayout(params)


class TestLayout:
    def test_offsets_cover_total_exactly_once(self, params, layout):
        seen = []
        for k in range(params.ell):
            seen.append(layout.vec_x(k))
            seen.append(layout.vec_a(k))
        for j in range(params.num_checks):
            for k in range(params.ell):
                seen.extend([layout.w_x(j, k), layout.w_a(j, k), layout.perm(j, k)])
            for m in range(params.d):
                seen.append(layout.idx(j, m))
        seen.append(layout.challenge())
        assert sorted(seen) == list(range(layout.total))
        assert layout.total == params.values_per_dealer

    def test_build_secrets_places_values(self, params, layout):
        rng = random.Random(0)
        f = params.field
        material = honest_material(params, f(77), rng)
        secrets = layout.build_secrets(material)
        assert secrets.ndim == 1 and secrets.dtype == np.uint64
        secrets = secrets.tolist()
        assert len(secrets) == layout.total
        # Vector halves.
        k0 = material.vector.nonzero_indices()[0]
        x, a = material.vector.pair_at(k0)
        assert secrets[layout.vec_x(k0)] == f(x)
        assert secrets[layout.vec_a(k0)] == f(a)
        # Permutation images.
        assert secrets[layout.perm(1, 5)] == f(material.perms[1](5))
        # Index lists.
        assert secrets[layout.idx(2, 0)] == f(material.index_lists[2][0])
        # Challenge share.
        assert secrets[layout.challenge()] == material.challenge_share

    def test_build_secrets_encodes_out_of_field_entries(self, params, layout):
        """A hostile prover's entries outside [0, order) are mapped by
        Field.encode, as Field.element maps them, never dealt raw."""
        f = params.field
        material = honest_material(params, f(77), random.Random(6))
        k0 = material.vector.nonzero_indices()[0]
        material.vector.entries[k0] = (2**20 + 5, -3)
        material.index_lists[1][0] = 2**70
        secrets = layout.build_secrets(material)
        assert secrets.dtype == np.uint64
        assert secrets[layout.vec_x(k0)] == f.encode(2**20 + 5)
        assert secrets[layout.vec_a(k0)] == f.encode(-3)
        assert secrets[layout.idx(1, 0)] == f.encode(2**70)
        assert int(secrets.max()) < f.order

    def test_receiver_layout(self, params):
        rlayout = ReceiverLayout(params)
        rng = random.Random(1)
        perms = [Permutation.random(params.ell, rng) for _ in range(params.n)]
        secrets = rlayout.build_secrets(perms)
        assert secrets.ndim == 1 and secrets.dtype == np.uint64
        secrets = secrets.tolist()
        assert len(secrets) == params.n * params.ell == rlayout.total
        assert secrets[rlayout.g(2, 3)] == params.field(perms[2](3))

    def test_receiver_layout_wrong_count(self, params):
        rlayout = ReceiverLayout(params)
        with pytest.raises(ValueError):
            rlayout.build_secrets([Permutation.identity(params.ell)])

    def test_material_shape_validation(self, params, layout):
        rng = random.Random(2)
        material = honest_material(params, params.field(1), rng)
        material.index_lists[0] = [0]  # wrong length
        with pytest.raises(ValueError):
            layout.build_secrets(material)


class TestHonestMaterial:
    def test_copies_are_consistent_permutations(self, params):
        rng = random.Random(3)
        m = honest_material(params, params.field(9), rng)
        for j in range(params.num_checks):
            assert m.perms[j].apply(m.vector).entries == m.ws[j].entries
            assert m.index_lists[j] == m.ws[j].nonzero_indices()

    def test_vector_is_proper(self, params):
        rng = random.Random(4)
        m = honest_material(params, params.field(9), rng)
        assert m.vector.is_proper(params.d)

    def test_distinct_tags_across_builds(self, params):
        rng = random.Random(5)
        tags = set()
        for _ in range(10):
            m = honest_material(params, params.field(9), rng)
            tags.add(next(iter(m.vector.entries.values()))[1])
        assert len(tags) == 10


class TestChallengeBits:
    def test_low_bits(self, params):
        f = params.field
        assert challenge_bits(f(0b101), 3) == [1, 0, 1]
        assert challenge_bits(f(0), 3) == [0, 0, 0]

    def test_bit_count(self, params):
        assert len(challenge_bits(params.field(12345), 7)) == 7


class TestStage1:
    def test_offsets_bit0_vs_bit1(self, params, layout):
        assert len(stage1_offsets(layout, 0, 0)) == params.ell
        assert len(stage1_offsets(layout, 0, 1)) == params.d
        assert stage1_offsets(layout, 1, 0)[0] == layout.perm(1, 0)
        assert stage1_offsets(layout, 1, 1)[0] == layout.idx(1, 0)

    def test_validate_permutation(self, params):
        f = params.field
        p = Permutation.random(6, random.Random(0))
        decoded = validate_permutation_opening(encodings(f, p.mapping))
        assert Permutation(decoded.tolist()) == p
        assert validate_permutation_opening(encodings(f, [0, 0])) is None

    def test_validate_index_list(self, params):
        f = params.field
        good = encodings(f, [3, 1, 5, 0])
        decoded = validate_index_list_opening(good, ell=10, d=4)
        assert decoded.tolist() == [3, 1, 5, 0]
        # duplicate
        assert validate_index_list_opening(encodings(f, [1, 1, 2, 3]), 10, 4) is None
        # out of range
        assert validate_index_list_opening(encodings(f, [1, 2, 3, 99]), 10, 4) is None
        # wrong length
        assert validate_index_list_opening(encodings(f, [1]), 10, 4) is None


class TestStage2EndToEnd:
    """Exercise the stage-2 plans against a real (ideal-VSS) sharing."""

    def _shared_views(self, params, material, seed=0):
        from repro.network import run_protocol
        from repro.vss import IdealVSS

        layout = DealerLayout(params)
        vss = IdealVSS(params.field, params.n, params.t)
        session = vss.new_session(random.Random(seed))
        secrets = layout.build_secrets(material)

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, secrets if pid == 0 else None, rng, count=layout.total
            )
            return batch

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(params.n)}
        )
        return layout, session, result.outputs

    def _open_all(self, session, batches, views_per_party):
        from repro.network import run_protocol

        def party(pid):
            return (yield from session.open_program(pid, views_per_party[pid]))

        result = run_protocol({pid: party(pid) for pid in batches})
        return result.outputs[1]

    def test_honest_material_passes_both_branches(self, params):
        from repro.core import stage2_passes, stage2_plan_bit0, stage2_plan_bit1

        rng = random.Random(7)
        material = honest_material(params, params.field(50), rng)
        layout, session, batches = self._shared_views(params, material)
        # bit 0 branch for check 0
        views = {
            pid: stage2_plan_bit0(
                layout, 0, material.perms[0].mapping, batches[pid].views
            ).views
            for pid in batches
        }
        values = self._open_all(session, batches, views)
        assert stage2_passes(values)
        # bit 1 branch for check 1
        views = {
            pid: stage2_plan_bit1(
                layout, 1, material.index_lists[1], batches[pid].views
            ).views
            for pid in batches
        }
        values = self._open_all(session, batches, views)
        assert stage2_passes(values)

    def test_improper_vector_fails_bit1(self, params):
        from repro.core import stage2_passes, stage2_plan_bit1
        from repro.core.adversaries import guessing_cheater_material

        rng = random.Random(8)
        f = params.field
        # Cheater prepared for all-zero challenge bits: bit-1 checks fail.
        material = guessing_cheater_material(
            params, [f(1), f(2)], rng, bit_guesses=[0] * params.num_checks
        )
        layout, session, batches = self._shared_views(params, material, seed=1)
        views = {
            pid: stage2_plan_bit1(
                layout, 0, material.index_lists[0], batches[pid].views
            ).views
            for pid in batches
        }
        values = self._open_all(session, batches, views)
        assert not stage2_passes(values)

    def test_cheater_prepared_branch_passes(self, params):
        from repro.core import stage2_passes, stage2_plan_bit0
        from repro.core.adversaries import guessing_cheater_material

        rng = random.Random(9)
        f = params.field
        material = guessing_cheater_material(
            params, [f(1), f(2)], rng, bit_guesses=[0] * params.num_checks
        )
        layout, session, batches = self._shared_views(params, material, seed=2)
        views = {
            pid: stage2_plan_bit0(
                layout, 0, material.perms[0].mapping, batches[pid].views
            ).views
            for pid in batches
        }
        values = self._open_all(session, batches, views)
        assert stage2_passes(values)
