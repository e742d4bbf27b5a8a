"""Regression tests for the receiver's step-4 edge cases.

Two historic bugs in ``core/anonchan.py``'s receiver branch:

- the ``x`` half of each coordinate was gated on the *tag* index
  (``opened[2k] if 2k + 1 < len(opened)``), so an odd-length opened
  batch silently zeroed a trailing coordinate instead of failing;
- the step-4 inbox accepted a payload list from *any* sender id with
  only an isinstance/length check — and with no passed provers
  (``expected_len == 0``) any empty list from anyone — instead of
  filtering to the known party set and skipping reconstruction
  entirely.
"""

import numpy as np
import pytest

import repro.core.anonchan as anonchan_mod
from repro.core import run_anonchan, scaled_parameters
from repro.core.receiver import collect_step4_columns, pair_opened_coordinates
from repro.fields import gf2k
from repro.vss import IdealVSS
from repro.vss.ideal import IdealVSSSession

FIELD = gf2k(8)


def _opened(values):
    """A step-4 batch as the VSS layer returns it: encodings and the mask
    of reconstructed positions (``None`` marks a failed position)."""
    mask = np.array([v is not None for v in values], dtype=bool)
    raw = np.array([0 if v is None else v for v in values], dtype=np.uint64)
    return raw, mask


class TestPairOpenedCoordinates:
    def test_even_batch_pairs_and_guards_each_index(self):
        vals = _opened([3, 5, None, 7, 9, None])
        xs, tags, failed = pair_opened_coordinates(*vals, 3)
        assert xs.tolist() == [3, 0, 0]
        assert tags.tolist() == [5, 0, 0]
        assert failed == 2

    def test_odd_batch_raises_instead_of_truncating(self):
        """Pre-fix behavior zeroed the trailing coordinate silently."""
        vals = _opened([3, 5, 7])  # x_1 present, tag_1 missing
        with pytest.raises(ValueError, match="malformed step-4 batch"):
            pair_opened_coordinates(*vals, 2)

    def test_short_and_long_batches_raise(self):
        with pytest.raises(ValueError):
            pair_opened_coordinates(*_opened([1, 2]), 2)
        with pytest.raises(ValueError):
            pair_opened_coordinates(*_opened([1] * 6), 2)


class TestCollectStep4Columns:
    def test_filters_to_known_party_set(self):
        column = [("p", (), FIELD(1))] * 4
        private = {
            1: list(column),       # known party: accepted
            7: list(column),       # outside [0, n): rejected
            -1: list(column),      # negative id: rejected
            "1": list(column),     # non-int id: rejected
            2: list(column)[:3],   # wrong length: rejected
            3: tuple(column),      # not a list: rejected
        }
        collected = collect_step4_columns(private, 4, receiver=0, n=4)
        assert set(collected) == {1}

    def test_receiver_own_slot_is_not_overwritable(self):
        """A forged column claiming the receiver's own id is dropped."""
        column = [("p", (), FIELD(1))] * 2
        collected = collect_step4_columns({0: column, 1: column}, 2, 0, 4)
        assert set(collected) == {1}

    def test_empty_expected_rejects_nothing_matches_nothing(self):
        # Even when the expected length is 0 (no passed provers), an
        # unsolicited empty list from an unknown id must not land.
        assert collect_step4_columns({9: []}, 0, 0, 4) == {}


class TestNoPassedProvers:
    def test_reconstruction_skipped_when_cut_and_choose_rejects_all(
        self, monkeypatch
    ):
        """With no passed provers the receiver must not reconstruct.

        Pre-fix, the receiver still called
        ``reconstruct_private_batch`` with ``count=0`` over arbitrary
        collected empty lists; now the whole step is skipped and the
        output is the empty multiset.
        """
        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        msgs = {i: params.field(100 + i) for i in range(params.n)}

        monkeypatch.setattr(
            anonchan_mod, "stage2_passes", lambda values: False
        )
        calls: list[int] = []
        real = IdealVSSSession.reconstruct_private_batch

        def spying(self, columns, count, verifier, views=None):
            calls.append(count)
            return real(self, columns, count, verifier, views=views)

        monkeypatch.setattr(
            IdealVSSSession, "reconstruct_private_batch", spying
        )
        res = run_anonchan(params, vss, msgs, seed=21)
        out = res.outputs[0]
        assert out.passed == frozenset()
        assert not out.output  # empty multiset: nothing was delivered
        assert out.diagnostics["failed_coordinates"] == 0
        assert calls == []  # reconstruction skipped entirely

    def test_transport_parity_when_no_passed_provers(self, monkeypatch):
        """Both transports agree on the skip-reconstruction path."""
        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        msgs = {i: params.field(100 + i) for i in range(params.n)}
        monkeypatch.setattr(
            anonchan_mod, "stage2_passes", lambda values: False
        )
        res_lock = run_anonchan(params, vss, msgs, seed=22, transport="lockstep")
        res_async = run_anonchan(params, vss, msgs, seed=22, transport="async")
        assert res_lock.outputs[0].output == res_async.outputs[0].output
        assert res_lock.metrics == res_async.metrics
