"""Tests for analytic cohorts: handles, columns and the batch kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.heap.cohort import Cohort, CohortColumns
from repro.heap.heap import batch_collect, batch_live_bytes, collect_rows
from repro.heap.lifetime import Exponential, Immortal, Weibull
from repro.units import MB

from tests.oracles import ScalarCohort, collect_all


def space_of(*cohorts):
    """A fresh space holding *cohorts*, in order."""
    cols = CohortColumns()
    for c in cohorts:
        cols.append(c)
    return cols


def live_bytes(cols, now):
    """The live bytes of a one-cohort space at *now*."""
    return float(batch_live_bytes(cols, now)[0])


def collect(cols, now):
    """Collect a space, leaving its rows in place; returns bytes freed."""
    return collect_rows(cols, batch_live_bytes(cols, now))


class TestCohortBasics:
    def test_resident_starts_at_allocated(self):
        c = Cohort(0.0, 1.0, 100.0, Exponential(1.0))
        assert c.resident == 100.0

    def test_live_bytes_bounded_by_resident(self):
        c = Cohort(0.0, 1.0, 100.0, Exponential(1.0))
        cols = space_of(c)
        assert 0 <= live_bytes(cols, 5.0) <= c.resident

    def test_live_bytes_monotone_decreasing(self):
        cols = space_of(Cohort(0.0, 1.0, 100.0, Exponential(1.0)))
        assert live_bytes(cols, 10.0) <= live_bytes(cols, 2.0)

    def test_collect_frees_dead_and_ages(self):
        c = Cohort(0.0, 1.0, 100.0, Exponential(0.5))
        cols = space_of(c)
        freed = collect(cols, 5.0)
        assert freed > 0
        assert cols.age.tolist() == [1]
        assert c.resident == pytest.approx(100.0 - freed)

    def test_collect_conserves_bytes(self):
        c = Cohort(0.0, 1.0, 100.0, Exponential(1.0))
        cols = space_of(c)
        freed1 = collect(cols, 2.0)
        freed2 = collect(cols, 4.0)
        assert freed1 + freed2 + c.resident == pytest.approx(100.0)

    def test_tail_cutoff_rounds_small_residue_to_zero(self):
        c = Cohort(0.0, 0.0, 100.0, Exponential(0.01))
        collect(space_of(c), 100.0)  # survival ~ e^-10000
        assert c.resident == 0.0
        assert c.is_dead

    def test_unique_ids(self):
        a = Cohort(0, 0, 1, Immortal())
        b = Cohort(0, 0, 1, Immortal())
        assert a.cid != b.cid

    def test_mean_object_size(self):
        c = Cohort(0, 0, 100.0, Immortal(), n_objects=4)
        assert c.mean_object_size() == 25.0
        assert space_of(c).mean_object_size().tolist() == [25.0]


class TestPinnedCohorts:
    def test_pinned_fully_live_until_release(self):
        c = Cohort(0.0, 0.0, 50 * MB, pinned=True)
        cols = space_of(c)
        assert live_bytes(cols, 1e6) == 50 * MB
        collect(cols, 1e6)
        assert c.resident == 50 * MB
        assert cols.resident.tolist() == [50 * MB]

    def test_release_makes_garbage(self):
        c = Cohort(0.0, 0.0, 50 * MB, pinned=True)
        cols = space_of(c)
        freed = c.release()
        assert freed == 50 * MB
        assert live_bytes(cols, 1.0) == 0.0
        assert c.is_dead

    def test_release_idempotent(self):
        c = Cohort(0.0, 0.0, 10.0, pinned=True)
        c.release()
        assert c.release() == 0.0

    def test_space_reclaimed_only_at_collection(self):
        c = Cohort(0.0, 0.0, 10.0, pinned=True)
        cols = space_of(c)
        c.release()
        assert c.resident == 10.0  # still occupying space
        freed = batch_collect(cols, 1.0)
        assert freed == 10.0 and c.resident == 0.0
        assert len(cols) == 0 and c not in cols

    def test_release_non_pinned_rejected(self):
        c = Cohort(0.0, 0.0, 10.0, Exponential(1.0))
        with pytest.raises(ConfigError):
            c.release()

    def test_pinned_without_dist_allowed(self):
        assert Cohort(0.0, 0.0, 10.0, pinned=True).pinned


class TestValidation:
    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError):
            Cohort(5.0, 1.0, 10.0, Exponential(1.0))

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError):
            Cohort(0.0, 1.0, -10.0, Exponential(1.0))

    def test_plain_cohort_needs_distribution(self):
        with pytest.raises(ConfigError):
            Cohort(0.0, 1.0, 10.0)

    def test_cohort_joins_one_space_only(self):
        c = Cohort(0.0, 1.0, 10.0, Exponential(1.0))
        space_of(c)
        with pytest.raises(ConfigError):
            space_of(c)


class TestColumns:
    def test_append_grows_past_capacity(self):
        cols = CohortColumns()
        dist = Exponential(1.0)
        for i in range(100):
            cols.append_row(float(i), float(i), 1.0 + i, dist, 1.0)
        assert len(cols) == 100
        assert cols.allocated.tolist() == [1.0 + i for i in range(100)]
        assert cols.resident.tolist() == cols.allocated.tolist()
        assert cols.store.dists == [dist]

    def test_keep_preserves_order_and_moves_handles(self):
        dist = Exponential(1.0)
        cohorts = [Cohort(0.0, 0.0, 10.0 + i, dist) for i in range(6)]
        cols = space_of(*cohorts)
        cols.keep(np.array([i % 2 == 1 for i in range(6)]))
        assert cols.allocated.tolist() == [11.0, 13.0, 15.0]
        assert all(c in cols for c in cohorts[1::2])
        assert not any(c in cols for c in cohorts[::2])
        assert cohorts[0].resident == 0.0  # reclaimed
        assert cohorts[5].resident == 15.0

    def test_handles_follow_rows_between_spaces(self):
        young = CohortColumns()
        old = CohortColumns(young.store)
        a = Cohort(0.0, 0.0, 5.0, pinned=True)
        b = Cohort(0.0, 0.0, 7.0, pinned=True)
        young.append(a)
        young.append(b)
        old.extend(young, np.array([1, 0]))
        young.clear()
        assert a in old and b in old
        assert old.allocated.tolist() == [7.0, 5.0]
        assert a.release() == 5.0
        assert old.released.tolist() == [False, True]

    def test_reused_rows_start_clean(self):
        """Rows appended where dropped rows were read as fresh cohorts."""
        dist = Exponential(1.0)
        for drop in ("keep", "clear"):
            cols = CohortColumns()
            for age in (3, 4):
                c = Cohort(0.0, 0.0, 1.0, pinned=True)
                cols.append(c, age=age)
                c.release()
            if drop == "keep":
                cols.keep(np.array([True, False]))
            else:
                cols.clear()
            cols.append_row(1.0, 1.0, 2.0, dist, 1.0)
            cols.append_row(1.0, 1.0, 2.0, dist, 1.0)
            assert cols.age.tolist()[-2:] == [0, 0]
            assert cols.cid.tolist()[-2:] == [0, 0]
            assert cols.pinned.tolist()[-2:] == [False, False]
            assert cols.released.tolist()[-2:] == [False, False]

    def test_rows_move_only_within_one_store(self):
        with pytest.raises(ConfigError):
            CohortColumns().extend(CohortColumns())

    @given(st.lists(st.floats(0.0, 1e4), max_size=70),
           st.sampled_from([0.0, 96.0 * 1024]), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_append_rows_writes_what_append_row_writes(self, ends, size, before):
        """After handle rows and dropped rows, past the spare capacity,
        and for empty rows, which get no survival kernel."""
        dist = Exponential(0.05)
        spaces = []
        for batched in (False, True):
            cols = CohortColumns()
            for k in range(before):
                cols.append_row(0.0, 0.0, 1.0 + k, None, 1.0, pinned=True,
                                cid=k + 1, age=k, released=k % 2 == 1)
            cols.keep(np.arange(before) % 3 != 0)
            t1 = np.array(ends, dtype=float)
            if batched:
                cols.append_rows(len(ends), t1 - 2.0, t1, size, dist, 48.0)
            else:
                for t in ends:
                    cols.append_row(t - 2.0, t, size, dist, 48.0)
            spaces.append(cols)
        plain, batched = spaces
        assert len(plain) == len(batched)
        for name in plain._arrays:
            a = plain._arrays[name][:plain.n]
            assert a.tobytes() == batched._arrays[name][:batched.n].tobytes(), name
        assert plain.store.dists == batched.store.dists


class TestBatchEquivalence:
    def _make_cohorts(self, cls):
        dists = [Exponential(0.5), Weibull(0.6, 2.0), Exponential(0.5)]
        cohorts = []
        for i, dist in enumerate(dists):
            for j in range(5):
                cohorts.append(cls(j * 0.5, j * 0.5 + 0.3, 100.0 * (i + 1), dist))
        cohorts.append(cls(0.0, 0.0, 42.0, pinned=True))
        released = cls(0.0, 0.0, 7.0, pinned=True)
        released.release()
        cohorts.append(released)
        return cohorts

    def test_batch_live_bytes_matches_scalar(self):
        cols = space_of(*self._make_cohorts(Cohort))
        batch = batch_live_bytes(cols, 10.0)
        scalar = [c.live_bytes(10.0) for c in self._make_cohorts(ScalarCohort)]
        assert batch.tolist() == scalar

    def test_batch_collect_matches_scalar_collect(self):
        cols = space_of(*self._make_cohorts(Cohort))
        freed_a = batch_collect(cols, 10.0)
        freed_b, surv_b = collect_all(self._make_cohorts(ScalarCohort), 10.0)
        assert freed_a == freed_b
        assert len(cols) == len(surv_b)
        assert cols.resident.tolist() == [c.resident for c in surv_b]
        assert cols.age.tolist() == [c.age for c in surv_b]

    def test_batch_collect_empty(self):
        cols = CohortColumns()
        assert batch_collect(cols, 1.0) == 0.0 and len(cols) == 0

    @given(
        n=st.integers(1, 20),
        tau=st.floats(0.05, 10.0),
        now=st.floats(1.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_collect_conserves_bytes(self, n, tau, now):
        dist = Exponential(tau)
        cols = space_of(*[Cohort(0.0, 0.5, 10.0 + i, dist) for i in range(n)])
        total_before = sum(cols.resident.tolist())
        freed = batch_collect(cols, now)
        total_after = sum(cols.resident.tolist())
        assert freed + total_after == pytest.approx(total_before, rel=1e-9)
