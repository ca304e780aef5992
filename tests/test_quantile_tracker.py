"""Unit tests for the incremental order-statistic tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile_tracker import QuantileTracker


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileTracker(tick=0.0)
        with pytest.raises(ValueError):
            QuantileTracker(tick=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            QuantileTracker(rounding="sideways")

    def test_domain_limit_enforced(self):
        tracker = QuantileTracker(tick=0.1, max_value=1.0)
        tracker.push(1.0)
        with pytest.raises(ValueError):
            tracker.push(1.2)
        with pytest.raises(ValueError):
            tracker.push(-0.1)
        with pytest.raises(ValueError):
            tracker.push(float("nan"))


class TestSlotState:
    def test_round_trip(self):
        tracker = QuantileTracker(tick=0.1, max_value=2.0)
        tracker.extend([0.5, 1.9, 0.0, 0.5, 1.2])
        restored = QuantileTracker(tick=0.1, max_value=2.0)
        restored.load_slots(np.asarray(tracker.state_slots()))
        assert restored.state_slots() == tracker.state_slots()
        assert [restored.kth_smallest(k) for k in range(5)] == [
            tracker.kth_smallest(k) for k in range(5)
        ]
        assert restored.recent(5) == tracker.recent(5)

    def test_first_out_of_domain_slot_is_named(self):
        tracker = QuantileTracker(tick=0.1, max_value=1.0)
        with pytest.raises(
            ValueError, match=r"^slot 11 outside tracker domain \[0, 11\)$"
        ):
            tracker.load_slots([3, 11, -1])
        with pytest.raises(ValueError, match=r"^slot -1 outside"):
            tracker.load_slots([3, -1, 11])

    def test_empty(self):
        tracker = QuantileTracker()
        tracker.push(0.5)
        tracker.load_slots([])
        assert len(tracker) == 0 and tracker.state_slots() == []


class TestRounding:
    def test_up_rounds_conservatively_for_prices(self):
        tracker = QuantileTracker(tick=0.1, rounding="up")
        tracker.push(0.11)
        assert tracker.kth_largest(0) == pytest.approx(0.2)

    def test_down_rounds_conservatively_for_durations(self):
        tracker = QuantileTracker(tick=0.1, rounding="down")
        tracker.push(0.19)
        assert tracker.kth_largest(0) == pytest.approx(0.1)

    def test_exact_ticks_unchanged_by_either_mode(self):
        for mode in ("up", "down", "nearest"):
            tracker = QuantileTracker(tick=0.1, rounding=mode)
            tracker.push(0.3)
            assert tracker.kth_largest(0) == pytest.approx(0.3)


class TestWindowOps:
    def test_drop_oldest_is_fifo(self):
        tracker = QuantileTracker(tick=1.0, max_value=100.0)
        tracker.extend([5.0, 1.0, 9.0])
        tracker.drop_oldest(1)  # drops the 5, not the max or min
        assert len(tracker) == 2
        assert tracker.kth_smallest(0) == 1.0
        assert tracker.kth_largest(0) == 9.0

    def test_truncate_to(self):
        tracker = QuantileTracker(tick=1.0, max_value=100.0)
        tracker.extend(range(1, 11))
        tracker.truncate_to(3)
        assert tracker.recent(10) == [8.0, 9.0, 10.0]
        tracker.truncate_to(5)  # no-op when already smaller
        assert len(tracker) == 3

    def test_drop_errors(self):
        tracker = QuantileTracker(tick=1.0, max_value=10.0)
        tracker.push(1.0)
        with pytest.raises(ValueError):
            tracker.drop_oldest(2)
        with pytest.raises(ValueError):
            tracker.drop_oldest(-1)

    def test_clear(self):
        tracker = QuantileTracker(tick=1.0, max_value=10.0)
        tracker.extend([1.0, 2.0])
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.recent(5) == []

    def test_count_greater(self):
        tracker = QuantileTracker(tick=1.0, max_value=10.0)
        tracker.extend([1.0, 2.0, 2.0, 5.0])
        assert tracker.count_greater(2.0) == 1
        assert tracker.count_greater(0.0) == 4
        assert tracker.count_greater(5.0) == 0


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=150,
    ),
    keep=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=80, deadline=None)
def test_matches_quantised_reference(values, keep):
    """Tracker order statistics equal those of the quantised recent window."""
    tick = 0.5
    tracker = QuantileTracker(tick=tick, max_value=100.0, rounding="up")
    tracker.extend(values)
    tracker.truncate_to(keep)
    window = values[-keep:] if keep <= len(values) else values
    quantised = np.sort([np.ceil(v / tick - 1e-9) * tick for v in window])
    for k in range(len(quantised)):
        assert tracker.kth_smallest(k) == pytest.approx(quantised[k])
