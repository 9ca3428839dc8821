"""Tests for the ECDF helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ecdf import ECDF

_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


class TestBasics:
    def test_at_known_points(self):
        ecdf = ECDF([1.0, 2.0, 3.0, 4.0])
        assert ecdf.at(0.5) == 0.0
        assert ecdf.at(1.0) == 0.25
        assert ecdf.at(2.5) == 0.5
        assert ecdf.at(4.0) == 1.0

    def test_tail_fraction(self):
        ecdf = ECDF([1.0, 2.0, 3.0, 4.0])
        assert ecdf.tail_fraction(3.0) == 0.5
        assert ecdf.tail_fraction(5.0) == 0.0
        assert ecdf.tail_fraction(-1.0) == 1.0

    def test_quantile(self):
        ecdf = ECDF(range(101))
        assert ecdf.quantile(0.5) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_nan_dropped(self):
        ecdf = ECDF([1.0, float("nan"), 3.0])
        assert len(ecdf) == 2

    def test_empty(self):
        ecdf = ECDF([])
        assert len(ecdf) == 0
        assert np.isnan(ecdf.at(1.0))
        assert np.isnan(ecdf.quantile(0.5))
        assert np.isnan(ecdf.tail_fraction(1.0))
        assert ecdf.points() == []

    def test_points_downsampled(self):
        ecdf = ECDF(range(1000))
        points = ecdf.points(max_points=50)
        assert len(points) <= 50
        assert points[-1] == (999.0, 1.0)


class TestCopies:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([3.0, 1.0, 2.0]),
            np.array([3.0, np.nan, 1.0]),
            np.array([2.0, 1.0], dtype=np.float32),
        ],
    )
    def test_input_never_mutated(self, values):
        before = values.copy()
        ecdf = ECDF(values)
        assert values.tobytes() == before.tobytes()
        assert not np.shares_memory(ecdf.values, values)

    def test_adopted_buffer_is_not_copied(self):
        buffer = np.array([1.0, 2.0, 2.0, 5.0])
        adopted = ECDF._adopt_sorted(buffer)
        assert adopted.values is buffer
        reference = ECDF(buffer[::-1])
        assert adopted.values.tobytes() == reference.values.tobytes()
        assert adopted.at(2.0) == reference.at(2.0) == 0.75


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(_samples, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_at_plus_strict_tail_is_one(self, samples, x):
        ecdf = ECDF(samples)
        below_or_equal = ecdf.at(x)
        strictly_above = 1.0 - below_or_equal
        count_above = sum(1 for value in samples if value > x)
        assert strictly_above == pytest.approx(count_above / len(samples))

    @settings(max_examples=100, deadline=None)
    @given(_samples)
    def test_monotone(self, samples):
        ecdf = ECDF(samples)
        grid = sorted(set(samples))
        values = [ecdf.at(x) for x in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(_samples)
    def test_extremes(self, samples):
        ecdf = ECDF(samples)
        assert ecdf.at(max(samples)) == pytest.approx(1.0)
        assert ecdf.tail_fraction(min(samples)) == pytest.approx(1.0)
