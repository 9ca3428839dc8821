"""Tests for the ECDF helper."""

import tracemalloc

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


class TestQuantileByIndex:
    """``quantile`` reads numpy's linear rule off the sorted sample."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.one_of(st.sampled_from([0.0, 1.0, 0.8, 0.9]),
                  st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_bit_equal_to_np_quantile(self, size, q, seed, ties):
        rng = np.random.default_rng(seed)
        values = rng.normal(50.0, rng.uniform(0.1, 500.0), size)
        if ties:
            values = np.round(values)
        ecdf = ECDF(values)
        want = np.quantile(ecdf.values, q)
        assert np.float64(ecdf.quantile(q)).tobytes() == want.tobytes()

    def test_quantile_copies_nothing(self):
        ecdf = ECDF(np.random.default_rng(0).random(10**6))
        tracemalloc.start()
        try:
            ecdf.quantile(0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


RENDER_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.98)
"""The quantiles ``render_ecdf`` prints."""

# float32 samples, many of them tied: drawn from a small pool or rounded.
_float32_samples = st.one_of(
    st.lists(st.floats(-1e4, 1e4, width=32), min_size=1, max_size=300),
    st.lists(st.sampled_from([-50.0, -10.0, -0.5, 0.0, 1e-3, 10.0, 3.25e3]),
             min_size=1, max_size=300),
    st.lists(st.integers(-30, 30).map(float), min_size=1, max_size=300),
)


def _probes(sample: np.ndarray, extra: list) -> list:
    """Probes at, beside and between the float32 samples, and far off."""
    probes = list(extra) + [0.0, -np.inf, np.inf, np.nan, 1e39, -1e39, 1e300, -1e300]
    for value in np.unique(sample).tolist():
        probes += [value, value - 1e-9, value + 1e-9,
                   np.nextafter(value, -np.inf), np.nextafter(value, np.inf)]
        # Exactly halfway to the next float32: a float64 probe that no
        # float32 equals.
        above = float(np.nextafter(np.float32(value), np.float32(np.inf)))
        probes.append((value + above) / 2)
    return probes


def _same(got: float, want: float) -> bool:
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestFloat32Exactness:
    """An ECDF over a sorted float32 buffer reads as the float64 ECDF of the
    widened sample, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_float32_samples,
           st.lists(st.floats(allow_nan=False), max_size=5),
           st.lists(st.floats(0.0, 1.0), max_size=5))
    def test_every_read_matches_the_widened_float64_ecdf(self, samples, extra, qs):
        buffer = np.sort(np.asarray(samples, dtype=np.float32))
        reference = ECDF(buffer.astype(np.float64))
        adopted = ECDF._adopt_sorted(buffer)
        assert adopted.values.dtype == np.float32
        assert len(adopted) == len(reference)
        assert adopted.values.astype(np.float64).tobytes() == reference.values.tobytes()
        for x in _probes(buffer, extra):
            assert _same(adopted.at(x), reference.at(x)), x
            assert _same(adopted.tail_fraction(x), reference.tail_fraction(x)), x
        for q in RENDER_QUANTILES + (0.0, 1.0) + tuple(qs):
            assert _same(adopted.quantile(q), reference.quantile(q)), q
        for max_points in (1, 7, 200):
            assert adopted.points(max_points) == reference.points(max_points)

    def test_minus_ten_stays_inside_the_ten_ms_band(self):
        # float32(-10 - 1e-9) is -10.0: a probe rounded to nearest would
        # count the -10 ms difference as outside the +/-10 ms band.
        buffer = np.asarray([-10.0, 0.0, 10.0], dtype=np.float32)
        adopted = ECDF._adopt_sorted(buffer)
        assert adopted.at(10.0) - adopted.at(-10.0 - 1e-9) == 1.0
        assert adopted.tail_fraction(10.0 + 1e-9) == 0.0
        assert adopted.at(np.nextafter(-10.0, -np.inf)) == 0.0

    def test_signed_zeros_read_as_zero_whatever_their_order(self):
        # Sorts leave -0.0 and 0.0 in no fixed order among themselves.
        for order in ([-0.0, 0.0, 0.0], [0.0, 0.0, -0.0]):
            for dtype in (np.float32, np.float64):
                buffer = np.asarray([-1.0] + order + [1.0], dtype=dtype)
                for ecdf in (ECDF(buffer), ECDF._adopt_sorted(buffer.copy())):
                    assert not np.signbit(ecdf.values[1:]).any()
                    for q in (0.25, 0.3, 0.5, 0.7, 0.75):
                        assert not np.signbit(ecdf.quantile(q)), q

    def test_float32_reads_copy_nothing(self):
        buffer = np.sort(np.random.default_rng(0).normal(0.0, 20.0, 10**6).astype(np.float32))
        adopted = ECDF._adopt_sorted(buffer)
        tracemalloc.start()
        try:
            adopted.at(-10.0 - 1e-9)
            adopted.tail_fraction(50.0)
            adopted.quantile(0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
