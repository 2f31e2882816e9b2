"""Statistical unit tests for :mod:`repro.sampling.stats`."""

import math
import random

import pytest

from repro.errors import ConfigError
from repro.sampling import (
    MetricEstimate,
    SamplingConfig,
    estimate,
    half_width,
    interval_starts,
    mean_ci,
    relative_error,
    summarize,
    z_value,
)


class TestZValue:
    def test_95_pct_quantile(self):
        assert z_value(0.95) == pytest.approx(1.95996, abs=1e-4)

    def test_99_pct_quantile(self):
        assert z_value(0.99) == pytest.approx(2.57583, abs=1e-4)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            z_value(1.0)
        with pytest.raises(ValueError):
            z_value(0.0)


class TestMeanCI:
    def test_known_values(self):
        # mean 2, sample stdev 1, n=4 -> hw = 1.96 * 1/2
        m, lo, hi = mean_ci([1.0, 2.0, 2.0, 3.0], confidence=0.95)
        assert m == pytest.approx(2.0)
        s = math.sqrt(2.0 / 3.0)
        hw = 1.959964 * s / 2.0
        assert hi - m == pytest.approx(hw, rel=1e-4)
        assert m - lo == pytest.approx(hw, rel=1e-4)

    def test_single_value_degenerate(self):
        m, lo, hi = mean_ci([3.5])
        assert (m, lo, hi) == (3.5, 3.5, 3.5)

    def test_constant_sample_zero_width(self):
        assert half_width([2.0] * 10) == 0.0

    def test_ci_width_shrinks_as_inverse_sqrt_n(self):
        # Replicating a sample k-fold keeps the stdev (nearly) fixed and
        # multiplies n by k, so the half-width must shrink ~ 1/sqrt(k).
        rng = random.Random(17)
        base = [rng.gauss(10.0, 2.0) for _ in range(50)]
        hw1 = half_width(base)
        hw4 = half_width(base * 4)
        assert hw4 == pytest.approx(hw1 / 2.0, rel=0.02)
        hw16 = half_width(base * 16)
        assert hw16 == pytest.approx(hw1 / 4.0, rel=0.02)

    def test_higher_confidence_widens(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert half_width(values, 0.99) > half_width(values, 0.95) \
            > half_width(values, 0.68)


class TestRelativeError:
    def test_matches_half_width_over_mean(self):
        values = [9.0, 10.0, 11.0, 10.0]
        rel = relative_error(values)
        assert rel == pytest.approx(half_width(values) / 10.0)

    def test_zero_mean_nonzero_spread_is_inf(self):
        assert relative_error([-1.0, 1.0]) == math.inf

    def test_constant_sample_is_zero(self):
        assert relative_error([5.0, 5.0, 5.0]) == 0.0


class TestEstimate:
    def test_estimate_fields(self):
        est = estimate([1.0, 2.0, 3.0], confidence=0.95)
        assert isinstance(est, MetricEstimate)
        assert est.n == 3
        assert est.mean == pytest.approx(2.0)
        assert est.ci_lo < est.mean < est.ci_hi
        assert est.half_width == pytest.approx(
            (est.ci_hi - est.ci_lo) / 2.0)

    def test_summarize_keys(self):
        summary = summarize({"a": [1.0, 2.0], "b": [3.0, 3.0]})
        assert set(summary) == {"a", "b"}
        assert summary["b"].stdev == 0.0


class TestIntervalStarts:
    def test_periodic_placement(self):
        cfg = SamplingConfig(intervals=4, interval_instructions=100)
        starts = interval_starts(cfg, 4_000)
        assert [next(starts) for _ in range(4)] == [0, 1000, 2000, 3000]

    def test_plan_must_fit(self):
        cfg = SamplingConfig(intervals=10, interval_instructions=500)
        with pytest.raises(ConfigError):
            cfg.resolve_period(4_000)  # period 400 < interval 500
