"""Tests for cooling schedules."""

import math

import pytest

from repro.anneal import (
    GeometricSchedule,
    LinearSchedule,
    initial_temperature_from_samples,
)


class TestGeometricSchedule:
    def test_monotone_decrease(self):
        s = GeometricSchedule(t_initial=1.0, t_final=1e-3, alpha=0.9, steps_per_epoch=10)
        temps = [s.temperature(k) for k in range(0, s.total_steps, 10)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_starts_at_t_initial(self):
        s = GeometricSchedule(t_initial=2.0)
        assert s.temperature(0) == 2.0

    def test_epoch_granularity(self):
        s = GeometricSchedule(t_initial=1.0, alpha=0.5, steps_per_epoch=4)
        assert s.temperature(0) == s.temperature(3)
        assert s.temperature(4) == pytest.approx(0.5)

    def test_reaches_final(self):
        s = GeometricSchedule(t_initial=1.0, t_final=0.01, alpha=0.9, steps_per_epoch=1)
        assert s.temperature(s.total_steps - 1) <= 0.01 / 0.9 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricSchedule(alpha=1.5)
        with pytest.raises(ValueError):
            GeometricSchedule(t_initial=1e-5, t_final=1.0)
        with pytest.raises(ValueError):
            GeometricSchedule(steps_per_epoch=0)


class TestLinearSchedule:
    def test_endpoints(self):
        s = LinearSchedule(t_initial=1.0, t_final=0.0, steps=100)
        assert s.temperature(0) == 1.0
        assert s.temperature(100) == pytest.approx(0.0)

    def test_clamps_beyond_end(self):
        s = LinearSchedule(t_initial=1.0, t_final=0.1, steps=10)
        assert s.temperature(1000) == pytest.approx(0.1)

    def test_midpoint(self):
        s = LinearSchedule(t_initial=1.0, t_final=0.0, steps=10)
        assert s.temperature(5) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSchedule(steps=0)
        with pytest.raises(ValueError):
            LinearSchedule(t_initial=0.0, t_final=1.0)


class TestWarmup:
    def test_accepts_target_probability(self):
        t0 = initial_temperature_from_samples([2.0, 2.0], acceptance=0.9)
        assert math.exp(-2.0 / t0) == pytest.approx(0.9)

    def test_ignores_downhill(self):
        # an unpackable warmup sample (cost inf) is no uphill delta: T0
        # stays finite instead of heating the whole walk to inf
        t_with = initial_temperature_from_samples([2.0, -5.0, 2.0, math.inf])
        t_only = initial_temperature_from_samples([2.0, 2.0])
        assert t_with == pytest.approx(t_only)

    def test_sums_left_to_right(self):
        # builtin sum() compensates rounding from Python 3.12 on; T0
        # must follow the sequential total on every interpreter
        t0 = initial_temperature_from_samples([0.1] * 10)
        assert t0 == -(0.9999999999999999 / 10) / math.log(0.9)

    def test_all_downhill_fallback(self):
        assert initial_temperature_from_samples([-1.0, -2.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_temperature_from_samples([1.0], acceptance=1.5)
