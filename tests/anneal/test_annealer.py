"""Tests for the generic annealing engine."""

import random

import pytest

from repro.anneal import (
    Annealer,
    FunctionMoveSet,
    GeometricSchedule,
    WeightedMoveSet,
)


def quadratic_cost(x: float) -> float:
    return (x - 3.0) ** 2


def gaussian_step(x: float, rng: random.Random) -> float:
    return x + rng.gauss(0.0, 0.5)


class TestAnnealer:
    def test_optimizes_quadratic(self):
        annealer = Annealer(
            quadratic_cost,
            FunctionMoveSet(gaussian_step),
            GeometricSchedule(t_initial=1.0, t_final=1e-5, alpha=0.9, steps_per_epoch=50),
            random.Random(0),
        )
        result = annealer.run(20.0)
        assert abs(result.best_state - 3.0) < 0.5
        assert result.best_cost < 0.25

    def test_best_never_worse_than_initial(self):
        annealer = Annealer(
            quadratic_cost, FunctionMoveSet(gaussian_step), rng=random.Random(1)
        )
        result = annealer.run(10.0)
        assert result.best_cost <= quadratic_cost(10.0)

    def test_deterministic_given_seed(self):
        def run(seed):
            return Annealer(
                quadratic_cost,
                FunctionMoveSet(gaussian_step),
                GeometricSchedule(t_final=0.01, steps_per_epoch=10),
                random.Random(seed),
            ).run(5.0)

        a, b = run(42), run(42)
        assert a.best_state == b.best_state
        assert a.best_cost == b.best_cost

    def test_stats_counters(self):
        schedule = GeometricSchedule(t_final=0.01, steps_per_epoch=10)
        annealer = Annealer(
            quadratic_cost, FunctionMoveSet(gaussian_step), schedule, random.Random(2)
        )
        result = annealer.run(5.0)
        stats = result.stats
        assert stats.steps == schedule.total_steps
        assert 0 < stats.accepted <= stats.steps
        assert 0.0 < stats.acceptance_ratio <= 1.0
        assert stats.best_cost == result.best_cost

    def test_handles_infinite_cost_moves(self):
        def cost(x):
            return float("inf") if x < 0 else x

        annealer = Annealer(cost, FunctionMoveSet(gaussian_step), rng=random.Random(4))
        result = annealer.run(2.0)
        assert result.best_cost < 2.0
        assert result.best_state >= 0


class TestWeightedMoveSet:
    def test_mixes_moves(self):
        ws = WeightedMoveSet(
            [
                (1.0, FunctionMoveSet(lambda x, rng: x + 1)),
                (1.0, FunctionMoveSet(lambda x, rng: x - 1)),
            ]
        )
        rng = random.Random(0)
        deltas = {ws.propose(0, rng) for _ in range(50)}
        assert deltas == {-1, 1}

    def test_zero_weight_excluded(self):
        ws = WeightedMoveSet(
            [
                (1.0, FunctionMoveSet(lambda x, rng: x + 1)),
                (0.0, FunctionMoveSet(lambda x, rng: x - 1)),
            ]
        )
        rng = random.Random(0)
        assert all(ws.propose(0, rng) == 1 for _ in range(30))

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedMoveSet([])
        with pytest.raises(ValueError):
            WeightedMoveSet([(-1.0, FunctionMoveSet(lambda x, rng: x))])
