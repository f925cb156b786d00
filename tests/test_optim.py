"""Quasi-Newton minimizer: exactness on quadratics, logs, failure modes.

Every objective here follows the minimizer's protocol: ``fun(x)`` returns
(value, gradient function).
"""

import weakref

import numpy as np
import pytest

from spantag.errors import NumericError, TrainingError
from spantag.optim import minimize


def quadratic(center, scale):
    def fun(x):
        d = x - center
        return float(0.5 * np.dot(scale * d, d)), lambda: scale * d
    return fun


class CountingQuadratic:
    """A quadratic that counts its value and gradient calls, records where
    each gradient was taken, and tracks how many evaluation states (the
    part a gradient function keeps alive) exist when a value is asked
    for."""

    class State:
        def __init__(self, d):
            self.d = d

    def __init__(self, center, scale):
        self.center, self.scale = center, scale
        self.values = 0
        self.gradient_points = []
        self.live = weakref.WeakSet()
        self.most_live = 0

    def __call__(self, x):
        self.values += 1
        self.most_live = max(self.most_live, len(self.live))
        state = self.State(x - self.center)
        self.live.add(state)

        def gradient():
            self.gradient_points.append(x.copy())  # x is reused for trials
            return self.scale * state.d
        return float(0.5 * np.dot(self.scale * state.d, state.d)), gradient


class TestConvergence:
    def test_quadratic_reaches_minimum(self):
        center = np.array([1.0, -2.0, 3.0])
        scale = np.array([1.0, 10.0, 0.5])
        x, log = minimize(quadratic(center, scale), np.zeros(3))
        np.testing.assert_allclose(x, center, atol=1e-4)
        assert log.converged
        assert log.iterations == len(log.entries)

    def test_rosenbrock_small(self):
        def fun(x):
            a, b = x
            value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                             200 * (b - a * a)])
            return float(value), lambda: grad
        # the halving line search crawls along the curved valley, so this
        # needs more iterations than the smooth convex objectives do
        x, log = minimize(fun, np.array([-1.2, 1.0]), eta=1e-12,
                          max_iterations=2000)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-3)
        assert log.converged

    def test_start_at_minimum_stops_immediately(self):
        x, log = minimize(quadratic(np.zeros(2), np.ones(2)), np.zeros(2))
        np.testing.assert_allclose(x, 0.0)
        assert log.converged

    def test_iteration_cap_respected(self):
        def fun(x):
            return float(np.dot(x, x)) ** 0.5 + 1.0, lambda: x / max(
                np.linalg.norm(x), 1e-12)
        _, log = minimize(fun, np.full(4, 100.0), max_iterations=3)
        assert log.iterations <= 3

    def test_eta_loosening_stops_earlier(self):
        fun = quadratic(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        _, tight = minimize(fun, np.zeros(2), eta=1e-10)
        _, loose = minimize(fun, np.zeros(2), eta=1e-2)
        assert loose.iterations <= tight.iterations


class TestLog:
    def test_entries_record_monotone_nonincreasing_values(self):
        fun = quadratic(np.array([2.0, -1.0, 0.5, 4.0]),
                        np.array([1.0, 2.0, 3.0, 4.0]))
        _, log = minimize(fun, np.zeros(4))
        values = [entry[1] for entry in log.entries]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_counts_match_the_work_done(self):
        # the stiff axis (scale 10) makes the first unit step overshoot,
        # so the line search backtracks
        fun = CountingQuadratic(np.array([1.0, -2.0, 3.0]),
                                np.array([1.0, 10.0, 0.5]))
        x0 = np.zeros(3)
        x, log = minimize(fun, x0)
        assert log.converged and log.backtracks > 0
        # one gradient at x0 and one per accepted step, none for a
        # rejected trial
        assert len(fun.gradient_points) == log.iterations + 1
        np.testing.assert_array_equal(fun.gradient_points[0], x0)
        np.testing.assert_array_equal(fun.gradient_points[-1], x)
        assert fun.values == log.evaluations
        assert log.evaluations == log.iterations + log.backtracks + 1

    def test_one_evaluation_state_alive_at_a_time(self):
        fun = CountingQuadratic(np.array([1.0, -2.0, 3.0]),
                                np.array([1.0, 10.0, 0.5]))
        _, log = minimize(fun, np.zeros(3))
        assert log.backtracks > 0
        # no earlier trial's state survives into the next evaluation
        assert fun.most_live == 0


class TestFailureModes:
    def test_unsatisfiable_decrease_raises_training_error(self):
        calls = [0]

        def rising(x):
            # value strictly increases on every evaluation, so no step
            # (even a vanishing one) can pass the sufficient-decrease test
            calls[0] += 1
            return float(calls[0]), lambda: np.ones_like(x)
        with pytest.raises(TrainingError) as exc:
            minimize(rising, np.ones(2))
        assert exc.value.weights is not None
        assert exc.value.log is not None

    def test_wrong_sign_gradient_stalls_as_flat(self):
        # a gradient pointing uphill cannot make progress; the minimizer
        # settles for zero-movement steps and reports a flat convergence
        def lies(x):
            return float(np.dot(x, x) + 1.0), lambda: -x
        x, log = minimize(lies, np.ones(2))
        np.testing.assert_allclose(x, 1.0)
        assert log.converged

    def test_non_finite_objective_raises_numeric_error(self):
        def blows_up(x):
            return float("nan"), lambda: x
        with pytest.raises(NumericError):
            minimize(blows_up, np.ones(2))

    def test_non_finite_gradient_raises_numeric_error(self):
        def bad_grad(x):
            return float(np.dot(x, x)), lambda: np.full_like(x, np.inf)
        with pytest.raises(NumericError):
            minimize(bad_grad, np.ones(2))

    def test_bad_config_rejected(self):
        fun = quadratic(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            minimize(fun, np.zeros(2), max_iterations=0)
        with pytest.raises(ValueError):
            minimize(fun, np.zeros(2), memory=0)
