"""Quasi-Newton minimizer: exactness on quadratics, logs, failure modes.

Every objective here follows the minimizer's protocol: ``fun(x)`` returns
(value, gradient function).
"""

import math
import weakref

import numpy as np
import pytest

from spantag import crf, optim, synth
from spantag.errors import NumericError, TrainingError
from spantag.features import default_template
from spantag.optim import IterationLog, minimize
from spantag.schemes import get_scheme


def quadratic(center, scale):
    def fun(x):
        d = x - center
        return float(0.5 * np.dot(scale * d, d)), lambda: scale * d
    return fun


def rosenbrock(x):
    a, b = x
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return float((1 - a) ** 2 + 100 * (b - a * a) ** 2), lambda: grad


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
        # the halving line search crawls along the curved valley, so this
        # needs more iterations than the smooth convex objectives do
        x, log = minimize(rosenbrock, np.array([-1.2, 1.0]), eta=1e-12,
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

    def test_start_outside_the_domain_raises_numeric_error(self):
        # a transition weight of 400 spreads the transitions past
        # _SCALED_RANGE: the objective's value is +inf, with no gradient
        docs = synth.generate(synth.default_profile(), 3, 4)
        template = default_template(transitions=True)
        scheme = get_scheme("IOB")
        encoded = crf.build_alphabet(docs, template)
        alphabet = crf.FeatureAlphabet(scheme.labels, True, encoded.feat_index)
        objective = crf.BatchedObjective(
            alphabet, encoded, crf.make_instances(docs, scheme, "PROBLEM"),
            C=1.0)
        x0 = np.zeros(alphabet.dim)
        x0[-1] = 400.0
        with pytest.raises(NumericError):
            minimize(objective, x0)

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


# --- byte identity against the list-based minimizer --------------------------

def _oracle_two_loop(grad, s_list, y_list, rho_list):
    q = grad.copy()
    buf = np.empty_like(q)
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * optim.dot(s, q)
        alphas.append(a)
        q -= np.multiply(a, y, out=buf)
    s, y = s_list[-1], y_list[-1]
    gamma = optim.dot(s, y) / optim.dot(y, y)
    q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * optim.dot(y, q)
        q += np.multiply(a - b, s, out=buf)
    return q


def _oracle_line_search(fun, x, f, direction, slope, log, trial):
    step = 1.0
    while step >= 1e-20:
        np.add(x, np.multiply(step, direction, out=trial), out=trial)
        f_new, gradient = fun(trial)
        log.evaluations += 1
        if np.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
            return step, f_new, gradient
        del gradient
        log.backtracks += 1
        step *= 0.5
    return None, None, None


def oracle_minimize(fun, x0, *, memory=10, eta=1e-4, max_iterations=500,
                    rejected_when_full=None):
    """L-BFGS with its history in three parallel lists, each pair a fresh
    vector, and two separate restart blocks.  Appends to
    ``rejected_when_full`` the iteration of each curvature pair it
    rejects while its history holds ``memory`` pairs."""
    x = np.asarray(x0, dtype=float).copy()
    trial = np.empty_like(x)
    log = IterationLog()
    f, gradient = fun(x)
    log.evaluations += 1
    g = gradient()
    s_list, y_list, rho_list = [], [], []
    flat_count = 0
    for iteration in range(1, max_iterations + 1):
        if s_list:
            direction = _oracle_two_loop(g, s_list, y_list, rho_list)
            np.negative(direction, out=direction)
        else:
            direction = -g
        slope = optim.dot(g, direction)
        if slope > 0:
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            direction = -g
            slope = -optim.dot(g, g)
        step, f_new, gradient = _oracle_line_search(fun, x, f, direction,
                                                    slope, log, trial)
        if step is None:
            if s_list:
                s_list.clear()
                y_list.clear()
                rho_list.clear()
                direction = -g
                slope = -optim.dot(g, g)
                step, f_new, gradient = _oracle_line_search(
                    fun, x, f, direction, slope, log, trial)
            if step is None:
                log.iterations = iteration
                raise TrainingError("line search failed", weights=x, log=log)
        g_new = gradient()
        s = trial - x
        y = g_new - g
        if optim.dot(s, y) > 1e-12:
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / optim.dot(y, s))
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        elif len(s_list) == memory and rejected_when_full is not None:
            rejected_when_full.append(iteration)
        rel = (f - f_new) / max(abs(f), 1e-12)
        log.add(iteration, f_new, math.sqrt(optim.dot(g_new, g_new)), step)
        x, trial, f, g = trial, x, f_new, g_new
        flat_count = flat_count + 1 if rel < eta else 0
        if flat_count >= 3:
            log.converged = True
            log.iterations = iteration
            return x, log
    log.iterations = max_iterations
    return x, log


def wavy(x):
    """Non-convex: a ripple on a weak bowl, coupled across neighbours."""
    value = (np.sum(np.sin(3 * x)) + 0.05 * np.dot(x, x)
             + 0.5 * np.sum(np.cos(x[:-1] * x[1:])))

    def gradient():
        g = 3 * np.cos(3 * x) + 0.1 * x
        coupling = -0.5 * np.sin(x[:-1] * x[1:])
        g[:-1] += coupling * x[1:]
        g[1:] += coupling * x[:-1]
        return g
    return float(value), gradient


def assert_same_run(fun, x0, **options):
    want_x, want_log = oracle_minimize(fun, x0, **options)
    got_x, got_log = minimize(fun, x0, **options)
    assert got_x.tobytes() == want_x.tobytes()
    assert got_log == want_log


@pytest.mark.parametrize("n", [0, 1, 7, 22_380])
def test_dot_is_symmetric_and_exact_to_rounding(n):
    # the curvature test and rho share one product, s . y = y . s
    a, b = np.random.default_rng(n).normal(size=(2, n))
    assert optim.dot(a, b) == optim.dot(b, a)
    exact = math.fsum(a * b)
    assert abs(optim.dot(a, b) - exact) <= 4 * n * np.finfo(float).eps * (
        math.fsum(np.abs(a * b)))


class TestByteIdentity:
    @pytest.mark.parametrize("memory", [1, 2, 10])
    def test_rosenbrock(self, memory):
        assert_same_run(rosenbrock, np.array([-1.2, 1.0]), memory=memory,
                        eta=1e-12, max_iterations=2000)

    def test_non_convex_with_rejected_pairs_in_full_history(self):
        # from near the ripple's crest a step crosses negative curvature
        # (s . y < 0) early, so later directions depend on which pairs
        # the rejection left in place
        x0 = np.linspace(0.05, 0.3, 6)
        rejected = []
        _, log = oracle_minimize(wavy, x0, memory=2, eta=1e-12,
                                 max_iterations=300,
                                 rejected_when_full=rejected)
        assert rejected and rejected[0] < log.iterations - 3
        assert_same_run(wavy, x0, memory=2, eta=1e-12, max_iterations=300)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_two_loop_makes_two_dots_per_pair(monkeypatch, k):
    # each pair's s . y and y . y are kept with it, so neither the scale
    # nor the reciprocal curvature is recomputed
    rng = np.random.default_rng(k)
    S, Y = rng.normal(size=(2, k + 1, 5))
    order = list(range(1, k + 1))
    sy = [optim.dot(s, y) for s, y in zip(S, Y)]
    yy = [optim.dot(y, y) for y in Y]
    rho = [1.0 / optim.dot(y, s) for s, y in zip(S[1:], Y[1:])]
    want = _oracle_two_loop(np.ones(5), list(S[1:]), list(Y[1:]), rho)
    real, calls = optim.dot, []

    def counting(a, b):
        calls.append(None)
        return real(a, b)
    monkeypatch.setattr(optim, "dot", counting)
    got = optim._two_loop(np.ones(5), S, Y, sy, yy, order)
    assert len(calls) == 2 * k
    assert got.tobytes() == want.tobytes()


class TestRestart:
    """The reset paths, reached through fakes: no smooth objective here
    makes the two-loop direction go uphill or its line search fail."""

    center = np.array([1.0, -2.0, 3.0])
    scale = np.array([1.0, 10.0, 0.5])

    def spy_line_search(self, monkeypatch, failing):
        """Record each line search's (x, direction); the calls numbered in
        ``failing`` search an objective that is +inf everywhere."""
        real = optim._line_search
        calls = []

        def infinite(x):
            return float("inf"), None

        def fake(fun, x, f, direction, slope, log, trial):
            calls.append((x.copy(), direction.copy()))
            if len(calls) in failing:
                fun = infinite
            return real(fun, x, f, direction, slope, log, trial)
        monkeypatch.setattr(optim, "_line_search", fake)
        return calls

    def steepest(self, x):
        return -(self.scale * (x - self.center))

    def test_uphill_direction_is_replaced_by_steepest_descent(
            self, monkeypatch):
        real = optim._two_loop
        histories = []

        def uphill_once(grad, S, Y, sy, yy, order):
            histories.append(len(order))
            # minimize negates this, giving +grad: uphill
            return -grad if len(histories) == 1 else real(grad, S, Y, sy, yy,
                                                          order)
        monkeypatch.setattr(optim, "_two_loop", uphill_once)
        calls = self.spy_line_search(monkeypatch, failing=())
        x, log = minimize(quadratic(self.center, self.scale), np.zeros(3))
        # the uphill direction at iteration 2 is never searched: the
        # history is cleared and the same iteration searches along -g
        assert histories[:2] == [1, 1]
        assert len(calls) == log.iterations
        x2, direction = calls[1]
        np.testing.assert_array_equal(direction, self.steepest(x2))
        np.testing.assert_allclose(x, self.center, atol=1e-4)
        assert log.converged

    def test_failed_line_search_restarts_once_along_steepest_descent(
            self, monkeypatch):
        calls = self.spy_line_search(monkeypatch, failing={2})
        x, log = minimize(quadratic(self.center, self.scale), np.zeros(3))
        # exactly one extra search, from the same point along -g
        assert len(calls) == log.iterations + 1
        (x_fail, lbfgs_dir), (x_retry, retry_dir) = calls[1], calls[2]
        np.testing.assert_array_equal(x_retry, x_fail)
        np.testing.assert_array_equal(retry_dir, self.steepest(x_fail))
        assert not np.array_equal(lbfgs_dir, retry_dir)
        np.testing.assert_allclose(x, self.center, atol=1e-4)
        assert log.converged and log.iterations > 2

    def test_failure_after_restart_raises(self, monkeypatch):
        calls = self.spy_line_search(monkeypatch, failing={2, 3})
        with pytest.raises(TrainingError, match="iteration 2") as exc:
            minimize(quadratic(self.center, self.scale), np.zeros(3))
        assert len(calls) == 3
        assert exc.value.log.iterations == 2
        assert len(exc.value.log.entries) == 1
        np.testing.assert_array_equal(exc.value.weights, calls[2][0])
