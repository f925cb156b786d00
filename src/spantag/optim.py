"""L-BFGS minimizer with Armijo backtracking line search.

Tailored to the training objective's needs: limited memory (default
10), halving line search with c1 = 1e-4, convergence when the relative
objective decrease stays below ``eta`` for three consecutive
iterations, and a single steepest-descent restart before giving up.

Gradients are lazy.  ``fun(x)`` returns ``(value, gradient)``, where
``gradient()`` computes the gradient at x.  The sufficient-decrease
test needs only the value (Nocedal & Wright 2006, Alg. 3.1), so a
rejected line-search trial never pays for its gradient: ``minimize``
calls ``gradient()`` once at x0 and once per accepted step, and drops
each closure before the next evaluation, so at most one trial's state
is alive at a time.  Trials are written in place into a vector that
trades places with the iterate at each accepted step, so ``fun`` and
its gradient function must not keep ``x`` past the gradient call or
the trial's rejection.  Each curvature pair (s, y) enters memory with
its rho = 1 / (y . s), computed once, and the two-loop recursion does
its updates through one scratch vector.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, TrainingError

_CONVERGENCE_WINDOW = 3
_MIN_STEP = 1e-20
_CURVATURE_EPS = 1e-12


@dataclass
class IterationLog:
    """Per-iteration (iteration, value, gradient norm, step) entries, and
    the run's counts: objective values computed and rejected trials."""
    entries: list[tuple[int, float, float, float]] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    evaluations: int = 0
    backtracks: int = 0

    def add(self, iteration: int, value: float, grad_norm: float, step: float):
        self.entries.append((iteration, value, grad_norm, step))


def _two_loop(grad, s_list, y_list, rho_list):
    """Implicit product of the L-BFGS inverse Hessian with the gradient."""
    q = grad.copy()
    buf = np.empty_like(q)
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= np.multiply(a, y, out=buf)
    s, y = s_list[-1], y_list[-1]
    gamma = float(np.dot(s, y)) / float(np.dot(y, y))
    q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += np.multiply(a - b, s, out=buf)
    return q


def minimize(fun, x0, *, memory: int = 10, eta: float = 1e-4,
             max_iterations: int = 500, c1: float = 1e-4):
    """Minimize ``fun`` (returning (value, gradient function)) from ``x0``.

    Returns (x, IterationLog).  Raises a training error carrying the
    last iterate if the line search fails even after a memory reset,
    and a numeric error if the objective goes non-finite.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if memory < 1:
        raise ValueError("memory must be >= 1")
    x = np.asarray(x0, dtype=float).copy()
    trial = np.empty_like(x)  # the line search's trials; swaps with x
    log = IterationLog()
    f, gradient = fun(x)
    log.evaluations += 1
    g = gradient()
    del gradient
    _check_finite(f, g)
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    flat_count = 0

    for iteration in range(1, max_iterations + 1):
        if s_list:
            direction = _two_loop(g, s_list, y_list, rho_list)
            np.negative(direction, out=direction)
        else:
            direction = -g
        slope = float(np.dot(g, direction))
        if slope > 0:
            # not a descent direction; fall back to steepest descent
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            direction = -g
            slope = -float(np.dot(g, g))

        step, f_new, gradient = _line_search(fun, x, f, direction, slope,
                                             c1, log, trial)
        if step is None:
            if s_list:
                # restart once from steepest descent
                s_list.clear()
                y_list.clear()
                rho_list.clear()
                direction = -g
                slope = -float(np.dot(g, g))
                step, f_new, gradient = _line_search(
                    fun, x, f, direction, slope, c1, log, trial)
            if step is None:
                log.iterations = iteration
                raise TrainingError(
                    f"line search failed at iteration {iteration}",
                    weights=x, log=log)
        g_new = gradient()
        del gradient  # the accepted trial's state is not needed again
        _check_finite(f_new, g_new)

        s = trial - x
        y = g_new - g
        if float(np.dot(s, y)) > _CURVATURE_EPS:
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / float(np.dot(y, s)))
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)

        decrease = f - f_new
        rel = decrease / max(abs(f), 1e-12)
        log.add(iteration, f_new, float(np.linalg.norm(g_new)), step)
        x, trial, f, g = trial, x, f_new, g_new

        flat_count = flat_count + 1 if rel < eta else 0
        if flat_count >= _CONVERGENCE_WINDOW:
            log.converged = True
            log.iterations = iteration
            return x, log

    log.iterations = max_iterations
    return x, log


def _line_search(fun, x, f, direction, slope, c1, log, trial):
    """Halve the step from 1 until a trial passes the sufficient-decrease
    test on its value alone: (step, value, gradient function), or three
    Nones.  Each trial x + step * direction is written into ``trial``."""
    step = 1.0
    while step >= _MIN_STEP:
        np.add(x, np.multiply(step, direction, out=trial), out=trial)
        f_new, gradient = fun(trial)
        log.evaluations += 1
        if np.isfinite(f_new) and f_new <= f + c1 * step * slope:
            return step, f_new, gradient
        del gradient  # release the rejected trial's state before the next
        log.backtracks += 1
        step *= 0.5
    return None, None, None


def _check_finite(f, g):
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericError("objective or gradient went non-finite")
