"""L-BFGS minimizer with Armijo backtracking line search.

Tailored to the training objective's needs: limited memory (default
10), halving line search with the fixed constant c1 = 1e-4 (``_C1``),
and convergence when the relative objective decrease stays below
``eta`` for three consecutive iterations.

Gradients are lazy.  ``fun(x)`` returns ``(value, gradient)``, where
``gradient()`` computes the gradient at x.  The sufficient-decrease
test needs only the value (Nocedal & Wright 2006, Alg. 3.1), so a
rejected line-search trial never pays for its gradient: ``minimize``
calls ``gradient()`` once at x0 and once per accepted step, and drops
each closure before the next evaluation, so at most one trial's state
is alive at a time.  Trials are written in place into a vector that
trades places with the iterate at each accepted step, so ``fun`` and
its gradient function must not keep ``x`` past the gradient call or
the trial's rejection.

The curvature history lives in two preallocated ``(memory + 1, dim)``
arrays S and Y, with the curvature s . y and y . y of each slot, both
computed once, when its pair is kept, and a list of the slots in use,
oldest first.  Each new pair is written in place into a slot outside
that list and joins it only if it passes the curvature test, so a
rejected pair never displaces a kept one; a reset empties the list.
There is one restart path: when the L-BFGS direction goes uphill or
its line search fails, the history is reset and the iteration retried
along -g, and a failure with no history raises.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, TrainingError

_CONVERGENCE_WINDOW = 3
_MIN_STEP = 1e-20
_CURVATURE_EPS = 1e-12
_C1 = 1e-4  # Armijo sufficient-decrease constant


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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two 1-D arrays, summed in numpy's own order.  BLAS's dot
    sums in an order that depends on its thread count, and every iterate,
    and so every model file, would inherit it."""
    return float(np.einsum("i,i", a, b))


def _two_loop(grad, S, Y, sy, yy, order):
    """Implicit product of the L-BFGS inverse Hessian with the gradient,
    over the history slots in ``order`` (oldest first), whose s . y and
    y . y are ``sy`` and ``yy``: two dots per pair."""
    q = grad.copy()
    buf = np.empty_like(q)
    alphas = []
    # times 1 / (s . y), not over s . y: the two round differently
    for i in reversed(order):
        a = (1.0 / sy[i]) * dot(S[i], q)
        alphas.append(a)
        q -= np.multiply(a, Y[i], out=buf)
    q *= sy[order[-1]] / yy[order[-1]]
    for i, a in zip(order, reversed(alphas)):
        b = (1.0 / sy[i]) * dot(Y[i], q)
        q += np.multiply(a - b, S[i], out=buf)
    return q


def minimize(fun, x0, *, memory: int = 10, eta: float = 1e-4,
             max_iterations: int = 500):
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
    if not np.isfinite(f):  # outside the domain there is no gradient
        raise NumericError("objective is non-finite at the start point")
    g = gradient()
    del gradient
    _check_finite(f, g)
    S = np.empty((memory + 1, x.size))
    Y = np.empty_like(S)
    sy = [0.0] * (memory + 1)  # s . y of each slot
    yy = [0.0] * (memory + 1)  # y . y of each slot
    order: list[int] = []  # history slots in use, oldest first
    flat_count = 0

    for iteration in range(1, max_iterations + 1):
        log.iterations = iteration
        while True:
            if order:
                direction = _two_loop(g, S, Y, sy, yy, order)
                np.negative(direction, out=direction)
            else:
                direction = -g
            slope = dot(g, direction)
            if slope <= 0:
                step, f_new, gradient = _line_search(fun, x, f, direction,
                                                     slope, log, trial)
                if step is not None:
                    break
            if not order:
                raise TrainingError(
                    f"line search failed at iteration {iteration}",
                    weights=x, log=log)
            order.clear()  # uphill or failed: restart from steepest descent
        g_new = gradient()
        del gradient  # the accepted trial's state is not needed again
        _check_finite(f_new, g_new)

        slot = next(i for i in range(memory + 1) if i not in order)
        s = np.subtract(trial, x, out=S[slot])
        y = np.subtract(g_new, g, out=Y[slot])
        curvature = dot(s, y)
        if curvature > _CURVATURE_EPS:
            sy[slot], yy[slot] = curvature, dot(y, y)
            order.append(slot)
            if len(order) > memory:
                order.pop(0)

        rel = (f - f_new) / max(abs(f), 1e-12)
        log.add(iteration, f_new, math.sqrt(dot(g_new, g_new)), step)
        x, trial, f, g = trial, x, f_new, g_new

        flat_count = flat_count + 1 if rel < eta else 0
        if flat_count >= _CONVERGENCE_WINDOW:
            log.converged = True
            break
    return x, log


def _line_search(fun, x, f, direction, slope, log, trial):
    """Halve the step from 1 until a trial passes the sufficient-decrease
    test on its value alone: (step, value, gradient function), or three
    Nones.  Each trial x + step * direction is written into ``trial``."""
    step = 1.0
    while step >= _MIN_STEP:
        np.add(x, np.multiply(step, direction, out=trial), out=trial)
        f_new, gradient = fun(trial)
        log.evaluations += 1
        if np.isfinite(f_new) and f_new <= f + _C1 * step * slope:
            return step, f_new, gradient
        del gradient  # release the rejected trial's state before the next
        log.backtracks += 1
        step *= 0.5
    return None, None, None


def _check_finite(f, g):
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericError("objective or gradient went non-finite")
