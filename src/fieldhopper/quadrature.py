"""Adaptive Gauss-Legendre integration on panels.

The analytic channel expressions are nested integrals of smooth functions,
so a 64-point Gauss-Legendre rule per panel with interval halving converges
extremely fast.  Integrands are vectorized: ``f`` receives an abscissa array
and may return extra leading axes (a batch of integrands evaluated on the
same nodes), in which case every batch member must meet the tolerance.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

_NODES, _WEIGHTS = leggauss(64)
# the same rule on [0, 1], for integrals summed on fixed nodes
UNIT_NODES, UNIT_WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = np.asarray(f(mid + half * _NODES))
    return half * (values @ _WEIGHTS)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    max_depth: int = 24,
) -> np.ndarray:
    """Integrate ``f`` over [a, b] to a relative tolerance.

    Each panel is accepted when splitting it in half changes the estimate by
    less than ``rel_tol`` relative to the running magnitude of the integral.
    A panel that reaches ``max_depth`` halvings is accepted anyway, with a
    ``RuntimeWarning`` naming the interval.  Returns a scalar, or an array
    matching the leading axes of ``f``'s output.
    """
    if b == a:
        return np.asarray(f(np.asarray([a])))[..., 0] * 0.0
    whole = _panel(f, a, b)
    total = np.zeros_like(whole)
    scale = max(float(np.max(np.abs(whole))), np.finfo(float).tiny)
    stack = [(a, b, whole, 0)]
    unresolved = 0
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        err = float(np.max(np.abs(fine - coarse)))
        converged = err <= rel_tol * scale
        if converged or depth >= max_depth:
            if not converged:
                unresolved += 1
            total = total + fine
            scale = max(scale, float(np.max(np.abs(total))))
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    if unresolved:
        warnings.warn(
            f"integral over [{a:g}, {b:g}] not resolved to rel_tol {rel_tol:g}: "
            f"{unresolved} panel(s) accepted at max_depth {max_depth}",
            RuntimeWarning,
            stacklevel=2,
        )
    return total

