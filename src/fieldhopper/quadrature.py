"""Fixed Gauss-Legendre integration with a built-in accuracy check.

The analytic channel expressions are nested integrals of analytic functions,
on which Gauss-Legendre rules converge geometrically, so one fixed rule
serves them all: a 64-point panel on each half of the interval.  The
whole-interval panel is evaluated once more as an a-posteriori check; when
the two estimates disagree, the integral is returned anyway with a warning.
Integrands are vectorized: ``f`` receives an abscissa array and may return
extra leading axes (a batch of integrands evaluated on the same nodes), in
which case every batch member is checked.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

_NODES, _WEIGHTS = leggauss(64)
# the same rule on [0, 1], for integrals summed on fixed nodes
UNIT_NODES, UNIT_WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
# largest |two halves - whole panel| accepted, relative to the whole panel
_CHECK_TOL = 1e-9


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = np.asarray(f(mid + half * _NODES))
    return half * (values @ _WEIGHTS)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> np.ndarray:
    """Integrate ``f`` over [a, b] with a 64-point panel on each half.

    Costs exactly three panels: the two halves give the result, and the
    whole-interval panel checks it.  When they differ by more than
    ``_CHECK_TOL`` relative to the whole panel's magnitude, or the difference
    is not a number, a ``RuntimeWarning`` names the interval.  Returns a
    scalar, or an array matching the leading axes of ``f``'s output.
    """
    whole = _panel(f, a, b)
    mid = 0.5 * (a + b)
    fine = _panel(f, a, mid) + _panel(f, mid, b)
    scale = max(float(np.max(np.abs(whole))), np.finfo(float).tiny)
    err = float(np.max(np.abs(fine - whole)))
    if not err <= _CHECK_TOL * scale:
        warnings.warn(
            f"integral over [{a:g}, {b:g}] failed the quadrature check: two half "
            f"panels and one whole panel differ by {err / scale:.2g} relative",
            RuntimeWarning,
            stacklevel=2,
        )
    return fine
