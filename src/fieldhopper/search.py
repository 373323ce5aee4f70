"""Scalar line searches shared by the parameter optimizers."""

from __future__ import annotations

import math
from typing import Callable

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_ITER = 200  # bracket reductions before a search returns regardless of tol


def golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return (x, fc) if fc <= fd else (x, fd)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    x, neg = golden_min(lambda t: -f(t), lo, hi, tol)
    return x, -neg
