import math

import numpy as np
import pytest

from fieldhopper import quadrature


def test_polynomial_is_exact():
    got = quadrature.integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert float(got) == pytest.approx(8.0, rel=1e-13)


def test_oscillatory_to_tolerance():
    got = quadrature.integrate(np.sin, 0.0, 50.0, rel_tol=1e-10)
    want = 1.0 - math.cos(50.0)
    assert float(got) == pytest.approx(want, rel=1e-9)


def test_empty_interval():
    assert float(quadrature.integrate(np.exp, 1.0, 1.0)) == 0.0


def test_batch_integrand_leading_axis():
    scales = np.array([1.0, 2.0, 5.0])

    def f(x):
        return np.exp(-scales[:, None] * x[None, :])

    got = quadrature.integrate(f, 0.0, 10.0, rel_tol=1e-10)
    want = (1.0 - np.exp(-scales * 10.0)) / scales
    assert np.allclose(got, want, rtol=1e-9)


def test_sharp_peak_needs_subdivision():
    # narrow Gaussian far from the panel center exercises the adaptive split
    got = quadrature.integrate(
        lambda x: np.exp(-((x - 0.9) ** 2) / 2e-6), 0.0, 1.0, rel_tol=1e-9
    )
    want = math.sqrt(2.0 * math.pi * 1e-6)
    assert float(got) == pytest.approx(want, rel=1e-7)

