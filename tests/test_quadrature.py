import math
import warnings

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



@pytest.mark.parametrize(
    "f",
    [lambda x: np.abs(x - 1.0 / 3.0), lambda x: (x > 1.0 / 3.0).astype(float)],
    ids=["kink", "step"],
)
def test_max_depth_truncation_warns(f):
    with pytest.warns(RuntimeWarning, match=r"\[0, 1\].*max_depth 3"):
        quadrature.integrate(f, 0.0, 1.0, rel_tol=1e-12, max_depth=3)


@pytest.mark.parametrize(
    "f,a,b,rel_tol",
    [
        (lambda x: 3 * x**2, 0.0, 2.0, 1e-9),
        (np.sin, 0.0, 50.0, 1e-10),
        (lambda x: np.exp(-np.array([1.0, 2.0, 5.0])[:, None] * x[None, :]), 0.0, 10.0, 1e-10),
        (lambda x: np.exp(-((x - 0.9) ** 2) / 2e-6), 0.0, 1.0, 1e-9),
    ],
    ids=["polynomial", "oscillatory", "batch", "sharp-peak"],
)
def test_smooth_integrands_do_not_warn(f, a, b, rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadrature.integrate(f, a, b, rel_tol=rel_tol)
