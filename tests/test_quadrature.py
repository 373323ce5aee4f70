import math
import time
import warnings

import numpy as np
import pytest

from fieldhopper import channel, quadrature
from fieldhopper.channel import HoverGeometry


def test_polynomial_is_exact():
    got = quadrature.integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert float(got) == pytest.approx(8.0, rel=1e-13)


def test_oscillatory_to_tolerance():
    got = quadrature.integrate(np.sin, 0.0, 50.0)
    want = 1.0 - math.cos(50.0)
    assert float(got) == pytest.approx(want, rel=1e-9)


def test_empty_interval():
    assert float(quadrature.integrate(np.exp, 1.0, 1.0)) == 0.0


def test_batch_integrand_leading_axis():
    scales = np.array([1.0, 2.0, 5.0])

    def f(x):
        return np.exp(-scales[:, None] * x[None, :])

    got = quadrature.integrate(f, 0.0, 10.0)
    want = (1.0 - np.exp(-scales * 10.0)) / scales
    assert np.allclose(got, want, rtol=1e-9)


ROUGH = [
    lambda x: np.abs(x - 1.0 / 3.0),
    lambda x: (x > 1.0 / 3.0).astype(float),
    lambda x: np.exp(-((x - 0.9) ** 2) / 2e-6),
]


@pytest.mark.parametrize("f", ROUGH, ids=["kink", "step", "narrow-peak"])
def test_check_warns_on_rough_integrand(f):
    with pytest.warns(RuntimeWarning, match=r"\[0, 1\] failed the quadrature check"):
        quadrature.integrate(f, 0.0, 1.0)


def test_check_warns_on_nan():
    with pytest.warns(RuntimeWarning, match="quadrature check"):
        quadrature.integrate(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: 3 * x**2, 0.0, 2.0),
        (np.sin, 0.0, 50.0),
        (lambda x: np.exp(-np.array([1.0, 2.0, 5.0])[:, None] * x[None, :]), 0.0, 10.0),
    ],
    ids=["polynomial", "oscillatory", "batch"],
)
def test_smooth_integrands_do_not_warn(f, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadrature.integrate(f, a, b)


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(len(x))
        return f(x)

    return wrapped, calls


@pytest.mark.parametrize("f", [np.sin, *ROUGH], ids=["smooth", "kink", "step", "narrow-peak"])
def test_fixed_cost_of_three_panels(f):
    wrapped, calls = _counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        quadrature.integrate(wrapped, 0.0, 1.0)
    assert calls == [64, 64, 64]


def test_near_underflow_disk_kernel_costs_three_panels(radio):
    # the capture kernel of a dense, busy disk sits near the underflow floor
    # (p = 4.5e-305); its subnormal Laplace terms carry rounding noise far
    # above 1e-9 relative, so the check fires, but the cost stays fixed
    geom = HoverGeometry(15.0, 15.0, 1.0)
    link = radio.with_(m=3, beta=20.0, aloha=1.0)
    channel._capture_kernel(np.array([geom.altitude]), geom, link)  # build the interpolant
    wrapped, calls = _counted(lambda r: channel._capture_kernel(r, geom, link) * r)
    start = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="quadrature check"):
        value = quadrature.integrate(wrapped, geom.altitude, geom.slant)
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 3
    assert 2.0 * math.pi * geom.density * float(value) == pytest.approx(4.5e-305, rel=0.01)
