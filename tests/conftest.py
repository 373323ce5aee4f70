"""Shared fixtures: reference deployment parameters and the cached table."""

import math
import os

# one BLAS thread, set before numpy loads: the seeded kriging results depend
# on the pool size, and a multi-threaded pool stalls under a busy second CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy import integrate

from fieldhopper.channel import HoverGeometry, RadioSpec
from fieldhopper.cli import packaged_table_path
from fieldhopper.covering import NormalizedCoverageTable
from fieldhopper.field import CovarianceSpec
from fieldhopper.kinematics import DroneSpec
from fieldhopper.mission import FieldSpec

# Published covering table for the unit square (radius and tour length per M).
REFERENCE_DELTA = [
    0.707, 0.559, 0.504, 0.354, 0.326, 0.299, 0.274, 0.260, 0.231, 0.218,
    0.213, 0.202, 0.194, 0.186, 0.180, 0.169, 0.166, 0.161, 0.158, 0.152,
    0.149, 0.144, 0.141, 0.138,
]
REFERENCE_ALPHA = [
    0.0, 1.00, 1.61, 2.00, 2.24, 2.36, 3.26, 2.59, 3.17, 3.59,
    3.37, 3.56, 3.99, 4.05, 4.14, 4.26, 4.16, 4.48, 4.44, 4.61,
    4.86, 5.47, 5.06, 5.26,
]


def pytest_configure(config):
    # a reference integral that misses its tolerance fails its test, unless
    # the test records the warning itself; added here rather than in
    # pyproject.toml, where resolving the class would import numpy first
    config.addinivalue_line("filterwarnings", "error::scipy.integrate.IntegrationWarning")


REFERENCE_RTOL = 1e-13  # relative tolerance every QUADPACK reference asks for


def reference_quad(f, lo, hi):
    """Integral of a vectorized ``f`` over [lo, hi] by QUADPACK at 1e-13 relative.

    Returns the value and QUADPACK's own error estimate.  Independent of
    ``fieldhopper.quadrature``, so it can serve as a reference.
    """
    return integrate.quad(
        lambda x: float(f(np.array([x]))[0]), lo, hi, epsabs=0.0, epsrel=REFERENCE_RTOL, limit=200
    )


def reference_lens_quad(f, cover, probe):
    """Integral of a vectorized ``f(w)`` over in-disk radii [0, cover] for the
    edge lens of a probe disk of radius ``probe``, with its error estimate.

    Split at the inner tangency lo = |cover - probe|.  The lens angle has a
    square-root endpoint there, so the segment [lo, cover] runs in u with
    w = lo + (cover - lo) u^2, as the library's edge rule does.
    """
    lo = min(abs(cover - probe), cover)
    span = cover - lo
    core, core_err = reference_quad(f, 0.0, lo)
    lens, lens_err = reference_quad(lambda u: f(lo + span * u**2) * 2.0 * span * u, 0.0, 1.0)
    return core + lens, core_err + lens_err


@pytest.fixture(scope="session")
def table() -> NormalizedCoverageTable:
    return NormalizedCoverageTable.load(packaged_table_path())


@pytest.fixture()
def radio() -> RadioSpec:
    """Reference radio: -30 dBm over -80 dBm noise, 200 kHz, 5 kB packets."""
    return RadioSpec(
        power=1e-6, noise=1e-11, eta=3.0, m=1,
        bandwidth=2e5, packet_bits=40960.0, beta=1.8, aloha=0.02,
    )


@pytest.fixture()
def drone() -> DroneSpec:
    """Reference drone: 20 km/h, 10 (km/h)/s ramps, 8 s per-stop overhead."""
    return DroneSpec(
        speed=20.0 / 3.6, accel=10.0 / 3.6, decel=10.0 / 3.6,
        reconf_time=8.0, beamwidth=math.pi / 2,
    )


@pytest.fixture()
def geom20() -> HoverGeometry:
    return HoverGeometry(radius=20.0, altitude=20.0, density=0.1)


@pytest.fixture()
def deployment() -> FieldSpec:
    return FieldSpec(side=100.0, density=0.1)


@pytest.fixture()
def cov75() -> CovarianceSpec:
    return CovarianceSpec(sigma2=1.0, nu=0.5, b=75.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
