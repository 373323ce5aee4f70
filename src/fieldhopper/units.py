"""Unit conversions used at the package boundary.

Everything inside the library is SI: meters, seconds, watts, hertz, bits,
radians.  Configuration files and the CLI accept the units that deployment
notes are usually written in (dBm, km/h, kB, kHz, degrees) and convert once,
here.
"""

from __future__ import annotations

KMH = 1000.0 / 3600.0           # km/h -> m/s
KMH_PER_S = 1000.0 / 3600.0     # (km/h)/s -> m/s^2
KMH2 = 1000.0 / 3600.0 ** 2     # km/h^2 -> m/s^2
KIB = 1024                      # kB -> bytes (binary, 5 kB packet = 40960 bit)


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def kmh_to_mps(kmh: float) -> float:
    return kmh * KMH


def kmh_per_s_to_mps2(q: float) -> float:
    """Acceleration given as km/h gained per second."""
    return q * KMH_PER_S


def kmh2_to_mps2(q: float) -> float:
    """Acceleration given literally in km/h^2 (rarely what is meant)."""
    return q * KMH2


def kb_to_bits(kb: float) -> float:
    return kb * KIB * 8


def khz_to_hz(khz: float) -> float:
    return khz * 1e3
