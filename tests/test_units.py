import pytest

from fieldhopper import units


def test_dbm_reference_points():
    assert units.dbm_to_watts(-30.0) == pytest.approx(1e-6)
    assert units.dbm_to_watts(-80.0) == pytest.approx(1e-11)
    assert units.dbm_to_watts(0.0) == pytest.approx(1e-3)


def test_speed_and_accel():
    assert units.kmh_to_mps(20.0) == pytest.approx(5.5555555556)
    # per-second ramp vs the literal square-hour unit differ by 3600x
    assert units.kmh_per_s_to_mps2(10.0) == pytest.approx(2.7777777778)
    assert units.kmh2_to_mps2(10.0) * 3600.0 == pytest.approx(units.kmh_per_s_to_mps2(10.0))


def test_packet_and_bandwidth():
    assert units.kb_to_bits(5.0) == 40960.0
    assert units.khz_to_hz(200.0) == 200000.0
