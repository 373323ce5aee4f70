"""Run configuration: deployment defaults, config files, spec builders.

A run is described by a flat key=value file (``#`` comments allowed) whose
keys carry their unit in the name, e.g. ``power_dbm = -30`` or
``speed_kmh = 20``.  Everything has a default, so an empty config plans the
reference deployment: a 100 m x 100 m field at 0.1 nodes/m^2 with a -30 dBm
radio over 200 kHz, 5 kB packets, and a 20 km/h drone.

Acceleration deserves a note: drone agility is specified as km/h gained per
second (``accel_kmh_per_s``, default 10, i.e. 0 to 20 km/h in 2 s).  A
literal ``accel_kmh2`` key is also accepted for completeness, but a reading
of 10 km/h^2 would mean a 20 km ramp-up distance, which no mission over a
sub-kilometer field can exercise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field, fields, replace
from pathlib import Path

from . import units
from .channel import RadioSpec
from .field import CovarianceSpec, _check_budget
from .kinematics import DroneSpec
from .mission import FieldSpec

OPTIMIZE = "optimize"


class ConfigError(ValueError):
    """A config file or option set that does not describe a valid run."""


@dataclass
class RunConfig:
    """Full description of a planning / simulation run, in SI units."""

    mission: str = "aggregation"
    side: float = 100.0
    density: float = 0.1
    power: float = units.dbm_to_watts(-30.0)
    noise: float = units.dbm_to_watts(-80.0)
    eta: float = 3.0
    nakagami_m: int = 1
    bandwidth: float = units.khz_to_hz(200.0)
    packet_bits: float = units.kb_to_bits(5.0)
    beta: float | None = None      # None: optimize per M
    aloha: float | None = None     # None: optimize per M
    speed: float = units.kmh_to_mps(20.0)
    accel: float = units.kmh_per_s_to_mps2(10.0)
    decel: float = units.kmh_per_s_to_mps2(10.0)
    reconf: float = 8.0
    beamwidth: float = math.pi / 2
    zeta: float = 250.0
    delta: float = 0.2
    sigma2: float = 1.0
    nu: float = 0.5
    corr_range: float = 75.0
    m_min: int = 1
    m_max: int = 24
    uavs: int = 1
    depots: list[tuple[float, float]] | None = None
    seed: int = 0
    restarts: int = 60
    paper_literal_kinematics: bool = False
    out_dir: str = "out"
    table_path: str | None = None
    label: str | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` for values outside the model.  The four specs
        own their fields' checks, so this builds them and adds what no spec knows."""
        if self.mission not in ("aggregation", "estimation"):
            raise ConfigError(f"unknown mission {self.mission!r}")
        # NaN passes a `<= 0` check such as zeta's, and no quantity of the model is infinite
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        values += [("depots", v) for depot in self.depots or () for v in depot]
        for name, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.mission == "aggregation" and self.zeta <= 0:
            raise ConfigError("aggregation mission needs zeta > 0")
        if self.m_min < 1 or self.m_max < self.m_min:
            raise ConfigError("need 1 <= m_min <= m_max")
        if self.uavs < 1:
            raise ConfigError("need at least one UAV")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.density <= 0:  # a FieldSpec allows an empty field
            raise ConfigError("density must be positive")
        try:
            for build in (self.radio, self.drone, self.field, self.covariance):
                build()
            if self.mission == "estimation":
                _check_budget(self.covariance(), self.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ---- spec builders -----------------------------------------------------
    def radio(self) -> RadioSpec:
        """The configured link; an ``optimize`` value reads ``RadioSpec``'s default."""
        given = {k: v for k, v in (("beta", self.beta), ("aloha", self.aloha)) if v is not None}
        return RadioSpec(
            power=self.power, noise=self.noise, eta=self.eta, m=self.nakagami_m,
            bandwidth=self.bandwidth, packet_bits=self.packet_bits, **given,
        )

    def drone(self) -> DroneSpec:
        return DroneSpec(
            speed=self.speed, accel=self.accel, decel=self.decel,
            reconf_time=self.reconf, beamwidth=self.beamwidth,
            paper_literal=self.paper_literal_kinematics,
        )

    def field(self) -> FieldSpec:
        return FieldSpec(side=self.side, density=self.density)

    def covariance(self) -> CovarianceSpec:
        return CovarianceSpec(sigma2=self.sigma2, nu=self.nu, b=self.corr_range)

    # ---- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(map(list, v)) if f.name == "depots" and v else v
        return out

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, default=float)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


_KEY_PARSERS = {
    "mission": ("mission", str),
    "side_m": ("side", float),
    "density_per_m2": ("density", float),
    "power_dbm": ("power", units.dbm_to_watts),
    "noise_dbm": ("noise", units.dbm_to_watts),
    "power_w": ("power", float),
    "noise_w": ("noise", float),
    "path_loss_exponent": ("eta", float),
    "nakagami_m": ("nakagami_m", int),
    "bandwidth_khz": ("bandwidth", units.khz_to_hz),
    "bandwidth_hz": ("bandwidth", float),
    "packet_kb": ("packet_bits", units.kb_to_bits),
    "packet_bits": ("packet_bits", float),
    "speed_kmh": ("speed", units.kmh_to_mps),
    "speed_mps": ("speed", float),
    "accel_kmh_per_s": ("accel", units.kmh_per_s_to_mps2),
    "decel_kmh_per_s": ("decel", units.kmh_per_s_to_mps2),
    "accel_kmh2": ("accel", units.kmh2_to_mps2),
    "decel_kmh2": ("decel", units.kmh2_to_mps2),
    "accel_mps2": ("accel", float),
    "decel_mps2": ("decel", float),
    "reconf_s": ("reconf", float),
    "beamwidth_deg": ("beamwidth", math.radians),
    "zeta": ("zeta", float),
    "delta": ("delta", float),
    "sigma2": ("sigma2", float),
    "nu": ("nu", float),
    "corr_range_m": ("corr_range", float),
    "m_min": ("m_min", int),
    "m_max": ("m_max", int),
    "uavs": ("uavs", int),
    "seed": ("seed", int),
    "restarts": ("restarts", int),
    "out": ("out_dir", str),
    "table": ("table_path", str),
    "label": ("label", str),
}


def _parse_depots(text: str) -> list[tuple[float, float]] | None:
    text = text.strip()
    if text == "center":
        return None
    pts = []
    for chunk in text.split(";"):
        x, y = chunk.split(",")
        pts.append((float(x), float(y)))
    return pts


def load_config(path: str | Path) -> RunConfig:
    """Read a key=value config file over the defaults.

    Unreadable files, malformed lines, unknown keys and unparsable values
    raise :class:`ConfigError`.
    """
    cfg = RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            cfg = _apply_key(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return cfg


def _apply_key(cfg: RunConfig, key: str, value: str) -> RunConfig:
    if key == "depots":
        return cfg.with_(depots=_parse_depots(value))
    if key == "sinr_threshold":
        return cfg.with_(beta=None if value == OPTIMIZE else float(value))
    if key == "aloha":
        return cfg.with_(aloha=None if value == OPTIMIZE else float(value))
    if key == "paper_literal_kinematics":
        flag = value.lower()
        if flag not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(value)
        return cfg.with_(paper_literal_kinematics=flag in ("1", "true", "yes"))
    if key not in _KEY_PARSERS:
        raise ConfigError(f"unknown key {key!r}")
    attr, parse = _KEY_PARSERS[key]
    parsed = parse(value) if parse in (str, int, float) else parse(float(value))
    return cfg.with_(**{attr: parsed})
