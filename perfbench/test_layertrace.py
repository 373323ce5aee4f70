"""The tracer sees calls through every namespace and leaves none wrapped.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fieldhopper import channel, field, mission  # noqa: E402

from layertrace import METRICS, Tracer  # noqa: E402


@pytest.fixture()
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def small_link():
    geom = channel.HoverGeometry(radius=20.0, altitude=20.0, density=0.1)
    radio = channel.RadioSpec(power=1e-6, noise=1e-11, eta=3.0, m=1, bandwidth=2e5,
                              packet_bits=40960.0, beta=1.8, aloha=0.02)
    return geom, radio


def test_counts_calls_made_through_imported_names(tracer):
    geom, radio = small_link()
    mission.success_probability(geom, radio)  # bound by "from .channel import"
    channel.success_probability(geom, radio)
    field.success_probability(geom, radio)
    m = tracer.metrics(rounds=1)
    assert m["channel.success_probability.calls"] == 3
    assert m["quadrature.integrate.calls"] >= 3
    assert m["quadrature.panels"] >= 3 * 3  # one coarse and two halves per integral at least
    assert m["channel.success_probability.self_s"] <= tracer.inclusive["channel.success_probability"]


def test_nested_searches_count_once_for_inclusive_time(tracer):
    geom, radio = small_link()
    channel.optimal_aloha(geom, radio, tol=1e-2)
    assert tracer.calls["search.golden_min"] == 1
    assert tracer.counts["search.golden_min.evals"] > 2
    assert tracer.inclusive["channel.optimal_aloha"] >= tracer.inclusive["search.golden_min"]


def test_paused_tracer_records_nothing(tracer):
    geom, radio = small_link()
    tracer.paused = True
    channel.success_probability(geom, radio)
    tracer.paused = False
    assert tracer.calls["channel.success_probability"] == 0


def test_uninstall_restores_every_binding():
    before = (channel.success_probability, mission.success_probability,
              field.ObservationSet.__init__)
    t = Tracer()
    t.install()
    assert mission.success_probability is not before[1]
    t.uninstall()
    assert (channel.success_probability, mission.success_probability,
            field.ObservationSet.__init__) == before


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == METRICS
    assert Tracer().metrics(rounds=1).keys() == dict(METRICS).keys()
