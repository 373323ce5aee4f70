"""The package's public surface and what the benchmark reaches into.

``perfbench/layertrace.py`` rebinds library functions by module and name; a
removed or renamed one makes every traced benchmark run fail to install, and
the suite does not collect ``perfbench/``, so these tests pin the names here.
The same holds for the set-up snippet ``perfbench/run.py`` times in a fresh
interpreter.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import fieldhopper

EXPORTS = {
    "AlphaFit", "CovarianceSpec", "CoveragePlan", "Disk", "DroneSpec", "FieldSpec",
    "HoverGeometry", "MissionReport", "MseBudget", "NormalizedCoverageTable",
    "ObservationSet", "RadioSpec", "RunConfig", "SimConfig", "SimStats",
    "SquareRegion", "Tour", "area_ratio_rho", "covariance", "cover_radius",
    "edge_success_probability", "estimate_plan_edge_mse",
    "estimate_success_probability", "fit_alpha", "hop_time",
    "krige", "load_config", "multi_uav_total", "optimal_aloha", "optimal_beta",
    "optimal_slots_estimation", "plan_aggregation", "plan_estimation", "sample_field",
    "sample_ppp", "slot_duration", "solve_minmax_mdmtsp", "solve_tsp",
    "success_probability", "travel_time",
}

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_exactly_the_public_surface():
    names = {n for n, v in vars(fieldhopper).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == EXPORTS


def test_every_traced_name_resolves():
    trace = _layertrace()
    targets = [(module, attr) for _name, module, attr in trace.WRAPPED + trace.WRAPPED_INIT]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_slot_counter_matches_the_batch_simulator_signature():
    # the tracer's slot counter reads (slant, radio, rng, slots) by position
    from fieldhopper import simkit

    params = list(inspect.signature(simkit._simulate_batch).parameters)
    assert params[:4] == ["slant", "radio", "rng", "slots"]


def test_benchmark_setup_snippet_runs():
    # read, not imported: perfbench/run.py pins BLAS variables when imported
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    code = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
