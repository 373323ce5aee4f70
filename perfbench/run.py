"""Hover-vs-travel benchmark for fieldhopper.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-agg --seed 1 --seconds 25 --trace 0

The workload's operations run in rounds, in this process and on one thread,
until the next round would overrun ``--seconds`` of timed work (at least one
round always runs).  Every operation's output is checked apart from the
program.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Both
modes also write their details under ``perfbench/runs/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; set-up children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"
WORKLOADS = ("plan-agg", "plan-est", "travel", "mc-validate")
SETUP_SAMPLES = 5
# a fresh interpreter up to the point where it could run its first operation
SETUP_CODE = (
    "import time\n"
    "from fieldhopper import cli\n"
    "cli.load_table(cli.RunConfig())\n"
    "print(repr(time.monotonic()))\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning an interpreter to its table being loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def run_rounds(ops, seconds: float, tracer=None) -> dict:
    """Whole rounds of the operations until the next would overrun ``seconds``."""
    rounds, errors, failures = [], [], []
    attempted = failed = 0
    timed = 0.0
    while not rounds or timed + rounds[-1]["s"] <= seconds:
        ops_s, summaries, mission, cover = {}, {}, 0.0, 0.0
        for op in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an operation that raises counts as failed
                ops_s[op.name] = time.perf_counter() - start
                failed += 1
                errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                continue
            ops_s[op.name] = time.perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            try:
                outcome = op.inspect(result)
            except Exception:  # output missing or malformed: a failed check
                failures.append(f"{op.name}: unreadable output: {traceback.format_exc(limit=3)}")
                continue
            finally:
                if tracer is not None:
                    tracer.paused = False
            failures += [f"{op.name}: {f}" for f in outcome.failures]
            mission += outcome.mission_s
            cover += outcome.cover_radius_sum
            summaries[op.name] = outcome.summary
        round_s = sum(ops_s.values())
        timed += round_s
        rounds.append({"s": round_s, "ops_s": ops_s, "mission_s": mission,
                       "cover_radius_sum": cover, "summaries": summaries})
    if len({(r["mission_s"], r["cover_radius_sum"]) for r in rounds}) > 1:
        failures.append("seeded rounds disagree on mission_s or cover_radius_sum")
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "errors": errors, "failures": failures}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fieldhopper" / "__init__.py").is_file():
        print(f"perfbench: no fieldhopper sources under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import workloads
    from layertrace import METRICS, Tracer

    tag = f"{args.workload}-s{args.seed}"
    workload = workloads.Workload(args.workload, args.seed, ROOT, RUNS / tag)
    ops = workload.operations()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = run_rounds(ops, args.seconds, tracer)
    rounds = run["rounds"]
    wall = statistics.median(r["s"] for r in rounds)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "mission_s": (rounds[0]["mission_s"], "s"),
            "cover_radius_sum": (rounds[0]["cover_radius_sum"], "unit_side"),
        }
    else:
        units = dict(METRICS)
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(len(rounds)).items()}
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup, "wall_s": wall, **run}
    RUNS.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if tracer else ""
    (RUNS / f"{tag}{suffix}.json").write_text(json.dumps({"result": result, **detail}, indent=1))
    if tracer is not None:
        (RUNS / f"{tag}.trace.json").write_text(json.dumps(tracer.dump()))
    for line in run["errors"] + run["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
