"""Benchmark of the triplication pipeline: one workload per process.

    python3 bench/run.py --workload unsat_cert --seed 0 --seconds 40 --trace 0
    python3 bench/run.py              # every workload, each in its own process

A run imports ``triplication`` from ``src/`` next to this directory, then
repeats whole rounds of its workload's fixed work, one caller on one
thread, and stops at the round boundary nearest to ``--seconds``.  Each
round's outputs are checked after the round, outside the timed span.  The
last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The median of several imports hides the first one, which may compile
# bytecode.
SETUP_REPEATS = 21

END_TO_END = {"wall_s": "s", "decided_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Public functions a round calls, timed at the call in a traced run.
LAYERS = (
    "msp.solve",
    "msp.random_tt",
    "msp.compile_instance",
    "recovery.recover_starter",
    "templates.admissible_keys",
    "templates.one_starter_table",
    "tables.validate",
)
PER_LAYER = {
    "msp.solve.busy_s": "s",
    "msp.solve.calls": "count",
    "msp.solve.nodes": "count",
    "msp.solve.backtracks": "count",
    "msp.solve.nodes_per_s": "1/s",
    "msp.random_tt.busy_s": "s",
    "msp.random_tt.calls": "count",
    "msp.compile_instance.busy_s": "s",
    "recovery.recover_starter.busy_s": "s",
    "recovery.recover_starter.calls": "count",
    "templates.admissible_keys.busy_s": "s",
    "templates.one_starter_table.busy_s": "s",
    "tables.validate.busy_s": "s",
}


def load_library() -> types.SimpleNamespace:
    """Import ``triplication`` afresh and gather what the rounds call."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "triplication"]:
        del sys.modules[name]
    tri = importlib.import_module("triplication")
    if os.path.dirname(os.path.dirname(os.path.abspath(tri.__file__))) != SRC:
        raise ImportError(f"triplication came from {tri.__file__}, not {SRC}")
    lib = types.SimpleNamespace(
        Pairing=tri.Pairing, Scenario=tri.Scenario, conjugate=tri.conjugate
    )
    for layer in LAYERS:
        module, name = layer.split(".")
        setattr(lib, name, getattr(importlib.import_module(f"triplication.{module}"), name))
    return lib


def traced(lib: types.SimpleNamespace, counters: Counter) -> types.SimpleNamespace:
    """``lib`` with each layer function timed and counted into ``counters``."""

    def wrap(layer, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            counters[f"{layer}.busy_s"] += time.perf_counter() - t0
            counters[f"{layer}.calls"] += 1
            if layer == "msp.solve":
                counters["msp.solve.nodes"] += result.stats.nodes
                counters["msp.solve.backtracks"] += result.stats.backtracks
            return result

        return call

    out = types.SimpleNamespace(**vars(lib))
    for layer in LAYERS:
        name = layer.split(".")[1]
        setattr(out, name, wrap(layer, getattr(lib, name)))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_library()
        ops = workloads.make_inputs(workload, seed)
        setup.append(time.perf_counter() - t0)

    counters: Counter = Counter()
    if trace:
        lib = traced(lib, counters)
    play = workloads.ROUNDS[workload]
    walls, rates, layer_rounds, faults = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Stop at the round boundary nearest to `seconds`.
    while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
        out: list[workloads.Decision] = []
        counters.clear()
        t0 = time.perf_counter()
        try:
            play(lib, ops, out)
        except Exception as exc:  # counted as failed operations, reported below
            print(f"round {len(walls)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        walls.append(time.perf_counter() - t0)
        layer_rounds.append(dict(counters))
        attempted += workloads.OPS_PER_ROUND[workload]
        failed += workloads.OPS_PER_ROUND[workload] - len(out)
        rates.append(sum(d.status == "unsat" or d.starter is not None for d in out) / walls[-1])
        faults += workloads.check(workload, out)

    for fault in faults[:20]:
        print(f"fault: {fault}", file=sys.stderr)
    print(f"{workload}: seed {seed}, attempted {attempted}, failed {failed}, "
          f"{len(walls)} rounds of " + " ".join(f"{w:.3f}" for w in walls) + " s")
    if trace:
        metrics = layer_metrics(layer_rounds)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "decided_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_metrics(layer_rounds: list[dict]) -> dict:
    """Per-round figures: the median over rounds of each layer's busy time and
    rate, and its counts, which are the same in every round."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "msp.solve.nodes_per_s":
            values = [r["msp.solve.nodes"] / r["msp.solve.busy_s"]
                      for r in layer_rounds if r.get("msp.solve.busy_s")] or [0]
        else:
            values = [r.get(name, 0) for r in layer_rounds]
        metrics[name] = (statistics.median_low if unit == "count" else statistics.median)(values)
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for workload in workloads.ROUNDS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.splitlines()[-1])))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{w:>14s}" for w, _ in rows))
    for name in names:
        unit = rows[0][1]["metrics"][name]["unit"]
        print(f"{name:36s} {unit:6s}"
              + "".join(f"{r['metrics'][name]['value']:14.6g}" for _, r in rows))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:43s}" + "".join(f"{str(r[key]):>14s}" for _, r in rows))
    return 0 if all(r["correct"] and not r["failed"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.ROUNDS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triplication", "__init__.py")):
        print(f"no triplication sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
