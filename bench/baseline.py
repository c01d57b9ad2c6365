"""Repeat benchmark runs over seeds and report how far each metric spreads.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--record LABEL]

Runs the command of ``BENCHMARK.json`` once per seed (1 to 10) and workload,
one run at a time, seeds in the outer loop.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound, and exits 1 when a spread
exceeds its bound.  With ``--record`` it also
makes one traced run per workload and appends the results, the per-layer
values and the run context to ``bench/trajectory.json`` under ``LABEL``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result, context)."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    context = next(json.loads(x[len("context "):]) for x in lines if x.startswith("context "))
    return json.loads(lines[-1]), context


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", default=None, metavar="LABEL")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in names}
    context = None
    for seed in SEEDS:
        for w in names:
            result, context = run_once(spec, w, seed, 0)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} failed checks")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])

    stats = {w: {m: spread(v) for m, v in values[w].items()} for w in names}
    worst = 0
    print(f"{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for w in names:
        for m, s in stats[w].items():
            flag = ""
            if s["spread"] > bounds[m]:
                flag, worst = "  OVER BOUND", 1
            elif s["spread"] > bounds[m] / 3:
                flag = "  over a third of the bound"
            print(
                f"{w:14} {m:12} {s['median']:10.5g} {s['q1']:10.5g} {s['q3']:10.5g} "
                f"{s['spread']:8.4f} {bounds[m]:6.2f}{flag}"
            )

    if args.record:
        per_layer = {w: run_once(spec, w, 1, 1)[0]["metrics"] for w in names}
        context = dict(context, seed=list(SEEDS), workload_order=names, trace=0)
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {}
        trajectory.setdefault("entries", []).append(
            {
                "label": args.record,
                "context": context,
                "end_to_end": stats,
                "per_layer": {
                    w: {k: v["value"] for k, v in metrics.items()}
                    for w, metrics in per_layer.items()
                },
            }
        )
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
