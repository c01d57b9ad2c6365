"""Benchmark of the cycleset library, measured from outside its modules.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout.  One run sets
the workload up several times, then repeats passes of it for ``--seconds``
and checks every pass output against pinned answers.

* ``--trace 0`` reports the end-to-end metrics: the median pass time in
  reference units and the median set-up time in seconds at reference speed
  (both explained in ``probe.py``), and the peak resident set size.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics.  Spans are recorded by the benchmark around its calls
  into the library, kept in memory and written to
  ``.bench_out/<workload>.spans.json`` at the end.

Every metric is printed by name and unit.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a copy with the run context goes to
``.bench_out/<workload>.result.json``.  The exit code is 0 only when every
output check passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import REFERENCE_SNIPPET_S, Probe
from spans import NullTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-ups per run; setup_s is their median.
SETUPS = 16
# Seconds between speed-probe samples during a serial pass (about 1%
# overhead).  Passes on the process pool are probed only at their ends.
PROBE_INTERVAL = 0.05

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class StartError(Exception):
    """The run cannot start: there is no library to benchmark."""


def load_library():
    """Import ``cycleset`` afresh from this checkout's ``src/``, dropping any
    copy imported before, so that each set-up pays for the import."""
    if not (SRC / "cycleset" / "__init__.py").is_file():
        raise StartError(f"no cycleset package under {SRC}")
    for name in [m for m in sys.modules if m == "cycleset" or m.startswith("cycleset.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("cycleset")
    for sub in ("canon", "cli", "formats"):
        importlib.import_module(f"cycleset.{sub}")
    if Path(lib.__file__).resolve().parent != SRC / "cycleset":
        raise StartError(f"imported cycleset from {lib.__file__}, not {SRC}")
    return lib


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_order": [args.workload],
    }


def peak_rss_mb() -> float:
    """High-water mark of this process and of its waited-for children (the
    pool workers); each run is its own process, so no workload sees another's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None, mutate=None) -> int:
    """Run one workload; ``mutate``, if given, rewrites every pass output
    before it is checked (the self-tests use it to prove the checks fire)."""
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    interval = PROBE_INTERVAL if workload.jobs == 1 else None
    untraced = NullTracer()
    setup_s, setup_wall, parse_s = [], [], []

    def set_up():
        gc.collect()
        mark = tracer.mark()
        with Probe(PROBE_INTERVAL) as probe:
            t0 = time.perf_counter()
            lib = load_library()
            state = workload.setup(lib, tracer, OUT, args.seed)
            seconds = time.perf_counter() - t0
        setup_wall.append(seconds)
        setup_s.append(probe.cost(seconds) * REFERENCE_SNIPPET_S)
        parse_s.append(tracer.summary(mark).get("formats.parse", {}).get("total_s", 0.0))
        return lib, state

    try:
        lib, state = set_up()
    except StartError as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 2

    checks: dict[str, list[bool]] = {}

    def checked(output):
        if mutate is not None:
            output = mutate(output)
        for name, ok in workload.check(output, state):
            checks.setdefault(name, []).append(ok)
        return output

    def timed(run_pass):
        gc.collect()  # every pass starts from the same heap state
        with Probe(interval) as probe:
            t0 = time.perf_counter()
            output = run_pass()
            seconds = time.perf_counter() - t0
        return checked(output), seconds, probe.cost(seconds)

    wall, cost, traced_cost, member_ms, layer_rows = [], [], [], [], []
    start = time.perf_counter()
    while True:
        output, seconds, ref = timed(lambda: workload.run(lib, state, untraced))
        wall.append(seconds)
        cost.append(ref)
        if isinstance(output, dict):
            member_ms.extend(output["member_ms"])
        if args.trace:
            mark = tracer.mark()
            output, _, ref = timed(lambda: workload.traced_run(lib, state, tracer))
            traced_cost.append(ref)
            layer_rows.append(workload.layers(lib, state, tracer, mark, output))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break
        # spread the set-ups over the run, so that they meet the machine's
        # fast and slow spells as the passes do
        if len(setup_s) < SETUPS and elapsed >= len(setup_s) * args.seconds / SETUPS:
            lib, state = set_up()
    # a run of few long passes makes up the set-ups it could not spread
    while len(setup_s) < SETUPS:
        set_up()

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if args.trace:
        for name in PER_LAYER:
            values = [row[name] for row in layer_rows if name in row]
            metrics[name] = statistics.median(values) if values else 0.0
            notes[name] = f"median of {len(values)} traced passes" if values else "not exercised"
        metrics["formats.parse_s"] = statistics.median(parse_s)
        notes["formats.parse_s"] = f"median of {len(parse_s)} set-ups"
        if member_ms:
            # one pass has 595 members, so p98 has at least ten samples beyond it
            metrics["study.member_p50_ms"] = statistics.median(member_ms)
            metrics["study.member_p98_ms"] = statistics.quantiles(member_ms, n=50)[-1]
            notes["study.member_p50_ms"] = f"{len(member_ms)} members, untraced passes"
            notes["study.member_p98_ms"] = notes["study.member_p50_ms"]
        base = statistics.median(cost)
        metrics["trace.overhead_pct"] = 100 * (statistics.median(traced_cost) - base) / base
        notes["trace.overhead_pct"] = (
            f"traced vs untraced median wall_ref, {len(traced_cost)} and {len(cost)} passes"
        )
        units = PER_LAYER
        tracer.dump(OUT / f"{args.workload}.spans.json")
    else:
        metrics = {
            "wall_ref": statistics.median(cost),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {
            "wall_ref": f"median of {len(cost)} passes; wall_s median {statistics.median(wall):.4f} s",
            "setup_s": (
                f"median of {len(setup_s)} set-ups at reference speed; "
                f"measured median {statistics.median(setup_wall):.4f} s"
            ),
            "peak_rss_mb": "ru_maxrss of the run and its children",
        }
        units = END_TO_END

    attempted = sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())
    context = run_context(args)
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({notes[name]})")
    for name, results in checks.items():
        print(f"check {name}: {results.count(True)}/{len(results)} passed")
    print(f"fail_ratio = {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}.result.json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, "wall_s": wall, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
