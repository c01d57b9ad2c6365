"""Command-line entry point.

One binary, subcommand style, built for batch pipelines: every command
reads files (or - for stdin), writes JSON or plain text, and uses the exit
code contract 0 = success/pass, 1 = invalid object or counterexample
found, 2 = usage or parse error.

Cycle notation on the command line is 1-based (``"(1 2)"`` swaps the first
two points) unless ``--zero-based`` is given; image arrays are always
0-based.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Sequence

from ._version import __version__
from . import formats
from .analysis import analyze
from .brace import (
    BraceConstructionError,
    CycleBase,
    InvalidBrace,
    brace_of_cycle_set,
    coset_construction,
)
from .core import CycleSet, InvalidCycleSet, direct_product, trivial_cycle_set
from .enumeration import (
    MAX_N_ENV,
    EnumerationFilter,
    brute_force_census,
    enumerate_cycle_sets,
    size_cap,
)
from .verify import CHECKERS, cabling_indices, run_all


# most points of a table or elements of a brace that a command builds or
# reads: a table has n^2 cells, and at 1,024 points its JSON is about 6 MB
TABLE_MAX_N = 1024


def _check_size(n: int) -> None:
    """Refuse a table past ``TABLE_MAX_N`` points, before any of it is built."""
    formats.check_size(n, TABLE_MAX_N)


def _check_jobs(jobs: int) -> None:
    """Refuse ``--jobs`` below 1, before any census is built."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_cycle_set(path: str) -> CycleSet:
    return formats.parse_cycle_set(_read(path), max_n=TABLE_MAX_N)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(args_ns: argparse.Namespace) -> dict:
    return formats.make_meta(command="cycleset " + shlex.join(args_ns.raw_argv))


def _parse_filter(ns: argparse.Namespace) -> EnumerationFilter:
    squaring = None
    if ns.squaring:
        # the library reads a cycle type of another size as matching no
        # class; on the command line it is a usage error, as is a part that
        # is no integer
        error = ValueError(f"--squaring must be a partition of {ns.n}, got {ns.squaring}")
        try:
            squaring = tuple(int(tok) for tok in ns.squaring.replace(",", " ").split())
        except ValueError:
            raise error from None
        if sum(squaring) != ns.n or min(squaring, default=0) < 1:
            raise error
    # the library reads an order below 1 as matching no class; on the
    # command line it is a usage error
    if ns.group_order is not None and ns.group_order < 1:
        raise ValueError(f"--group-order must be at least 1, got {ns.group_order}")
    return EnumerationFilter(
        indecomposable=True if ns.indecomposable else None,
        latin=True if ns.latin else None,
        simple=True if ns.simple else None,
        irretractable=True if ns.irretractable else None,
        nilpotent_group=True if ns.nilpotent_group else None,
        squaring_cycle_type=squaring,
        group_order=ns.group_order,
    )


def _cmd_validate(ns: argparse.Namespace) -> int:
    try:
        X = _read_cycle_set(ns.input)
    except InvalidCycleSet as exc:
        print(f"invalid: {exc} [{exc.kind}, witness {exc.witness}]")
        return 1
    print(f"valid cycle set of size {X.n}")
    return 0


def _cmd_analyze(ns: argparse.Namespace) -> int:
    X = _read_cycle_set(ns.input)
    report = analyze(X).to_dict()
    if ns.field:
        if ns.field not in report:
            print(f"unknown field {ns.field!r}; available: {', '.join(report)}",
                  file=sys.stderr)
            return 2
        value = report[ns.field]
        print(json.dumps(value) if isinstance(value, (list, dict)) else value)
        return 0
    if ns.format == "json":
        obj = dict(report)
        obj["_meta"] = _meta(ns)
        print(json.dumps(obj, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def _cmd_trivial(ns: argparse.Namespace) -> int:
    _check_size(ns.n)
    gamma = formats.parse_permutation(ns.gamma, n=ns.n, one_based=not ns.zero_based)
    X = trivial_cycle_set(gamma)
    _write(ns.output, formats.dump_cycle_set(X, fmt=ns.format, meta=_meta(ns)))
    return 0


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    _check_jobs(ns.jobs)
    filt = _parse_filter(ns)
    if ns.oracle:
        census = brute_force_census(ns.n, filt)
    else:
        census = enumerate_cycle_sets(
            ns.n,
            filt,
            jobs=ns.jobs,
            symmetry_breaking=not ns.no_symmetry_breaking,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    print(
        f"size {ns.n}: {census.count} classes in {census.elapsed:.2f}s",
        file=sys.stderr,
    )
    text = formats.dump_census_jsonl(census, meta=_meta(ns), count_only=ns.count_only)
    _write(ns.output, text)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    # usage errors come before the censuses, which can take minutes to build
    if not ns.census and not 1 <= ns.max_size <= size_cap():
        raise ValueError(
            f"--max-size must be in 1..{size_cap()}, got {ns.max_size} "
            f"(set {MAX_N_ENV} to raise the cap)"
        )
    _check_jobs(ns.jobs)
    ks = cabling_indices(int(tok) for tok in ns.ks.replace(",", " ").split())
    if ns.suite:
        wanted = []
        for pattern in ns.suite.split(","):
            key = pattern.strip().replace("_", "").replace("-", "")
            hits = [
                cid for cid in CHECKERS if key in cid.replace("_", "")
            ]
            if not hits:
                print(f"no checker matches {pattern!r}; known: "
                      f"{', '.join(CHECKERS)}", file=sys.stderr)
                return 2
            wanted.extend(h for h in hits if h not in wanted)
        ids = wanted
    else:
        ids = None
    if ns.census:
        census = formats.parse_census_jsonl(_read(ns.census))
        _check_size(census.n)
        # a census file is input like any other: run_all validates its tables
        tables = census.representatives
        scope = f"census file n={census.n}, count={census.count}"
    else:
        tables = []
        for n in range(1, ns.max_size + 1):
            tables.extend(enumerate_cycle_sets(n, jobs=ns.jobs).cycle_sets())
        scope = f"full censuses n <= {ns.max_size}"
    verdicts = run_all(tables, scope=scope, ks=ks, checker_ids=ids)
    worst = 0
    for v in verdicts:
        print(formats.verdict_json(v))
    width = max(len(v.checker_id) for v in verdicts)
    print(f"{'checker'.ljust(width)}  result  instances  skipped", file=sys.stderr)
    for v in verdicts:
        status = "pass" if v.passed else f"FAIL({len(v.counterexamples)})"
        print(
            f"{v.checker_id.ljust(width)}  {status:7}  {v.instances:9d}  {v.skipped:7d}",
            file=sys.stderr,
        )
        if not v.passed:
            worst = 1
    return worst


def _cmd_cable(ns: argparse.Namespace) -> int:
    X = _read_cycle_set(ns.input)
    _write(ns.output, formats.dump_cycle_set(X.cabling(ns.k), fmt=ns.format, meta=_meta(ns)))
    return 0


def _cmd_retract(ns: argparse.Namespace) -> int:
    X = _read_cycle_set(ns.input)
    Y, classes = X.retraction()
    meta = _meta(ns)
    meta["class_map"] = list(classes)
    _write(ns.output, formats.dump_cycle_set(Y, fmt=ns.format, meta=meta))
    return 0


def _cmd_product(ns: argparse.Namespace) -> int:
    a = _read_cycle_set(ns.left)
    b = _read_cycle_set(ns.right)
    _check_size(a.n * b.n)
    _write(ns.output, formats.dump_cycle_set(direct_product(a, b), fmt=ns.format, meta=_meta(ns)))
    return 0


def _cmd_brace(ns: argparse.Namespace) -> int:
    if ns.brace_cmd == "of-cycleset":
        X = _read_cycle_set(ns.input)
        gb = brace_of_cycle_set(X)
        meta = _meta(ns)
        meta["elements"] = [list(p) for p in gb.elements]
        _write(ns.output, formats.dump_brace(gb.brace, meta=meta))
        return 0
    try:
        B = formats.parse_brace(_read(ns.input), max_n=TABLE_MAX_N)
    except InvalidBrace as exc:
        print(f"invalid: {exc} [{exc.kind}, witness {exc.witness}]")
        return 1
    if ns.brace_cmd == "validate":
        print(f"valid left brace of order {B.n}, zero {B.zero}")
        return 0
    if ns.brace_cmd == "socle":
        print(json.dumps(sorted(B.socle)))
        return 0
    # cosets
    K = [int(tok) for tok in ns.k.replace(",", " ").split()] if ns.k else [B.zero]
    # a transitive cycle base is one lambda-orbit, so only the orbit of a
    orbit = next((o for o in B.lambda_orbits if ns.a in o), None)
    if orbit is None or B.additive_span(orbit) != frozenset(range(B.n)):
        print(f"no transitive cycle base contains {ns.a}", file=sys.stderr)
        return 1
    X, cosets = coset_construction(B, CycleBase(sum(1 << x for x in orbit), True), ns.a, K)
    meta = _meta(ns)
    meta["cosets"] = [list(c) for c in cosets]
    _write(ns.output, formats.dump_cycle_set(X, fmt=ns.format, meta=meta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleset",
        description="construct, analyze, enumerate and verify finite cycle sets",
    )
    parser.add_argument("--version", action="version", version=f"cycleset {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("validate", help="check the three cycle-set axioms")
    p.add_argument("input", help="table file or - for stdin")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("analyze", help="full structural report")
    p.add_argument("input")
    p.add_argument("--field", default=None, help="print a single report field")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("trivial", help="constant-row cycle set from a permutation")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-g", "--gamma", required=True, help='e.g. "(1 2)(3 4 5)" or [1,0,2]')
    p.add_argument("--zero-based", action="store_true", help="cycle notation counts from 0")
    add_output(p)
    p.set_defaults(fn=_cmd_trivial)

    p = sub.add_parser("enumerate", help="isomorphism-free census of a given size")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--indecomposable", action="store_true")
    p.add_argument("--latin", action="store_true")
    p.add_argument("--simple", action="store_true")
    p.add_argument("--irretractable", action="store_true")
    p.add_argument("--nilpotent-group", action="store_true")
    p.add_argument("--squaring", default=None, help='cycle type filter, e.g. "2,1,1"')
    p.add_argument("--group-order", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-symmetry-breaking", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="use the independent brute-force engine (n <= 4)")
    add_output(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="scan censuses for counterexamples")
    p.add_argument("--suite", default=None, help="comma-separated checker name patterns")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--census", default=None, help="verify a census file instead")
    p.add_argument("--ks", default="1 2 3 4 5 6", help="cabling indices")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cable", help="iterated diagonal refinement of the operation")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    add_output(p)
    p.set_defaults(fn=_cmd_cable)

    p = sub.add_parser("retract", help="quotient by equality of rows")
    p.add_argument("input")
    add_output(p)
    p.set_defaults(fn=_cmd_retract)

    p = sub.add_parser("product", help="componentwise product of two cycle sets")
    p.add_argument("left")
    p.add_argument("right")
    add_output(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("brace", help="left-brace operations")
    bsub = p.add_subparsers(dest="brace_cmd", required=True)
    bp = bsub.add_parser("validate")
    bp.add_argument("input")
    bp.set_defaults(fn=_cmd_brace)
    bp = bsub.add_parser("socle")
    bp.add_argument("input")
    bp.set_defaults(fn=_cmd_brace)
    bp = bsub.add_parser("cosets")
    bp.add_argument("input")
    bp.add_argument("--a", type=int, required=True, help="base element of the cycle base")
    bp.add_argument("--k", default=None, help="subgroup elements, e.g. \"0,2\"")
    add_output(bp)
    bp.set_defaults(fn=_cmd_brace)
    bp = bsub.add_parser("of-cycleset")
    bp.add_argument("input")
    add_output(bp)
    bp.set_defaults(fn=_cmd_brace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    ns.raw_argv = list(argv)
    try:
        return ns.fn(ns)
    except (InvalidCycleSet, InvalidBrace, BraceConstructionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
