"""Workloads of the cycleset benchmark and the pinned answers they are
checked against.

Every workload reaches the library only through its public names, passed in
as ``lib`` (the imported ``cycleset`` package).  A workload has five steps:

* ``setup(lib, tracer, workdir, seed)`` builds the pass inputs;
* ``run(lib, state, tracer)`` is one timed pass and returns its output;
* ``traced_run(lib, state, tracer)`` is the same pass with spans recorded;
* ``check(output, state)`` compares the output with the pinned answers and
  returns ``(check name, passed)`` pairs;
* ``layers(lib, state, tracer, mark, output)`` turns the spans of one traced
  pass into per-layer metrics, running any extra reference calls it needs.

The census workloads have no random input.  The seed only picks the
relabelings of the study workload, whose checks do not depend on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "census6.jsonl"

# sha256 of Census.canonical_bytes(), produced by cycleset-enum/1
CENSUS5_SHA256 = "3f7942e73c4efc93a81b1677a805ec9979d4d17a9ab2d85b9f17261eb32e73fe"
CENSUS6_SHA256 = "49850eb62801542888d8b74e26d3d76d3e396633be830cec36c91bed52dca3a3"
INVOLUTION6_SHA256 = "efb8abbec834cea17b2202912aa648b0641531af6f1f81a89373ff7863922957"
SQUAREFREE6_SHA256 = "ea3791fbbde67e75cec2799451b48a095de8740c9cb35fcaeb4a6fc9264554e1"

# sha256 of the isomorphism-invariant study fields, in fixture order
STUDY6_DIGEST = "7b12d6e4eb20a851861a21dcf56205b181c80a22bc0bfe942988a0601c508394"
STUDY6_CHECKERS = 14


def sha256_of(census) -> str:
    return hashlib.sha256(census.canonical_bytes()).hexdigest()


def normal_form(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation with cycles (0 .. a-1)(a .. a+b-1)... of the given lengths."""
    images: list[int] = []
    for length in cycle_type:
        start = len(images)
        images.extend(start + (i + 1) % length for i in range(length))
    return tuple(images)


def squaring_type(lib, table) -> tuple[int, ...]:
    return lib.cycle_type(tuple(table[x][x] for x in range(len(table))))


def parse_fixture(lib, tracer):
    with tracer.span("formats.parse"):
        return lib.formats.parse_census_jsonl(FIXTURE.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class CensusWorkload:
    """One ``enumerate_cycle_sets`` call per pass.  ``slice_type`` is the
    cycle type of the fixed squaring map (None for the full census)."""

    name: str
    n: int
    slice_type: tuple[int, ...] | None
    jobs: int
    classes: int
    sha256: str

    @property
    def diagonal(self) -> tuple[int, ...] | None:
        return None if self.slice_type is None else normal_form(self.slice_type)

    def setup(self, lib, tracer, workdir: Path, seed: int):
        """The fixture members this census must reproduce, or None when the
        fixture (size 6) does not cover it."""
        if self.n != 6:
            return None
        fixture = parse_fixture(lib, tracer)
        return tuple(
            t
            for t in fixture.representatives
            if self.slice_type is None or squaring_type(lib, t) == self.slice_type
        )

    def census(self, lib, progress=None):
        return lib.enumerate_cycle_sets(
            self.n, jobs=self.jobs, diagonal=self.diagonal, progress=progress
        )

    def run(self, lib, state, tracer):
        return self.census(lib)

    def check(self, census, expected) -> list[tuple[str, bool]]:
        checks = [
            ("classes", census.count == self.classes),
            ("sha256", sha256_of(census) == self.sha256),
        ]
        if expected is not None:
            checks.append(("fixture_members", census.representatives == expected))
        return checks

    def traced_run(self, lib, state, tracer):
        """A pass with every canonical_form call and progress callback
        recorded.  The engine looks the function up on the ``cycleset.canon``
        module at each call, so rebinding the attribute sees every call made
        in this process; pool workers run their own copy and are not seen."""
        canon = lib.canon
        original = canon.canonical_form
        canon.canonical_form = tracer.wrapped("canon.canonical_form", original)
        try:
            with tracer.span("enumeration.census"):
                return self.census(lib, tracer.wrapped("enumeration.task", _ignore))
        finally:
            canon.canonical_form = original

    def layers(self, lib, state, tracer, mark, census) -> dict[str, float]:
        with tracer.span("enumeration.scan"):
            emitted = lib.scan_cycle_sets(self.n, _ignore, diagonal=self.diagonal)
        spans = tracer.summary(mark)
        empty = {"total_s": 0.0, "self_s": 0.0, "count": 0}
        canon = spans.get("canon.canonical_form", empty)
        out = {
            "enumeration.search_s": spans["enumeration.scan"]["total_s"],
            "enumeration.self_s": spans["enumeration.census"]["self_s"],
            "enumeration.tables_emitted": emitted,
            "enumeration.redundancy": emitted / census.count,
            "enumeration.tasks": spans.get("enumeration.task", empty)["count"],
            "canon.s": canon["total_s"],
            "canon.calls": canon["count"],
            "canon.us_per_call": (
                1e6 * canon["total_s"] / canon["count"] if canon["count"] else 0.0
            ),
            "enumeration.speedup": 0.0,
        }
        if self.jobs > 1:
            # untraced reference pair: the same census serial, then pooled
            t0 = time.perf_counter()
            lib.enumerate_cycle_sets(self.n, diagonal=self.diagonal)
            t1 = time.perf_counter()
            self.census(lib)
            out["enumeration.speedup"] = (t1 - t0) / (time.perf_counter() - t1)
        return out


def _ignore(_) -> None:
    pass


@dataclass(frozen=True)
class StudyState:
    tables: tuple  # fixture members, each relabeled by its own seeded rho
    path: Path  # the relabeled census file that ``cycleset verify`` reads


@dataclass(frozen=True)
class StudyWorkload:
    """The read path over every size-6 class: a per-member pipeline through
    core, perm, analysis and brace, then ``cycleset verify --census``."""

    name: str
    jobs = 1  # serial throughout; not a dataclass field

    def setup(self, lib, tracer, workdir: Path, seed: int) -> StudyState:
        fixture = parse_fixture(lib, tracer)
        rng = random.Random(seed)
        tables = []
        for t in fixture.representatives:
            rho = list(range(fixture.n))
            rng.shuffle(rho)
            tables.append(lib.relabel(lib.CycleSet(t), rho).table)
        relabeled = lib.Census(
            n=fixture.n,
            filter_desc=(),
            representatives=tuple(tables),
            engine_version=fixture.engine_version,
            elapsed=0.0,
        )
        path = workdir / f"{self.name}-input.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(lib.formats.dump_census_jsonl(relabeled), encoding="utf-8")
        return StudyState(tuple(tables), path)

    def run(self, lib, state: StudyState, tracer) -> dict:
        members = []
        member_ms = []
        for t in state.tables:
            t0 = time.perf_counter()
            with tracer.span("study.member"):
                with tracer.span("core.cycle_set"):
                    X = lib.cycle_set(t)
                with tracer.span("perm.group"):
                    X.perm_group.order
                with tracer.span("analysis.analyze"):
                    report = lib.analyze(X)
                with tracer.span("brace.brace_of_cycle_set"):
                    gb = lib.brace_of_cycle_set(X)
                with tracer.span("brace.cycle_bases"):
                    bases = lib.cycle_bases(gb.brace)
            member_ms.append(1e3 * (time.perf_counter() - t0))
            members.append((report, gb.brace, bases))
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli.main"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(["verify", "--census", str(state.path)])
        verdicts = [json.loads(line) for line in out.getvalue().splitlines() if line]
        return {
            "members": members,
            "member_ms": member_ms,
            "exit_code": code,
            "verdicts": verdicts,
        }

    def check(self, output: dict, state: StudyState) -> list[tuple[str, bool]]:
        verdicts = output["verdicts"]
        return [
            ("verify_exit", output["exit_code"] == 0),
            (
                "verdicts_pass",
                len(verdicts) == STUDY6_CHECKERS and all(v["passed"] for v in verdicts),
            ),
            ("invariant_digest", study_digest(output["members"]) == STUDY6_DIGEST),
            (
                "exponent_is_dehornoy_class",
                all(
                    brace.additive_exponent == report.dehornoy_class
                    for report, brace, _ in output["members"]
                    if not report.decomposable
                ),
            ),
        ]

    def traced_run(self, lib, state, tracer):
        return self.run(lib, state, tracer)

    def layers(self, lib, state, tracer, mark, output) -> dict[str, float]:
        spans = tracer.summary(mark)
        verdicts = output["verdicts"]
        verify_s = sum(v["elapsed"] for v in verdicts)
        cli_s = spans["cli.main"]["total_s"]
        return {
            "core.cycle_set_s": spans["core.cycle_set"]["total_s"],
            "perm.group_s": spans["perm.group"]["total_s"],
            "analysis.s": spans["analysis.analyze"]["total_s"],
            "brace.s": spans["brace.brace_of_cycle_set"]["total_s"],
            "brace.cycle_bases_s": spans["brace.cycle_bases"]["total_s"],
            "brace.group_elements": sum(brace.n for _, brace, _ in output["members"]),
            "cli.verify_s": cli_s,
            "verify.s": verify_s,
            "verify.cabling_laws_s": sum(
                v["elapsed"] for v in verdicts if v["checker"] == "cabling_laws"
            ),
            "cli.self_s": cli_s - verify_s,
        }


def study_digest(members) -> str:
    """Digest of the report fields that relabeling cannot change, one row
    per member in fixture order, so it is the same for every seed."""
    rows = []
    for report, brace, bases in members:
        rows.append(
            [
                report.n,
                list(report.squaring_cycle_type),
                len(report.fixed_points),
                report.decomposable,
                None
                if report.decomposition is None
                else sorted(len(part) for part in report.decomposition),
                report.latin,
                report.simple,
                report.retractable,
                report.dehornoy_class,
                report.group_order,
                report.displacement_order,
                report.group_nilpotent,
                report.displacement_nilpotent,
                report.prime_support_match,
                brace.n,
                len(bases),
                sum(b.transitive for b in bases),
            ]
        )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        CensusWorkload("census5", 5, None, 1, 88, CENSUS5_SHA256),
        CensusWorkload("involution6", 6, (2, 2, 2), 1, 77, INVOLUTION6_SHA256),
        CensusWorkload("squarefree6", 6, (1,) * 6, 1, 68, SQUAREFREE6_SHA256),
        StudyWorkload("study6"),
        CensusWorkload("census5_jobs2", 5, None, 2, 88, CENSUS5_SHA256),
        # The full size-6 census takes minutes per pass, past the per-run
        # limit of BENCHMARK.json; these two are for runs by hand.
        CensusWorkload("census6", 6, None, 1, 595, CENSUS6_SHA256),
        CensusWorkload("census6_jobs2", 6, None, 2, 595, CENSUS6_SHA256),
    )
}
