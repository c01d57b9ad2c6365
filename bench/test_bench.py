"""Self-tests of the benchmark: its spec, its pinned answers, and that every
output check fires when an output is mutated.  None of them runs a size-6
search.  Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

SPEC = run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture(scope="module")
def fixture(lib):
    return workloads.parse_fixture(lib, spans.NullTracer())


def test_spec_matches_the_runner():
    assert SPEC["paths"] == ["bench"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    every = names + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(every) == len(set(every))
    assert all(NAME.match(n) for n in every)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_fixture_is_the_pinned_census(fixture):
    assert fixture.count == 595
    assert workloads.sha256_of(fixture) == workloads.CENSUS6_SHA256


def _drop_class(census):
    return dataclasses.replace(census, representatives=census.representatives[1:])


def _alter_table(census):
    """Swap the first two entries of the first row of the first table."""
    (row, *rows), *rest = census.representatives
    row = (row[1], row[0], *row[2:])
    return dataclasses.replace(census, representatives=((row, *rows), *rest))


@pytest.mark.parametrize("name", ["census6", "involution6", "squarefree6"])
def test_census_checks_fire_on_mutated_outputs(lib, fixture, name):
    w = workloads.WORKLOADS[name]
    expected = w.setup(lib, spans.NullTracer(), run.OUT, 1)
    good = dataclasses.replace(fixture, representatives=expected)
    assert all(ok for _, ok in w.check(good, expected))

    dropped = _drop_class(good)
    altered = _alter_table(good)
    assert {n for n, ok in w.check(dropped, expected) if not ok} == {
        "classes", "sha256", "fixture_members",
    }
    assert {n for n, ok in w.check(altered, expected) if not ok} == {
        "sha256", "fixture_members",
    }


def _failed_checks(out: str) -> set[str]:
    failed = set()
    for m in re.finditer(r"^check (\S+): (\d+)/(\d+) passed$", out, re.M):
        if m.group(2) != m.group(3):
            failed.add(m.group(1))
    return failed


def _run(capsys, workload, seed=1, mutate=None):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        mutate=mutate,
    )
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (code == 0) == result["correct"] == (result["failed"] == 0)
    return code, result, _failed_checks(out)


def _fail_verdict(output):
    output["verdicts"][0] = dict(output["verdicts"][0], passed=False)
    return output


def _wrong_report(output):
    report, brace, bases = output["members"][0]
    output["members"][0] = (
        dataclasses.replace(report, group_order=report.group_order + 1),
        brace,
        bases,
    )
    return output


@pytest.mark.parametrize(
    "workload, mutate, fired",
    [
        ("census5", _drop_class, {"classes", "sha256"}),
        ("census5", _alter_table, {"sha256"}),
        ("study6", _fail_verdict, {"verdicts_pass"}),
        ("study6", _wrong_report, {"invariant_digest"}),
    ],
)
def test_mutation_fails_the_run(capsys, workload, mutate, fired):
    code, result, failed = _run(capsys, workload, mutate=mutate)
    assert code == 1
    assert result["failed"] > 0
    assert failed == fired


@pytest.mark.parametrize("seed", [1, 2])
def test_study_digest_does_not_depend_on_the_seed(capsys, seed):
    code, result, failed = _run(capsys, "study6", seed=seed)
    assert (code, failed) == (0, set())
    assert result["attempted"] == 4
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_refuses_to_start_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    with tracer.span("outer"):  # 0 .. 5
        with tracer.span("inner"):  # 1 .. 2
            pass
        with tracer.span("inner"):  # 3 .. 4
            pass
    summary = tracer.summary()
    assert summary["outer"] == {"total_s": 5, "self_s": 3, "count": 1}
    assert summary["inner"] == {"total_s": 2, "self_s": 2, "count": 2}
