import os
import re

import pytest

from cycleset import cycle_set, enumerate_cycle_sets, trivial_cycle_set
from cycleset.perm import from_cycles

TABLE4 = ((0, 1, 3, 2), (2, 3, 1, 0), (1, 0, 2, 3), (3, 2, 0, 1))


# read before any test can patch it
_affinity = getattr(os, "sched_getaffinity", None)


@pytest.fixture(autouse=True)
def affinity_is_kept():
    """Fail a test that leaves this process on another CPU mask: a census
    pool pins the caller to one CPU while it runs, and a test that fakes
    the mask the pool reads could have it restore the fake."""
    before = _affinity(0) if _affinity is not None else None
    yield
    if before is not None:
        assert _affinity(0) == before, "the test changed this process's CPU mask"


@pytest.fixture
def size2_indec():
    return trivial_cycle_set((1, 0))


@pytest.fixture
def trivial2():
    return trivial_cycle_set((0, 1))


@pytest.fixture
def cyclic3():
    return trivial_cycle_set((1, 2, 0))


@pytest.fixture
def cyclic5():
    return trivial_cycle_set((1, 2, 3, 4, 0))


@pytest.fixture
def table4():
    return cycle_set(TABLE4)


@pytest.fixture
def ex12():
    """12 points, rows (0 1) for x < 2 and (2 3 4) for x >= 2."""
    a = from_cycles(12, [(0, 1)])
    b = from_cycles(12, [(2, 3, 4)])
    return cycle_set(tuple(a if x < 2 else b for x in range(12)))


@pytest.fixture
def ex72():
    return trivial_cycle_set(from_cycles(72, [(0, 1), (2, 3, 4)]))


@pytest.fixture(scope="session")
def censuses_small():
    """Full censuses for sizes 1 through 5, keyed by size."""
    return {n: enumerate_cycle_sets(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def census6():
    return enumerate_cycle_sets(6)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    worst: dict[int, str] = {}
    for status, label in (("failed", "FAIL"), ("error", "FAIL"), ("passed", "PASS")):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            if label == "FAIL":
                worst[num] = "FAIL"
            else:
                worst.setdefault(num, "PASS")
    if not worst:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(worst):
        terminalreporter.write_line(f"criterion {num}: {worst[num]}")
