"""Extended census, opt in with CYCLESET_EXTENDED=1 (long CPU run).

The suite builds the full size-7 census once, checks the published count of
3,456 classes (Akgün–Mereb–Vendramin 2022), and sweeps the checker battery
over it.  The census searches one slice per partition of 7 (15 slices, the
squaring map in normal form) and canonicalizes each class once.  On one
core of a shared 2-core x86-64 machine under Python 3.11.7 the census took
14-15 s and the whole file 15-17 s, against 33-40 s and 34-42 s with the
former n! canonical-form scan timed back to back, depending on the load
(11,988 tables searched; the 3,456 canonical forms take 1-2 s of a census,
against 21-28 s).

No test enumerates sizes 8 and 9, whose census has not been timed with
this search; products and constant-row constructions in the default suite
cover sizes 8 through 16 instead.
"""

import os

import pytest

from cycleset import enumerate_cycle_sets, from_cycles, run_all
from cycleset.canon import canonical_form
from cycleset.verify import _is_pcycle

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("CYCLESET_EXTENDED"),
        reason="set CYCLESET_EXTENDED=1 to run the extended census",
    ),
]


@pytest.fixture(scope="module")
def census7():
    return enumerate_cycle_sets(7)


def test_seven_point_checker_suite(census7):
    # the published count (Akgün–Mereb–Vendramin 2022), before the sweep
    assert census7.count == 3456
    indec = [X for X in census7.cycle_sets() if X.is_indecomposable]
    assert indec
    for verdict in run_all(indec, scope="indecomposable, size 7"):
        assert verdict.passed, verdict.counterexamples


def test_seven_point_pcycle_members_have_full_cycles(census7):
    # at a prime size the only admissible single-cycle squaring map is the
    # full cycle
    hits = [
        X
        for X in census7.cycle_sets()
        if X.is_indecomposable and _is_pcycle(X.squaring_map) is not None
    ]
    assert hits
    for X in hits:
        assert _is_pcycle(X.squaring_map) == 7, X.table


def test_seven_point_constant_row_class_present(census7):
    # all rows equal to one full cycle always satisfies the cycloid law, so
    # this class must appear
    sigma = from_cycles(7, [tuple(range(7))])
    assert canonical_form(tuple(sigma for _ in range(7))) in census7.representatives
