"""Extended census, opt in with CYCLESET_EXTENDED=1 (long CPU run).

The suite builds the full size-7 census once, checks the published count of
3,456 classes (Akgün–Mereb–Vendramin 2022) and the sha256 of its canonical
bytes, counts the tables the search emits, builds the census again with
jobs=2 (the caller and one forked worker) for the same bytes, brings every
class back from a seeded relabeling by ``canonical_form``, builds the census
of each squaring cycle type from its slice alone, and sweeps the checker
battery over it.  The census searches one slice per partition of 7
(15 slices, the squaring map in normal form) and canonicalizes each class
once.  On a shared 2-core x86-64 machine under Python 3.11.7 the serial
census took 4.3-4.4 s (7,655 tables searched), the search alone 3.3-4.2 s,
jobs=2 2.3-3.4 s and the whole file about 12 s, 19 s with the squaring
slices.  It also counts the labeled tables of each slice's unbroken scan
by Burnside's orbit counting over the slice's classes, as tier-1 does for
n <= 6; on the same machine those checks took 140 s, 111 s of it in the
identity slice, and the whole file 153 s.

No test enumerates sizes 8 and 9, whose census has not been timed with
this search; products and constant-row constructions in the default suite
cover sizes 8 through 16 instead.
"""

import hashlib
import os
import random

import pytest

from cycleset import (
    EnumerationFilter,
    enumerate_cycle_sets,
    from_cycles,
    run_all,
    scan_cycle_sets,
)
from cycleset.canon import canonical_form, relabel_table
from cycleset.enumeration import ENGINE_VERSION, _census, _normal_form, _partitions
from cycleset.verify import _is_pcycle
from test_enumeration import assert_orbit_count

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("CYCLESET_EXTENDED"),
        reason="set CYCLESET_EXTENDED=1 to run the extended census",
    ),
]


# sha256 of Census.canonical_bytes() for the full size-7 census
CENSUS7_SHA256 = "040e32e22250c80de1dcf4d0c6c639b00738f28c46b11e2a8fc17f87a351ae4c"


def _sha256(census):
    return hashlib.sha256(census.canonical_bytes()).hexdigest()


@pytest.fixture(scope="module")
def census7():
    return enumerate_cycle_sets(7)


def test_seven_point_bytes(census7):
    assert _sha256(census7) == CENSUS7_SHA256


def test_seven_point_canonical_forms_survive_relabeling(census7):
    # the canonical labeling, tied rows resumed and label 0 given only to
    # points of least rooted row, brings every class back from a relabeling
    rng = random.Random(7)
    for t in census7.representatives:
        rho = list(range(7))
        rng.shuffle(rho)
        assert canonical_form(relabel_table(t, rho)) == t


def test_seven_point_emitted_tables():
    # the tables the search emits for the 3,456 classes: a search that
    # repeats or loses tables shows here even where the classes survive
    assert scan_cycle_sets(7, lambda t: None) == 7655


def test_seven_point_pool_gives_the_same_bytes():
    # the one census size where the pool of slice tasks saves time
    assert _sha256(enumerate_cycle_sets(7, jobs=2)) == CENSUS7_SHA256


def test_seven_point_squaring_slices_give_the_post_filtered_census(census7):
    # a squaring filter searches its one slice; the bytes are those of the
    # full census filtered after the fact, for each of the 15 partitions
    for parts in _partitions(7):
        filt = EnumerationFilter(squaring_cycle_type=parts)
        want = _census(7, filt, census7.cycle_sets(), ENGINE_VERSION, 0.0)
        assert enumerate_cycle_sets(7, filt).canonical_bytes() == want.canonical_bytes()


@pytest.mark.parametrize(
    "parts", _partitions(7), ids=lambda parts: ",".join(map(str, parts))
)
def test_seven_point_unbroken_scans_count_the_labeled_tables(parts):
    # the orbit count of the tier-1 suite on every slice of size 7; the
    # unbroken scans take minutes, most of it in the identity slice
    assert_orbit_count(7, _normal_form(parts))


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
