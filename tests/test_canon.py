import itertools

import pytest
from hypothesis import given, strategies as st

from cycleset.canon import (
    SearchCancelled,
    _colour_cells,
    canonical_form,
    canonical_relabeling,
    class_key,
    relabel_table,
)


def random_tables(n):
    return st.lists(
        st.permutations(range(n)).map(tuple), min_size=n, max_size=n
    ).map(tuple)


def test_relabel_table_identity():
    t = ((0, 1), (1, 0))
    assert relabel_table(t, (0, 1)) == t


def test_relabel_table_transposition():
    # swapping labels 0 and 1 in x*y = y+1 mod 3 moves the cell contents too
    t = ((1, 2, 0), (1, 2, 0), (1, 2, 0))
    got = relabel_table(t, (1, 0, 2))
    # 0 *' 0 in new labels is rho(1 * 1) = rho(2) = 2, and so on
    assert got == ((2, 0, 1), (2, 0, 1), (2, 0, 1))


@given(st.integers(2, 4).flatmap(random_tables))
def test_canonical_form_is_relabel_invariant(t):
    n = len(t)
    base = canonical_form(t)
    for rho in itertools.permutations(range(n)):
        assert canonical_form(relabel_table(t, rho)) == base


@given(st.integers(2, 4).flatmap(random_tables))
def test_canonical_witness_reproduces_form(t):
    rho, canon = canonical_relabeling(t)
    assert relabel_table(t, rho) == canon


@given(st.integers(2, 4).flatmap(random_tables))
def test_canonical_form_is_minimal(t):
    n = len(t)
    canon = canonical_form(t)
    flat = [c for row in canon for c in row]
    for rho in itertools.permutations(range(n)):
        other = [c for row in relabel_table(t, rho) for c in row]
        assert flat <= other


def test_distinct_classes_stay_distinct():
    a = ((1, 0), (1, 0))  # both rows swap
    b = ((0, 1), (0, 1))  # both rows identity
    assert canonical_form(a) != canonical_form(b)


@given(st.integers(2, 5).flatmap(random_tables))
def test_class_key_is_relabel_invariant(t):
    base = class_key(t)
    for rho in itertools.permutations(range(len(t))):
        assert class_key(relabel_table(t, rho)) == base


@given(st.integers(2, 5).flatmap(random_tables))
def test_class_key_is_a_relabeling(t):
    assert canonical_form(class_key(t)) == canonical_form(t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_key_single_cell_is_the_canonical_form(n):
    # all rows identity: refinement cannot split, so the key scans all of S_n
    t = tuple(tuple(range(n)) for _ in range(n))
    assert _colour_cells(t) == [tuple(range(n))]
    assert class_key(t) == canonical_form(t) == t


def test_colour_cells_follow_colours_not_indices():
    # x.y = T(y) with T = (0 1)(2)(3): the fixed points of T come first
    t = tuple((1, 0, 2, 3) for _ in range(4))
    assert _colour_cells(t) == [(2, 3), (0, 1)]
    assert _colour_cells(relabel_table(t, (2, 3, 0, 1))) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("labeler", [canonical_form, class_key])
def test_cancel_is_polled_at_the_first_relabeling(labeler):
    t = tuple(tuple(range(6)) for _ in range(6))
    with pytest.raises(SearchCancelled):
        labeler(t, cancel=lambda: True)
