import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycleset import scan_cycle_sets
from cycleset.canon import (
    RowFacts,
    SearchCancelled,
    _colour_cells,
    _lex_min,
    canonical_form,
    canonical_relabeling,
    class_key,
    class_relabeling,
    relabel_table,
)
from cycleset.enumeration import _normal_forms
from cycleset.perm import cycle_type, cycles, fixed_points, from_cycles, inverse


def random_tables(n):
    return st.lists(
        st.permutations(range(n)).map(tuple), min_size=n, max_size=n
    ).map(tuple)


def scan_relabeling(t, cells=None):
    """Reference: the lex-least relabeled table over every pre-order, where
    pre[i] is the point that gets label i, scanned in lex order so that the
    first pre-order reaching the minimum wins.  With ``cells``, only the
    pre-orders that give each cell, in order, consecutive labels."""
    cells = cells or [tuple(range(len(t)))]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        rho = inverse([x for part in parts for x in part])
        table = relabel_table(t, rho)
        if best is None or table < best[1]:
            best = (rho, table)
    return best


def assert_exact(t):
    assert canonical_relabeling(t) == scan_relabeling(t)
    assert class_relabeling(t) == scan_relabeling(t, _colour_cells(t))


def tables_from_few_rows(n):
    """Tables whose rows repeat a few permutations, the identity most often:
    large automorphism groups, where a search prunes by automorphisms."""
    pool = st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=2)
    return pool.flatmap(
        lambda rows: st.lists(
            st.sampled_from([tuple(range(n))] * 2 + rows), min_size=n, max_size=n
        ).map(tuple)
    )


def random_maps(n):
    return st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
        min_size=n,
        max_size=n,
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


def test_labelings_match_the_scan_on_census_members(censuses_small):
    rng = random.Random(11)
    for n, census in censuses_small.items():
        for t in census.representatives:
            for _ in range(2):
                rho = list(range(n))
                rng.shuffle(rho)
                assert_exact(relabel_table(t, rho))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(tables_from_few_rows))
def test_labelings_match_the_scan_on_repeated_rows(t):
    assert_exact(t)


@given(st.integers(1, 5).flatmap(random_maps))
def test_labelings_match_the_scan_when_rows_are_not_permutations(t):
    assert_exact(t)


def test_single_point():
    # the least row 0 is then the whole table, and still needs its leaf
    assert canonical_relabeling(((0,),)) == ((0,), ((0,),))
    assert class_relabeling(((0,),)) == ((0,), ((0,),))


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
    # all rows identity: one colour, so the key scans all of S_n
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


def test_cancel_fires_on_a_later_poll():
    # six identity rows and a 5-cycle: the search visits over 1,024 nodes,
    # so cancel is polled at the first node and again at node 1,024; a
    # search over 7 points has at most 13,699 nodes, hence at most 14 polls
    t = tuple(tuple(range(7)) for _ in range(6)) + ((1, 2, 3, 4, 0, 5, 6),)
    polls = []

    def count():
        polls.append(1)
        return False

    assert canonical_form(t, cancel=count) == canonical_form(t)
    assert 2 <= len(polls) <= 14
    polls.clear()
    with pytest.raises(SearchCancelled):
        canonical_form(t, cancel=lambda: count() or len(polls) == 2)
    assert len(polls) == 2


def reference_colour_cells(rows):
    """The colour cells as first written: the orbit sizes walked from every
    point of every row, and a column built for every point.  A row's sizes
    are taken in descending order, as ``RowFacts`` keys them."""

    def orbit_sizes(f):
        out = []
        for x in range(len(f)):
            seen = {x}
            y = f[x]
            while y not in seen:
                seen.add(y)
                y = f[y]
            out.append(len(seen))
        return out

    n = len(rows)
    t_len = orbit_sizes([rows[x][x] for x in range(n)])
    cells = {}
    for x, r in enumerate(rows):
        colour = (
            t_len[x],
            tuple(sorted(orbit_sizes(r), reverse=True)),
            [s[x] for s in rows].count(x),
        )
        cells.setdefault(colour, []).append(x)
    return [tuple(cells[c]) for c in sorted(cells)]


def test_row_facts_spell_out_the_cycle_type():
    # the cycle-type key is the cycle type with each part written once per
    # point of its cycles, beside the per-point lengths and the fixed points
    facts = RowFacts()
    for n in range(7):
        for p in itertools.permutations(range(n)):
            length = {x: len(c) for c in cycles(p) for x in c}
            assert facts[p] == (
                tuple(length[x] for x in range(n)),
                tuple(k for k in cycle_type(p) for _ in range(k)),
                sum(1 << x for x in fixed_points(p)),
            )


@pytest.mark.parametrize("n", range(1, 9))
def test_row_facts_order_cycle_types_as_cycle_type_does(n):
    # the search compares the keys of rows where it compared cycle types,
    # so its visit order rests on the two orders being the same
    facts = RowFacts()
    forms = _normal_forms(n)
    for a, b in itertools.product(forms, repeat=2):
        assert (facts[a][1] < facts[b][1]) == (cycle_type(a) < cycle_type(b))
        assert (facts[a][1] == facts[b][1]) == (cycle_type(a) == cycle_type(b))


def test_colour_cells_match_the_reference_on_census_members(censuses_small):
    rng = random.Random(5)
    for n, census in censuses_small.items():
        for t in census.representatives:
            rho = list(range(n))
            rng.shuffle(rho)
            for u in (t, relabel_table(t, rho)):
                assert _colour_cells(u) == reference_colour_cells(u)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.one_of(tables_from_few_rows(n), random_tables(n), random_maps(n))
    )
)
def test_colour_cells_match_the_reference(t):
    assert _colour_cells(t) == reference_colour_cells(t)


def automorphisms(t):
    """Every automorphism of t, by brute force over all relabelings."""
    n = len(t)
    return [
        g
        for g in itertools.permutations(range(n))
        if all(t[g[x]][g[y]] == g[t[x][y]] for x in range(n) for y in range(n))
    ]


def seeds(autos):
    """Automorphisms in the format of ``_lex_min``: the inverse map and the
    mask of the fixed points."""
    return [
        (list(inverse(g)), sum(1 << x for x in range(len(g)) if g[x] == x))
        for g in autos
    ]


def assert_seeded_exact(t, rng):
    auts = automorphisms(t)
    for cells in ([range(len(t))], _colour_cells(t)):
        for chosen in (auts, [g for g in auts if rng.random() < 0.5], []):
            known = seeds(chosen)
            autos = list(known)
            assert _lex_min(t, cells, None, autos) == scan_relabeling(t, cells)
            # the seeds are read, not replaced, and what is appended is real
            assert autos[: len(known)] == known
            assert all(tuple(inverse(g)) in auts for g, _ in autos)
            assert seeds(inverse(g) for g, _ in autos) == autos


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(tables_from_few_rows), st.randoms(use_true_random=False))
def test_seeded_automorphisms_keep_the_labeling_on_repeated_rows(t, rng):
    assert_seeded_exact(t, rng)


def test_seeded_automorphisms_keep_the_labeling_on_census_members(censuses_small):
    rng = random.Random(7)
    for t in censuses_small[5].representatives:
        assert_seeded_exact(t, rng)


def assert_shared_facts_match(tables, facts):
    """The census path, one ``RowFacts`` kept across all ``tables``, for
    their rows and their diagonals alike, gives the colour cells, the
    labelings and the automorphisms found of the standalone path."""
    for t in tables:
        n = len(t)
        cells = _colour_cells(t, facts)
        assert cells == _colour_cells(t)
        for c in (cells, [range(n)]):
            shared, alone = [], []
            assert _lex_min(t, c, None, shared, facts) == _lex_min(t, c, None, alone)
            assert shared == alone


def test_shared_row_facts_match_the_standalone_path_on_scanned_tables():
    tables = []
    for n in range(1, 6):
        scan_cycle_sets(n, tables.append)
    for cycs in ([(0, 1), (2, 3), (4, 5)], []):
        scan_cycle_sets(6, tables.append, diagonal=from_cycles(6, cycs))
    assert_shared_facts_match(tables, RowFacts())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(tables_from_few_rows(n), min_size=2, max_size=6)
    )
)
def test_shared_row_facts_match_the_standalone_path_on_repeated_rows(tables):
    assert_shared_facts_match(tables, RowFacts())
