import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycleset import scan_cycle_sets
from cycleset.canon import (
    Classes,
    RowFacts,
    SearchCancelled,
    _lex_min,
    _rooted_key,
    _rooted_row,
    canonical_form,
    canonical_relabeling,
    colours,
    isomorphism,
    relabel_table,
)
from cycleset.enumeration import _normal_forms
from cycleset.perm import cycle_type, cycles, fixed_points, from_cycles, inverse


def random_tables(n):
    return st.lists(
        st.permutations(range(n)).map(tuple), min_size=n, max_size=n
    ).map(tuple)


def scan_relabeling(t):
    """Reference: the lex-least relabeled table over every pre-order, where
    pre[i] is the point that gets label i, scanned in lex order so that the
    first pre-order reaching the minimum wins."""
    best = None
    for pre in itertools.permutations(range(len(t))):
        rho = inverse(pre)
        table = relabel_table(t, rho)
        if best is None or table < best[1]:
            best = (rho, table)
    return best


def assert_exact(t):
    assert canonical_relabeling(t) == scan_relabeling(t)


def colour_cells(rows):
    """The points grouped by ``colours``, cells in increasing colour: the
    points ``isomorphism`` may send onto one another."""
    cells = {}
    for x, c in enumerate(colours(rows)):
        cells.setdefault(c, []).append(x)
    return [tuple(cells[c]) for c in sorted(cells)]


def assert_isomorphism(t, u):
    """``isomorphism`` of t and u under their colours, with its witness
    checked cell by cell, or None."""
    phi = isomorphism([t], [u], colours(t), colours(u))
    if phi is not None:
        n = len(t)
        assert sorted(phi) == list(range(n))
        for x in range(n):
            for y in range(n):
                assert phi[t[x][y]] == u[phi[x]][phi[y]]
    return phi


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
    assert isomorphism([((0,),)], [((0,),)], [0], [0]) == (0,)


def test_empty_table():
    # the one relabeling of the empty table
    assert canonical_relabeling(()) == ((), ())
    assert isomorphism([()], [()], [], []) == ()


def test_rooted_keys_order_points_as_their_least_conjugates():
    # the canonical search gives label 0 only to points of least key, so the
    # keys must order every (permutation, point) pair, ties included, as
    # the least conjugate sending the point to 0 does
    facts = RowFacts()
    for n in range(1, 7):
        # each relabeling rho with its inverse, by the point it sends to 0
        rooting = {x: [] for x in range(n)}
        for rho in itertools.permutations(range(n)):
            rooting[rho.index(0)].append((rho, inverse(rho)))
        least = {}
        for p in itertools.permutations(range(n)):
            for x in range(n):
                row = min(
                    tuple(rho[p[inv[i]]] for i in range(n)) for rho, inv in rooting[x]
                )
                least.setdefault(_rooted_key(facts[p], x), set()).add(row)
        assert all(len(rows) == 1 for rows in least.values())
        ordered = [least[key].pop() for key in sorted(least)]
        assert ordered == sorted(set(ordered))
        # and _rooted_row lays out the least row of each key, both from
        # its cycle starts and as the row itself
        layouts = [_rooted_row(key) for key in sorted(least)]
        assert [spell_starts(starts) for starts, _ in layouts] == ordered
        assert [tuple(row) for _, row in layouts] == ordered
    # the spellings are interned: one pair per cycle type, shared by its rows
    assert len(facts.spellings) == sum(len(_normal_forms(n)) for n in range(1, 7))
    for entry in facts.values():
        assert entry[1:3] == facts.spellings[entry[1]]
        assert all(a is b for a, b in zip(entry[1:3], facts.spellings[entry[1]]))


def spell_starts(starts):
    """The row that the starts of ``_rooted_row`` describe: each cycle on consecutive
    labels from the label where it starts."""
    row = []
    for s, m in enumerate(starts):
        if m:
            row += range(s + 1, s + m)
            row.append(s)
    return tuple(row)


def least_row_zero(t):
    """Row 0 of the lex-least relabeled table, by brute force: the least
    row 0 over every relabeling."""
    n = len(t)
    least = None
    for rho in itertools.permutations(range(n)):
        inv = inverse(rho)
        row = tuple(rho[t[inv[0]][inv[j]]] for j in range(n))
        if least is None or row < least:
            least = row
    return least


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.one_of(tables_from_few_rows(n), random_tables(n))))
def test_one_cell_search_keeps_row_zero_at_the_least_rooted_row(t):
    # every row is a permutation, so the search walks only the pre-orders
    # whose row 0 is the least rooted row, and the winner is among them
    rho, table = _lex_min(t, None, RowFacts())
    assert table[0] == least_row_zero(t)
    assert (rho, table) == scan_relabeling(t)


def test_one_cell_search_keeps_row_zero_at_the_least_rooted_row_on_census_members(
    censuses_small,
):
    rng = random.Random(13)
    for t in censuses_small[5].representatives:
        rho = list(range(5))
        rng.shuffle(rho)
        u = relabel_table(t, rho)
        assert _lex_min(u, None, RowFacts())[1][0] == least_row_zero(u) == t[0]


def test_seeded_relabelings_of_size_six_members_come_back(census6):
    rng = random.Random(17)
    for t in census6.representatives:
        rho = list(range(6))
        rng.shuffle(rho)
        u = relabel_table(t, rho)
        assert canonical_form(u) == t
        assert assert_isomorphism(t, u) is not None


def test_canonical_labeling_matches_the_scan_on_scanned_tables():
    # the identity slice of 6 repeats identity rows, so many rows tie the
    # incumbent early and the comparison resumes after them
    tables = []
    for n in range(1, 6):
        scan_cycle_sets(n, tables.append)
    assert scan_cycle_sets(6, tables.append, diagonal=tuple(range(6))) == 113
    for t in tables:
        assert canonical_relabeling(t) == scan_relabeling(t)


def tables_with_identity_rows(n):
    """Tables of permutation rows, 1..n of them the identity, at any
    points.  The other rows need not map the identity-row points onto
    themselves, as the rows of a cycle set do, so most are no cycle set."""
    return st.integers(1, n).flatmap(
        lambda m: st.lists(
            st.permutations(range(n)).map(tuple), min_size=n - m, max_size=n - m
        ).flatmap(lambda rows: st.permutations([tuple(range(n))] * m + rows).map(tuple))
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labelings_match_the_scan_on_every_table_of_permutations(n):
    # with and without identity rows, whether or not a cycle set
    for t in itertools.product(itertools.permutations(range(n)), repeat=n):
        assert canonical_relabeling(t) == scan_relabeling(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(tables_with_identity_rows))
def test_identity_rows_take_the_first_labels(t):
    # the identity is the least permutation and no conjugate of another
    # row, so every relabeling that reaches the minimum gives the points
    # with identity rows the first labels
    identity = tuple(range(len(t)))
    rho, table = canonical_relabeling(t)
    first = sorted(rho[x] for x, row in enumerate(t) if row == identity)
    assert first == list(range(len(first)))
    assert table[: len(first)] == (identity,) * len(first)
    assert (rho, table) == scan_relabeling(t)


def test_labelings_of_scanned_tables_are_pinned():
    # rho and table for every scanned table of sizes 1..6 and a seeded
    # relabeling of each: a change to the search that moves any labeling,
    # not only its canonical form, fails here
    tables = []
    for n in range(1, 7):
        scan_cycle_sets(n, tables.append)
    assert len(tables) == 1122
    rng = random.Random(23)
    h = hashlib.sha256()
    for t in tables:
        rho = list(range(len(t)))
        rng.shuffle(rho)
        for u in (t, relabel_table(t, rho)):
            h.update(repr(canonical_relabeling(u)).encode())
    assert h.hexdigest() == (
        "8e7366a3978e1cdf2fa9daf5bf8974f1d2f75d9fa28089be35c10894f43e8bc2"
    )


def test_distinct_classes_stay_distinct():
    a = ((1, 0), (1, 0))  # both rows swap
    b = ((0, 1), (0, 1))  # both rows identity
    assert canonical_form(a) != canonical_form(b)


@given(st.integers(2, 5).flatmap(lambda n: st.one_of(random_tables(n), random_maps(n))))
def test_isomorphism_finds_every_relabeling(t):
    for rho in itertools.permutations(range(len(t))):
        assert assert_isomorphism(t, relabel_table(t, rho)) is not None


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.one_of(random_tables(n), random_maps(n)),
            st.one_of(random_tables(n), random_maps(n)),
            st.permutations(range(n)),
            st.booleans(),
        )
    )
)
def test_isomorphism_agrees_with_the_canonical_forms(case):
    # t against a relabeling of itself or of another table, rows that are no
    # permutations too: the search reads only the cells, and the colours
    # are invariants of any table
    t, other, rho, itself = case
    u = relabel_table(t if itself else other, rho)
    same = canonical_form(t) == canonical_form(u)
    assert (assert_isomorphism(t, u) is not None) == same


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_table_is_canonical_and_self_isomorphic(n):
    # all rows identity: one colour, and every relabeling is an automorphism
    t = tuple(tuple(range(n)) for _ in range(n))
    assert colour_cells(t) == [tuple(range(n))]
    assert canonical_form(t) == t
    assert assert_isomorphism(t, t) is not None


def test_isomorphism_refuses_other_colour_histograms_at_once():
    # one table, colours that no bijection keeps: refused before any search
    t = ((1, 0), (1, 0))
    assert isomorphism([t], [t], [0, 1], [0, 0]) is None
    assert isomorphism([t], [t], [0, 1], [1, 0]) == (1, 0)


def test_isomorphism_keeps_every_table_pair():
    # Z/4, and on the same points the Klein group x o y = x + y + 2xy: a
    # bijection must keep the tables of each pair, so none maps (Z/4, Z/4)
    # onto (Z/4, Klein), though the first tables alone map onto each other
    z4 = tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4))
    twisted = tuple(tuple((x + y + 2 * x * y) % 4 for y in range(4)) for x in range(4))
    assert isomorphism([z4], [z4], [0] * 4, [0] * 4) is not None
    assert isomorphism([z4, z4], [z4, twisted], [0] * 4, [0] * 4) is None
    phi = isomorphism([z4, twisted], [z4, twisted], [0] * 4, [0] * 4)
    assert all(
        phi[t[x][y]] == t[phi[x]][phi[y]]
        for t in (z4, twisted)
        for x in range(4)
        for y in range(4)
    )


def test_colour_cells_follow_colours_not_indices():
    # x.y = T(y) with T = (0 1)(2)(3): the fixed points of T come first
    t = tuple((1, 0, 2, 3) for _ in range(4))
    assert colour_cells(t) == [(2, 3), (0, 1)]
    assert colour_cells(relabel_table(t, (2, 3, 0, 1))) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("labeler", [canonical_form, canonical_relabeling])
def test_cancel_is_polled_at_the_first_relabeling(labeler):
    t = tuple(tuple(range(6)) for _ in range(6))
    with pytest.raises(SearchCancelled):
        labeler(t, cancel=lambda: True)


def test_cancel_fires_on_a_later_poll():
    # six identity rows and a row that is no permutation, so the rooted
    # rule does not apply and the search visits over 1,024 nodes: cancel
    # is polled at the first node and again at node 1,024; a search over 7
    # points has at most 13,699 nodes, hence at most 14 polls
    t = tuple(tuple(range(7)) for _ in range(6)) + ((1, 2, 3, 4, 0, 0, 0),)
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
    # point of its cycles, beside the per-point lengths, the same parts
    # ascending, the fixed points and whether the row is a permutation
    facts = RowFacts()
    for n in range(7):
        for p in itertools.permutations(range(n)):
            length = {x: len(c) for c in cycles(p) for x in c}
            spelt = tuple(k for k in cycle_type(p) for _ in range(k))
            assert facts[p] == (
                tuple(length[x] for x in range(n)),
                spelt,
                spelt[::-1],
                sum(1 << x for x in fixed_points(p)),
                True,
            )
    for n in range(5):
        for m in itertools.product(range(n), repeat=n):
            assert facts[m][4] == (sorted(m) == list(range(n)))


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
                assert colour_cells(u) == reference_colour_cells(u)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.one_of(tables_from_few_rows(n), random_tables(n), random_maps(n))
    )
)
def test_colour_cells_match_the_reference(t):
    assert colour_cells(t) == reference_colour_cells(t)


def assert_shared_facts_match(tables, facts):
    """The census path, one ``RowFacts`` kept across all ``tables``, for
    their rows and their diagonals alike, gives the colours and the
    labelings of the standalone path."""
    for t in tables:
        assert colours(t, facts) == colours(t)
        assert _lex_min(t, None, facts) == _lex_min(t, None, RowFacts())


def test_shared_row_facts_match_the_standalone_path_on_scanned_tables():
    tables = []
    for n in range(1, 6):
        scan_cycle_sets(n, tables.append)
    for cycs in ([(0, 1), (2, 3), (4, 5)], []):
        scan_cycle_sets(6, tables.append, diagonal=from_cycles(6, cycs))
    facts = RowFacts()
    assert_shared_facts_match(tables, facts)
    # the rooted rule's memos hold one entry per cycle type, or per cycle
    # type and a length of its cycles, not one per row or table
    rooted = {
        (length, facts[p][2])
        for n in range(1, 7)
        for p in _normal_forms(n)
        for length in facts[p][0]
    }
    assert 0 < len(facts.rooted) and facts.rooted.keys() <= rooted
    assert len(facts.spellings) <= sum(len(_normal_forms(n)) for n in range(1, 7))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(tables_from_few_rows(n), min_size=2, max_size=6)
    )
)
def test_shared_row_facts_match_the_standalone_path_on_repeated_rows(tables):
    assert_shared_facts_match(tables, RowFacts())


@pytest.mark.parametrize("n", range(1, 7))
def test_classes_give_the_canonical_forms_in_any_order(n):
    # each table gets its own search, so the forms do not depend on the
    # order the tables come in
    tables = []
    scan_cycle_sets(n, tables.append)
    want = {canonical_form(t) for t in tables}
    shuffled = tables[:]
    random.Random(n).shuffle(shuffled)
    for order in (tables, tables[::-1], shuffled):
        classes = Classes()
        for t in order:
            classes.add(t)
        assert classes.found == want


@given(st.integers(1, 5).flatmap(random_tables), st.randoms(use_true_random=False))
def test_colours_follow_their_points(t, rng):
    # colours are invariants: relabeling by rho gives point rho[x] the
    # colour of x, which both ``isomorphism`` and the census search rely on
    rho = list(range(len(t)))
    rng.shuffle(rho)
    c = colours(t)
    assert [c[x] for x in inverse(rho)] == colours(relabel_table(t, rho))
