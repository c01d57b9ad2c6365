import itertools
import math
import sys
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from cycleset import (
    Congruence,
    InvalidCycleSet,
    canonical_form,
    cycle_set,
    direct_product,
    is_isomorphic,
    relabel,
    run_all,
    trivial_cycle_set,
    validate_table,
)
from cycleset.analysis import AnalysisReport, analyze
from cycleset.perm import compose, from_cycles, identity, inverse, perm_order, power

# one cycle per prime 2, 3, ..., 23, on 2 + 3 + ... + 23 = 100 points
PRIMES_TO_23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)
PRIME_CYCLES_100 = [
    tuple(range(end - p, end))
    for p, end in zip(PRIMES_TO_23, itertools.accumulate(PRIMES_TO_23))
]

# one cycle per prime 2, 3, ..., 89, on 963 of 1,024 points
PRIMES_TO_89 = tuple(p for p in range(2, 90) if all(p % d for d in range(2, p)))
PRIME_CYCLES_1024 = [
    tuple(range(end - p, end))
    for p, end in zip(PRIMES_TO_89, itertools.accumulate(PRIMES_TO_89))
]

# rows bijective, diagonal bijective, cycloid broken at (0, 2, 0)
CYCLOID_BROKEN = ((0, 1, 2), (0, 2, 1), (2, 0, 1))


def element_loop_error(t):
    """Reference for tables of bijective rows: the cycloid law at every
    triple, pairs x < y in order, then the diagonal, as the (kind, witness,
    message) of the first failure, or None."""
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(n):
                left, right = t[t[x][y]][t[x][z]], t[t[y][x]][t[y][z]]
                if left != right:
                    message = f"cycloid law fails at ({x}, {y}, {z}): {left} != {right}"
                    return "cycloid", (x, y, z), message
    diag = tuple(t[x][x] for x in range(n))
    if sorted(diag) != list(range(n)):
        return "degenerate", diag, "diagonal is not bijective"
    return None


def tables_from_a_row_pool(n):
    """Tables whose rows come from a pool of at most three permutations, so
    that row quadruples repeat; in some of them one cell of one row is
    swapped with another cell of that row."""
    pool = st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)
    rows = pool.flatmap(
        lambda p: st.lists(st.sampled_from(p), min_size=n, max_size=n)
    )
    cells = st.tuples(*[st.integers(0, n - 1)] * 3)

    def swap(rows, cell):
        rows = [list(r) for r in rows]
        if cell is not None:
            x, i, j = cell
            rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
        return tuple(map(tuple, rows))

    return st.builds(swap, rows, st.none() | cells)


class TestValidation:
    def test_ragged_table(self):
        with pytest.raises(InvalidCycleSet) as exc:
            validate_table(((0, 1), (0,)))
        assert exc.value.kind == "shape"

    def test_non_bijective_row(self):
        with pytest.raises(InvalidCycleSet) as exc:
            validate_table(((0, 0), (0, 1)))
        assert exc.value.kind == "row"
        assert exc.value.witness == 0

    def test_cycloid_violation_carries_witness(self):
        with pytest.raises(InvalidCycleSet) as exc:
            validate_table(CYCLOID_BROKEN)
        assert exc.value.kind == "cycloid"
        x, y, z = exc.value.witness
        t = CYCLOID_BROKEN
        assert t[t[x][y]][t[x][z]] != t[t[y][x]][t[y][z]]

    def test_booleans_are_not_points(self):
        with pytest.raises(InvalidCycleSet) as exc:
            validate_table(((True, False), (True, False)))
        assert exc.value.kind == "shape"

    def test_out_of_range_entry(self):
        with pytest.raises(InvalidCycleSet):
            validate_table(((0, 2), (1, 0)))

    @pytest.mark.parametrize("entry", [True, False, 1.0, 0.5, "1", None, -1, 3, 10**20])
    def test_entries_that_are_not_points(self, entry):
        # any entry of row 1 that is not an int in 0..2 names that row
        with pytest.raises(InvalidCycleSet) as exc:
            validate_table(((0, 1, 2), (0, entry, 2), (0, 1, 2)))
        assert (exc.value.kind, exc.value.witness) == ("shape", 1)
        assert str(exc.value) == "row 1 has entries outside 0..2"

    @pytest.mark.parametrize(
        "table, error",
        [
            (((0,),), None),
            (((1, 0), (1, 0)), None),
            (((0, 1), (0, 1)), None),
            (((1, 0), (0, 1)), ("cycloid", (0, 1, 0), "cycloid law fails at (0, 1, 0): 0 != 1")),
            (((0, 1), (1, 0)), ("cycloid", (0, 1, 0), "cycloid law fails at (0, 1, 0): 1 != 0")),
            (((0, 0), (0, 1)), ("row", 0, "row 0 is not bijective")),
            (((1,),), ("shape", 0, "row 0 has entries outside 0..0")),
        ],
    )
    def test_sizes_1_and_2(self, table, error):
        try:
            validate_table(table)
            got = None
        except InvalidCycleSet as exc:
            got = exc.kind, exc.witness, str(exc)
        assert got == error

    def test_empty_rejected(self):
        with pytest.raises(InvalidCycleSet):
            validate_table(())

    def test_singleton_accepted(self):
        X = cycle_set(((0,),))
        assert X.n == 1
        assert X.is_indecomposable
        assert X.is_simple

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 7).flatmap(tables_from_a_row_pool))
    def test_agrees_with_the_element_loop(self, t):
        # one check per distinct row quadruple raises the same kind, witness
        # and message as a check of every triple
        try:
            validate_table(t)
            got = None
        except InvalidCycleSet as exc:
            got = exc.kind, exc.witness, str(exc)
        assert got == element_loop_error(t)

    def test_few_distinct_rows_validate_in_quadratic_time(self):
        # constant rows on 1,024 points: every pair reads the same four rows,
        # so the cycloid law is checked once, not at 10^9 triples
        g = from_cycles(1024, PRIME_CYCLES_1024)
        start = time.perf_counter()
        validate_table([g] * 1024)
        assert time.perf_counter() - start < 10

    def test_exhaustive_agreement_with_naive_check_n3(self):
        # validate() accepts exactly the tables passing a direct triple loop
        perms = list(itertools.permutations(range(3)))
        for rows in itertools.product(perms, repeat=3):
            naive = all(
                rows[rows[x][y]][rows[x][z]] == rows[rows[y][x]][rows[y][z]]
                for x in range(3)
                for y in range(3)
                for z in range(3)
            ) and sorted(rows[x][x] for x in range(3)) == [0, 1, 2]
            try:
                validate_table(rows)
                accepted = True
            except InvalidCycleSet:
                accepted = False
            assert accepted == naive


class TestBasicStructure:
    def test_size2(self, size2_indec):
        assert size2_indec.squaring_map == (1, 0)
        assert size2_indec.fixed_points == frozenset()
        assert size2_indec.is_indecomposable
        assert size2_indec.perm_group.order == 2

    def test_trivial_identity_is_decomposable(self, trivial2):
        assert trivial2.squaring_map == (0, 1)
        assert trivial2.is_decomposable
        assert trivial2.decomposition == ((0,), (1,))

    def test_table4(self, table4):
        assert table4.squaring_map == (0, 3, 2, 1)
        assert table4.fixed_points == frozenset({0, 2})
        assert table4.is_latin
        assert table4.is_indecomposable
        assert table4.is_irretractable
        assert table4.perm_group.order == 8
        assert table4.perm_group.is_nilpotent
        assert not table4.perm_group.is_abelian

    def test_displacement_group(self, table4, cyclic3):
        assert table4.displacement_group.order == 4
        assert cyclic3.displacement_group.order == 1

    def test_ex12(self, ex12):
        g = ex12.perm_group
        assert g.order == 6
        assert g.is_abelian
        assert max(perm_order(p) for p in g.elements) == 6  # cyclic
        assert ex12.is_decomposable
        assert ex12.prime_support_match()
        assert ex12.fixed_points == frozenset(range(5, 12))

    def test_latin_detection(self, table4, cyclic3):
        # constant-row tables have constant columns, so never latin past n=1
        assert table4.is_latin
        assert not cyclic3.is_latin


class TestSolutionCorrespondence:
    def test_solution_laws_on_census(self, censuses_small):
        for n, census in censuses_small.items():
            for X in census.cycle_sets():
                s = X.to_solution()
                assert s.is_involutive()
                assert s.satisfies_braid_relation()
                assert s.to_cycle_set().table == X.table

    def test_pair_formula(self, table4):
        s = table4.to_solution()
        lam = [inverse(table4.row(x)) for x in range(4)]
        for x in range(4):
            for y in range(4):
                u, v = s.r(x, y)
                assert u == lam[x][y]
                assert v == table4.table[u][x]

    def test_nondegenerate_components(self, cyclic5):
        s = cyclic5.to_solution()
        for x in range(5):
            assert sorted(s.lam[x]) == list(range(5))
            assert sorted(s.rho[x]) == list(range(5))


class TestRetraction:
    def test_ex12_retracts_to_two_classes(self, ex12):
        Y, cls = ex12.retraction()
        assert Y.n == 2
        assert cls[0] == cls[1]
        assert len({cls[x] for x in range(2, 12)}) == 1
        assert cls[0] != cls[2]

    def test_irretractable_fixed_point(self, table4):
        Y, cls = table4.retraction()
        assert Y.table == table4.table
        assert cls == (0, 1, 2, 3)

    def test_retract_of_trivial_is_point(self, cyclic3):
        Y, _ = cyclic3.retraction()
        assert Y.n == 1

    def test_retractions_validate_on_census(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                Y, cls = X.retraction()
                validate_table(Y.table)
                rows_equal = Congruence.from_labels([X.table.index(r) for r in X.table])
                assert X.quotient(rows_equal) == (Y, cls)


class TestCabling:
    def test_identity_degree(self, table4):
        assert table4.cabling(1).table == table4.table

    def test_squaring_power_law(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                for k in range(1, 7):
                    Xk = X.cabling(k)
                    validate_table(Xk.table)
                    assert Xk.squaring_map == power(X.squaring_map, k)

    def test_coprime_cabling_keeps_indecomposability(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                if not X.is_indecomposable:
                    continue
                for k in range(1, 7):
                    if X.n % k == 0 and k > 1:
                        continue
                    if math.gcd(k, X.n) == 1:
                        assert X.cabling(k).is_indecomposable

    def test_rejects_nonpositive(self, cyclic3):
        with pytest.raises(ValueError):
            cyclic3.cabling(0)

    @pytest.mark.parametrize("k", [10**9, sys.maxsize + 2])
    def test_huge_index_follows_the_dehornoy_class(self, censuses_small, k):
        # x *_k y = omega(x, ..., x, y) with k copies of x, and the tower of
        # cablings returns to X after d steps
        for census in censuses_small.values():
            for X in census.cycle_sets():
                copies = (k - 1) % X.dehornoy_class() + 1
                got = X.cabling(k).table
                for x in range(X.n):
                    for y in range(X.n):
                        assert got[x][y] == X.omega((x,) * copies + (y,))

    def test_doubling_matches_the_tower(self, censuses_small):
        # x *_k y = omega(x, ..., x, y) with k copies of x, across three
        # returns of the tower to X
        for census in censuses_small.values():
            for X in census.cycle_sets():
                for k in range(1, 3 * X.dehornoy_class() + 2):
                    got = X.cabling(k).table
                    for x in range(X.n):
                        for y in range(X.n):
                            assert got[x][y] == X.omega((x,) * k + (y,))

    def test_huge_index_on_a_huge_dehornoy_class(self):
        # cycles of the primes 2..23 on 100 points: d = 223,092,870, so a
        # walk along the tower would take days; doubling takes 82
        # table compositions
        g = from_cycles(100, PRIME_CYCLES_100)
        k = 10**18
        start = time.perf_counter()
        got = trivial_cycle_set(g).cabling(k).table
        assert time.perf_counter() - start < 5
        assert got == trivial_cycle_set(power(g, k)).table


def tower_walk_class(X):
    """Reference: the least d for which the cabling X_d has identity rows,
    trying d = 1, 2, ... in turn."""
    ident = identity(X.n)
    d = 1
    while any(row != ident for row in X.cabling(d).table):
        d += 1
    return d


class TestDehornoy:
    def test_small_classes(self, size2_indec, trivial2, cyclic3, table4):
        assert size2_indec.dehornoy_class() == 2
        assert trivial2.dehornoy_class() == 1
        assert cyclic3.dehornoy_class() == 3
        assert table4.dehornoy_class() == 2

    def test_ex12_class(self, ex12):
        # rows on the 2-part force an even class, rows on the 3-part a
        # multiple of three
        assert ex12.dehornoy_class() == 6

    def test_omega_tower(self, cyclic3):
        # one-step tower is plain left division
        for x in range(3):
            for y in range(3):
                assert cyclic3.omega((x, y)) == cyclic3.table[x][y]

    def test_omega_annihilation(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                d = X.dehornoy_class()
                for x in range(X.n):
                    for y in range(X.n):
                        assert X.omega((x,) * d + (y,)) == y

    def test_class_is_least_annihilating_index(self, censuses_small):
        # the definition: no k below d has omega(x, ..., x, y) = y for all
        # x, y (k copies of x)
        for census in censuses_small.values():
            for X in census.cycle_sets():
                for k in range(1, X.dehornoy_class()):
                    assert any(
                        X.omega((x,) * k + (y,)) != y
                        for x in range(X.n)
                        for y in range(X.n)
                    )

    def test_huge_class_in_closed_form(self):
        # cycles of the primes 2..23 on 100 points: d = 2 * 3 * ... * 23,
        # which the walk along the tower would have taken days to reach
        X = trivial_cycle_set(from_cycles(100, PRIME_CYCLES_100))
        start = time.perf_counter()
        assert X.dehornoy_class() == 223_092_870
        assert time.perf_counter() - start < 1

    def test_one_product_per_squaring_cycle_on_1024_points(self):
        # cycles of the primes 2..89: one product of rows per cycle takes
        # about 0.1 s, where 176 compositions of the whole table took 12 s
        X = trivial_cycle_set(from_cycles(1024, PRIME_CYCLES_1024))
        start = time.perf_counter()
        assert X.dehornoy_class() == math.prod(PRIMES_TO_89)
        assert time.perf_counter() - start < 2

    def test_class_matches_the_tower_walk_on_census_members(
        self, censuses_small, census6
    ):
        for census in (*censuses_small.values(), census6):
            for X in census.cycle_sets():
                assert X.dehornoy_class() == tower_walk_class(X)

    @given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))))
    def test_class_matches_the_tower_walk_on_constant_rows(self, gamma):
        X = trivial_cycle_set(gamma)
        assert X.dehornoy_class() == tower_walk_class(X)


class TestCongruences:
    def test_simplicity_of_small_fixtures(self, size2_indec, cyclic3, table4):
        assert size2_indec.is_simple
        assert cyclic3.is_simple
        assert table4.is_simple

    def test_ex12_has_nontrivial_congruence(self, ex12):
        c = ex12.principal_congruence(5, 6)
        assert not c.is_trivial
        assert c.is_congruence_of(ex12)

    def test_quotient_by_retract_relation(self, ex12):
        _, cls = ex12.retraction()
        cong = Congruence.from_labels(cls)
        Y, _ = ex12.quotient(cong)
        assert Y.n == 2

    def test_quotient_rejects_non_congruence(self, table4):
        bad = Congruence.from_labels((0, 0, 1, 1))
        if not bad.is_congruence_of(table4):
            with pytest.raises(ValueError):
                table4.quotient(bad)

    def test_indecomposable_quotients_have_equal_fibers(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                if not X.is_indecomposable:
                    continue
                for c in X.congruences():
                    sizes = {len(cls) for cls in c.classes}
                    assert len(sizes) == 1

    def test_principal_congruence_contains_seed(self, table4):
        c = table4.principal_congruence(0, 1)
        labels = c.labels
        assert labels[0] == labels[1]

    def test_congruences_match_partition_scan(self, censuses_small):
        # the generated lattice equals a brute scan over every partition
        for n in (2, 3, 4):
            for X in censuses_small[n].cycle_sets():
                got = {c.classes for c in X.congruences()}
                want = set()
                for labels in itertools.product(range(n), repeat=n):
                    c = Congruence.from_labels(labels)
                    if c.is_congruence_of(X):
                        want.add(c.classes)
                assert got == want

    def test_quotient_matches_cellwise_definition(self, censuses_small):
        # class i . class j is the class of (least of i) . (least of j)
        for census in censuses_small.values():
            for X in census.cycle_sets():
                for c in X.congruences():
                    Y, index = X.quotient(c)
                    reps = [cls[0] for cls in c.classes]
                    want = tuple(
                        tuple(c.index[X.table[rx][ry]] for ry in reps) for rx in reps
                    )
                    assert Y.table == want
                    assert index == c.index

    def test_congruence_set_closed_under_quotient_validation(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                for c in X.congruences():
                    assert c.is_congruence_of(X)
                    Y, _ = X.quotient(c)
                    validate_table(Y.table)


class TestConstructors:
    def test_trivial_cycle_set_rows(self):
        g = (1, 2, 0)
        X = trivial_cycle_set(g)
        assert all(X.row(x) == g for x in range(3))
        assert X.squaring_map == g

    def test_trivial_always_valid(self):
        for n in range(1, 6):
            for g in itertools.permutations(range(n)):
                validate_table(trivial_cycle_set(g).table)

    def test_direct_product(self, size2_indec, cyclic3):
        P = direct_product(size2_indec, cyclic3)
        assert P.n == 6
        validate_table(P.table)
        assert P.is_indecomposable
        assert P.perm_group.order == 6

    def test_direct_product_projections_are_quotients(self, size2_indec, cyclic3):
        P = direct_product(size2_indec, cyclic3)
        # classes of constant first coordinate form a congruence onto cyclic3
        labels = tuple(i % 3 for i in range(6))
        cong = Congruence.from_labels(labels)
        assert cong.is_congruence_of(P)
        Y, _ = P.quotient(cong)
        assert is_isomorphic(Y, cyclic3) is not None


class TestIsomorphism:
    def test_relabel_roundtrip(self, table4):
        rho = (2, 0, 3, 1)
        Y = relabel(table4, rho)
        validate_table(Y.table)
        w = is_isomorphic(table4, Y)
        assert w is not None
        assert relabel(table4, w).table == Y.table

    def test_witness_direction_on_census(self, censuses_small):
        census = censuses_small[4]
        for X in census.cycle_sets():
            Y = relabel(X, (1, 3, 0, 2))
            w = is_isomorphic(X, Y)
            assert w is not None and relabel(X, w).table == Y.table

    @settings(max_examples=40, deadline=None)
    @given(
        i=st.integers(0, 87),
        j=st.integers(0, 87),
        rho=st.permutations(range(5)).map(tuple),
    )
    def test_witness_replays_on_census_five(self, censuses_small, i, j, rho):
        members = censuses_small[5].cycle_sets()
        X = members[i]
        Y = relabel(X, rho)
        w = is_isomorphic(X, Y)
        assert w is not None and relabel(X, w).table == Y.table
        if j != i:
            assert is_isomorphic(X, relabel(members[j], rho)) is None

    @settings(max_examples=40, deadline=None)
    @given(i=st.integers(0, 87), rho=st.permutations(range(5)).map(tuple))
    def test_analysis_report_is_invariant_on_census_five(self, censuses_small, i, rho):
        X = censuses_small[5].cycle_sets()[i]
        before = analyze(X)
        after = analyze(relabel(X, rho))
        # the two fields that name points move with rho; the rest are equal
        assert after.fixed_points == tuple(sorted(rho[x] for x in before.fixed_points))
        if before.decomposition is None:
            assert after.decomposition is None
        else:
            moved = {frozenset(rho[x] for x in part) for part in before.decomposition}
            assert {frozenset(part) for part in after.decomposition} == moved
        for f in fields(AnalysisReport):
            if f.name not in ("fixed_points", "decomposition"):
                assert getattr(after, f.name) == getattr(before, f.name), f.name

    @settings(max_examples=40, deadline=None)
    @given(i=st.integers(0, 87), rho=st.permutations(range(5)).map(tuple))
    def test_checker_verdicts_are_invariant_on_census_five(self, censuses_small, i, rho):
        X = censuses_small[5].cycle_sets()[i]

        def summary(v):
            return v.checker_id, v.instances, v.skipped, v.passed, len(v.counterexamples)

        before = [summary(v) for v in run_all([X])]
        assert [summary(v) for v in run_all([relabel(X, rho)])] == before

    def test_non_isomorphic(self, size2_indec, trivial2):
        assert is_isomorphic(size2_indec, trivial2) is None

    def test_canonical_form_identifies_classes(self, table4):
        Y = relabel(table4, (3, 1, 0, 2))
        assert canonical_form(Y).table == canonical_form(table4).table

    def test_invariants_respect_isomorphism(self, censuses_small):
        from cycleset.perm import cycle_type

        for X in censuses_small[4].cycle_sets():
            Y = relabel(X, (2, 1, 3, 0))
            assert cycle_type(X.squaring_map) == cycle_type(Y.squaring_map)
            assert X.perm_group.order == Y.perm_group.order
            assert X.is_latin == Y.is_latin
            assert X.is_decomposable == Y.is_decomposable
            assert X.dehornoy_class() == Y.dehornoy_class()
            assert X.is_simple == Y.is_simple
