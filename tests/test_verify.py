"""Checker harness: clean sweeps over complete censuses, verdict plumbing,
and one doctored instance per checker proving it can flag a violation of its
own law.  The doctored tables are not valid cycle sets; each satisfies the
hypothesis shape of one checker while breaking its conclusion, so a checker
that never fires on them is vacuous."""

import collections
import json

import pytest

from cycleset import (
    CHECKERS,
    CycleSet,
    InvalidCycleSet,
    cycle_set,
    direct_product,
    from_cycles,
    relabel,
    run_all,
    run_checker,
    trivial_cycle_set,
)
import cycleset.brace as brace_mod
import cycleset.verify as verify_mod
from cycleset.perm import cycle_type, perm_order, power, prime_part, prime_support
from cycleset.verify import CheckerDef, hash_tables

ID8 = tuple(range(8))
ID9 = tuple(range(9))

# T = id, latin, rows generate S3 (transitive)
FAKE_IDENTITY_SQUARING = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
# T a transposition, order coprime to the size, rows generate S3
FAKE_COPRIME = ((1, 0, 2), (2, 0, 1), (0, 1, 2))
# transitive with nilpotent row group, but row 0 is the identity
FAKE_SUPPORT = ((0, 1), (1, 0))
# 7-cycle row plus identity rows: six squaring fixed points out of seven
FAKE_FIXBOUND = ((1, 2, 3, 4, 5, 6, 0),) + tuple(tuple(range(7)) for _ in range(6))
# transitive, T a 3-cycle, size the inadmissible prime power 9
FAKE_NINE = (
    ((1, 2, 0, 3, 4, 5, 6, 7, 8),) * 3
    + ((4, 5, 6, 3, 0, 1, 2, 8, 7), (8, 1, 2, 7, 4, 5, 6, 3, 0))
    + (ID9,) * 4
)
# transitive with the even/odd two-block system, T a transposition at size 8
FAKE_BLOCK8 = (
    (0, 1, 4, 5, 6, 7, 2, 3),
    ID8,
    (4, 5, 2, 3, 0, 1, 6, 7),
    ID8,
    ID8,
    ID8,
    (1, 0, 3, 2, 5, 4, 7, 6),
    (1, 0, 3, 2, 5, 4, 7, 6),
)
# latin with a transposition squaring map at size 5
FAKE_LATIN5 = (
    (1, 2, 0, 4, 3),
    (3, 0, 4, 1, 2),
    (4, 3, 2, 0, 1),
    (2, 4, 1, 3, 0),
    (0, 1, 3, 2, 4),
)
# collapses every pair to (0, 0)
FAKE_PAIR = ((0, 0), (0, 0))

TABLE4 = ((0, 1, 3, 2), (2, 3, 1, 0), (1, 0, 2, 3), (3, 2, 0, 1))


@pytest.fixture
def cabling_calls(monkeypatch):
    """The indices of every CycleSet.cabling call, in order."""
    called = []
    cabling = CycleSet.cabling

    def spy(self, k):
        called.append(k)
        return cabling(self, k)

    monkeypatch.setattr(CycleSet, "cabling", spy)
    return called


def _without_elapsed(verdict):
    d = verdict.to_dict()
    del d["elapsed"]
    return d


def _assert_clean(cid, tables, ks=range(1, 7)):
    verdict = run_checker(cid, tables, ks=ks)
    assert verdict.passed, verdict.counterexamples


def _mut_squarefree(request, monkeypatch):
    return [CycleSet(FAKE_IDENTITY_SQUARING)]


def _mut_coprime_squaring(request, monkeypatch):
    return [CycleSet(FAKE_COPRIME)]


def _mut_prime_support_match(request, monkeypatch):
    return [CycleSet(FAKE_SUPPORT)]


def _mut_nilpotent_factorization(request, monkeypatch):
    X = direct_product(
        request.getfixturevalue("size2_indec"), request.getfixturevalue("cyclic3")
    )
    _assert_clean("nilpotent_factorization", [X])
    monkeypatch.setattr(verify_mod, "is_isomorphic", lambda a, b: None)
    return [X]


def _mut_pcycle_simple(request, monkeypatch):
    _assert_clean("pcycle_simple", [trivial_cycle_set((1, 2, 0))])
    monkeypatch.setattr(CycleSet, "is_simple", property(lambda self: False))
    return [trivial_cycle_set((1, 2, 0))]


def _mut_fixed_point_bound(request, monkeypatch):
    return [CycleSet(FAKE_FIXBOUND)]


def _mut_pcycle_classification(request, monkeypatch):
    # the size-9 fake breaks the per-instance branch; the two relabelings of
    # one size-4 class break the census-wide uniqueness count
    X = CycleSet(TABLE4)
    Y = relabel(X, (1, 0, 2, 3))
    assert Y.table != X.table
    return [X, Y, CycleSet(FAKE_NINE)]


def _mut_block_bound(request, monkeypatch):
    return [CycleSet(FAKE_BLOCK8)]


def _mut_fixed_point_orders(request, monkeypatch):
    _assert_clean("fixed_point_orders", [CycleSet(TABLE4)])
    monkeypatch.setattr(CycleSet, "dehornoy_class", lambda self: 999)
    return [CycleSet(TABLE4)]


def _mut_latin_fixed_points(request, monkeypatch):
    return [CycleSet(FAKE_IDENTITY_SQUARING), CycleSet(FAKE_LATIN5)]


def _mut_cabling_laws(request, monkeypatch):
    _assert_clean("cabling_laws", [trivial_cycle_set((1, 2, 0))], ks=range(1, 4))
    monkeypatch.setattr(CycleSet, "cabling", lambda self, k: self)
    return [trivial_cycle_set((1, 2, 0))]


def _mut_block_action(request, monkeypatch):
    _assert_clean("block_action", [CycleSet(TABLE4)])
    monkeypatch.setattr(verify_mod, "_p_block_systems", lambda X, p: [])
    return [CycleSet(TABLE4)]


def _mut_pair_map_bijective(request, monkeypatch):
    return [CycleSet(FAKE_PAIR)]


def _mut_coprime_tail_pcycle(request, monkeypatch):
    return [CycleSet(FAKE_NINE)]


MUTATIONS = {
    name[len("_mut_"):]: fn
    for name, fn in list(globals().items())
    if name.startswith("_mut_")
}


class TestMutationDetection:
    def test_every_checker_has_a_mutation(self):
        assert set(MUTATIONS) == set(CHECKERS)

    @pytest.mark.parametrize("cid", sorted(CHECKERS))
    def test_flags_injected_violation(self, cid, request, monkeypatch):
        tables = MUTATIONS[cid](request, monkeypatch)
        verdict = run_checker(cid, tables, ks=range(1, 4))
        assert not verdict.passed
        scanned = {X.table for X in tables}
        for ce in verdict.counterexamples:
            assert ce.checker_id == cid
            assert ce.detail
            assert ce.table in scanned

    def test_latin_census_part_fires_alone(self):
        # the size-5 latin fake satisfies the per-instance bound (one fixed
        # point), so only the census-wide p-cycle scan can flag it
        verdict = run_checker("latin_fixed_points", [CycleSet(FAKE_LATIN5)])
        assert not verdict.passed
        assert "size 5" in verdict.counterexamples[0].detail

    def test_counterexample_replays_from_serialized_form(self):
        verdict = run_checker("pair_map_bijective", [CycleSet(FAKE_PAIR)])
        payload = json.loads(json.dumps(verdict.to_dict()))
        rebuilt = CycleSet(
            tuple(tuple(row) for row in payload["counterexamples"][0]["table"])
        )
        assert not run_checker("pair_map_bijective", [rebuilt]).passed


class TestCleanSweeps:
    # checkers whose hypotheses first occur above size 5; their firing is
    # covered by the doctored instances and the size-6 sweep
    VACUOUS_AT_5 = {"nilpotent_factorization", "coprime_tail_pcycle"}

    def test_all_checkers_pass_up_to_five(self, censuses_small):
        tables = [
            X for n in sorted(censuses_small) for X in censuses_small[n].cycle_sets()
        ]
        for verdict in run_all(tables, scope="all classes, sizes 1-5"):
            assert verdict.passed, verdict.counterexamples
            if verdict.checker_id not in self.VACUOUS_AT_5:
                assert verdict.instances > 0

    def test_all_checkers_pass_on_indecomposable_six(self, census6):
        indec = [X for X in census6.cycle_sets() if X.is_indecomposable]
        assert indec
        for verdict in run_all(indec, scope="indecomposable, size 6"):
            assert verdict.passed, verdict.counterexamples


class TestConstructedFamilies:
    """Checker battery over constructed instances beyond the census range:
    cartesian products of census members reach sizes 6 to 16, and constant-row
    full-cycle sets reach primes past the enumeration cap."""

    def test_product_family_sweep(self, censuses_small):
        shapes = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5), (4, 4)]
        prods = [
            direct_product(a, b)
            for na, nb in shapes
            for a in censuses_small[na].cycle_sets()
            for b in censuses_small[nb].cycle_sets()
        ]
        assert len(prods) == 1341
        assert {X.n for X in prods} == {6, 8, 9, 10, 12, 15, 16}
        # the family is not all decomposable: products of indecomposable
        # factors of coprime sizes are themselves indecomposable
        assert any(X.is_indecomposable for X in prods)
        total = 0
        for verdict in run_all(prods, scope="census products", ks=(2, 3)):
            assert verdict.passed, verdict.counterexamples
            total += verdict.instances
        assert total > 2000

    def test_prime_full_cycle_family(self):
        tables = []
        for p in (7, 11, 13):
            sigma = from_cycles(p, [tuple(range(p))])
            X = cycle_set(tuple(sigma for _ in range(p)))
            assert X.is_indecomposable
            assert verify_mod._is_pcycle(X.squaring_map) == p
            assert X.is_simple
            assert X.dehornoy_class() == p
            tables.append(X)
        for verdict in run_all(tables, scope="prime full cycles", ks=(2, 3)):
            assert verdict.passed, verdict.counterexamples


class TestHarness:
    def test_unknown_checker_rejected(self, size2_indec):
        with pytest.raises(ValueError, match="unknown checker"):
            run_checker("no_such_law", [size2_indec])

    def test_raw_tables_accepted(self, size2_indec):
        verdict = run_checker("pair_map_bijective", [size2_indec.table])
        assert verdict.passed and verdict.instances == 1

    def test_invalid_raw_tables_are_refused(self):
        # rows that are not bijections make no cycle set, so no checker may
        # report this table as a counterexample
        with pytest.raises(InvalidCycleSet, match="row 0 is not bijective"):
            run_all([[[0, 0], [1, 1]]])
        with pytest.raises(InvalidCycleSet, match="row 0 is not bijective"):
            run_checker("latin_fixed_points", [[[0, 0], [1, 1]]])

    def test_crashing_instance_checker_is_a_counterexample(
        self, monkeypatch, size2_indec
    ):
        def boom(X, ctx):
            raise ZeroDivisionError("induced")

        monkeypatch.setitem(CHECKERS, "boom", CheckerDef(boom, None))
        verdict = run_checker("boom", [size2_indec])
        assert not verdict.passed
        assert "checker raised ZeroDivisionError" in verdict.counterexamples[0].detail

    def test_crashing_census_checker_is_a_counterexample(
        self, monkeypatch, size2_indec
    ):
        def boom(tables, ctx):
            raise RuntimeError("induced")

        def skip(X, ctx):
            return False, []

        monkeypatch.setitem(CHECKERS, "boom", CheckerDef(skip, boom))
        verdict = run_checker("boom", [size2_indec])
        assert not verdict.passed
        assert "census check raised" in verdict.counterexamples[0].detail

    def test_verdict_serialization(self):
        verdict = run_checker("pair_map_bijective", [CycleSet(FAKE_PAIR)])
        d = json.loads(json.dumps(verdict.to_dict()))
        assert d["checker"] == "pair_map_bijective"
        assert d["passed"] is False
        assert d["instances"] == 1 and d["skipped"] == 0
        assert d["counterexamples"][0]["n"] == 2
        assert d["engine_version"] == verdict.engine_version

    def test_hash_is_order_independent(self, size2_indec, cyclic3):
        assert hash_tables([size2_indec, cyclic3]) == hash_tables(
            [cyclic3, size2_indec]
        )
        assert hash_tables([size2_indec]) != hash_tables([cyclic3])

    def test_notes_carried_into_verdict(self):
        verdict = run_checker("fixed_point_bound", [])
        assert verdict.notes
        assert verdict.passed and verdict.instances == 0

    def test_pcycle_classification_counts_its_evidence(self, censuses_small, census6):
        # the census hook states what the p-cycle checkers saw as counts,
        # beside a verdict that is otherwise unchanged
        tables = [X for c in (*censuses_small.values(), census6) for X in c.cycle_sets()]
        verdict = run_checker("pcycle_classification", tables)
        assert verdict.passed and (verdict.instances, verdict.skipped) == (4, 710)
        assert verdict.notes[-1] == (
            "squaring map a p-cycle: 221 members (p = 2: 161, p = 3: 54, p = 5: 6), "
            "4 of them indecomposable, at sizes 2, 3, 4 and 5"
        )
        # the size-6 census alone has p-cycle members, none indecomposable;
        # counted here from the cycle types
        moved = [
            [k for k in cycle_type(X.squaring_map) if k > 1] for X in census6.cycle_sets()
        ]
        by_p = collections.Counter(m[0] for m in moved if m in ([2], [3], [5]))
        assert sorted(by_p.items()) == [(2, 127), (3, 41), (5, 5)]
        assert run_checker("pcycle_classification", census6.cycle_sets()).notes[-1] == (
            "squaring map a p-cycle: 173 members (p = 2: 127, p = 3: 41, p = 5: 5), "
            "none of them indecomposable"
        )

    def test_run_all_selects_checkers(self, size2_indec):
        verdicts = run_all([size2_indec], checker_ids=["pair_map_bijective"])
        assert [v.checker_id for v in verdicts] == ["pair_map_bijective"]

    def test_instances_past_the_brace_cap_are_skipped(
        self, censuses_small, monkeypatch
    ):
        tables = [X for c in censuses_small.values() for X in c.cycle_sets()]
        checked = run_checker("fixed_point_orders", tables)
        # a cap of one element leaves only the tables whose rows are all
        # the identity: the others are skipped, not reported as failures
        monkeypatch.setattr(brace_mod, "BRACE_MAX_ORDER", 1)
        capped = run_checker("fixed_point_orders", tables)
        assert capped.passed and not capped.counterexamples
        assert capped.instances + capped.skipped == len(tables)
        assert capped.instances < checked.instances
        assert capped.instances <= sum(X.perm_group.order == 1 for X in tables)

    def test_cabling_laws_past_the_brace_cap_check_the_rest(
        self, censuses_small, monkeypatch
    ):
        tables = [X for c in censuses_small.values() for X in c.cycle_sets()]
        checked = run_checker("cabling_laws", tables, ks=(2, 3))
        monkeypatch.setattr(brace_mod, "BRACE_MAX_ORDER", 1)
        capped = run_checker("cabling_laws", tables, ks=(2, 3))
        assert capped.passed and not capped.counterexamples
        assert capped.instances == checked.instances == len(tables)
        # the squaring-map law is still checked past the cap
        monkeypatch.setattr(verify_mod, "power", lambda T, k: T)
        broken = run_checker("cabling_laws", tables, ks=(2, 3))
        assert not broken.passed
        assert any("squaring map" in c.detail for c in broken.counterexamples)

    def test_ks_reach_the_cabling_checker(self, cyclic3):
        verdict = run_checker("cabling_laws", [cyclic3], ks=[1, 2, 3])
        assert verdict.passed

    def test_run_all_reads_a_one_shot_ks_once(self, cyclic3, table4, cabling_calls):
        # every checker shares one materialized ks, so a generator reaches
        # cabling_laws as fully as a tuple does
        def run(ks):
            cabling_calls.clear()
            verdicts = run_all([cyclic3, table4], ks=ks)
            return [_without_elapsed(v) for v in verdicts], list(cabling_calls)

        by_tuple = run((1, 2, 3))
        assert run(k for k in (1, 2, 3)) == by_tuple
        # the 1-cabling is X itself, so only 2 and 3 are computed
        assert set(by_tuple[1]) == {2, 3}

    def test_census_hash_is_the_hash_of_the_tables(self, censuses_small):
        tables = [X for c in censuses_small.values() for X in c.cycle_sets()]
        want = hash_tables(tables)
        assert {v.census_hash for v in run_all(tables)} == {want}
        assert run_checker("squarefree", tables).census_hash == want

    def test_cabling_laws_counts_are_pinned(self, censuses_small):
        # the counts of one fresh cabling per index, which computing each
        # distinct cabling once per table must keep
        tables = [X for c in censuses_small.values() for X in c.cycle_sets()]
        verdict = run_checker("cabling_laws", tables, ks=range(1, 13))
        assert (verdict.instances, verdict.skipped) == (119, 0)
        assert verdict.counterexamples == ()

    def test_cabling_laws_compute_each_distinct_cabling_once(
        self, table4, cabling_calls
    ):
        # d = 2, so 1..6 name two cablings, and l = 1 is the first of them,
        # X itself, which is not computed again
        assert run_checker("cabling_laws", [table4], ks=range(1, 7)).passed
        assert sorted(cabling_calls) == [2]


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _k1_by_search(T, n):
    """The least k1 >= 1 with the primes of ord(T^k1) among those of n,
    found by trying k1 = 1, 2, ..."""
    k1 = 1
    while not prime_support(perm_order(power(T, k1))) <= prime_support(n):
        k1 += 1
    return k1


def test_block_bound_k1_is_the_coprime_part_of_the_squaring_order():
    # block_bound takes k1 as the pi(n)'-part of t = ord(T), since
    # ord(T^k) = t / gcd(t, k); it agrees with the search on every cycle
    # type of degree 2 to 14
    types = 0
    for n in range(2, 15):
        for parts in _partitions(n):
            starts = [sum(parts[:i]) for i in range(len(parts))]
            T = from_cycles(n, [range(s, s + p) for s, p in zip(starts, parts)])
            t = perm_order(T)
            k1 = prime_part(t, prime_support(t) - prime_support(n))
            assert k1 == _k1_by_search(T, n), parts
            types += 1
    assert types == 506
