import copy
import dataclasses
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cycleset import (
    BraceConstructionError,
    BraceOrderCapExceeded,
    CycleBase,
    InvalidBrace,
    brace_is_isomorphic,
    brace_of_cycle_set,
    coset_construction,
    cycle_bases,
    cycle_set,
    cyclic_brace,
    direct_product_brace,
    enumerate_cycle_sets,
    is_isomorphic,
    left_brace,
    pp_brace,
    trivial_cycle_set,
)
from cycleset import brace as brace_module
from cycleset.perm import compose, inverse


def z4_mod_table():
    return [[(x + y) % 4 for y in range(4)] for x in range(4)]


class TestValidation:
    def test_cyclic_is_valid(self):
        B = cyclic_brace(5)
        assert B.n == 5
        assert B.zero == 0

    def test_rejects_nonabelian_addition(self):
        # S3 composition table is a group but not commutative
        perms = list(itertools.permutations(range(3)))
        idx = {p: i for i, p in enumerate(perms)}
        comp = [[idx[compose(a, b)] for b in perms] for a in perms]
        with pytest.raises(InvalidBrace) as exc:
            left_brace(comp, comp)
        assert exc.value.kind == "not_abelian_group"

    def test_one_element(self):
        B = left_brace([[0]], [[0]])
        assert (B.n, B.zero, B.neg, B.inv) == (1, 0, (0,), (0,))

    @pytest.mark.parametrize(
        "add, circ, where, message",
        [
            ([], [], None, "empty tables"),
            ([[0, 1], [1]], [[0, 1], [1, 0]], "addition", "addition table is not 2 x 2"),
            ([[0, 1], [1, 0]], [[0, 1]], "multiplication", "multiplication table is not 2 x 2"),
        ],
        ids=["empty", "ragged-addition", "short-multiplication"],
    )
    def test_rejects_tables_of_the_wrong_shape(self, add, circ, where, message):
        with pytest.raises(InvalidBrace, match=message) as exc:
            left_brace(add, circ)
        assert (exc.value.kind, exc.value.witness) == ("shape", where)

    def test_rejects_boolean_entries(self):
        # bool is a subclass of int; Z/2 written with false and true
        add = [[False, True], [True, False]]
        with pytest.raises(InvalidBrace) as exc:
            left_brace(add, add)
        assert exc.value.kind == "shape"

    def test_rejects_broken_multiplication(self):
        add = z4_mod_table()
        circ = [row[:] for row in add]
        circ[1][1] = 1  # 1 o 1 duplicated in row: not a group
        with pytest.raises(InvalidBrace) as exc:
            left_brace(add, circ)
        assert exc.value.kind == "not_group"

    def test_rejects_axiom_violation(self):
        add = z4_mod_table()
        # transport addition along the non-automorphism (2 3): both tables
        # are Z/4 groups sharing zero, but the linking law breaks
        phi = (0, 1, 3, 2)
        circ = [[phi[(phi[x] + phi[y]) % 4] for y in range(4)] for x in range(4)]
        with pytest.raises(InvalidBrace) as exc:
            left_brace(add, circ)
        assert exc.value.kind == "axiom"
        assert exc.value.witness == (1, 1, 1)


def reference_left_brace(add, circ):
    """The outcome left_brace must give, from the axioms scanned over every
    pair and triple in lex order: ("ok", zero, neg, inv), or the kind,
    witness and message of the first failure."""
    n = len(add)
    if n == 0:
        return ("shape", None, "empty tables")
    for name, t in (("addition", add), ("multiplication", circ)):
        if len(t) != n or any(len(row) != n for row in t):
            return ("shape", name, f"{name} table is not {n} x {n}")
        if any(not (type(v) is int and 0 <= v < n) for row in t for v in row):
            return ("shape", name, f"{name} table has out-of-range entries")
    groups = []
    for t, comm, label, kind in (
        (add, True, "addition", "not_abelian_group"),
        (circ, False, "multiplication", "not_group"),
    ):
        zero = next(
            (
                e
                for e in range(n)
                if all(t[e][x] == x and t[x][e] == x for x in range(n))
            ),
            None,
        )
        if zero is None:
            return (kind, None, f"{label} has no identity element")
        for x in range(n):
            for y in range(n):
                if comm and t[x][y] != t[y][x]:
                    return (kind, (x, y), f"{label} is not commutative at ({x}, {y})")
                for z in range(n):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        return (kind, (x, y, z), f"{label} is not associative at ({x}, {y}, {z})")
        invs = []
        for x in range(n):
            y = next((y for y in range(n) if t[x][y] == zero == t[y][x]), None)
            if y is None:
                return (kind, x, f"{label} has no inverse for {x}")
            invs.append(y)
        groups.append((zero, tuple(invs)))
    (zero, neg), (mzero, inv) = groups
    if mzero != zero:
        return (
            "not_group",
            mzero,
            f"multiplicative identity {mzero} differs from additive identity {zero}",
        )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if add[circ[x][add[y][z]]][x] != add[circ[x][y]][circ[x][z]]:
                    message = f"x o (y + z) + x != (x o y) + (x o z) at ({x}, {y}, {z})"
                    return ("axiom", (x, y, z), message)
    return ("ok", zero, neg, inv)


def outcome(add, circ):
    try:
        B = left_brace(add, circ)
    except InvalidBrace as exc:
        return (exc.kind, exc.witness, str(exc))
    return ("ok", B.zero, B.neg, B.inv)


STOCK_BRACES = (
    [cyclic_brace(k) for k in (1, 2, 3, 4, 6)]
    + [pp_brace(2), pp_brace(3), direct_product_brace(cyclic_brace(2), cyclic_brace(2))]
    + [
        brace_of_cycle_set(X).brace
        for n in range(1, 5)
        for X in enumerate_cycle_sets(n).cycle_sets()
    ]
)


@st.composite
def perturbed_braces(draw):
    """A stock brace with one or two table entries overwritten (a value of n
    is out of range), or with the product of a stock brace of its order
    transported along a bijection that maps zero to zero, which keeps both
    groups but can break the linking law."""
    B = draw(st.sampled_from(STOCK_BRACES))
    n = B.n
    add = [list(row) for row in B.add]
    circ = [list(row) for row in B.circ]
    if draw(st.booleans()):
        C = draw(st.sampled_from([C for C in STOCK_BRACES if C.n == n]))
        rest = draw(st.permutations([x for x in range(n) if x != B.zero]))
        phi = [B.zero] * n
        for x, y in zip([x for x in range(n) if x != C.zero], rest):
            phi[x] = y
        back = inverse(phi)
        circ = [[phi[C.circ[back[x]][back[y]]] for y in range(n)] for x in range(n)]
    else:
        for _ in range(draw(st.integers(1, 2))):
            t = draw(st.sampled_from((add, circ)))
            t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
                st.integers(0, n)
            )
    return add, circ


class TestValidationParity:
    """left_brace tests the axioms on generators and scans all triples only
    to name a failure; its outcome must be that of the plain scan."""

    @settings(max_examples=300, deadline=None)
    @given(perturbed_braces())
    def test_matches_the_triple_scan(self, tables):
        assert outcome(*tables) == reference_left_brace(*tables)

    def test_stock_braces_are_accepted(self):
        for B in STOCK_BRACES:
            assert outcome(B.add, B.circ) == reference_left_brace(B.add, B.circ)

    def test_lex_first_failure_off_the_generators(self):
        # a product with identity 0 whose greedy generating set (each next
        # generator the least element not reached from 0 by right
        # multiplication with those before) is {1, 2}.  Its lex-first
        # associativity failure (1, 4, 4) has middle 4, not a generator,
        # while the first failure with a generator as middle is (2, 2, 5).
        # Every triple of 0, 1 and 2 associates, and 1, which generates
        # (Z/6, +), is a middle that associates with every x and y: testing
        # only triples of generators, or only the additive generators,
        # misses the failure.
        add = [[(x + y) % 6 for y in range(6)] for x in range(6)]
        circ = [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 5, 4],
            [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0],
            [4, 5, 0, 1, 2, 2],
            [5, 4, 1, 0, 2, 2],
        ]
        want = ("not_group", (1, 4, 4), "multiplication is not associative at (1, 4, 4)")
        assert reference_left_brace(add, circ) == want
        assert outcome(add, circ) == want

    def test_linking_failure_off_the_first_generator(self):
        # (Z/6, +) with greedy generators 1 and 3, and a product under which
        # the linking law holds for z = 1 and every x, y but not for z = 3
        add = [[(x + y) % 3 + 3 * ((x // 3 + y // 3) % 2) for y in range(6)] for x in range(6)]
        circ = [
            [0, 1, 2, 3, 4, 5],
            [1, 2, 0, 5, 3, 4],
            [2, 0, 1, 4, 5, 3],
            [3, 4, 5, 0, 1, 2],
            [4, 5, 3, 2, 0, 1],
            [5, 3, 4, 1, 2, 0],
        ]
        want = ("axiom", (1, 3, 3), "x o (y + z) + x != (x o y) + (x o z) at (1, 3, 3)")
        assert reference_left_brace(add, circ) == want
        assert outcome(add, circ) == want


class TestPSquared:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_validates(self, p):
        B = pp_brace(p)
        assert B.n == p * p

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_socle_is_p_multiples(self, p):
        B = pp_brace(p)
        assert B.socle == frozenset(p * k for k in range(p))
        assert B.n // len(B.socle) == p

    def test_lambda_on_z4(self):
        B = pp_brace(2)
        assert B.lambda_of(1)[1] == 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_socle_is_ideal(self, p):
        B = pp_brace(p)
        assert B.is_ideal(B.socle)


class TestLambdaLaws:
    @pytest.mark.parametrize("make", [lambda: cyclic_brace(6), lambda: pp_brace(3)])
    def test_additive_automorphism(self, make):
        B = make()
        for x in range(B.n):
            lam = B.lambda_of(x)
            for y in range(B.n):
                for z in range(B.n):
                    assert lam[B.add[y][z]] == B.add[lam[y]][lam[z]]

    def test_multiplicative_homomorphism(self):
        B = pp_brace(2)
        for x in range(4):
            for y in range(4):
                lhs = B.lambda_of(B.circ[x][y])
                rhs = compose(B.lambda_of(x), B.lambda_of(y))
                assert lhs == rhs

    def test_circ_recovered_from_lambda(self):
        B = pp_brace(3)
        for x in range(9):
            lam = B.lambda_of(x)
            for y in range(9):
                assert B.circ[x][y] == B.add[x][lam[y]]


class TestOrders:
    def test_cyclic_orders(self):
        B = cyclic_brace(12)
        assert B.additive_order(1) == 12
        assert B.additive_order(4) == 3
        assert B.additive_exponent == 12
        assert B.multiplicative_order(6) == 2

    def test_additive_multiple(self):
        B = cyclic_brace(7)
        assert B.additive_multiple(3, 2) == 6
        assert B.additive_multiple(0, 5) == 0
        for k in (10**9, sys.maxsize + 2):
            assert B.additive_multiple(k, 2) == k * 2 % 7

    def test_additive_cycle(self):
        B = cyclic_brace(12)
        assert B.additive_cycle(4) == (0, 4, 8)
        assert B.additive_cycle(0) == (0,)
        for x in range(B.n):
            assert len(B.additive_cycle(x)) == B.additive_order(x)


class TestProducts:
    def test_factors_are_ideals(self):
        P = direct_product_brace(cyclic_brace(2), cyclic_brace(3))
        left = {i for i in range(6) if i // 3 == 0}  # first-coordinate zero?
        # embedded copies: {(0, b)} and {(a, 0)} under row-major indexing
        first = {a * 3 for a in range(2)}
        second = set(range(3))
        assert P.is_ideal(first)
        assert P.is_ideal(second)

    def test_product_of_trivials_is_trivial_z6(self):
        P = direct_product_brace(cyclic_brace(2), cyclic_brace(3))
        w = brace_is_isomorphic(P, cyclic_brace(6))
        assert w is not None


class TestBraceOfCycleSet:
    def test_size1(self):
        gb = brace_of_cycle_set(cycle_set([[0]]))
        assert gb.elements == ((0,),)
        assert (gb.brace.add, gb.brace.circ) == (((0,),), ((0,),))

    def test_size2(self, size2_indec):
        gb = brace_of_cycle_set(size2_indec)
        assert gb.brace.n == 2
        assert brace_is_isomorphic(gb.brace, cyclic_brace(2)) is not None

    def test_cyclic3_trivial_brace(self, cyclic3):
        gb = brace_of_cycle_set(cyclic3)
        assert gb.brace.n == 3
        assert brace_is_isomorphic(gb.brace, cyclic_brace(3)) is not None
        assert gb.brace.additive_exponent == cyclic3.dehornoy_class()

    def test_generating_rule(self, table4, censuses_small):
        # sigma_x^-1 + sigma_y^-1 = sigma_x^-1 o sigma_{sigma_x(y)}^-1
        for X in [table4, *(X for c in censuses_small.values() for X in c.cycle_sets())]:
            gb = brace_of_cycle_set(X)
            B = gb.brace
            e = [gb.index_of(inverse(X.row(x))) for x in range(X.n)]
            for x in range(X.n):
                for y in range(X.n):
                    lhs = B.add[e[x]][e[y]]
                    rhs = B.circ[e[x]][e[X.row(x)[y]]]
                    assert lhs == rhs

    def test_circ_is_composition(self, table4, censuses_small):
        for X in [table4, *(X for c in censuses_small.values() for X in c.cycle_sets())]:
            gb = brace_of_cycle_set(X)
            B = gb.brace
            for a in range(B.n):
                for b in range(B.n):
                    assert gb.elements[B.circ[a][b]] == compose(
                        gb.elements[a], gb.elements[b]
                    )

    def test_exponent_equals_dehornoy_class_on_indec_census(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                if X.is_indecomposable:
                    gb = brace_of_cycle_set(X)
                    assert gb.brace.additive_exponent == X.dehornoy_class()

    def test_cabled_group_is_additive_multiple(self, table4):
        gb = brace_of_cycle_set(table4)
        B = gb.brace
        for k in (2, 3, 5):
            Xk = table4.cabling(k)
            want = {gb.elements[B.additive_multiple(k, b)] for b in range(B.n)}
            assert want == set(Xk.perm_group.elements)

    def test_elements_are_the_permutation_group(self, censuses_small):
        for census in censuses_small.values():
            for X in census.cycle_sets():
                assert brace_of_cycle_set(X).elements == X.perm_group.elements

    def test_group_order_cap(self, monkeypatch, cyclic3, table4):
        # G of cyclic3 has 3 elements, G of table4 has 8
        monkeypatch.setattr(brace_module, "BRACE_MAX_ORDER", 3)
        assert brace_of_cycle_set(cyclic3).brace.n == 3
        with pytest.raises(BraceOrderCapExceeded, match="more than 3 elements"):
            brace_of_cycle_set(table4)

    def test_lambda_permutes_row_inverses(self, table4):
        # lambda_g sends sigma_z^-1 to sigma_{g(z)}^-1
        gb = brace_of_cycle_set(table4)
        B = gb.brace
        e = [gb.index_of(inverse(table4.row(z))) for z in range(4)]
        for g in range(B.n):
            lam = B.lambda_of(g)
            gp = gb.elements[g]
            for z in range(4):
                assert lam[e[z]] == e[gp[z]]


def all_unions_bases(B):
    """Cycle bases by brute force: the lambda-orbits from every lambda map,
    then every nonempty union of them whose additive closure is all of B."""
    orbits, seen = [], {B.zero}
    for y in range(B.n):
        if y in seen:
            continue
        orbit = [y]
        for a in orbit:
            for lam in B.lambda_maps:
                if lam[a] not in orbit:
                    orbit.append(lam[a])
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    assert B.lambda_orbits == tuple(orbits)
    out = []
    for r in range(1, len(orbits) + 1):
        for pick in itertools.combinations(orbits, r):
            union = {x for orbit in pick for x in orbit}
            span = [B.zero]
            for a in span:
                for g in union:
                    if B.add[a][g] not in span:
                        span.append(B.add[a][g])
            if len(span) == B.n:
                out.append((sorted(union), r == 1))
    return sorted(out, key=lambda base: (len(base[0]), base[0]))


class TestCycleBases:
    def test_agrees_with_all_unions_scan(self, censuses_small, census6):
        braces = [cyclic_brace(9), direct_product_brace(pp_brace(2), cyclic_brace(3))]
        braces += [
            brace_of_cycle_set(X).brace
            for census in censuses_small.values()
            for X in census.cycle_sets()
        ]
        # the size-6 braces of many orbits, where most bases are listed
        # past a union whose span is already all of B
        many = [
            B
            for B in (brace_of_cycle_set(X).brace for X in census6.cycle_sets())
            if len(B.lambda_orbits) >= 8
        ]
        assert (len(many), max(len(B.lambda_orbits) for B in many)) == (20, 11)
        braces += many
        assert len(cyclic_brace(9).lambda_orbits) == 8
        for B in braces:
            got = [(sorted(cb.elements), cb.transitive) for cb in cycle_bases(B)]
            assert got == all_unions_bases(B)

    def test_refuses_more_orbits_than_the_scan_limit(self, monkeypatch):
        # the trivial brace on Z/n has one lambda-orbit per nonzero element
        with pytest.raises(ValueError, match="17 lambda-orbits exceed the union scan limit"):
            cycle_bases(cyclic_brace(18))
        monkeypatch.setattr(brace_module, "MAX_LAMBDA_ORBITS", 8)
        # every nonempty union of the 8 orbits but the 3 inside {3, 6}
        assert len(cycle_bases(cyclic_brace(9))) == 2**8 - 1 - 3
        with pytest.raises(ValueError, match="9 lambda-orbits exceed"):
            cycle_bases(cyclic_brace(10))

    def test_cycle_base_is_a_frozen_value(self):
        base = cycle_bases(cyclic_brace(3))[0]
        for twin in (pickle.loads(pickle.dumps(base)), copy.copy(base), copy.deepcopy(base)):
            assert twin == base and twin.elements == frozenset({1})
            assert twin.transitive is True
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.transitive = False

    @pytest.mark.parametrize(
        "mask, elements",
        [(0, set()), (0b1, {0}), (0b1010, {1, 3}), (1 << 16 | 1, {0, 16}), (1 << 70, {70})],
    )
    def test_cycle_base_elements_are_the_bits_of_its_mask(self, mask, elements):
        base = CycleBase(mask, False)
        assert base.elements == frozenset(elements)
        assert type(base.elements) is frozenset
        twin = CycleBase(int(str(mask)), False)
        assert twin == base and hash(twin) == hash(base)
        assert CycleBase(mask, True) != base
        assert CycleBase(mask ^ 1 << 71, False) != base

    def test_cycle_base_masks_are_the_unions_of_orbit_masks(self):
        for B in (cyclic_brace(9), pp_brace(3), direct_product_brace(pp_brace(2), cyclic_brace(3))):
            orbit_masks = [sum(1 << x for x in o) for o in B.lambda_orbits]
            for cb in cycle_bases(B):
                parts = [m for m in orbit_masks if m & cb.mask]
                assert sum(parts) == cb.mask
                assert cb.transitive == (len(parts) == 1)
                assert cb.elements == frozenset(x for x in range(B.n) if cb.mask >> x & 1)

    def test_trivial_z3(self):
        B = cyclic_brace(3)
        bases = cycle_bases(B)
        transitive = [cb for cb in bases if cb.transitive]
        assert {frozenset(cb.elements) for cb in transitive} == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_z4_orbit_base(self):
        B = pp_brace(2)
        bases = cycle_bases(B)
        assert all(B.additive_span(cb.elements) == frozenset(range(4)) for cb in bases)

    def test_row_inverse_orbit_is_transitive_base(self, censuses_small):
        # the zero brace of the one-point set has no orbits, hence no bases
        for census in censuses_small.values():
            for X in census.cycle_sets():
                if X.n < 2 or not X.is_indecomposable:
                    continue
                gb = brace_of_cycle_set(X)
                a = gb.index_of(inverse(X.row(0)))
                hits = [
                    cb
                    for cb in cycle_bases(gb.brace)
                    if cb.transitive and a in cb.elements
                ]
                assert hits


class TestCosetConstruction:
    def _transitive_base_containing(self, B, a):
        return next(
            cb for cb in cycle_bases(B) if cb.transitive and a in cb.elements
        )

    def test_trivial_z3_gives_cyclic(self, cyclic3):
        B = cyclic_brace(3)
        base = self._transitive_base_containing(B, 1)
        X, cosets = coset_construction(B, base, 1, [0])
        assert X.n == 3
        assert is_isomorphic(X, cyclic3) is not None

    def test_point_stabilizer_recovers_original(self, censuses_small):
        for n in (2, 3, 4):
            for X in censuses_small[n].cycle_sets():
                if not X.is_indecomposable:
                    continue
                gb = brace_of_cycle_set(X)
                a = gb.index_of(inverse(X.row(0)))
                base = self._transitive_base_containing(gb.brace, a)
                K = [i for i, p in enumerate(gb.elements) if p[0] == 0]
                Y, _ = coset_construction(gb.brace, base, a, K)
                assert is_isomorphic(X, Y) is not None

    def test_cosets_are_left_cosets(self, censuses_small):
        # brute force: the sets {x o k : k in K}, sorted by least member
        checked = 0
        for n in (2, 3, 4, 5):
            for X in censuses_small[n].cycle_sets():
                if not X.is_indecomposable:
                    continue
                gb = brace_of_cycle_set(X)
                B = gb.brace
                a = gb.index_of(inverse(X.row(0)))
                base = self._transitive_base_containing(B, a)
                K = [i for i, p in enumerate(gb.elements) if p[0] == 0]
                _, cosets = coset_construction(B, base, a, K)
                want = {tuple(sorted(B.circ[x][k] for k in K)) for x in range(B.n)}
                assert cosets == tuple(sorted(want))
                checked += 1
        assert checked > 0

    def test_rejects_non_subgroup(self):
        B = cyclic_brace(4)
        base = self._transitive_base_containing(B, 1)
        with pytest.raises(BraceConstructionError) as exc:
            coset_construction(B, base, 1, [0, 1])
        assert exc.value.kind == "subgroup"

    def test_rejects_base_element_outside(self):
        B = cyclic_brace(3)
        base = self._transitive_base_containing(B, 1)
        with pytest.raises(BraceConstructionError) as exc:
            coset_construction(B, base, 2, [0])
        assert exc.value.kind == "base"

    @pytest.mark.parametrize(
        "B, base, a, K, kind, message",
        [
            # the trivial brace on Z/3: the union of its orbits {1} and {2},
            # bit x of a mask standing for element x
            (
                cyclic_brace(3),
                CycleBase(0b110, False),
                1,
                [0],
                "base",
                "not a single lambda-orbit",
            ),
            # the orbit {2} of the trivial brace on Z/4 spans {0, 2}
            (
                cyclic_brace(4),
                CycleBase(0b100, True),
                2,
                [0],
                "base",
                "does not generate the additive group",
            ),
            # in Z/4 with x o y = x + y + 2xy, 1 o 1 = 0 and lambda_1(1) = 3
            (
                pp_brace(2),
                CycleBase(0b1010, True),
                1,
                [0, 1],
                "stabilizer",
                "lambda-stabilizer of 1",
            ),
            # a trivial brace has trivial lambda maps and an abelian group
            (
                cyclic_brace(4),
                CycleBase(0b10, True),
                1,
                [0, 2],
                "core",
                "not core-free",
            ),
        ],
        ids=["base-two-orbits", "base-not-spanning", "stabilizer", "core"],
    )
    def test_refusals_name_their_kind(self, B, base, a, K, kind, message):
        with pytest.raises(BraceConstructionError, match=message) as exc:
            coset_construction(B, base, a, K)
        assert exc.value.kind == kind


class TestBraceIsomorphism:
    def test_twisted_z4_differs_from_trivial(self):
        assert brace_is_isomorphic(pp_brace(2), cyclic_brace(4)) is None

    def test_self_isomorphic(self):
        B = pp_brace(3)
        w = brace_is_isomorphic(B, B)
        assert w is not None

    def test_witness_transports_both_tables(self):
        A = cyclic_brace(6)
        P = direct_product_brace(cyclic_brace(3), cyclic_brace(2))
        w = brace_is_isomorphic(A, P)
        assert w is not None
        for x in range(6):
            for y in range(6):
                assert w[A.add[x][y]] == P.add[w[x]][w[y]]
                assert w[A.circ[x][y]] == P.circ[w[x]][w[y]]

    @staticmethod
    def _relabeled(B, rho):
        # the brace with every element x renamed rho[x]
        inv = inverse(rho)
        n = B.n
        return left_brace(
            [[rho[B.add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
            [[rho[B.circ[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
        )

    @staticmethod
    def _brute_force_isomorphic(A, B):
        # depth-first over the n! bijections, assigning images to 0, 1, ...
        # in turn; a branch is cut once some sum or product of assigned
        # elements has an assigned image that disagrees
        n = A.n
        phi = [None] * n

        def consistent(top):
            return all(
                phi[ta[x][y]] == tb[phi[x]][phi[y]]
                for ta, tb in ((A.add, B.add), (A.circ, B.circ))
                for x in range(top + 1)
                for y in range(top + 1)
                if ta[x][y] <= top
            )

        def search(top):
            if top == n:
                return True
            for img in set(range(n)).difference(phi[:top]):
                phi[top] = img
                if consistent(top) and search(top + 1):
                    return True
            phi[top] = None
            return False

        return search(0)

    def test_agrees_with_brute_force_up_to_order_8(self):
        # from order 8 on, some braces share the additive group and every
        # (additive order, multiplicative order) but are not isomorphic
        braces = [cyclic_brace(k) for k in range(1, 9)] + [pp_brace(2)]
        braces += [
            direct_product_brace(cyclic_brace(a), cyclic_brace(b))
            for a, b in ((2, 2), (2, 3), (3, 2), (2, 4))
        ]
        for n in range(1, 5):
            for X in enumerate_cycle_sets(n).cycle_sets():
                gb = brace_of_cycle_set(X)
                if gb.brace.n <= 8:
                    braces.append(gb.brace)
        # three size-6 cycle sets with isomorphic order-8 braces on which
        # some image tried for a generator conflicts with the span so far,
        # or folds it non-injectively
        e, s, t = (0, 1, 2, 3, 4, 5), (1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5)
        st, u = (1, 0, 3, 2, 4, 5), (1, 0, 2, 3, 5, 4)
        for table in (
            (e, e, t, (0, 1, 3, 2, 5, 4), s, s),
            (e, e, t, st, u, u),
            (e, e, s, s, u, (1, 0, 3, 2, 5, 4)),
        ):
            braces.append(brace_of_cycle_set(cycle_set(table)).brace)
        rng = random.Random(14)
        braces += [self._relabeled(B, tuple(rng.sample(range(B.n), B.n))) for B in braces]
        pairs = 0
        for A in braces:
            for B in braces:
                if A.n != B.n:
                    continue
                pairs += 1
                w = brace_is_isomorphic(A, B)
                assert (w is None) == (not self._brute_force_isomorphic(A, B))
                if w is not None:
                    assert sorted(w) == list(range(A.n))
                    for x in range(A.n):
                        for y in range(A.n):
                            assert w[A.add[x][y]] == B.add[w[x]][w[y]]
                            assert w[A.circ[x][y]] == B.circ[w[x]][w[y]]
        assert pairs > 500
