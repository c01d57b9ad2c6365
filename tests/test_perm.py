import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cycleset.perm import (
    Partition,
    PermGroup,
    _compose_right,
    compose,
    cycle_type,
    cycles,
    fixed_points,
    from_cycles,
    generate,
    identity,
    inverse,
    is_permutation,
    partition,
    perm_order,
    power,
    prime_support,
)


perms = st.integers(1, 7).flatmap(lambda n: st.permutations(range(n)).map(tuple))


def test_identity():
    assert identity(4) == (0, 1, 2, 3)
    assert identity(0) == ()


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 3, 1))


def test_compose_applies_right_factor_first():
    # a=(0 1), b=(1 2): a after b sends 2 -> 1 -> 0
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert compose(a, b) == (1, 2, 0)
    assert compose(b, a) == (2, 0, 1)


def test_compose_refuses_different_degrees():
    with pytest.raises(ValueError, match="degree mismatch: 2 != 3"):
        compose((1, 0), (0, 2, 1))


@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_compose_right_matches_compose(pair):
    a, b = map(tuple, pair)
    assert _compose_right(b)(a) == compose(a, b)


@given(perms)
def test_inverse_law(p):
    assert compose(p, inverse(p)) == identity(len(p))
    assert compose(inverse(p), p) == identity(len(p))


@given(perms, st.integers(-6, 6))
def test_power_matches_repeated_composition(p, k):
    expected = identity(len(p))
    q = p if k >= 0 else inverse(p)
    for _ in range(abs(k)):
        expected = compose(q, expected)
    assert power(p, k) == expected


def test_cycles_and_type():
    p = from_cycles(6, [(0, 1), (2, 3, 4)])
    assert cycles(p) == [(0, 1), (2, 3, 4), (5,)]
    assert cycle_type(p) == (3, 2, 1)
    assert perm_order(p) == 6
    assert fixed_points(p) == frozenset({5})


@given(perms)
def test_order_annihilates(p):
    assert power(p, perm_order(p)) == identity(len(p))


@pytest.mark.parametrize("word", [(1, 1), (0, 2)])
def test_cycles_reject_non_permutations(word):
    # (1, 1) used to loop forever and (0, 2) to index past the end
    with pytest.raises(ValueError, match="not a permutation"):
        cycles(word)
    with pytest.raises(ValueError, match="not a permutation"):
        cycle_type(word)


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])


def test_prime_support():
    assert prime_support(1) == frozenset()
    assert prime_support(12) == frozenset({2, 3})
    assert prime_support(97) == frozenset({97})


def _nilpotency_test_groups(censuses):
    """G(X) and Dis(X) of every census member, then small groups of known
    verdict: C5 and D4 are nilpotent, S3, S4, A4, D5 and S3 x C2 are not."""
    groups = [
        grp
        for census in censuses.values()
        for X in census.cycle_sets()
        for grp in (X.perm_group, X.displacement_group)
    ]
    nilpotent = [
        generate([(1, 2, 3, 4, 0)]),
        generate([(1, 2, 3, 0), (0, 3, 2, 1)]),
    ]
    not_nilpotent = [
        generate([(1, 0, 2), (0, 2, 1)]),
        generate([(1, 2, 3, 0), (1, 0, 2, 3)]),
        generate([(1, 2, 0, 3), (0, 2, 3, 1)]),
        generate([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),
        generate([(1, 2, 0, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3)]),
    ]
    assert all(g.is_nilpotent for g in nilpotent)
    assert not any(g.is_nilpotent for g in not_nilpotent)
    return groups + nilpotent + not_nilpotent


def plain_closure(gens, n):
    """Every product of generators: the identity and the generators, closed
    under composition until nothing new appears."""
    els = {identity(n), *gens}
    while True:
        grown = els | {compose(a, b) for a in els for b in gens}
        if grown == els:
            return tuple(sorted(els))
        els = grown


# generator lists of degree 0..7, often holding the identity, whose first
# generator is always repeated
generator_lists = st.integers(0, 7).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)).map(tuple) | st.just(tuple(range(n))),
        min_size=1,
        max_size=4,
    ).map(lambda gens: gens + gens[:1])
)


class TestPermGroup:
    def test_degrees_0_and_1(self):
        assert generate([()]).elements == ((),)
        assert generate([(0,)]).elements == ((0,),)

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([], "at least one generator required"),
            ([(1, 0), (0, 2, 1)], "generators must share a degree"),
            ([(1, 0, 2), (0, 0, 1)], r"not a permutation: \(0, 0, 1\)"),
        ],
        ids=["none", "degrees", "not-a-permutation"],
    )
    def test_generate_refusals(self, gens, message):
        with pytest.raises(ValueError, match=message):
            generate(gens)

    @settings(max_examples=200, deadline=None)
    @given(generator_lists)
    def test_elements_match_a_plain_closure(self, gens):
        assert generate(gens).elements == plain_closure(gens, len(gens[0]))

    def test_cyclic(self):
        g = generate([(1, 2, 3, 4, 0)])
        assert g.order == 5
        assert g.is_transitive
        assert g.is_abelian
        assert g.is_nilpotent

    def test_symmetric_3(self):
        g = generate([(1, 0, 2), (0, 2, 1)])
        assert g.order == 6
        assert g.is_transitive
        assert not g.is_abelian
        assert not g.is_nilpotent

    def test_dihedral_4_is_nilpotent(self):
        g = generate([(1, 2, 3, 0), (0, 3, 2, 1)])
        assert g.order == 8
        assert g.is_nilpotent

    def test_nilpotency_matches_pairwise_commuting(self, censuses_small):
        # reference: nilpotent exactly when elements of coprime order commute
        def coprime_orders_commute(g):
            return all(
                compose(a, b) == compose(b, a)
                for a in g.elements
                for b in g.elements
                if math.gcd(perm_order(a), perm_order(b)) == 1
            )

        for g in _nilpotency_test_groups(censuses_small):
            assert g.is_nilpotent == coprime_orders_commute(g), g.generators

    def test_nilpotency_matches_lower_central_series(self, censuses_small):
        # reference: the lower central series G = G_0 > G_1 > ... with
        # G_{i+1} = [G, G_i] reaches the trivial group exactly when G is
        # nilpotent
        def commutator_series_ends_trivial(g):
            current = g.element_set
            while len(current) > 1:
                comms = {
                    compose(compose(inverse(a), inverse(b)), compose(a, b))
                    for a in g.elements
                    for b in current
                }
                nxt = generate(sorted(comms)).element_set
                if nxt == current:
                    return False
                current = nxt
            return True

        for g in _nilpotency_test_groups(censuses_small):
            assert g.is_nilpotent == commutator_series_ends_trivial(g), g.generators

    def test_orbits(self):
        g = generate([(1, 0, 2, 3), (0, 1, 3, 2)])
        assert g.orbits == ((0, 1), (2, 3))
        assert not g.is_transitive

    def test_membership(self):
        g = generate([(1, 2, 0)])
        assert (2, 0, 1) in g
        assert (1, 0, 2) not in g

    def test_block_systems_of_z4(self):
        g = generate([(1, 2, 3, 0)])
        systems = g.block_systems()
        shapes = sorted((bs.num_classes, len(bs.classes[0])) for bs in systems)
        assert shapes == [(2, 2)]
        (bs,) = systems
        assert bs.index[0] == bs.index[2]
        assert bs.action_of((1, 2, 3, 0)) == (1, 0)

    def test_primitive_group_has_no_blocks(self):
        g = generate([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)])
        assert g.block_systems() == ()

    def test_block_systems_of_dihedral(self):
        g = generate([(1, 2, 3, 0), (0, 3, 2, 1)])
        shapes = sorted((bs.num_classes, len(bs.classes[0])) for bs in g.block_systems())
        assert (2, 2) in shapes

    def test_block_systems_need_a_transitive_group(self):
        with pytest.raises(ValueError, match="transitive"):
            generate([(1, 0, 2, 3)]).block_systems()

    def test_block_system_action_rejects_a_non_invariant_permutation(self):
        p = Partition(((0, 1), (2, 3)))
        assert p.action_of((1, 0, 3, 2)) == (0, 1)
        assert p.action_of((2, 3, 0, 1)) == (1, 0)
        with pytest.raises(ValueError, match="does not preserve"):
            p.action_of((0, 2, 1, 3))

    def test_block_systems_match_partition_scan(self, censuses_small):
        # the closure's systems equal a brute scan over every labeling for
        # the nontrivial equal-block partitions that every element permutes
        groups = [
            X.perm_group
            for census in censuses_small.values()
            for X in census.cycle_sets()
            if X.is_indecomposable
        ]
        groups += [
            generate([(1, 2, 3, 0)]),
            generate([(1, 2, 3, 0), (0, 3, 2, 1)]),
            generate([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]),
        ]
        for g in groups:
            n = g.degree
            want = set()
            for labels in itertools.product(range(n), repeat=n):
                blocks = partition(labels)
                if not 1 < len(blocks) < n or len({len(b) for b in blocks}) != 1:
                    continue
                block_set = {frozenset(b) for b in blocks}
                if all(
                    frozenset(h[x] for x in b) in block_set
                    for h in g.elements
                    for b in blocks
                ):
                    want.add(blocks)
            got = tuple(bs.classes for bs in g.block_systems())
            assert got == tuple(sorted(want)), g.generators
