"""Permutations of {0, ..., n-1} and fully materialized permutation groups.

A permutation is a tuple ``p`` of length ``n`` containing each of
``0, ..., n-1`` exactly once, read as the map ``i -> p[i]``.  Composition is
"right factor first": ``compose(a, b)`` is the map ``i -> a[b[i]]``.

Groups are materialized in full by breadth-first closure.  Degrees stay tiny
(at most about 12), where listing every element beats stabilizer chains.
Orbits and block systems, like the congruences of a cycle set, come from one
partition closure: merge pairs and push each merge through a set of maps.
Block systems, congruences, quotients and coset spaces all share one value
type, :class:`Partition`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]
# an operation table: row x is the image tuple of the map y -> x.y
Table = tuple[tuple[int, ...], ...]

# most elements a group may have before materialization gives up
ORDER_CAP = 10**6
# most permutation entries (elements x degree) a group may hold: the element
# cap at degree 10, so a large degree lowers the cap instead of exhausting
# memory
ENTRY_CAP = 10**7


class OrderCapExceeded(ValueError):
    """Raised when group materialization would exceed the element cap; a
    ValueError, so the CLI reports it as an error with exit code 2."""


def is_permutation(word: Sequence[int]) -> bool:
    """Return True if ``word`` lists each of 0..n-1 exactly once.

    >>> is_permutation((1, 0, 2))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    return sorted(word) == list(range(len(word)))


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """Compose two permutations, applying the right factor first, by
    ``operator.itemgetter`` as in :func:`_compose_right` from degree 2 on.

    >>> compose((1, 2, 0), (1, 0, 2))
    (2, 1, 0)
    >>> compose((0,), (0,)), compose((), ())
    ((0,), ())
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
    if len(b) > 1:
        return operator.itemgetter(*b)(a)
    return tuple(a[x] for x in b)


def _compose_right(b: Sequence[int]) -> Callable[[Sequence[int]], Perm]:
    """The map ``a -> compose(a, b)`` for a fixed right factor ``b``, for
    loops that compose many permutations with one: ``operator.itemgetter``
    runs it at C speed.  With one key ``itemgetter`` returns the item rather
    than a 1-tuple, and with none it raises, so degrees 0 and 1 go through
    :func:`compose`.

    >>> _compose_right((1, 0, 2))((1, 2, 0))
    (2, 1, 0)
    >>> _compose_right((0,))((0,)), _compose_right(())(())
    ((0,), ())
    """
    if len(b) > 1:
        return operator.itemgetter(*b)
    return lambda a: compose(a, b)


def inverse(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def power(p: Perm, k: int) -> Perm:
    """k-th compositional power; negative k uses the inverse."""
    n = len(p)
    if k < 0:
        p, k = inverse(p), -k
    out = identity(n)
    while k:
        if k & 1:
            out = compose(out, p)
        p = compose(p, p)
        k >>= 1
    return out


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles of ``p`` including fixed points, anchored at minima."""
    if not is_permutation(p):
        raise ValueError(f"not a permutation: {tuple(p)}")
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def _orbit_sizes(f: Sequence[int]) -> list[int]:
    """How many points x, f(x), f(f(x)), ... visit, for each x: the length
    of the cycle through x when f is a permutation.  Any map is allowed.
    A walk that returns to its start has gone round a cycle, whose points
    all visit just that cycle, so a permutation is walked once per cycle.

    >>> _orbit_sizes((1, 0, 3, 4, 2))
    [2, 2, 3, 3, 3]
    >>> _orbit_sizes((1, 1))
    [2, 1]
    """
    size = [0] * len(f)
    for x in range(len(f)):
        if size[x]:
            continue
        path = [x]
        seen = {x}
        y = f[x]
        while y not in seen:
            seen.add(y)
            path.append(y)
            y = f[y]
        if y == x:
            for z in path:
                size[z] = len(path)
        else:
            size[x] = len(path)
    return size


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted in decreasing order.

    >>> cycle_type((1, 0, 3, 4, 2))
    (3, 2)
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def perm_order(p: Sequence[int]) -> int:
    return math.lcm(*(len(c) for c in cycles(p))) if len(p) else 1


def fixed_points(p: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i, x in enumerate(p) if x == i)


def from_cycles(n: int, cycs: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation of degree ``n`` from pairwise disjoint cycles."""
    out = list(range(n))
    seen: set[int] = set()
    for cyc in cycs:
        for x in cyc:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range for degree {n}")
            if x in seen:
                raise ValueError(f"point {x} repeated across cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def prime_support(n: int) -> frozenset[int]:
    """Set of primes dividing ``n``; empty for n = 1.

    >>> sorted(prime_support(12))
    [2, 3]
    >>> prime_support(1)
    frozenset()
    """
    if n < 1:
        raise ValueError("positive integer required")
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def prime_part(m: int, primes: Iterable[int]) -> int:
    """Largest divisor of ``m`` whose prime factors all lie in ``primes``.

    >>> prime_part(360, {2, 5})
    40
    >>> prime_part(7, ())
    1
    """
    if m < 1:
        raise ValueError("positive integer required")
    out = 1
    for p in primes:
        while m % p == 0:
            out *= p
            m //= p
    return out


def closure(
    n: int, pairs: Iterable[tuple[int, int]], maps: Sequence[Sequence[int]] = ()
) -> tuple[int, ...]:
    """Finest partition of 0..n-1 that relates every pair and that every map
    carries into itself (x ~ y implies f[x] ~ f[y]), as a label per point:
    the least member of its class.

    A worklist of pairs is merged in a disjoint-set forest, and each merge of
    x and y pushes (f[x], f[y]) for every map f (Atkinson, Math. Comp. 29,
    1975): related points are joined by a chain of merged pairs, and a map
    carries that chain to a chain of pushed pairs.

    >>> closure(4, [(0, 2)], [(1, 2, 3, 0)])
    (0, 1, 0, 1)
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if rx < ry:
            parent[ry] = rx
        else:
            parent[rx] = ry
        for f in maps:
            work.append((f[x], f[y]))
    return tuple(find(x) for x in range(n))


def partition(labels: Iterable[Hashable]) -> tuple[tuple[int, ...], ...]:
    """Points grouped by label, each class ascending, classes sorted by least
    member.

    >>> partition("abab")
    ((0, 2), (1, 3))
    """
    classes: dict[Hashable, list[int]] = {}
    for x, label in enumerate(labels):
        classes.setdefault(label, []).append(x)
    # first appearance of a label is its least member
    return tuple(tuple(c) for c in classes.values())


def invariant_partitions(
    n: int, maps: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Every partition of 0..n-1 that each map carries into itself, as sorted
    :func:`closure` labels: the discrete partition, the closure of each pair,
    and their joins."""
    found = {closure(n, [(a, b)], maps) for a in range(n) for b in range(a + 1, n)}
    work = list(found)
    while work:
        c = work.pop()
        for d in list(found):
            # a join of invariant partitions is invariant, so no maps needed
            j = closure(n, [*enumerate(c), *enumerate(d)])
            if j not in found:
                found.add(j)
                work.append(j)
    found.add(tuple(range(n)))
    return tuple(sorted(found))


@dataclass(frozen=True)
class Partition:
    """A partition of 0..n-1: each class ascending, classes sorted by least
    member.  ``index[x]`` is the class number of x and ``labels[x]`` the
    least member of its class.

    >>> p = Partition.from_labels("abab")
    >>> p.classes, p.index, p.labels
    (((0, 2), (1, 3)), (0, 1, 0, 1), (0, 1, 0, 1))
    >>> p.action_of((1, 2, 3, 0))
    (1, 0)
    """

    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]):
        return cls(partition(labels))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def is_trivial(self) -> bool:
        return self.num_classes in (1, self.n)

    @cached_property
    def index(self) -> tuple[int, ...]:
        out = [0] * self.n
        for idx, cls_ in enumerate(self.classes):
            for x in cls_:
                out[x] = idx
        return tuple(out)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.classes[idx][0] for idx in self.index)

    def action_of(self, p: Perm) -> Perm:
        """Induced permutation of class numbers; ValueError if ``p`` does not
        carry the partition into itself."""
        out = [-1] * self.num_classes
        for idx, cls_ in enumerate(self.classes):
            images = {self.index[p[x]] for x in cls_}
            if len(images) != 1:
                raise ValueError("permutation does not preserve the partition")
            out[idx] = images.pop()
        if not is_permutation(out):
            raise ValueError("permutation does not preserve the partition")
        return tuple(out)


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators, materialized on demand."""

    degree: int
    generators: tuple[Perm, ...]

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """Every element, sorted lexicographically for reproducibility.

        A breadth-first walk from the identity by right multiplication with
        each generator, one :func:`_compose_right` per generator."""
        cap = min(ORDER_CAP, ENTRY_CAP // max(self.degree, 1))
        els = {identity(self.degree)}
        frontier = list(els)
        steps = [_compose_right(s) for s in self.generators]
        while frontier:
            new = []
            for g in frontier:
                for step in steps:
                    h = step(g)
                    if h not in els:
                        els.add(h)
                        new.append(h)
                        if len(els) > cap:
                            raise OrderCapExceeded(f"group order exceeds cap {cap}")
            frontier = new
        return tuple(sorted(els))

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition, orbits sorted by least point."""
        pairs = [(i, j) for g in self.generators for i, j in enumerate(g)]
        return partition(closure(self.degree, pairs))

    @property
    def is_transitive(self) -> bool:
        return len(self.orbits) == 1

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            compose(a, b) == compose(b, a) for a in gens for b in gens
        )

    @cached_property
    def is_nilpotent(self) -> bool:
        """A finite group is nilpotent exactly when every Sylow subgroup is
        normal, that is, when for each prime p dividing |G| the elements of
        p-power order number exactly the p-part of |G|: two distinct Sylow
        p-subgroups would hold more between them.  The elements need no
        permutation check, so their orders skip ``perm_order``."""
        orders = Counter(math.lcm(*_orbit_sizes(g)) for g in self.elements)
        support = {k: prime_support(k) for k in orders}
        n = self.order
        for p in prime_support(n):
            p_elements = sum(c for k, c in orders.items() if support[k] <= {p})
            if p_elements != prime_part(n, {p}):
                return False
        return True

    # -- block systems ------------------------------------------------------

    def block_systems(self) -> tuple[Partition, ...]:
        """All nontrivial block systems of a transitive group: the partitions
        the generators carry into themselves, other than the discrete and the
        total one.  Transitivity makes their blocks equal in size."""
        if not self.is_transitive:
            raise ValueError("block systems require a transitive group")
        n = self.degree
        systems = (
            Partition.from_labels(labels)
            for labels in invariant_partitions(n, self.generators)
            if 1 < len(set(labels)) < n
        )
        return tuple(sorted(systems, key=lambda s: s.classes))


def generate(gens: Iterable[Sequence[int]]) -> PermGroup:
    """Group generated by ``gens`` (nonempty, equal degrees)."""
    gen_tuple = tuple(tuple(g) for g in gens)
    if not gen_tuple:
        raise ValueError("at least one generator required")
    n = len(gen_tuple[0])
    for g in gen_tuple:
        if len(g) != n:
            raise ValueError("generators must share a degree")
        if not is_permutation(g):
            raise ValueError(f"not a permutation: {g}")
    return PermGroup(n, gen_tuple)
