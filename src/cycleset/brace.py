"""Finite left braces as explicit operation tables.

A left brace is a set with two group structures, an abelian ``+`` and a
``o``, sharing their identity and linked by ``x o (y + z) + x = (x o y) +
(x o z)``.  Elements are indices 0..n-1; both operations are stored as full
n x n tables, which keeps every axiom check a plain triple loop at the
orders in scope here (a few dozen, rarely above a hundred).

The module also builds the brace carried by the permutation group of a
cycle set, and the converse coset-space construction that turns a brace
with a transitive cycle base back into an indecomposable cycle set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .core import CycleSet, cycle_set, product_table
from .perm import Partition, Perm, closure, compose, identity, inverse, partition

Table = tuple[tuple[int, ...], ...]

# most lambda-orbits whose unions cycle_bases scans (2^k - 1 unions)
MAX_LAMBDA_ORBITS = 16
# most elements of the group that brace_of_cycle_set builds a brace on: its
# two m x m tables are validated in O(m^3), which took 2.1 s at m = 192 and
# 65-70 s at m = 576 on a 2-core x86-64 machine (Python 3.11)
BRACE_MAX_ORDER = 256


class InvalidBrace(ValueError):
    """Structured rejection: which axiom failed, with a witness."""

    def __init__(self, kind: str, witness: object, message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class BraceOrderCapExceeded(ValueError):
    """Raised when a permutation group has more than ``BRACE_MAX_ORDER``
    elements, too many to build and validate its brace."""


class BraceConstructionError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _check_group(table: Table, commutative: bool, label: str, kind: str) -> tuple[int, tuple[int, ...]]:
    """Identity element and inverse array of a group table, or raise."""
    n = len(table)
    zero = None
    for e in range(n):
        if all(table[e][x] == x for x in range(n)) and all(
            table[x][e] == x for x in range(n)
        ):
            zero = e
            break
    if zero is None:
        raise InvalidBrace(kind, None, f"{label} has no identity element")
    for x in range(n):
        for y in range(n):
            if commutative and table[x][y] != table[y][x]:
                raise InvalidBrace(kind, (x, y), f"{label} is not commutative at ({x}, {y})")
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise InvalidBrace(
                        kind, (x, y, z), f"{label} is not associative at ({x}, {y}, {z})"
                    )
    invs = []
    for x in range(n):
        found = None
        for y in range(n):
            if table[x][y] == zero and table[y][x] == zero:
                found = y
                break
        if found is None:
            raise InvalidBrace(kind, x, f"{label} has no inverse for {x}")
        invs.append(found)
    return zero, tuple(invs)


def left_brace(add: Sequence[Sequence[int]], circ: Sequence[Sequence[int]]) -> "LeftBrace":
    """Validate the two tables and the linking axiom; raise InvalidBrace."""
    add = tuple(tuple(row) for row in add)
    circ = tuple(tuple(row) for row in circ)
    n = len(add)
    if n == 0:
        raise InvalidBrace("shape", None, "empty tables")
    for name, t in (("addition", add), ("multiplication", circ)):
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidBrace("shape", name, f"{name} table is not {n} x {n}")
        if any(not (isinstance(v, int) and 0 <= v < n) for row in t for v in row):
            raise InvalidBrace("shape", name, f"{name} table has out-of-range entries")
    zero, neg = _check_group(add, True, "addition", "not_abelian_group")
    mzero, inv = _check_group(circ, False, "multiplication", "not_group")
    if mzero != zero:
        raise InvalidBrace(
            "not_group", mzero, f"multiplicative identity {mzero} differs from additive identity {zero}"
        )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = add[circ[x][add[y][z]]][x]
                rhs = add[circ[x][y]][circ[x][z]]
                if lhs != rhs:
                    raise InvalidBrace(
                        "axiom",
                        (x, y, z),
                        f"x o (y + z) + x != (x o y) + (x o z) at ({x}, {y}, {z})",
                    )
    return LeftBrace(add, circ, zero, neg, inv)


@dataclass(frozen=True)
class LeftBrace:
    """Validated left brace.  Construct through :func:`left_brace`."""

    add: Table
    circ: Table
    zero: int
    neg: tuple[int, ...]
    inv: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.add)

    def lambda_of(self, x: int) -> Perm:
        """The additive automorphism y -> -x + (x o y)."""
        nx = self.neg[x]
        return tuple(self.add[nx][self.circ[x][y]] for y in range(self.n))

    @cached_property
    def lambda_maps(self) -> tuple[Perm, ...]:
        return tuple(self.lambda_of(x) for x in range(self.n))

    @cached_property
    def socle(self) -> frozenset[int]:
        """Kernel of x -> lambda_x."""
        ident = identity(self.n)
        return frozenset(x for x in range(self.n) if self.lambda_maps[x] == ident)

    def _order(self, op: Table, x: int) -> int:
        k, cur = 1, x
        while cur != self.zero:
            cur = op[cur][x]
            k += 1
        return k

    def additive_order(self, x: int) -> int:
        return self._order(self.add, x)

    def multiplicative_order(self, x: int) -> int:
        return self._order(self.circ, x)

    @cached_property
    def additive_exponent(self) -> int:
        return math.lcm(*(self.additive_order(x) for x in range(self.n)))

    def additive_multiple(self, k: int, x: int) -> int:
        """k x in (B, +), k >= 0."""
        if k < 0:
            raise ValueError("multiple must be >= 0")
        out = self.zero
        for _ in range(k):
            out = self.add[out][x]
        return out

    def is_mult_subgroup(self, s: Iterable[int]) -> bool:
        ss = frozenset(s)
        if self.zero not in ss or not all(0 <= a < self.n for a in ss):
            return False
        return all(self.circ[a][b] in ss for a in ss for b in ss) and all(
            self.inv[a] in ss for a in ss
        )

    def is_left_ideal(self, s: Iterable[int]) -> bool:
        ss = frozenset(s)
        if not self.is_mult_subgroup(ss):
            return False
        return all(self.lambda_maps[x][a] in ss for x in range(self.n) for a in ss)

    def is_ideal(self, s: Iterable[int]) -> bool:
        ss = frozenset(s)
        if not self.is_left_ideal(ss):
            return False
        return all(
            self.circ[self.circ[g][a]][self.inv[g]] in ss
            for g in range(self.n)
            for a in ss
        )

    def additive_span(self, s: Iterable[int]) -> frozenset[int]:
        """Subgroup of (B, +) generated by s."""
        span = {self.zero}
        frontier = [self.zero]
        gens = list(s)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    v = self.add[a][g]
                    if v not in span:
                        span.add(v)
                        nxt.append(v)
            frontier = nxt
        return frozenset(span)

    @cached_property
    def lambda_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the lambda-action on the nonzero elements."""
        labels = closure(
            self.n, [(y, lm[y]) for lm in self.lambda_maps for y in range(self.n)]
        )
        return tuple(c for c in partition(labels) if c != (self.zero,))


@dataclass(frozen=True)
class CycleBase:
    """Union of lambda-orbits generating (B, +); transitive when one orbit."""

    elements: frozenset[int]
    transitive: bool


def cycle_bases(B: LeftBrace) -> tuple[CycleBase, ...]:
    orbits = B.lambda_orbits
    if len(orbits) > MAX_LAMBDA_ORBITS:
        raise ValueError(f"{len(orbits)} lambda-orbits exceed the union scan limit")
    out = []
    for r in range(1, len(orbits) + 1):
        for pick in combinations(orbits, r):
            union = frozenset(x for orb in pick for x in orb)
            if B.additive_span(union) == frozenset(range(B.n)):
                out.append(CycleBase(union, transitive=(r == 1)))
    return tuple(sorted(out, key=lambda cb: (len(cb.elements), sorted(cb.elements))))


def coset_construction(
    B: LeftBrace, base: CycleBase, a: int, K: Iterable[int]
) -> tuple[CycleSet, tuple[tuple[int, ...], ...]]:
    """Cycle set on the left cosets B/K with x.y = lambda_x(a)^- o y, for K a
    core-free multiplicative subgroup fixing ``a`` under every lambda_k.

    Cosets are labeled by least element, ascending.  For K = {0} this is the
    operation on B itself.
    """
    kset = frozenset(K)
    if a not in base.elements:
        raise BraceConstructionError("base", f"{a} is not in the given base")
    if not base.transitive or base.elements not in {
        frozenset(o) for o in B.lambda_orbits
    }:
        raise BraceConstructionError("base", "base is not a single lambda-orbit")
    if B.additive_span(base.elements) != frozenset(range(B.n)):
        raise BraceConstructionError("base", "base does not generate the additive group")
    if not B.is_mult_subgroup(kset):
        raise BraceConstructionError("subgroup", "K is not a multiplicative subgroup")
    for k in kset:
        if B.lambda_maps[k][a] != a:
            raise BraceConstructionError(
                "stabilizer", f"K is not contained in the lambda-stabilizer of {a}"
            )
    core = set(kset)
    for g in range(B.n):
        gi = B.inv[g]
        core &= {B.circ[B.circ[g][k]][gi] for k in kset}
    if core != {B.zero}:
        raise BraceConstructionError("core", "K is not core-free")

    # x and y share a coset exactly when xK and yK have the same least member
    cosets = Partition.from_labels(min(B.circ[x][k] for k in kset) for x in range(B.n))
    coset_of = cosets.index
    m = cosets.num_classes
    table = [[-1] * m for _ in range(m)]
    for x in range(B.n):
        w = B.inv[B.lambda_maps[x][a]]
        for y in range(B.n):
            img = coset_of[B.circ[w][y]]
            cx, cy = coset_of[x], coset_of[y]
            if table[cx][cy] < 0:
                table[cx][cy] = img
            elif table[cx][cy] != img:
                raise BraceConstructionError(
                    "ill_defined", f"operation not constant on cosets at ({cx}, {cy})"
                )
    return cycle_set(tuple(tuple(row) for row in table)), cosets.classes


# ---------------------------------------------------------------------------
# the brace carried by the permutation group of a cycle set


@dataclass(frozen=True)
class GroupBrace:
    """Brace on the elements of the permutation group of a cycle set; index i
    of the brace corresponds to the permutation elements[i]."""

    brace: LeftBrace
    elements: tuple[Perm, ...]

    def index_of(self, p: Perm) -> int:
        return self.elements.index(p)


def brace_of_cycle_set(X: CycleSet) -> GroupBrace:
    """The sum on the permutation group determined by the generating rule
    sigma_x^-1 + sigma_y^-1 = sigma_x^-1 o sigma_{sigma_x(y)}^-1.

    Since lambda_g sends sigma_z^-1 to sigma_{g(z)}^-1, right-multiplying
    any g by sigma_z^-1 realizes the sum g + sigma_{g(z)}^-1; a breadth-first
    spanning tree over these steps reaches every element of the group and
    determines every sum.  The result is validated in full, so an
    inconsistent closure cannot slip through.  A group of more than
    ``BRACE_MAX_ORDER`` elements raises BraceOrderCapExceeded before any
    table is built.
    """
    n = X.n
    ident = identity(n)
    e = tuple(inverse(row) for row in X.table)
    bfs = [ident]
    parent: dict[Perm, tuple[Perm, int]] = {ident: (ident, 0)}
    for p in bfs:
        for y in range(n):
            h = compose(p, e[y])
            if h not in parent:
                if len(bfs) == BRACE_MAX_ORDER:
                    raise BraceOrderCapExceeded(
                        f"the permutation group has more than {BRACE_MAX_ORDER} "
                        "elements, the cap of its brace tables"
                    )
                parent[h] = (p, p[y])
                bfs.append(h)
    elems = tuple(sorted(bfs))
    m = len(elems)
    index = {p: i for i, p in enumerate(elems)}
    zero = index[ident]
    steps = [(index[h], index[parent[h][0]], parent[h][1]) for h in bfs[1:]]

    add = [[0] * m for _ in range(m)]
    for gi in range(m):
        add[gi][zero] = gi
        for hi, pi, w in steps:
            uperm = elems[add[gi][pi]]
            t = inverse(uperm)[w]
            add[gi][hi] = index[compose(uperm, e[t])]
    circ = [[index[compose(a, b)] for b in elems] for a in elems]
    return GroupBrace(left_brace(add, circ), elems)


# ---------------------------------------------------------------------------
# stock constructions


def cyclic_brace(n: int) -> LeftBrace:
    """Trivial brace on Z/n (both operations addition)."""
    t = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    return left_brace(t, t)


def pp_brace(p: int) -> LeftBrace:
    """Brace on Z/p^2 with x o y = x + y + p x y."""
    n = p * p
    add = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    circ = tuple(tuple((x + y + p * x * y) % n for y in range(n)) for x in range(n))
    return left_brace(add, circ)


def direct_product_brace(a: LeftBrace, b: LeftBrace) -> LeftBrace:
    """Componentwise operations on pairs, indexed row-major: (x, y) -> x*|b|+y."""
    return left_brace(product_table(a.add, b.add), product_table(a.circ, b.circ))


def brace_is_isomorphic(a: LeftBrace, b: LeftBrace) -> tuple[int, ...] | None:
    """A bijection respecting both operations, or None.

    Backtracking over images of an additive generating sequence, pruned by
    the (additive order, multiplicative order) profile and checked by full
    table comparison on the determined span.
    """
    if a.n != b.n:
        return None
    n = a.n

    def profile(B: LeftBrace, x: int) -> tuple[int, int]:
        return (B.additive_order(x), B.multiplicative_order(x))

    prof_a = [profile(a, x) for x in range(n)]
    prof_b = [profile(b, x) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    gens: list[int] = []
    span = {a.zero}
    while len(span) < n:
        g = next(x for x in range(n) if x not in span)
        gens.append(g)
        span = set(a.additive_span(span | {g}))

    def extend(phi: dict[int, int], used: set[int], gi: int) -> dict[int, int] | None:
        if gi == len(gens):
            return phi
        g = gens[gi]
        for img in range(n):
            if img in used or prof_b[img] != prof_a[g]:
                continue
            new_phi = dict(phi)
            new_phi[g] = img
            ok = True
            # close the additive span of the assigned part
            frontier = list(new_phi)
            while frontier and ok:
                x = frontier.pop()
                for y in list(new_phi):
                    s, si = a.add[x][y], b.add[new_phi[x]][new_phi[y]]
                    if s in new_phi:
                        if new_phi[s] != si:
                            ok = False
                            break
                    else:
                        new_phi[s] = si
                        frontier.append(s)
                if not ok:
                    break
            if ok:
                vals = set(new_phi.values())
                if len(vals) != len(new_phi):
                    ok = False
            if ok:
                for x in new_phi:
                    for y in new_phi:
                        if a.add[x][y] in new_phi and new_phi[a.add[x][y]] != b.add[new_phi[x]][new_phi[y]]:
                            ok = False
                            break
                        c = a.circ[x][y]
                        if c in new_phi and new_phi[c] != b.circ[new_phi[x]][new_phi[y]]:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                got = extend(new_phi, vals, gi + 1)
                if got is not None:
                    return got
        return None

    phi = extend({a.zero: b.zero}, {b.zero}, 0)
    if phi is None:
        return None
    if len(phi) != n:
        return None
    return tuple(phi[x] for x in range(n))
