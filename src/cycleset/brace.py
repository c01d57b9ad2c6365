"""Finite left braces as explicit operation tables.

A left brace is a set with two group structures, an abelian ``+`` and a
``o``, sharing their identity and linked by ``x o (y + z) + x = (x o y) +
(x o z)``.  Elements are indices 0..n-1; both operations are stored as full
n x n tables.  Validation tests each axiom on a generating set, in about
n^2 lookups per generator: associativity by Light's test, the linking law
for z among the generators of (B, +).  Only a table that fails is scanned
over all triples, to name its lex-first failure.

The module also builds the brace carried by the permutation group of a
cycle set, and the converse coset-space construction that turns a brace
with a transitive cycle base back into an indecomposable cycle set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .canon import isomorphism
from .core import CycleSet, cycle_set, product_table
from .perm import Partition, Perm, Table, _compose_right, closure, identity, inverse, partition

# most lambda-orbits whose unions cycle_bases scans (2^k - 1 unions): at the
# cap, the 65,535 bases of the trivial brace on Z/17 take 0.1 s and hold
# 8.2 MB (tracemalloc; 63 MB as frozensets) on a 2-core x86-64 machine
MAX_LAMBDA_ORBITS = 16
# most elements of the group that brace_of_cycle_set builds a brace on, and
# so of the groups the fixed_point_orders and cabling_laws checkers compare
# with it.  Its two m x m tables validated in 0.03-0.05 s at m = 192 and
# 0.26-0.37 s at m = 576 on a 2-core x86-64 machine (Python 3.11), where a
# scan of all triples took 2.0 s and 64 s
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


def _generators(table: Table, zero: int) -> list[int]:
    """Greedy generating set of a table with identity ``zero``: each next
    generator is the least element not reached from ``zero`` by right
    multiplication with the generators before it.  Only products of the
    generators are used, so this needs no axiom of the table."""
    reached = [False] * len(table)
    reached[zero] = True
    span = [zero]
    gens: list[int] = []
    for g in range(len(table)):
        if reached[g]:
            continue
        gens.append(g)
        todo = [table[a][g] for a in span]
        for c in todo:
            if not reached[c]:
                reached[c] = True
                span.append(c)
                todo.extend(table[c][s] for s in gens)
    return gens


def _is_associative(table: Table, gens: Iterable[int]) -> bool:
    """Light's test: the middles a with (x a) y = x (a y) for all x, y are
    closed under the product and include the identity, so it suffices that
    every generator is one of them.  Row x s of the table must equal row x
    composed with row s, one :func:`_compose_right` per generator."""
    for s in gens:
        by_s = _compose_right(table[s])
        for row in table:
            if table[row[s]] != by_s(row):
                return False
    return True


def _check_group(
    table: Table, commutative: bool, label: str, kind: str
) -> tuple[int, tuple[int, ...], list[int]]:
    """Identity element, inverse array and generators of a group table, or
    raise."""
    n = len(table)
    ident = tuple(range(n))
    zero = next(
        (e for e in range(n) if table[e] == ident and all(table[x][e] == x for x in range(n))),
        None,
    )
    if zero is None:
        raise InvalidBrace(kind, None, f"{label} has no identity element")
    gens = _generators(table, zero)
    if (commutative and list(zip(*table)) != list(table)) or not _is_associative(table, gens):
        # the scan that names the lex-first failure, as the witness
        for x in range(n):
            for y in range(n):
                if commutative and table[x][y] != table[y][x]:
                    raise InvalidBrace(kind, (x, y), f"{label} is not commutative at ({x}, {y})")
                for z in range(n):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise InvalidBrace(
                            kind, (x, y, z), f"{label} is not associative at ({x}, {y}, {z})"
                        )
    # in a finite monoid a right inverse is two-sided, and then unique
    invs = []
    for x in range(n):
        if zero not in table[x]:
            raise InvalidBrace(kind, x, f"{label} has no inverse for {x}")
        invs.append(table[x].index(zero))
    return zero, tuple(invs), gens


def _is_linked(add: Table, circ: Table, gens: Iterable[int]) -> bool:
    """The linking axiom for z in a generating set of (B, +).  With + abelian
    it says y -> -x + x o y is additive, and the z for which it holds for
    all x, y include zero and are closed under +.  As rows: (row x of +) o
    (row x of o) o (row z of +) equals (row x o z of +) o (row x of o), with
    one :func:`_compose_right` per row of o and per generator."""
    by_gen = [(z, _compose_right(add[z])) for z in gens]
    for ax, cx in zip(add, circ):
        by_cx = _compose_right(cx)
        axcx = by_cx(ax)
        for z, by_z in by_gen:
            if by_z(axcx) != by_cx(add[cx[z]]):
                return False
    return True


def left_brace(add: Sequence[Sequence[int]], circ: Sequence[Sequence[int]]) -> "LeftBrace":
    """Validate the two tables and the linking axiom; raise InvalidBrace.

    Each axiom is tested on generators first; only a table that fails that
    test is scanned over all triples, for the lex-first witness.
    """
    add = tuple(tuple(row) for row in add)
    circ = tuple(tuple(row) for row in circ)
    n = len(add)
    if n == 0:
        raise InvalidBrace("shape", None, "empty tables")
    for name, t in (("addition", add), ("multiplication", circ)):
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidBrace("shape", name, f"{name} table is not {n} x {n}")
        if any(set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n for row in t):
            raise InvalidBrace("shape", name, f"{name} table has out-of-range entries")
    zero, neg, gens = _check_group(add, True, "addition", "not_abelian_group")
    mzero, inv, _ = _check_group(circ, False, "multiplication", "not_group")
    if mzero != zero:
        raise InvalidBrace(
            "not_group", mzero, f"multiplicative identity {mzero} differs from additive identity {zero}"
        )
    if not _is_linked(add, circ, gens):
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

    def _cycle(self, op: Table, x: int) -> tuple[int, ...]:
        """The powers 0, x, x op x, ... of x under ``op``, up to the order of
        x, so the k-th power is the entry at k mod its length."""
        out = [self.zero]
        cur = x
        while cur != self.zero:
            out.append(cur)
            cur = op[cur][x]
        return tuple(out)

    def additive_order(self, x: int) -> int:
        return len(self._cycle(self.add, x))

    def multiplicative_order(self, x: int) -> int:
        return len(self._cycle(self.circ, x))

    @cached_property
    def additive_exponent(self) -> int:
        return math.lcm(*(self.additive_order(x) for x in range(self.n)))

    def additive_cycle(self, x: int) -> tuple[int, ...]:
        """The multiples 0, x, 2x, ... in (B, +), up to the additive order
        of x, so k x is the entry at k mod its length."""
        return self._cycle(self.add, x)

    def additive_multiple(self, k: int, x: int) -> int:
        """k x in (B, +), k >= 0."""
        if k < 0:
            raise ValueError("multiple must be >= 0")
        cyc = self.additive_cycle(x)
        return cyc[k % len(cyc)]

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
        return _extend_span(self, frozenset({self.zero}), s)

    @cached_property
    def lambda_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the lambda-action on the nonzero elements.  Lambda is a
        homomorphism on (B, o), so the lambda maps of its generators suffice."""
        maps = map(self.lambda_of, _generators(self.circ, self.zero))
        labels = closure(self.n, [(y, lm[y]) for lm in maps for y in range(self.n)])
        return tuple(c for c in partition(labels) if c != (self.zero,))


@dataclass(frozen=True, slots=True)
class CycleBase:
    """Union of lambda-orbits generating (B, +); transitive when one orbit.
    The union is the bit mask ``mask``, bit x set for each element x, and
    ``elements`` builds its frozenset when read."""

    mask: int
    transitive: bool

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(x for x in range(self.mask.bit_length()) if self.mask >> x & 1)


def _extend_span(B: LeftBrace, span: frozenset[int], gens: Iterable[int]) -> frozenset[int]:
    """The subgroup of (B, +) generated by the subgroup ``span`` and ``gens``:
    each generator g outside it adds the cosets S + g, S + 2g, ... of the
    subgroup S so far, until one falls back into S."""
    inside = set(span)
    elems = list(span)
    for g in gens:
        if g in inside:
            continue
        coset = elems
        while True:
            coset = [B.add[x][g] for x in coset]
            if coset[0] in inside:
                break
            inside.update(coset)
            elems += coset
    return frozenset(elems) if len(elems) > len(span) else span


def cycle_bases(B: LeftBrace) -> tuple[CycleBase, ...]:
    """Every union of lambda-orbits whose additive span is all of B, by
    size and then by sorted elements.

    The unions are walked depth first, adding orbits in index order, and
    each span extends its parent's by one orbit, memoised by (span, orbit).
    Once a span is all of B, every union that adds later orbits spans B
    too, so those are listed without extending spans.  Each union is the
    OR of its orbits' codes, with bits x and 2n-1-x for each element x: its
    low n bits are its ``CycleBase`` mask, and of two unions of one size the
    greater code holds the least element they do not share, so sorts first.
    """
    orbits = B.lambda_orbits
    if len(orbits) > MAX_LAMBDA_ORBITS:
        raise ValueError(f"{len(orbits)} lambda-orbits exceed the union scan limit")
    n, k = B.n, len(orbits)
    codes = [sum(1 << x | 1 << (2 * n - 1 - x) for x in o) for o in orbits]
    bases: list[int] = []
    memo: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def spanning(start: int, union: int) -> None:
        for i in range(start, k):
            grown = union | codes[i]
            bases.append(grown)
            spanning(i + 1, grown)

    def walk(start: int, union: int, span: frozenset[int]) -> None:
        for i in range(start, k):
            key = (span, i)
            wider = memo.get(key)
            if wider is None:
                wider = memo[key] = _extend_span(B, span, orbits[i])
            grown = union | codes[i]
            if len(wider) == n:
                bases.append(grown)
                spanning(i + 1, grown)
            else:
                walk(i + 1, grown, wider)

    walk(0, 0, frozenset({B.zero}))
    bases.sort(key=lambda code: (code.bit_count(), -code))
    single, low = set(codes), (1 << n) - 1  # one orbit: transitive
    return tuple(CycleBase(code & low, code in single) for code in bases)


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
    if not base.transitive or base.mask not in {
        sum(1 << x for x in o) for o in B.lambda_orbits
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
    determines every sum.  The search right-multiplies by each sigma_y^-1
    through one :func:`_compose_right` per y.  Both tables are filled along
    that tree by lookups in the right-multiplication table by the
    sigma_y^-1, which the search computes anyway.  The result is validated
    in full, so an inconsistent closure cannot slip through.  A group of
    more than ``BRACE_MAX_ORDER`` elements raises BraceOrderCapExceeded
    before any table is built.
    """
    ident = identity(X.n)
    by_inv = [_compose_right(inverse(row)) for row in X.table]
    bfs = [ident]
    where = {ident: 0}
    right = []  # right[i][y]: position in bfs of bfs[i] o sigma_y^-1
    tree = []  # the spanning tree: (h, p, y) with bfs[h] = bfs[p] o sigma_y^-1
    for i, p in enumerate(bfs):
        row = []
        for y, by_y in enumerate(by_inv):
            h = by_y(p)
            j = where.get(h)
            if j is None:
                if len(bfs) == BRACE_MAX_ORDER:
                    raise BraceOrderCapExceeded(
                        f"the permutation group has more than {BRACE_MAX_ORDER} "
                        "elements, the cap of its brace tables"
                    )
                j = where[h] = len(bfs)
                bfs.append(h)
                tree.append((j, i, y))
            row.append(j)
        right.append(row)
    m = len(bfs)
    order = sorted(range(m), key=bfs.__getitem__)
    pos = [0] * m
    for k, i in enumerate(order):
        pos[i] = k
    elems = tuple(bfs[i] for i in order)
    R = [[pos[j] for j in right[i]] for i in order]
    zero = pos[0]
    einv = [inverse(p) for p in elems]
    # g o h = (g o p) o sigma_y^-1; g + h = (g + p) + sigma_w^-1 with
    # w = p(y), and u + sigma_w^-1 = u o sigma_t^-1 for t = u^-1(w)
    steps = [(pos[h], pos[p], y, bfs[p][y]) for h, p, y in tree]
    circ = [[0] * m for _ in range(m)]
    add = [[0] * m for _ in range(m)]
    for g in range(m):
        crow, arow = circ[g], add[g]
        crow[zero] = arow[zero] = g
        for h, p, y, w in steps:
            crow[h] = R[crow[p]][y]
            u = arow[p]
            arow[h] = R[u][einv[u][w]]
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
    """A bijection respecting both operations, or None: ``canon.isomorphism``
    of (add, circ), each element sent to one of its (additive order,
    multiplicative order)."""

    def profile(B: LeftBrace) -> list[tuple[int, int]]:
        return [(B.additive_order(x), B.multiplicative_order(x)) for x in range(B.n)]

    return isomorphism([a.add, a.circ], [b.add, b.circ], profile(a), profile(b))
