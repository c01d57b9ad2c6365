"""Finite non-degenerate cycle sets.

A cycle set on X = {0, ..., n-1} is a binary operation ``x . y = table[x][y]``
whose left translations ``sigma_x = table[x]`` are bijections satisfying

    (x . y) . (x . z) == (y . x) . (y . z)

for all x, y, z, and whose squaring map ``x -> x . x`` (the table diagonal)
is a bijection.  These are exactly the involutive non-degenerate set-theoretic
solutions of the Yang-Baxter equation, via ``r(x, y) = (sigma_x^-1(y),
sigma_x^-1(y) . x)``.

Tables are tuples of rows; each row is the image tuple of a permutation, so
all the machinery from :mod:`cycleset.perm` applies directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import canon
from .perm import (
    Partition,
    Perm,
    PermGroup,
    Table,
    _compose_right,
    closure,
    compose,
    cycles,
    generate,
    identity,
    inverse,
    invariant_partitions,
    is_permutation,
    perm_order,
    prime_support,
)

# largest size whose congruences are computed; above it simplicity is unknown
CONGRUENCE_MAX_N = 8


class InvalidCycleSet(ValueError):
    """Structured rejection: which axiom failed, with a witness."""

    def __init__(self, kind: str, witness: object, message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


def validate_table(table: Sequence[Sequence[int]]) -> None:
    """Raise InvalidCycleSet at the first broken axiom.

    Checks, in order: shape, row bijectivity, the cycloid law (in the
    equivalent permutation form sigma_{x.y} o sigma_x == sigma_{y.x} o
    sigma_y), and bijectivity of the diagonal.  The law at (x, y) reads only
    the rows of x, y, x.y and y.x, so it is checked once per distinct
    quadruple of those rows: O(n^2 + q n) work for q distinct quadruples,
    so tables with few distinct rows validate in quadratic time.  Each
    quadruple compares its two composed rows whole, through one
    :func:`~cycleset.perm._compose_right` per distinct row, and scans the
    points for the witness only when they differ.
    """
    n = len(table)
    if n == 0:
        raise InvalidCycleSet("shape", None, "empty table")
    # a row passes when its entries are ints that sort to 0..n-1 (bool is a
    # subclass of int, but true and false are not points); only a row that
    # fails is told apart as out of range or not bijective
    ints, points = (int,) * n, list(range(n))
    rows = []
    for x, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise InvalidCycleSet("shape", x, f"row {x} has length {len(row)}, expected {n}")
        if tuple(map(type, row)) != ints or sorted(row) != points:
            if tuple(map(type, row)) != ints or min(row) < 0 or max(row) >= n:
                raise InvalidCycleSet("shape", x, f"row {x} has entries outside 0..{n - 1}")
            raise InvalidCycleSet("row", x, f"row {x} is not bijective")
        rows.append(row)
    row_class: dict[tuple[int, ...], int] = {}
    cls = [row_class.setdefault(row, len(row_class)) for row in rows]
    by_class = [_compose_right(row) for row in row_class]
    # a quadruple seen before passed, or validation would have stopped there
    checked = set()
    for x in range(n):
        sx = rows[x]
        for y in range(x + 1, n):
            sy = rows[y]
            quad = (cls[x], cls[y], cls[sx[y]], cls[sy[x]])
            if quad in checked:
                continue
            checked.add(quad)
            left = rows[sx[y]]
            right = rows[sy[x]]
            if by_class[cls[x]](left) == by_class[cls[y]](right):
                continue
            z = next(z for z in range(n) if left[sx[z]] != right[sy[z]])
            raise InvalidCycleSet(
                "cycloid",
                (x, y, z),
                f"cycloid law fails at ({x}, {y}, {z}): "
                f"{left[sx[z]]} != {right[sy[z]]}",
            )
    diag = tuple(rows[x][x] for x in range(n))
    if not is_permutation(diag):
        raise InvalidCycleSet("degenerate", diag, "diagonal is not bijective")


def cycle_set(table: Sequence[Sequence[int]]) -> "CycleSet":
    """Validate and wrap a table."""
    normalized = tuple(tuple(row) for row in table)
    validate_table(normalized)
    return CycleSet(normalized)


def _cabling_sum(a: Table, b: Table) -> Table:
    """X_{i+j} from a = X_i and b = X_j: row x is (row T^i x of X_j) o (row x
    of X_i), where T^i x = x *_i x is the diagonal of X_i."""
    return tuple(compose(b[r[x]], r) for x, r in enumerate(a))


@dataclass(frozen=True)
class CycleSet:
    """A cycle-set table.  Construct through :func:`cycle_set` to validate;
    the raw constructor trusts its input (used on search-verified tables)."""

    table: Table

    @property
    def n(self) -> int:
        return len(self.table)

    def row(self, x: int) -> Perm:
        return self.table[x]

    @cached_property
    def squaring_map(self) -> Perm:
        return tuple(self.table[x][x] for x in range(self.n))

    @cached_property
    def fixed_points(self) -> frozenset[int]:
        return frozenset(x for x in range(self.n) if self.table[x][x] == x)

    @cached_property
    def perm_group(self) -> PermGroup:
        gens = tuple(dict.fromkeys(self.table))
        return generate(gens)

    @cached_property
    def displacement_group(self) -> PermGroup:
        """Dis(X), generated by the sigma_x sigma_0^-1, since every
        sigma_x sigma_y^-1 is (sigma_x sigma_0^-1)(sigma_y sigma_0^-1)^-1;
        they take one :func:`~cycleset.perm._compose_right` by sigma_0^-1."""
        by_s0 = _compose_right(inverse(self.table[0]))
        gens = set(map(by_s0, self.table)) - {identity(self.n)}
        return generate(sorted(gens) or [identity(self.n)])

    @property
    def is_decomposable(self) -> bool:
        return not self.perm_group.is_transitive

    @property
    def is_indecomposable(self) -> bool:
        return self.perm_group.is_transitive

    @property
    def decomposition(self) -> tuple[tuple[int, ...], ...] | None:
        """Orbit partition witnessing decomposability, else None."""
        orbits = self.perm_group.orbits
        return orbits if len(orbits) > 1 else None

    @cached_property
    def is_latin(self) -> bool:
        cols = zip(*self.table)
        return all(is_permutation(col) for col in cols)

    def prime_support_match(self) -> bool:
        """True when the size and |G(X)| are divisible by the same primes."""
        return prime_support(self.n) == prime_support(self.perm_group.order)

    # -- solution correspondence -------------------------------------------

    def to_solution(self) -> "SolutionPair":
        lam = tuple(inverse(row) for row in self.table)
        rho = tuple(
            tuple(self.table[lam[x][y]][x] for x in range(self.n))
            for y in range(self.n)
        )
        return SolutionPair(lam, rho)

    # -- retraction ---------------------------------------------------------

    @cached_property
    def _row_equality(self) -> Partition:
        return Partition.from_labels(self.table)

    def retraction(self) -> tuple["CycleSet", tuple[int, ...]]:
        """Quotient by equality of rows; classes numbered by least member."""
        # row equality is always a congruence, so quotient's check is not needed
        return self._quotient_table(self._row_equality)

    @property
    def is_irretractable(self) -> bool:
        return self._row_equality.num_classes == self.n

    # -- cabling ------------------------------------------------------------

    def _cabling_rows(self, k: int) -> Table:
        """Rows of X_k by binary doubling: row x of X_k is
        sigma_{T^{k-1}x} o ... o sigma_x, so X_{2i} and X_{i+1} follow from
        X_i, and X_k takes O(log k) table compositions on any table."""
        rows = self.table
        for bit in bin(k)[3:]:
            rows = _cabling_sum(rows, rows)
            if bit == "1":
                rows = _cabling_sum(rows, self.table)
        return rows

    def cabling(self, k: int) -> "CycleSet":
        """k-th cabled operation: step k is x *_k y = (x *_{k-1} x) . (x *_{k-1} y).

        Built by binary doubling in O(log k) table compositions; the result
        is validated."""
        if k < 1:
            raise ValueError("cabling index must be >= 1")
        return cycle_set(self._cabling_rows(k))

    # -- tower map and Dehornoy class --------------------------------------

    def omega(self, args: Sequence[int]) -> int:
        """Iterated tower map: omega(x1) = x1 and
        omega(x1..xd) = omega(x1..x_{d-1}) . omega(x1..x_{d-2}, x_d)."""
        args = tuple(args)
        if not args:
            raise ValueError("at least one argument required")
        memo: dict[tuple[int, ...], int] = {}

        def rec(t: tuple[int, ...]) -> int:
            if len(t) == 1:
                return t[0]
            got = memo.get(t)
            if got is None:
                got = self.table[rec(t[:-1])][rec(t[:-2] + (t[-1],))]
                memo[t] = got
            return got

        return rec(args)

    def dehornoy_class(self) -> int:
        """Least d >= 1 with omega(x, ..., x, y) = y (d copies of x) for all
        x, y; equivalently the d-th cabling has identity rows.

        Closed form: d = t * lcm_x ord(P_x), with t the order of the squaring
        map T and P_x row x of X_t.  It is exact because X_k has diagonal
        T^k, so t divides d, and X_t is square-free, so row x of X_{mt} is
        P_x^m and X_{mt} is trivial exactly when every ord(P_x) divides m.
        For x on a T-cycle C of length l, row x of X_l is the product
        Pi_x = sigma_{T^{l-1}x} o ... o sigma_x, and P_x = Pi_x^(t/l), of
        order ord(Pi_x) / gcd(ord(Pi_x), t/l).  The Pi_x along C are
        conjugate (Pi_{Tx} = sigma_x Pi_x sigma_x^-1), so one per cycle
        gives the order: fewer than n single-row compositions in all, whatever
        t and d.

        >>> cycle_set([[1, 2, 0], [1, 2, 0], [1, 2, 0]]).dehornoy_class()
        3
        """
        T = self.squaring_map
        t = perm_order(T)
        orders = []
        for c in cycles(T):
            pi = self.table[c[0]]
            for x in c[1:]:
                pi = compose(self.table[x], pi)
            q = perm_order(pi)
            orders.append(q // math.gcd(q, t // len(c)))
        return t * math.lcm(*orders)

    # -- congruences --------------------------------------------------------

    @cached_property
    def _translations(self) -> tuple[Perm, ...]:
        """The rows u -> x.u and the columns x -> x.u.  A partition is a
        congruence exactly when all 2n of them carry it into itself."""
        return self.table + tuple(zip(*self.table))

    def principal_congruence(self, a: int, b: int) -> "Congruence":
        """Smallest congruence identifying a and b."""
        return Congruence.from_labels(closure(self.n, [(a, b)], self._translations))

    def congruences(self) -> tuple["Congruence", ...]:
        """Every congruence, as joins of principal ones plus the diagonal."""
        if self.n > CONGRUENCE_MAX_N:
            raise ValueError(f"congruence search limited to n <= {CONGRUENCE_MAX_N}")
        return tuple(
            Congruence.from_labels(labels)
            for labels in invariant_partitions(self.n, self._translations)
        )

    @cached_property
    def is_simple(self) -> bool:
        """Only the two trivial congruences exist (they coincide at n = 1)."""
        n = self.n
        total = (0,) * n
        return all(
            closure(n, [(a, b)], self._translations) == total
            for a in range(n)
            for b in range(a + 1, n)
        )

    def quotient(self, cong: "Congruence") -> tuple["CycleSet", tuple[int, ...]]:
        """Quotient by a congruence; classes numbered by least member."""
        if not cong.is_congruence_of(self):
            raise ValueError("partition is not a congruence of this cycle set")
        return self._quotient_table(cong)

    def _quotient_table(self, p: Partition) -> tuple["CycleSet", tuple[int, ...]]:
        # a congruence's rows permute its classes; row i is that permutation
        qtable = tuple(p.action_of(self.table[c[0]]) for c in p.classes)
        return cycle_set(qtable), p.index


@dataclass(frozen=True)
class SolutionPair:
    """The involutive solution (x, y) -> (lam_x(y), rho_y(x)) of a cycle set."""

    lam: tuple[Perm, ...]
    rho: tuple[Perm, ...]

    @property
    def n(self) -> int:
        return len(self.lam)

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.lam[x][y], self.rho[y][x]

    def is_involutive(self) -> bool:
        pts = range(self.n)
        return all(self.r(*self.r(x, y)) == (x, y) for x in pts for y in pts)

    def satisfies_braid_relation(self) -> bool:
        pts = range(self.n)

        def r12(t):
            u, v = self.r(t[0], t[1])
            return (u, v, t[2])

        def r23(t):
            u, v = self.r(t[1], t[2])
            return (t[0], u, v)

        return all(
            r12(r23(r12((x, y, z)))) == r23(r12(r23((x, y, z))))
            for x in pts
            for y in pts
            for z in pts
        )

    def to_cycle_set(self) -> CycleSet:
        return cycle_set(tuple(inverse(l) for l in self.lam))


class Congruence(Partition):
    """A partition compatible with a cycle-set operation."""

    def is_congruence_of(self, X: CycleSet) -> bool:
        """x ~ y and u ~ v imply x.u ~ y.v: the partition is its own closure
        under the translations of X."""
        if sorted(x for c in self.classes for x in c) != list(range(X.n)):
            return False
        return closure(X.n, enumerate(self.labels), X._translations) == self.labels


# ---------------------------------------------------------------------------
# constructions


def trivial_cycle_set(gamma: Sequence[int]) -> CycleSet:
    """All rows equal to ``gamma``; valid for any permutation of a nonempty
    set (the empty table is not a cycle set)."""
    g = tuple(gamma)
    if not g or not is_permutation(g):
        raise ValueError("not a permutation of a nonempty set")
    return CycleSet(tuple(g for _ in g))


def product_table(ta: Table, tb: Table) -> Table:
    """Componentwise operation on pairs, indexed row-major: (x, y) -> x*|tb|+y."""
    na, nb = len(ta), len(tb)
    out = []
    for x in range(na):
        for y in range(nb):
            row = [0] * (na * nb)
            for z in range(na):
                az = ta[x][z]
                for t in range(nb):
                    row[z * nb + t] = az * nb + tb[y][t]
            out.append(tuple(row))
    return tuple(out)


def direct_product(a: CycleSet, b: CycleSet) -> CycleSet:
    """Componentwise operation on pairs, indexed row-major: (x, y) -> x*|b|+y."""
    return CycleSet(product_table(a.table, b.table))


def relabel(X: CycleSet, rho: Sequence[int]) -> CycleSet:
    """Transport the table along ``rho``; rows become rho o sigma o rho^-1."""
    if not is_permutation(tuple(rho)) or len(rho) != X.n:
        raise ValueError("relabeling must be a permutation of the point set")
    return CycleSet(canon.relabel_table(X.table, rho))


def canonical_relabeling(X: CycleSet) -> tuple[Perm, CycleSet]:
    rho, table = canon.canonical_relabeling(X.table)
    return rho, CycleSet(table)


def canonical_form(X: CycleSet) -> CycleSet:
    return CycleSet(canon.canonical_form(X.table))


def is_isomorphic(a: CycleSet, b: CycleSet) -> Perm | None:
    """A relabeling carrying ``a`` to ``b``, or None: ``canon.isomorphism``
    of their tables, each point sent to one of its ``canon.colours``."""
    facts = canon.RowFacts()
    return canon.isomorphism(
        [a.table], [b.table], canon.colours(a.table, facts), canon.colours(b.table, facts)
    )
