"""Counterexample scanners for the structural laws of cycle sets.

Each checker recomputes its hypotheses from the raw table (nothing is
assumed from the filters a census was built with) and reports every
violating instance as a replayable counterexample embedding the table.
A checker that raises on an instance is also recorded as a counterexample
(a crash must never look like a pass).

Checkers are per-instance predicates; a few also carry a census-wide part
(uniqueness counts) that runs over the whole scanned collection.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .brace import BRACE_MAX_ORDER, BraceOrderCapExceeded, brace_of_cycle_set
from .core import (
    CONGRUENCE_MAX_N,
    CycleSet,
    InvalidCycleSet,
    Table,
    cycle_set,
    direct_product,
    is_isomorphic,
)
from .perm import (
    Perm,
    cycle_type,
    identity,
    perm_order,
    power,
    prime_part,
    prime_support,
)

VERIFY_VERSION = "cycleset-verify/1"


@dataclass(frozen=True)
class Counterexample:
    checker_id: str
    n: int
    table: Table
    detail: str

    def to_dict(self) -> dict:
        return {
            "checker": self.checker_id,
            "n": self.n,
            "table": [list(row) for row in self.table],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    checker_id: str
    scope: str
    instances: int
    skipped: int
    counterexamples: tuple[Counterexample, ...]
    elapsed: float
    engine_version: str
    census_hash: str
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "checker": self.checker_id,
            "scope": self.scope,
            "instances": self.instances,
            "skipped": self.skipped,
            "passed": self.passed,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "elapsed": round(self.elapsed, 6),
            "engine_version": self.engine_version,
            "census_hash": self.census_hash,
            "notes": list(self.notes),
        }


def hash_tables(tables: Iterable[CycleSet]) -> str:
    payload = sorted(tuple(tuple(r) for r in X.table) for X in tables)
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# -- low-level helpers -------------------------------------------------------


def _is_pcycle(t: Perm) -> int | None:
    """The prime p when t is a single p-cycle (all other points fixed)."""
    moved = [length for length in cycle_type(t) if length > 1]
    if len(moved) != 1 or prime_support(moved[0]) != {moved[0]}:
        return None
    return moved[0]


def _admissible_pcycle_size(p: int, n: int) -> bool:
    """The sizes of an indecomposable cycle set of prime-power size whose
    squaring map is a p-cycle: n = p for odd p, n in {2, 4} for p = 2."""
    return n in (2, 4) if p == 2 else n == p


def _p_block_systems(X: CycleSet, p: int):
    """Block systems of the row group with exactly p blocks; a seam for the
    harness self-test to cut."""
    return [bs for bs in X.perm_group.block_systems() if bs.num_classes == p]


# -- per-instance checkers ---------------------------------------------------


def _chk_squarefree(X: CycleSet, ctx: dict):
    if X.squaring_map != identity(X.n) or X.n <= 1:
        return False, []
    if X.is_decomposable:
        return True, []
    return True, ["identity squaring map on more than one point, yet indecomposable"]


def _chk_coprime_squaring(X: CycleSet, ctx: dict):
    if X.n <= 1 or X.is_decomposable:
        return False, []
    g = math.gcd(X.n, perm_order(X.squaring_map))
    if g > 1:
        return True, []
    return True, [f"indecomposable with size and squaring order coprime (gcd {g})"]


def _chk_prime_support_match(X: CycleSet, ctx: dict):
    if X.is_decomposable or not X.perm_group.is_nilpotent:
        return False, []
    target = prime_support(X.n)
    fails = []
    if not X.prime_support_match():
        fails.append(
            f"primes of group order {X.perm_group.order} differ from primes of size"
        )
    for x in range(X.n):
        ps = prime_support(perm_order(X.table[x]))
        if ps != target:
            fails.append(f"row {x} has order prime support {sorted(ps)}")
    return True, fails


def _chk_nilpotent_factorization(X: CycleSet, ctx: dict):
    if X.n > CONGRUENCE_MAX_N or X.is_decomposable:
        return False, []
    primes = sorted(prime_support(X.n))
    if len(primes) < 2:
        return False, []
    if not X.perm_group.is_nilpotent:
        return False, []
    parts = [prime_part(X.n, {p}) for p in primes]
    congs = X.congruences()
    by_classes: dict[int, list] = {}
    for c in congs:
        by_classes.setdefault(c.num_classes, []).append(c)
    from itertools import product as iproduct

    pools = [by_classes.get(q, []) for q in parts]
    for pick in iproduct(*pools):
        quotients = [X.quotient(c)[0] for c in pick]
        prod = quotients[0]
        for q in quotients[1:]:
            prod = direct_product(prod, q)
        if is_isomorphic(X, prod) is not None:
            return True, []
    return True, [
        "no congruence tuple factors it into coprime prime-power parts "
        f"{parts} with an isomorphic direct product"
    ]


def _chk_pcycle_simple(X: CycleSet, ctx: dict):
    p = _is_pcycle(X.squaring_map)
    if p is None or X.is_decomposable:
        return False, []
    fails = []
    if not X.is_simple:
        fails.append(f"squaring map is a {p}-cycle but it is not simple")
    composite = min(prime_support(X.n)) != X.n
    if composite and not X.is_irretractable:
        fails.append("composite size with a p-cycle squaring map, yet retractable")
    return True, fails


def _chk_fixed_point_bound(X: CycleSet, ctx: dict):
    if X.n < 2 or X.is_decomposable or not X.perm_group.is_nilpotent:
        return False, []
    f = len(X.fixed_points)
    if f <= (X.n - f) ** 2:
        return True, []
    return True, [f"{f} fixed points exceed ({X.n} - {f})^2"]


def _chk_pcycle_classification(X: CycleSet, ctx: dict):
    p = _is_pcycle(X.squaring_map)
    if p is None or X.is_decomposable:
        return False, []
    fails = []
    if len(prime_support(X.n)) == 1 and not _admissible_pcycle_size(p, X.n):
        fails.append(
            f"prime-power size {X.n} with a {p}-cycle squaring map is not admissible"
        )
    if len(prime_support(X.n)) != 1 and X.displacement_group.is_nilpotent:
        fails.append(
            f"nilpotent displacement group with a {p}-cycle squaring map, "
            f"but size {X.n} is not a prime power"
        )
    return True, fails


def _census_pcycle_classification(tables: Sequence[CycleSet], ctx: dict):
    buckets: dict[int, list[CycleSet]] = {}
    # the evidence as counts: members by p, and the sizes of the
    # indecomposable ones
    by_p: dict[int, int] = {}
    sizes: list[int] = []
    for X in tables:
        p = _is_pcycle(X.squaring_map)
        if p is None:
            continue
        by_p[p] = by_p.get(p, 0) + 1
        if X.is_decomposable:
            continue
        sizes.append(X.n)
        if len(prime_support(X.n)) != 1:
            continue
        if _admissible_pcycle_size(p, X.n) and X.n in (2, 3, 4):
            buckets.setdefault(X.n, []).append(X)
    failures = []
    for n, members in sorted(buckets.items()):
        if len(members) > 1:
            for X in members:
                failures.append(
                    (X.n, X.table, f"{len(members)} classes of size {n}, expected 1")
                )
    notes = [
        "uniqueness checked census-wide; existence of the admissible classes "
        "is asserted by the acceptance suite on complete censuses",
        _pcycle_evidence(by_p, sizes),
    ]
    return failures, notes


def _pcycle_evidence(by_p: dict[int, int], sizes: list[int]) -> str:
    """The note that counts what the p-cycle checkers saw: members whose
    squaring map is a p-cycle, by p, and the indecomposable ones by size.

    >>> _pcycle_evidence({3: 4, 2: 1}, [3])
    'squaring map a p-cycle: 5 members (p = 2: 1, p = 3: 4), 1 of them indecomposable, at size 3'
    >>> _pcycle_evidence({2: 2, 3: 1}, [3, 2, 2])[-35:]
    'indecomposable, at sizes 2, 2 and 3'
    >>> _pcycle_evidence({}, [])
    'squaring map a p-cycle: 0 members'
    """
    note = f"squaring map a p-cycle: {sum(by_p.values())} members"
    if by_p:
        note += " (" + ", ".join(f"p = {p}: {by_p[p]}" for p in sorted(by_p)) + ")"
        if sizes:
            *most, last = map(str, sorted(sizes))
            at = f"sizes {', '.join(most)} and {last}" if most else f"size {last}"
            note += f", {len(sizes)} of them indecomposable, at {at}"
        else:
            note += ", none of them indecomposable"
    return note


def _chk_block_bound(X: CycleSet, ctx: dict):
    if X.n <= 1 or X.is_decomposable:
        return False, []
    q = min(prime_support(X.n))
    if q >= X.n:
        return False, []
    if not _p_block_systems(X, q):
        return False, []
    T = X.squaring_map
    fix = len(X.fixed_points)
    m = X.n - fix
    # the least k1 >= 1 with the primes of ord(T^k1) in those of n:
    # ord(T^k1) = t / gcd(t, k1), so k1 is the pi(n)'-part of t = ord(T)
    t = perm_order(T)
    tk = power(T, prime_part(t, prime_support(t) - prime_support(X.n)))
    k = X.n - len([x for x in range(X.n) if tk[x] == x])
    fails = []
    if not (m <= X.n <= k * k + k):
        fails.append(f"bound chain fails: m={m}, n={X.n}, k={k}")
    if _is_pcycle(T) == 2 and not _admissible_pcycle_size(2, X.n):
        fails.append(f"transposition squaring map at inadmissible size {X.n}")
    return True, fails


def _chk_fixed_point_orders(X: CycleSet, ctx: dict):
    if X.is_decomposable:
        return False, []
    eligible = []
    for x in sorted(X.fixed_points):
        o = perm_order(X.table[x])
        g = math.gcd(X.n, o)
        if g > 1 and len(prime_support(g)) == 1:
            eligible.append((x, o))
    if not eligible:
        return False, []
    try:
        gb = brace_of_cycle_set(X)
    except BraceOrderCapExceeded:
        return False, []
    d = X.dehornoy_class()
    fails = []
    for x, o in eligible:
        add_o = gb.brace.additive_order(gb.index_of(X.table[x]))
        if not (o == add_o == d):
            fails.append(
                f"fixed point {x}: multiplicative order {o}, additive order "
                f"{add_o}, class {d} not all equal"
            )
    return True, fails


def _chk_latin_fixed_points(X: CycleSet, ctx: dict):
    if not X.is_latin:
        return False, []
    f = len(X.fixed_points)
    if f < X.n / 2 + 1:
        return True, []
    return True, [f"latin with {f} squaring fixed points on {X.n} points"]


def _census_latin_fixed_points(tables: Sequence[CycleSet], ctx: dict):
    pcycle_latin = [
        X
        for X in tables
        if X.is_latin and _is_pcycle(X.squaring_map) is not None
    ]
    failures = []
    for X in pcycle_latin:
        if X.n != 4:
            failures.append(
                (X.n, X.table, f"latin with a p-cycle squaring map at size {X.n}")
            )
    if len([X for X in pcycle_latin if X.n == 4]) > 1:
        for X in pcycle_latin:
            if X.n == 4:
                failures.append((X.n, X.table, "second latin class of size 4"))
    return failures, []


def _chk_cabling_laws(X: CycleSet, ctx: dict):
    ks = ctx["ks"]
    # the tower of cablings returns to X after the Dehornoy class d, so k
    # and (k - 1) mod d + 1 name the same cabling; X_1 is X itself, whose
    # group and indecomposability are already cached
    d = X.dehornoy_class()
    cabled: dict[int, CycleSet] = {1: X}

    def cabling(k: int) -> CycleSet:
        r = (k - 1) % d + 1
        if r not in cabled:
            cabled[r] = X.cabling(r)
        return cabled[r]

    fails = []
    T = X.squaring_map
    try:
        gb = brace_of_cycle_set(X)
    except BraceOrderCapExceeded:
        gb = None  # G(X) is past the brace cap: no additive multiples
    else:
        cycles = [gb.brace.additive_cycle(b) for b in range(gb.brace.n)]
    for k in ks:
        try:
            Xk = cabling(k)
        except InvalidCycleSet as exc:
            fails.append(f"cabling {k} does not validate: {exc}")
            continue
        if Xk.squaring_map != power(T, k):
            fails.append(f"cabling {k}: squaring map is not the {k}-th power")
        if gb is not None:
            mult = {gb.elements[cyc[k % len(cyc)]] for cyc in cycles}
            if mult != set(Xk.perm_group.elements):
                fails.append(
                    f"cabling {k}: row group differs from the additive {k}-multiple"
                )
        if X.is_indecomposable and math.gcd(k, X.n) == 1 and not Xk.is_indecomposable:
            fails.append(f"cabling {k} coprime to size broke indecomposability")
    if X.is_indecomposable:
        g = X.perm_group.order
        l = prime_part(g, prime_support(g) - prime_support(X.n))
        Xl = cabling(l)
        if prime_support(Xl.perm_group.order) != prime_support(X.n):
            fails.append(f"{l}-cabling is not of matching prime support")
        p = _is_pcycle(T)
        if p is not None and math.gcd(l, p) == 1 and _is_pcycle(Xl.squaring_map) != p:
            fails.append(f"{l}-cabling destroyed the {p}-cycle squaring map")
    return True, fails


def _chk_block_action(X: CycleSet, ctx: dict):
    if X.n <= 1 or X.is_decomposable or not X.perm_group.is_nilpotent:
        return False, []
    if min(prime_support(X.n)) == X.n:
        return False, []
    p = min(prime_support(X.perm_group.order))
    systems = _p_block_systems(X, p)
    if not systems:
        return True, [f"no block system with {p} blocks exists"]
    fix = X.fixed_points
    for bs in systems:
        actions = [bs.action_of(X.table[z]) for z in range(X.n)]
        has_pcycle = any(_is_pcycle(a) == p for a in actions)
        fixed_trivial = all(
            actions[x] == identity(p) for x in fix
        )
        if has_pcycle and fixed_trivial:
            return True, []
    return True, [
        f"no {p}-block system has a {p}-cycle row action with all squaring-fixed "
        "rows acting trivially"
    ]


def _chk_pair_map_bijective(X: CycleSet, ctx: dict):
    n = X.n
    seen = set()
    for x in range(n):
        for y in range(n):
            seen.add((X.table[x][y], X.table[y][x]))
    if len(seen) == n * n:
        return True, []
    return True, ["(x, y) -> (x.y, y.x) is not a bijection of the square"]


def _chk_coprime_tail_pcycle(X: CycleSet, ctx: dict):
    primes = prime_support(X.n)
    if len(primes) != 1:
        return False, []
    (p,) = primes
    if p == 2 or X.n == p:
        return False, []
    parts = cycle_type(X.squaring_map)
    if parts.count(p) != 1 or any(l % p == 0 for l in parts if l != p):
        return False, []
    if X.is_decomposable:
        return True, []
    return True, [
        f"size {X.n}: one {p}-cycle with coprime tail in the squaring map, "
        "yet indecomposable"
    ]


@dataclass(frozen=True)
class CheckerDef:
    instance: Callable[[CycleSet, dict], tuple[bool, list[str]]]
    census: Callable[[Sequence[CycleSet], dict], tuple[list, list[str]]] | None
    notes: tuple[str, ...] = ()


CHECKERS: dict[str, CheckerDef] = {
    "squarefree": CheckerDef(_chk_squarefree, None),
    "coprime_squaring": CheckerDef(_chk_coprime_squaring, None),
    "prime_support_match": CheckerDef(_chk_prime_support_match, None),
    "nilpotent_factorization": CheckerDef(
        _chk_nilpotent_factorization,
        None,
        notes=(
            "instances above the congruence-search cap "
            f"(size > {CONGRUENCE_MAX_N}) are skipped, not checked",
        ),
    ),
    "pcycle_simple": CheckerDef(_chk_pcycle_simple, None),
    "fixed_point_bound": CheckerDef(
        _chk_fixed_point_bound,
        None,
        notes=(
            "one-point sets are out of scope: the inequality degenerates to "
            "1 <= 0 there, and the block-system argument behind it needs a "
            "prime dividing the group order",
        ),
    ),
    "pcycle_classification": CheckerDef(
        _chk_pcycle_classification, _census_pcycle_classification
    ),
    "block_bound": CheckerDef(
        _chk_block_bound,
        None,
        notes=(
            "a 'system of q blocks' means exactly q blocks, the reading forced "
            "by the p-cycle action on the system",
            "the prime-support inclusion defining k1 is read as non-strict",
        ),
    ),
    "fixed_point_orders": CheckerDef(
        _chk_fixed_point_orders,
        None,
        notes=(
            "hypothesis read as: gcd of size and row order is a power of a "
            "single prime; coprime rows are skipped",
            "instances whose permutation group has more than "
            f"{BRACE_MAX_ORDER} elements (the brace cap) are skipped, not checked",
        ),
    ),
    "latin_fixed_points": CheckerDef(
        _chk_latin_fixed_points, _census_latin_fixed_points
    ),
    "cabling_laws": CheckerDef(
        _chk_cabling_laws,
        None,
        notes=(
            f"when the permutation group has more than {BRACE_MAX_ORDER} "
            "elements (the brace cap), the row group of a cabling is not "
            "compared with the additive multiple; its other laws are checked",
        ),
    ),
    "block_action": CheckerDef(_chk_block_action, None),
    "pair_map_bijective": CheckerDef(_chk_pair_map_bijective, None),
    "coprime_tail_pcycle": CheckerDef(
        _chk_coprime_tail_pcycle,
        None,
        notes=(
            "fixed points are admitted among the non-p cycles (length 1 is "
            "coprime to p)",
        ),
    ),
}


def cabling_indices(ks: Iterable[int]) -> tuple[int, ...]:
    """The cabling indices ``ks`` as a tuple; ValueError if any is below 1."""
    ks = tuple(ks)
    if any(k < 1 for k in ks):
        raise ValueError("cabling indices must be >= 1")
    return ks


def run_checker(
    checker_id: str,
    tables: Sequence[CycleSet | Sequence[Sequence[int]]],
    *,
    scope: str = "",
    ks: Iterable[int] = range(1, 7),
) -> Verdict:
    """The verdict of one checker: :func:`run_all` with that checker alone."""
    return run_all(tables, scope=scope, ks=ks, checker_ids=[checker_id])[0]


def run_all(
    tables: Sequence[CycleSet | Sequence[Sequence[int]]],
    *,
    scope: str = "",
    ks: Iterable[int] = range(1, 7),
    checker_ids: Iterable[str] | None = None,
) -> list[Verdict]:
    """One verdict per checker in ``checker_ids`` (default: all of
    :data:`CHECKERS`), in that order, over ``tables`` with cabling indices
    ``ks``.  Raw tables are validated through :func:`cycle_set` and raise
    :class:`InvalidCycleSet` when one is not a cycle set; ``CycleSet``
    instances are trusted, as their constructor is."""
    ids = list(checker_ids) if checker_ids is not None else list(CHECKERS)
    # validated, materialized and hashed once, then shared by every checker
    tables = [X if isinstance(X, CycleSet) else cycle_set(X) for X in tables]
    ctx = {"ks": cabling_indices(ks)}
    census_hash = hash_tables(tables)
    return [_run(cid, tables, scope, ctx, census_hash) for cid in ids]


def _run(
    checker_id: str,
    tables: list[CycleSet],
    scope: str,
    ctx: dict,
    census_hash: str,
) -> Verdict:
    try:
        cdef = CHECKERS[checker_id]
    except KeyError:
        raise ValueError(f"unknown checker {checker_id!r}") from None
    start = time.monotonic()
    instances = 0
    skipped = 0
    ces: list[Counterexample] = []
    notes = list(cdef.notes)
    for X in tables:
        try:
            applicable, failures = cdef.instance(X, ctx)
        except Exception as exc:
            applicable, failures = True, [
                f"checker raised {type(exc).__name__}: {exc}"
            ]
        if not applicable:
            skipped += 1
            continue
        instances += 1
        for detail in failures:
            ces.append(Counterexample(checker_id, X.n, X.table, detail))
    if cdef.census is not None:
        try:
            extra, extra_notes = cdef.census(tables, ctx)
        except Exception as exc:
            extra, extra_notes = (
                [(0, (), f"census check raised {type(exc).__name__}: {exc}")],
                [],
            )
        for n, table, detail in extra:
            ces.append(Counterexample(checker_id, n, table, detail))
        notes.extend(extra_notes)
    return Verdict(
        checker_id=checker_id,
        scope=scope,
        instances=instances,
        skipped=skipped,
        counterexamples=tuple(ces),
        elapsed=time.monotonic() - start,
        engine_version=VERIFY_VERSION,
        census_hash=census_hash,
        notes=tuple(notes),
    )
