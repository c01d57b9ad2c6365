"""Exhaustive, isomorphism-free enumeration of cycle sets of a given size.

The search fills the table row by row.  Placing a row triggers constraint
propagation: for every pair of known rows x, y the cycloid law pins the rows
indexed by x.y and y.x to each other (sigma_{x.y} o sigma_x = sigma_{y.x} o
sigma_y), so as soon as one of those two rows is known the other is forced
outright, and when neither is known the pair is parked until one appears.

The census is a union of slices, one per diagonal, that is one per
squaring map T(x) = x.x.  Relabeling a table conjugates its squaring map,
so with symmetry breaking the full census searches one slice per conjugacy
class of S_n, that is per partition of n, with T in normal form (its cycles
on consecutive points, largest first).  Inside a slice the search keeps
only tables whose row 0 has the greatest cycle type (a descending tuple,
compared lexicographically) among the rows of the points whose T-cycle is
as long as 0's, and restricts row 0 to ``_slice_first_rows``: one
representative per conjugation orbit of the relabelings that fix point 0
and commute with T.  Both rules lose no class.  The centralizer of T moves
any point of a T-cycle as long as 0's to 0, so any table of the slice can
be relabeled, inside the slice, to put the point with the greatest row
cycle type at 0; relabeling by the stabilizer of 0 then canonicalizes row
0 without changing any row's cycle type.  This is the only
symmetry-breaking scheme; it changes only speed, never the set of
canonical forms, and is cross-checked against the unbroken search and the
brute-force oracle.  Without symmetry breaking the search is the union of
all n! slices with no restriction on row 0, so it visits every valid table
exactly once.

Candidate rows are generated, not scanned.  One index, built once per
census and shared by its slices, lists for every cell (x, v) the
permutations p with p[x] = v, and row d starts from the pin (d, T(d)).
Putting y = d and z = x in the cycloid law gives T(d.x) = (x.d).T(x), so
once row x and row x.d are known, cell (d, x) is the point
T^-1((x.d).T(x)).  These pins are intersected before any row is tried, so
only trials that would fail anyway are skipped.

Row 0 is chosen first; below it the search branches on the unknown row with
the fewest candidates, the lowest index on ties, so the visit order is not
lexicographic.  With symmetry breaking, the cycle-type rule then filters the
rows tried: when the row branched on is at a point of a T-cycle as long as
0's, its candidates of greater cycle type than row 0 are dropped before any
is placed.  The filter runs after the choice of row, so it changes neither
that choice nor the visit order; rows forced by propagation are checked as
they are forced.  Every emitted table is reduced to its class key
(``canon.class_key``), a complete isomorphism invariant that is cheap to
compute; once the search is done the full canonical form is computed once
per distinct key, starting from the automorphisms found by the key search,
so the output is one canonical representative per isomorphism class,
sorted, independent of the number of jobs and of scheduling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields
from itertools import permutations, product
from typing import Callable, Iterable, Sequence

from . import canon
from .canon import SearchCancelled
from .core import CycleSet, Table, cycle_set
from .perm import Perm, cycle_type, cycles, from_cycles, inverse, is_permutation

ENGINE_VERSION = "cycleset-enum/1"
DEFAULT_MAX_N = 8
MAX_N_ENV = "CYCLESET_MAX_N"


def size_cap() -> int:
    raw = os.environ.get(MAX_N_ENV)
    if not raw:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class EnumerationFilter:
    """Conjunction of optional per-class conditions; None means no constraint.
    All conditions are isomorphism invariants, so filtering representatives
    filters classes."""

    indecomposable: bool | None = None
    latin: bool | None = None
    simple: bool | None = None
    irretractable: bool | None = None
    nilpotent_group: bool | None = None
    squaring_cycle_type: tuple[int, ...] | None = None
    group_order: int | Callable[[int], bool] | None = None

    def matches(self, X: CycleSet) -> bool:
        if self.indecomposable is not None and X.is_indecomposable != self.indecomposable:
            return False
        if self.latin is not None and X.is_latin != self.latin:
            return False
        if self.irretractable is not None and X.is_irretractable != self.irretractable:
            return False
        if self.squaring_cycle_type is not None:
            if cycle_type(X.squaring_map) != tuple(
                sorted(self.squaring_cycle_type, reverse=True)
            ):
                return False
        if self.group_order is not None:
            order = X.perm_group.order
            if callable(self.group_order):
                if not self.group_order(order):
                    return False
            elif order != self.group_order:
                return False
        if self.nilpotent_group is not None and X.perm_group.is_nilpotent != self.nilpotent_group:
            return False
        if self.simple is not None and X.is_simple != self.simple:
            return False
        return True

    def describe(self) -> dict:
        """The set conditions, JSON-ready: a predicate by its name."""
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            elif callable(v):
                v = getattr(v, "__name__", "predicate")
            if v is not None:
                out[f.name] = v
        return out


@dataclass(frozen=True)
class Census:
    """Deduplicated enumeration result.  ``representatives`` are canonical
    tables, sorted; ``elapsed`` is informational and excluded from the
    byte-level identity of the census."""

    n: int
    filter_desc: tuple[tuple[str, object], ...]
    representatives: tuple[Table, ...]
    engine_version: str
    elapsed: float = field(compare=False)

    @property
    def count(self) -> int:
        return len(self.representatives)

    def cycle_sets(self) -> tuple[CycleSet, ...]:
        return tuple(CycleSet(t) for t in self.representatives)

    def canonical_bytes(self) -> bytes:
        payload = {
            "n": self.n,
            "filter": {k: v for k, v in self.filter_desc},
            "count": self.count,
            "representatives": [
                [list(row) for row in t] for t in self.representatives
            ],
            "engine_version": self.engine_version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _partitions(n: int, largest: int | None = None) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _normal_forms(n: int) -> tuple[Perm, ...]:
    """One squaring map per conjugacy class of S_n: for each partition of n,
    largest part first, the permutation whose cycles are those parts laid
    out on consecutive points."""
    out = []
    for parts in _partitions(n):
        cycs, start = [], 0
        for length in parts:
            cycs.append(range(start, start + length))
            start += length
        out.append(from_cycles(n, cycs))
    return tuple(out)


def _cell_index(n: int) -> list[list[list[Perm]]]:
    """cells[x][v]: the permutations p of degree n with p[x] == v, in
    lexicographic order."""
    cells: list[list[list[Perm]]] = [[[] for _ in range(n)] for _ in range(n)]
    for p in permutations(range(n)):
        for x, v in enumerate(p):
            cells[x][v].append(p)
    return cells


def _slice_first_rows(
    diagonal: Perm, cells: Sequence[Sequence[Sequence[Perm]]]
) -> tuple[Perm, ...]:
    """Row-0 candidates for a fixed-diagonal search, read from its cell
    index: one row of ``cells[0][T(0)]`` per conjugation orbit of the
    stabilizer of point 0 in the centralizer of T, the rows of
    ``cells[0][0]`` that commute with T.  Relabeling by the stabilizer keeps
    the diagonal and row 0 in place, so for any table in the slice the
    element that canonicalizes its row 0 gives an isomorphic table still in
    the slice whose row 0 is the chosen representative, and the restriction
    loses no isomorphism class."""
    n = len(diagonal)
    stab = [
        phi for phi in cells[0][0]
        if all(phi[diagonal[x]] == diagonal[phi[x]] for x in range(n))
    ]
    reps: list[Perm] = []
    seen: set[Perm] = set()
    for p in cells[0][diagonal[0]]:
        if p in seen:
            continue
        reps.append(p)
        for phi in stab:
            q = [0] * n
            for i in range(n):
                q[phi[i]] = phi[p[i]]
            seen.add(tuple(q))
    return tuple(reps)


def _search(
    n: int,
    diagonal: Perm,
    emit: Callable[[Table], None],
    symmetry_breaking: bool = True,
    cancel=None,
    *,
    cells: Sequence[Sequence[Sequence[Perm]]],
) -> None:
    """Backtracking core over the tables whose row x maps x to diagonal[x].
    Symmetry breaking restricts row 0 to ``_slice_first_rows`` and rejects
    a row at a point of a T-cycle as long as 0's whose cycle type is greater
    than row 0's: such rows are dropped from the candidates of the row
    branched on, and a forced row is checked when it is forced.  ``cancel``
    is polled at the first node and then every 512 nodes.  ``cells`` is
    ``_cell_index(n)``, which a census builds once for all its slices."""
    rows: list[Perm | None] = [None] * n
    t_inv = inverse(diagonal)
    pending: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nodes = 0
    # the points on T-cycles as long as 0's: the centralizer of T moves any
    # of them to 0, so with symmetry breaking no row of theirs outranks row 0
    length = {x: len(c) for c in cycles(diagonal) for x in c}
    eligible = set()
    if symmetry_breaking:
        eligible = {x for x in range(n) if length[x] == length[0]}
    top: tuple[int, ...] = ()
    ranks: dict[Perm, tuple[int, ...]] = {}  # cycle types of rows tried at them

    def rank(q: Perm) -> tuple[int, ...]:
        r = ranks.get(q)
        if r is None:
            r = ranks[q] = cycle_type(q)
        return r

    def force(y: int, q: Perm, trail: list, queue: list) -> bool:
        nonlocal top
        if q[y] != diagonal[y]:
            return False
        if y in eligible:
            if y == 0:
                top = rank(q)
            elif rank(q) > top:
                return False
        rows[y] = q
        trail.append((0, y))
        queue.append(y)
        return True

    def pair(x: int, j: int, trail: list, queue: list) -> bool:
        rx = rows[x]
        rj = rows[j]
        a = rx[j]
        b = rj[x]
        ra = rows[a]
        rb = rows[b]
        if ra is not None:
            if rb is not None:
                for i in range(n):
                    if ra[rx[i]] != rb[rj[i]]:
                        return False
                return True
            q = [0] * n
            for i in range(n):
                q[rj[i]] = ra[rx[i]]
            return force(b, tuple(q), trail, queue)
        if rb is not None:
            q = [0] * n
            for i in range(n):
                q[rx[i]] = rb[rj[i]]
            return force(a, tuple(q), trail, queue)
        pending[a].append((x, j))
        trail.append((1, a))
        return True

    def place(x: int, p: Perm, trail: list) -> bool:
        queue: list[int] = []
        if not force(x, p, trail, queue):
            return False
        qi = 0
        while qi < len(queue):
            r = queue[qi]
            qi += 1
            for j in range(n):
                if j == r or rows[j] is None:
                    continue
                if not pair(r, j, trail, queue):
                    return False
            for px, pj in pending[r]:
                if not pair(px, pj, trail, queue):
                    return False
        return True

    def undo(trail: list) -> None:
        for kind, v in reversed(trail):
            if kind == 0:
                rows[v] = None
            else:
                pending[v].pop()

    def candidates(d: int) -> Sequence[Perm]:
        """The rows that agree with every cell of row d that T pins: the
        diagonal cell, and cell x wherever row x and row c = x.d are known,
        since T(d.x) = c.T(x)."""
        cands: Sequence[Perm] = cells[d][diagonal[d]]
        for x in range(n):
            rx = rows[x]
            if rx is not None:
                rc = rows[rx[d]]
                if rc is not None:
                    a = t_inv[rc[rx[x]]]
                    cands = [p for p in cands if p[x] == a]
        return cands

    def extend() -> None:
        nonlocal nodes
        nodes += 1
        if cancel is not None and nodes % 512 == 1 and cancel.is_set():
            raise SearchCancelled
        unknown = [x for x in range(n) if rows[x] is None]
        if not unknown:
            emit(tuple(rows))  # type: ignore[arg-type]
            return
        if unknown[0] == 0 and symmetry_breaking:
            d, cands = 0, _slice_first_rows(diagonal, cells)
        else:
            # the most constrained row, lowest index on ties
            d, cands = -1, None
            for x in unknown:
                c = candidates(x)
                if cands is None or len(c) < len(cands):
                    d, cands = x, c
                    if not c:
                        return
            if d in eligible:
                # the rows that force would reject, dropped before they are
                # placed; the order of the rest is kept
                cands = [p for p in cands if rank(p) <= top]
        for p in cands:
            trail: list = []
            if place(d, p, trail):
                extend()
            undo(trail)

    extend()


def _diagonals(
    n: int, symmetry_breaking: bool, diagonal: Perm | None
) -> tuple[Perm, ...]:
    """Entry check shared by every census call (size, size cap, degree of
    the diagonal and that it is a permutation), then the diagonals whose
    slices make up the search: the given one, else one normal form per
    partition of n, or every permutation without symmetry breaking."""
    if n < 1:
        raise ValueError("size must be >= 1")
    cap = size_cap()
    if n > cap:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {cap} (set {MAX_N_ENV} to raise it)"
        )
    if diagonal is not None:
        if len(diagonal) != n:
            raise ValueError("diagonal constraint has wrong degree")
        if not is_permutation(diagonal):
            raise ValueError("diagonal constraint is not a permutation")
        return (tuple(diagonal),)
    if symmetry_breaking:
        return _normal_forms(n)
    return tuple(permutations(range(n)))


def _census_classes(
    n: int, diagonals: Sequence[Perm], symmetry_breaking: bool, cancel
) -> set[Table]:
    """Search the slices of ``diagonals`` over one cell index, keep the class
    key of each table they emit, then return the canonical form of each
    distinct key, its search seeded with the automorphisms that the key
    search of the key's first table found.  One table of row facts serves
    every slice and both stages, and the T-cycle lengths, which every table
    of a slice shares, are computed once per slice."""
    # canon takes a plain callable, not an Event
    poll = cancel.is_set if cancel is not None else None
    # each distinct key with its first table's automorphisms, carried to
    # the key's labels
    keys: dict[Table, canon.Autos] = {}
    facts = canon.RowFacts()

    def emit(t: Table) -> None:
        autos: canon.Autos = []
        colours = canon._colour_cells(t, facts, t_len)
        rho, key = canon._lex_min(t, colours, poll, autos, facts)
        if key not in keys:
            keys[key] = canon._carry_autos(autos, rho)

    cells = _cell_index(n)
    for d in diagonals:
        t_len = canon._orbit_sizes(d)
        _search(n, d, emit, symmetry_breaking, cancel=cancel, cells=cells)
    return {
        canon._lex_min(k, [range(n)], poll, autos, facts)[1]
        for k, autos in keys.items()
    }


def _census_task(args: tuple) -> list[Table]:
    """The classes of one slice, the pool's unit of work.  It takes no
    cancel event: the pool stops its workers by terminating them."""
    n, diagonal, symmetry_breaking = args
    return sorted(_census_classes(n, (diagonal,), symmetry_breaking, None))


def enumerate_cycle_sets(
    n: int,
    filt: EnumerationFilter | None = None,
    *,
    symmetry_breaking: bool = True,
    jobs: int = 1,
    diagonal: Perm | None = None,
    cancel=None,
    progress: Callable[[str], None] | None = None,
) -> Census:
    """Census of all cycle sets of size n up to isomorphism, filtered.
    With jobs > 1 and more than one slice, each slice is one task and the
    tasks run in a process pool of min(jobs, tasks, CPUs) workers, so a
    large ``jobs`` starts no more processes than there is work or hardware
    for.  Every task passes ``symmetry_breaking`` through, so without it the
    pool path is the unbroken search too.  Setting ``cancel`` raises
    ``SearchCancelled`` at the next poll of the search, or within about
    0.1 s on the pool path.  The pool's workers are terminated when it
    returns or raises, so no worker outlives the call."""
    filt = filt or EnumerationFilter()
    start = time.monotonic()
    diagonals = _diagonals(n, symmetry_breaking, diagonal)
    if jobs <= 1 or len(diagonals) == 1:
        canon_set = _census_classes(n, diagonals, symmetry_breaking, cancel)
    else:
        canon_set = set()
        # normal forms end with the slices of many fixed points, the
        # costliest, so they go first and the small slices fill in beside
        # them
        tasks = [(n, d, symmetry_breaking) for d in reversed(diagonals)]
        # leaving the with block terminates the workers, whether the census
        # is done, cancelled or interrupted, or a task raised
        with multiprocessing.Pool(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            results = pool.imap_unordered(_census_task, tasks)
            merged = 0
            while merged < len(tasks):
                if cancel is not None and cancel.is_set():
                    raise SearchCancelled
                try:
                    canon_set.update(results.next(timeout=0.1))
                except multiprocessing.TimeoutError:
                    continue
                merged += 1
                if progress is not None:
                    progress(f"task {merged}/{len(tasks)} merged")

    reps = [cycle_set(t) for t in sorted(canon_set)]
    kept = tuple(X.table for X in reps if filt.matches(X))
    return Census(
        n=n,
        filter_desc=tuple(sorted(filt.describe().items())),
        representatives=kept,
        engine_version=ENGINE_VERSION,
        elapsed=time.monotonic() - start,
    )


def scan_cycle_sets(
    n: int,
    visit: Callable[[Table], None],
    *,
    symmetry_breaking: bool = True,
    diagonal: Perm | None = None,
    cancel=None,
) -> int:
    """Stream every completed table of the search to ``visit`` without
    canonicalizing or deduplicating.  With symmetry breaking on, the
    visited tables are the union of the normal-form slices (or of the given
    diagonal's slice) with row 0 restricted: row 0 has the greatest cycle
    type among the rows of the points whose T-cycle is as long as 0's, and
    is one of ``_slice_first_rows``.  Relabeling by the centralizer of T
    brings any table of the slice to that form, so at least one table of
    every isomorphism class is visited, though a class may be seen several
    times (123 tables for the 88 classes of size 5).
    Without it every valid table (of the slice) is visited exactly once.
    This is the tool of choice when the property being checked is
    isomorphism-invariant and the size makes canonical labeling the
    dominant cost of a full census.
    Exceptions raised by ``visit`` abort the scan and propagate.  Returns the
    number of tables visited."""
    diagonals = _diagonals(n, symmetry_breaking, diagonal)
    count = 0

    def emit(t: Table) -> None:
        nonlocal count
        count += 1
        visit(t)

    cells = _cell_index(n)
    for d in diagonals:
        _search(n, d, emit, symmetry_breaking, cancel=cancel, cells=cells)
    return count


# ---------------------------------------------------------------------------
# independent brute-force oracle


def _naive_valid(t: Sequence[Perm], n: int) -> bool:
    for x in range(n):
        for y in range(n):
            txy = t[x][y]
            tyx = t[y][x]
            for z in range(n):
                if t[txy][t[x][z]] != t[tyx][t[y][z]]:
                    return False
    return len({t[x][x] for x in range(n)}) == n


def _naive_relabel(t: Sequence[Perm], rho: Perm, n: int) -> Table:
    """t with every point x renamed rho[x]."""
    inv = sorted(range(n), key=rho.__getitem__)  # rho^-1
    return tuple(
        tuple(rho[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )


def _naive_canonical(t: Sequence[Perm], perms: Sequence[Perm], n: int) -> Table:
    """The lex-least of the relabelings of t by every permutation in perms."""
    return min(_naive_relabel(t, rho, n) for rho in perms)


def brute_force_census(n: int, filt: EnumerationFilter | None = None) -> Census:
    """Scan every tuple of row permutations and keep the valid tables,
    deduplicated by their lex-least relabeling, found by trying all n!
    relabelings.  Independent of the main engine: element-form cycloid
    check, no propagation, no symmetry breaking, no canonical-labeling
    search.  Only feasible for n <= 4."""
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > 4:
        raise ValueError("brute-force oracle is limited to n <= 4")
    filt = filt or EnumerationFilter()
    start = time.monotonic()
    perms = tuple(permutations(range(n)))
    canon_reps = sorted({
        _naive_canonical(t, perms, n)
        for t in product(perms, repeat=n)
        if _naive_valid(t, n)
    })
    kept = tuple(
        t for t in canon_reps if filt.matches(CycleSet(t))
    )
    return Census(
        n=n,
        filter_desc=tuple(sorted(filt.describe().items())),
        representatives=kept,
        engine_version="cycleset-brute/1",
        elapsed=time.monotonic() - start,
    )
