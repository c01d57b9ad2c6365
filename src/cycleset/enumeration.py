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
only tables where no peer of 0, a point other than 0 whose T-cycle is as
long as 0's, has a greater colour than 0 (``canon.colours``: T-cycle
length, row cycle type as a descending tuple, then how many y have
y.x = x), and it prunes by the residual group: the relabelings that fix
0, commute with T and keep every row branched on in place, which before
any row is known is ``_slice_group``, the stabilizer of 0 in the
centralizer of T.  Of the candidates for the next row d, row 0 first, only
the first of each orbit of the elements that fix d is tried.  These rules
lose no class.  The centralizer of T moves any peer of 0 to 0, so any
table of the slice can be relabeled, inside the slice, to put the point of
greatest colour at 0; an element of the residual group that fixes d
carries every completion with the one candidate at d onto an isomorphic
completion with the other (the orbit pruning of McKay, 1981, applied to
rows).  This is the only symmetry-breaking scheme; it changes only speed,
never the set of canonical forms, and is cross-checked against the
unbroken search and the brute-force oracle.  Without symmetry breaking the
search is the union of all n! slices with the identity as residual group,
so it visits every valid table exactly once.  The cycle types and T's
cycle lengths are read from a ``canon.RowFacts``, the table the canonical
labeling reads too.

Candidate rows are generated, not scanned.  One index lists for every cell
(x, v) the permutations p with p[x] = v, and row d starts from the pin
(d, T(d)).  Putting y = d and z = x in the cycloid law gives
T(d.x) = (x.d).T(x), so once row x and row x.d are known, cell (d, x) is
the point T^-1((x.d).T(x)).  Putting y = z = d instead gives
T(x.d) = (d.x).T(d), so while row x.d is unknown a candidate p for row d
needs row p[x], if known, to send T(d) to T(x.d).  These pins and that
rule are applied before any row is tried, so only trials that would fail
anyway are skipped.  The index and the row facts depend only on n, so
``_degree_tables`` keeps them for the last degree searched: every slice,
census, scan and pool task of that degree reads the same two tables, and
nothing writes to the index.  The census builds them before its first
fork, so forked workers inherit them.

The search branches on the unknown row with the fewest candidates, the
lowest index on ties (row 0 at the root, where all tie), so the visit order
is not lexicographic.  Those counts come from the pins alone: m pins at
distinct values leave (n - m)! rows, and two at one value leave none, so
only the chosen row's candidates are listed.  With symmetry breaking, the
cycle-type rule then filters the candidates of a peer of 0, dropping those
of greater cycle type than row 0 before any is placed.  The filter runs
after the choice of row, so it changes neither that choice nor the visit
order; rows forced by propagation are checked as they are forced.  The
orbit pruning, after the filter, and the tie-break of fixing counts,
checked at the leaves, only drop tables and keep the order of the rest.
Every emitted table goes to a ``canon.Classes``, which gives it its
canonical form by one search, so the output is one canonical
representative per isomorphism class, sorted, independent of the number of
jobs and of scheduling.  Every census runs one task per slice, each by the
caller or by one of the workers it forks, none with one job
(``_pool_results``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field, fields
from itertools import permutations, product
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from . import canon
from .canon import SearchCancelled
from .core import CycleSet, Table, validate_table
from .perm import Perm, cycle_type, from_cycles, inverse, is_permutation

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


def _census(
    n: int,
    filt: EnumerationFilter | None,
    reps: Iterable[CycleSet],
    engine_version: str,
    start: float,
) -> Census:
    """The census of size n whose representatives are the tables of
    ``reps``, canonical and sorted, that ``filt`` keeps, all of them when
    it is None; ``start`` is the ``time.monotonic()`` of the call."""
    filt = filt or EnumerationFilter()
    return Census(
        n=n,
        filter_desc=tuple(sorted(filt.describe().items())),
        representatives=tuple(X.table for X in reps if filt.matches(X)),
        engine_version=engine_version,
        elapsed=time.monotonic() - start,
    )


def _partitions(n: int, largest: int | None = None) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _normal_form(parts: Sequence[int]) -> Perm:
    """The squaring map of cycle type ``parts``, a partition listed largest
    part first, in normal form: its cycles laid out on consecutive points."""
    cycs, start = [], 0
    for length in parts:
        cycs.append(range(start, start + length))
        start += length
    return from_cycles(start, cycs)


def _normal_forms(n: int) -> tuple[Perm, ...]:
    """One squaring map per conjugacy class of S_n: the normal form of each
    partition of n, largest part first."""
    return tuple(map(_normal_form, _partitions(n)))


def _squaring_parts(squaring: Sequence[int] | None) -> tuple[int, ...] | None:
    """The cycle type ``squaring``, given in any order, largest part first;
    ``ValueError`` when a part is below 1, as then it is no cycle type."""
    if squaring is None:
        return None
    parts = tuple(sorted(squaring, reverse=True))
    if parts and parts[-1] < 1:
        raise ValueError(f"squaring cycle type {list(squaring)} has a part below 1")
    return parts


@functools.lru_cache(maxsize=1)
def _degree_tables(n: int) -> tuple[Sequence[Sequence[Sequence[Perm]]], canon.RowFacts]:
    """(cells, facts) for degree n: cells[x][v] lists the permutations p of
    degree n with p[x] == v, in lexicographic order, and facts is a
    ``canon.RowFacts`` for the rows and squaring maps of that degree.  Only
    the last degree's pair is kept (at n = 8, about 7 MB of index and up to
    13 MB of facts on Python 3.11); the index is built of tuples, as every
    caller shares it."""
    cells: list[list[list[Perm]]] = [[[] for _ in range(n)] for _ in range(n)]
    for p in permutations(range(n)):
        for x, v in enumerate(p):
            cells[x][v].append(p)
    return tuple(tuple(map(tuple, row)) for row in cells), canon.RowFacts()


def _orbit_representatives(
    rows: Sequence[Perm], group: Sequence[Perm]
) -> dict[Perm, list[Perm]]:
    """The first row of ``rows`` in each orbit of ``group`` acting by
    conjugation, p -> phi p phi^-1, each with its stabilizer in ``group``,
    which must hold the identity."""
    reps: dict[Perm, list[Perm]] = {}
    seen: set[Perm] = set()
    for p in rows:
        if p in seen:
            continue
        stab = reps[p] = []
        for phi in group:
            q = [0] * len(p)
            for i, v in enumerate(p):
                q[phi[i]] = phi[v]
            q = tuple(q)
            if q == p:
                stab.append(phi)
            seen.add(q)
    return reps


def _slice_group(diagonal: Perm) -> list[Perm]:
    """The stabilizer of point 0 in the centralizer of T, the permutations
    fixing 0 that commute with T: the residual group of a slice's search
    before any row is known, as it keeps T and point 0 in place."""
    n = len(diagonal)
    return [
        phi for phi in _degree_tables(n)[0][0][0]
        if all(phi[diagonal[x]] == diagonal[phi[x]] for x in range(n))
    ]


def _search(
    diagonal: Perm,
    emit: Callable[[Table], None],
    symmetry_breaking: bool = True,
    cancel=None,
) -> None:
    """Backtracking core over the tables whose row x maps x to diagonal[x].
    Symmetry breaking rejects a row at a peer of 0, a point other than 0
    on a T-cycle as long as 0's, of greater cycle type than row 0: it is
    dropped from the candidates of the row branched on, or checked when
    forced.  Every branching, row 0's at the root included, tries one
    candidate per orbit of the residual group, ``_slice_group`` at the root,
    and a leaf is rejected when a peer has a greater ``canon.colours`` than
    0.  Each table that is kept goes to ``emit``.  ``cancel`` is polled at
    the first node and then every 512 nodes.  The row branched on is the one
    with the fewest candidates, counted from its pins before any list is
    built.  Candidates come from the cell index, and cycle types and T's
    cycle lengths from the row facts, of ``_degree_tables``."""
    n = len(diagonal)
    cells, facts = _degree_tables(n)
    rows: list[Perm | None] = [None] * n
    t_inv = inverse(diagonal)
    factorials = [factorial(m) for m in range(n)]
    pending: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nodes = 0
    # the peers of 0: the centralizer of T moves any of them to 0, so with
    # symmetry breaking no row of theirs outranks row 0
    group, peers = [tuple(range(n))], set()
    if symmetry_breaking:
        length = facts[diagonal][0]
        group = _slice_group(diagonal)
        peers = {x for x in range(1, n) if length[x] == length[0]}
    top: tuple[int, ...] = ()

    def force(y: int, q: Perm, trail: list, queue: list) -> bool:
        nonlocal top
        if q[y] != diagonal[y]:
            return False
        if y == 0:
            top = facts[q][1]
        elif y in peers and facts[q][1] > top:
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

    def pins(d: int) -> list[tuple[int, int]] | None:
        """The cells of row d that T pins, as (position, value): the
        diagonal cell, and cell x wherever row x and row c = x.d are known,
        since T(d.x) = c.T(x); None when two pins share a value, as then
        no row fits them."""
        out = [(d, diagonal[d])]
        values = 1 << diagonal[d]
        for x in range(n):
            rx = rows[x]
            if rx is not None:
                rc = rows[rx[d]]
                if rc is not None:
                    a = t_inv[rc[rx[x]]]
                    if values >> a & 1:
                        return None
                    values |= 1 << a
                    out.append((x, a))
        return out

    def extend(group: Sequence[Perm]) -> None:
        """Branch below the current rows; ``group`` is the residual group,
        the relabelings that fix 0, commute with T and fix every point
        branched on so far and its row, so they carry the known rows onto
        themselves and any completion onto an isomorphic one."""
        nonlocal nodes
        nodes += 1
        if cancel is not None and nodes % 512 == 1 and cancel.is_set():
            raise SearchCancelled
        unknown = [x for x in range(n) if rows[x] is None]
        if not unknown:
            if peers:
                colour = canon.colours(rows, facts)  # type: ignore[arg-type]
                if any(colour[x] > colour[0] for x in peers):
                    return
            emit(tuple(rows))  # type: ignore[arg-type]
            return
        # the most constrained row, lowest index on ties: row 0 at the root;
        # a row with m pins, its diagonal cell's among them, has (n - m)!
        # candidates, and only the chosen row's are listed
        d, size, pinned = -1, 0, []
        for x in unknown:
            pin = pins(x)
            if pin is None:
                return
            if d < 0 or factorials[n - len(pin)] < size:
                d, size, pinned = x, factorials[n - len(pin)], pin
        cands: Sequence[Perm] = cells[d][diagonal[d]]
        for x, a in pinned[1:]:
            cands = [p for p in cands if p[x] == a]
        # with row x known and row b = x.d not, a candidate p with p[x] = a,
        # row a known, forces row b to sigma_a p sigma_x^-1, whose diagonal
        # cell is sigma_a(T(d)): the candidates for which that is not T(b)
        # are the trials force would reject
        td = diagonal[d]
        sends = [(a, ra[td]) for a, ra in enumerate(rows) if ra is not None]
        for x, rx in enumerate(rows):
            if rx is not None and rows[rx[d]] is None:
                tb = diagonal[rx[d]]
                bad = {a for a, v in sends if v != tb}
                if bad:
                    cands = [p for p in cands if p[x] not in bad]
        if d in peers:
            # the rows that force would reject, dropped before they are
            # placed; the order of the rest is kept
            cands = [p for p in cands if facts[p][1] <= top]
        # the residual group is the identity alone at most nodes, and then
        # nothing is pruned and nothing computed
        stabs = None
        if len(group) > 1:
            group = [phi for phi in group if phi[d] == d]
            if len(group) > 1:
                stabs = _orbit_representatives(cands, group)
        for p in cands if stabs is None else stabs:
            trail: list = []
            if place(d, p, trail):
                extend(group if stabs is None else stabs[p])
            undo(trail)

    extend(group)


def _diagonals(
    n: int,
    symmetry_breaking: bool,
    diagonal: Perm | None,
    squaring: Sequence[int] | None = None,
) -> tuple[Perm, ...]:
    """Entry check shared by every census call (size, size cap, degree of
    the diagonal and that it is a permutation, and that ``squaring``, a
    cycle type in any order, has no part below 1), then the diagonals whose
    slices make up the search: the given one, else one normal form per
    partition of n, or every permutation without symmetry breaking, of the
    cycle type ``squaring`` alone when it is given, and none when that is a
    partition of another size."""
    if n < 1:
        raise ValueError("size must be >= 1")
    cap = size_cap()
    if n > cap:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {cap} (set {MAX_N_ENV} to raise it)"
        )
    parts = _squaring_parts(squaring)
    if diagonal is not None:
        if len(diagonal) != n:
            raise ValueError("diagonal constraint has wrong degree")
        if not is_permutation(diagonal):
            raise ValueError("diagonal constraint is not a permutation")
        return (tuple(diagonal),)
    if parts is not None:
        if sum(parts) != n:
            return ()
        if symmetry_breaking:
            return (_normal_form(parts),)
        return tuple(p for p in permutations(range(n)) if cycle_type(p) == parts)
    if symmetry_breaking:
        return _normal_forms(n)
    return tuple(permutations(range(n)))


def _census_classes(diagonal: Perm, symmetry_breaking: bool, cancel) -> set[Table]:
    """Search the slice of ``diagonal``, of degree len(diagonal), and return
    the canonical forms of the classes of the tables it emits, by one
    ``canon.Classes`` that reads the row facts of ``_degree_tables``."""
    facts = _degree_tables(len(diagonal))[1]
    # canon takes a plain callable, not an Event
    classes = canon.Classes(cancel.is_set if cancel is not None else None, facts)
    _search(diagonal, classes.add, symmetry_breaking, cancel)
    return classes.found


def _worker(conn) -> None:
    """Run the tasks that arrive on ``conn`` until the pool kills the
    worker or closes the pipe, answering each with (True, its classes) or
    (False, the exception it raised).  A task (diagonal, symmetry_breaking)
    is one slice; it takes no cancel event, as the pool kills its workers."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply = True, _census_classes(*task, None)
        except Exception as exc:
            reply = False, exc
        conn.send(reply)


def _pool_results(tasks: Sequence[tuple], processes: int, cancel) -> Iterator[set[Table]]:
    """Yield ``_census_classes(*task, ...)`` for each of ``tasks``, run by
    the caller and by ``processes - 1`` worker processes, so
    ``processes == 1`` forks none and the caller runs every task.
    Tasks are handed out in order.  Each worker holds two tasks, one running
    and one waiting in its pipe, and is refilled as it replies; the caller
    runs the next task itself once every worker that replied is refilled,
    so no worker idles while the caller is busy, and the last task is
    always run by the caller.  The caller's own tasks poll ``cancel``
    through the search, and it is polled every 0.1 s while the caller only
    waits; with no worker busy the caller waits for none.  Every worker
    talks to the caller over its own pipe and shares no lock, so killing one
    mid-reply cannot block the caller, as it can with a
    ``multiprocessing.Pool``, whose workers share one result queue and its
    lock; a worker that exits without a reply raises.  While two or more
    processes run, the caller is pinned to the lowest CPU of its affinity
    mask and each worker, right after it starts, to the rest, so no worker
    shares a CPU with the caller; placement is skipped without
    ``os.sched_setaffinity`` or with a mask of one CPU, and a placement
    the system refuses is ignored.  Closing the generator kills and joins
    the workers and gives the caller back its mask, whether the tasks are
    done, cancelled or interrupted, or one raised."""
    todo = list(reversed(tasks))  # todo.pop() is the next task
    workers = {}
    held = {}  # tasks sent to each worker and not yet answered
    cpus = []  # the caller's mask, sorted, while the pool places processes
    if processes > 1 and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))

    def place(pid: int, mask: Sequence[int]) -> None:
        if len(cpus) > 1:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(pid, mask)

    def exited(conn) -> RuntimeError:
        proc = workers[conn]
        proc.join(1)  # the pipe closes just before the exit code is set
        return RuntimeError(f"a census worker exited with code {proc.exitcode}")

    def feed(conn, depth: int) -> None:
        # the last task is left to the caller, which reads replies only
        # between its own tasks and so is always free to run it
        while len(todo) > 1 and held[conn] < depth:
            try:
                conn.send(todo.pop())
            except ConnectionError:
                raise exited(conn) from None
            held[conn] += 1

    try:
        place(0, cpus[:1])
        for _ in range(processes - 1):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_worker, args=(child,), daemon=True)
            proc.start()
            place(proc.pid, cpus[1:])
            child.close()
            workers[conn] = proc
            held[conn] = 0
        # one task to each worker, then a second, so the first tasks, the
        # costliest, start at once on different workers
        for depth in (1, 2):
            for conn in workers:
                feed(conn, depth)
        while todo or any(held.values()):
            if cancel is not None and cancel.is_set():
                raise SearchCancelled
            busy = [conn for conn in workers if held[conn]]
            # only look while the caller has a task to run, else wait; with
            # no worker busy there is nothing to look at
            ready = busy and multiprocessing.connection.wait(busy, timeout=0 if todo else 0.1)
            for conn in ready:
                try:
                    ok, result = conn.recv()
                # a worker that exits with a task unread resets its pipe
                except (EOFError, ConnectionError):
                    raise exited(conn) from None
                if not ok:
                    raise result
                held[conn] -= 1
                feed(conn, 2)
                yield result
            if todo:
                yield _census_classes(*todo.pop(), cancel)
    finally:
        place(0, cpus)
        for conn, proc in workers.items():
            proc.kill()
            proc.join()
            conn.close()


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
    Each slice is one task, and the tasks run in the caller and
    min(jobs, tasks, usable CPUs) - 1 forked workers, so ``jobs=1``, a given
    ``diagonal`` and n = 1 fork nothing, ``jobs=2`` forks one process, and a
    large ``jobs`` starts no more processes than there is work or hardware
    for; the usable CPUs are those of the process's affinity mask where the
    platform has one.  While a pool of two or more processes runs, the
    caller keeps the lowest CPU of that mask and the workers get the rest
    (see ``_pool_results``).  Every task passes ``symmetry_breaking``
    through, and each class a task returns is validated as it is merged,
    while the workers run on, so the census wraps checked tables.
    A filter's ``squaring_cycle_type`` chooses the slices: without a
    ``diagonal`` only those whose squaring map has that cycle type are
    searched, none when it is a partition of another size, and the filter,
    which still runs on every class, keeps them all; a part below 1 raises
    ``ValueError``.  ``progress``, if given, receives "task k/N merged" as
    each of the N tasks is merged.  Setting ``cancel`` raises ``SearchCancelled`` at the
    next poll of the search, or within about 0.1 s while the caller waits
    for a worker.  The workers are killed when the census returns or
    raises, so no worker outlives the call (see ``_pool_results``).
    ``jobs`` below 1 raises ``ValueError``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.monotonic()
    squaring = filt.squaring_cycle_type if filt is not None else None
    diagonals = _diagonals(n, symmetry_breaking, diagonal, squaring)
    # normal forms end with the slices of many fixed points, the costliest,
    # so they go first and the small slices fill in beside them
    tasks = [(d, symmetry_breaking) for d in reversed(diagonals)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    processes = min(jobs, len(tasks), cpus)
    # built before the first fork, so forked workers inherit the cell index
    # and the row facts
    _degree_tables(n)
    canon_set = set()
    # leaving the with block kills the workers, whether the census is done,
    # cancelled or interrupted, or a task raised
    with contextlib.closing(_pool_results(tasks, processes, cancel)) as results:
        for merged, classes in enumerate(results, 1):
            # checked here, while the workers run their next tasks
            for t in classes:
                validate_table(t)
            canon_set.update(classes)
            if progress is not None:
                progress(f"task {merged}/{len(tasks)} merged")

    return _census(n, filt, map(CycleSet, sorted(canon_set)), ENGINE_VERSION, start)


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
    diagonal's slice) restricted: no peer of 0, a point other than 0 whose
    T-cycle is as long as 0's, has a greater ``canon.colours`` than 0, and
    at every branching, row 0's included, one candidate per orbit of the
    residual group is tried, starting from ``_slice_group``.  Relabeling by
    the centralizer of T brings any table of the slice to that form, so at
    least one table of every isomorphism class is visited, though a class
    may be seen several times (112 tables for the 88 classes of size 5).
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

    for d in diagonals:
        _search(d, emit, symmetry_breaking, cancel)
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
    if filt is not None:
        _squaring_parts(filt.squaring_cycle_type)
    start = time.monotonic()
    perms = tuple(permutations(range(n)))
    canon_reps = sorted({
        _naive_canonical(t, perms, n)
        for t in product(perms, repeat=n)
        if _naive_valid(t, n)
    })
    return _census(n, filt, map(CycleSet, canon_reps), "cycleset-brute/1", start)
