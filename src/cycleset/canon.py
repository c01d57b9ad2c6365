"""Lex-minimal canonical labeling for square operation tables.

The canonical form of a table ``t`` over {0..n-1} is the lexicographically
least row-major flattening of ``rho . t . rho^-1`` over all relabelings
``rho``.  Candidates are scanned with an early-exit comparison: a relabeling
is abandoned at the first cell where it is strictly worse than the incumbent,
so the full table is materialized only for genuine improvements.  This keeps
the worst case (highly symmetric tables, where branchy searches degenerate)
at a flat n! * small cost, which is fine at the degrees used here.

A census deduplicates in two stages, so that the n! scan runs once per
isomorphism class rather than once per emitted table.

1. ``class_key`` colours the points by invariants (the length of the cycle
   of the squaring map T(x) = x.x through x, the cycle type of the row of x,
   and how many y have y.x = x), refines the colours to a fixed point by
   the colours a point meets in its row and column (the vertex-invariant
   step of McKay's *Practical graph isomorphism*, 1981), and orders the
   colour cells by colour value, never by point index.  The key is the
   lex-least relabeled table over the relabelings that send each cell, in
   order, onto consecutive labels: the product of the cell factorials, not
   n!.  It is a complete invariant by construction.  Relabeling a table
   carries its colours, hence its admissible relabelings, along with it, so
   isomorphic tables scan the same set of images and get the same key; and
   the key is itself a relabeling of its table, so tables with the same key
   are isomorphic.  A weak refinement only makes the key slower, never
   wrong.  With a single cell the key is the canonical form.
2. The public form, ``canonical_form``, is still the lex-min over all n!
   relabelings; the census computes it once per distinct key.

Both stages share one scan loop, which polls ``cancel`` at its first
relabeling and then every 1,024.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import Callable, Iterable, Sequence

from .perm import Perm, inverse

Table = tuple[tuple[int, ...], ...]


class SearchCancelled(RuntimeError):
    """Raised when a cooperative cancellation callback fires."""


def relabel_table(table: Sequence[Sequence[int]], rho: Sequence[int]) -> Table:
    """Relabel points of a table: entry (i, j) becomes rho[t[inv(i)][inv(j)]]."""
    inv = inverse(rho)
    n = len(rho)
    return tuple(
        tuple(rho[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )


def _lex_min(
    rows: Table,
    pres: Iterable[Sequence[int]],
    cancel: Callable[[], bool] | None,
) -> tuple[Perm, Table]:
    """The lex-least relabeled table over the pre-orders ``pres``, where
    pre[i] is the original point that receives label i, with its relabeling;
    the first pre-order reaching the minimum wins."""
    n = len(rows)
    best_rho: Perm = tuple(range(n))
    best = rows
    # every real table is lex-less than this, so the first pre-order wins it
    best_flat = [n] * (n * n)
    label = [0] * n
    for step, pre in enumerate(pres):
        if cancel is not None and step % 1024 == 0 and cancel():
            raise SearchCancelled("canonical labeling cancelled")
        for new, old in enumerate(pre):
            label[old] = new
        pos = 0
        verdict = 0
        for i in range(n):
            row = rows[pre[i]]
            for j in range(n):
                v = label[row[pre[j]]]
                b = best_flat[pos]
                if v != b:
                    verdict = v - b
                    break
                pos += 1
            if verdict:
                break
        if verdict < 0:
            best_rho = tuple(label)
            best = relabel_table(rows, best_rho)
            best_flat = [v for row in best for v in row]
    return best_rho, best


def canonical_relabeling(
    table: Sequence[Sequence[int]],
    cancel: Callable[[], bool] | None = None,
) -> tuple[Perm, Table]:
    """Return (rho, canonical table) with the lex-least relabeled flattening."""
    rows = tuple(tuple(r) for r in table)
    return _lex_min(rows, permutations(range(len(rows))), cancel)


def canonical_form(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> Table:
    return canonical_relabeling(table, cancel)[1]


def _ranks(signatures: Sequence) -> list[int]:
    """Each signature replaced by its rank among the distinct ones, so the
    colours depend on the values only, never on point indices."""
    rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
    return [rank[s] for s in signatures]


def _orbit_sizes(f: Sequence[int]) -> list[int]:
    """How many points x, f(x), f(f(x)), ... visit, for each x: the length
    of the cycle through x when f is a permutation.  Any map is allowed."""
    out = []
    for x in range(len(f)):
        seen = {x}
        y = f[x]
        while y not in seen:
            seen.add(y)
            y = f[y]
        out.append(len(seen))
    return out


def _colour_cells(rows: Table) -> list[tuple[int, ...]]:
    """The points grouped by refined colour, cells in increasing colour."""
    n = len(rows)
    t_len = _orbit_sizes([rows[x][x] for x in range(n)])
    colour = _ranks(
        [
            (t_len[x], tuple(sorted(_orbit_sizes(r))), [s[x] for s in rows].count(x))
            for x, r in enumerate(rows)
        ]
    )

    def meets(x: int, y: int) -> tuple:
        xy, yx = rows[x][y], rows[y][x]
        return (colour[y], colour[xy], colour[yx], xy == x, xy == y, yx == x, yx == y)

    # ranks run 0 .. k-1, and the old colour leads each new signature, so
    # cells only ever split and a round that adds no colour is the fixed point
    while max(colour) < n - 1:
        refined = _ranks(
            [
                (colour[x], tuple(sorted(meets(x, y) for y in range(n) if y != x)))
                for x in range(n)
            ]
        )
        if max(refined) == max(colour):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
    for x in range(n):
        cells[colour[x]].append(x)
    return [tuple(c) for c in cells]


def class_relabeling(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> tuple[Perm, Table]:
    """Return (rho, key): a relabeled table that is equal for two tables
    exactly when they are isomorphic, the lex-min over the relabelings that
    keep the refined colour cells in colour order, with its relabeling.
    Cheaper than ``canonical_relabeling`` but a different table in general."""
    rows = tuple(tuple(r) for r in table)
    pres = (
        tuple(chain.from_iterable(parts))
        for parts in product(*(permutations(c) for c in _colour_cells(rows)))
    )
    return _lex_min(rows, pres, cancel)


def class_key(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> Table:
    return class_relabeling(table, cancel)[1]
