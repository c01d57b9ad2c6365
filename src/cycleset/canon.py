"""Lex-minimal canonical labeling for square operation tables.

The canonical form of a table ``t`` over {0..n-1} is the lexicographically
least row-major flattening of ``rho . t . rho^-1`` over all relabelings
``rho``.  It is found by a depth-first search over the labels (``_lex_min``)
that cuts a branch only when its determined prefix is already above the
best table found, and skips branches that a known automorphism of the table
maps onto earlier ones (the branch-and-bound with automorphism pruning of
McKay's *Practical graph isomorphism*, 1981).  It returns the same table and
the same relabeling as a scan of all n! relabelings in lex order, without
visiting them all.  Each cell is compared once on a path: the rows a node
finds determined and tied to the best table keep their values below it, so
its children's comparisons resume after them.  With a single cell of
permutation rows, the points whose row is the identity, if any, take the
first labels, as no conjugate of another row is the identity, the least
permutation.  Otherwise row 0 of the winner is the least rooted row (the
least conjugate of a point's row that sends the point to 0,
``_rooted_key``): label 0 goes only to the points whose rooted row is
least, and the labels after it only where they keep row 0 that rooted row.
Over the 3,456 classes of size 7, ``canonical_form`` of each
representative visits 50 nodes on average (59 without the identity-row
rule, 110 with only the rule on label 0, 130 with neither and 5,040 for the
scan), and of a seeded relabeling of each about 65 (93, 176 and 259).

A census deduplicates in ``Classes``, in one pass over the tables it emits:
each gets its canonical form by one one-cell search, whether or not it has
an identity row (a point x with x.y = y for all y).

``class_key`` colours the points by invariants (``colours``: the length of
the cycle of the squaring map T(x) = x.x through x, the cycle type of the
row of x, and how many y have y.x = x; the census search picks its point 0
by them too) and orders the colour cells by colour value, never by point
index.  The key is the lex-least relabeled table over the relabelings that
send each cell, in order, onto consecutive labels.  It is a complete
invariant by construction.  Relabeling a table carries its colours, hence
its admissible relabelings, along with it, so isomorphic tables have the
same set of images and get the same key; and the key is itself a
relabeling of its table, so tables with the same key are isomorphic.  A
coarser colouring only makes the key slower, never wrong; refining the
colours to a fixed point (the vertex-invariant step of McKay) cost more
than the search it saved at every census size.  With a single cell the key
is the canonical form.

Every search polls ``cancel`` at its first node and then every 1,024
nodes.  What depends only on a permutation, the length of the cycle
through each point, its cycle type spelt descending and ascending, and its
fixed points, is kept in a ``RowFacts`` table, and beside it the cycle
starts and row 0 of each least rooted key.  The census engine keeps one
per degree, for its search and its canonical labeling, since the same
permutations recur as rows and as squaring maps in every census of that
degree.  Each standalone call makes a fresh one, as it takes tables of any
degree.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .perm import Perm, Table, _orbit_sizes, inverse

class SearchCancelled(RuntimeError):
    """Raised when a cooperative cancellation callback fires."""


class RowFacts(dict):
    """row -> (the length of the cycle through each point, ``_orbit_sizes``;
    those lengths in descending order, its cycle type spelt out point by
    point, which orders the cycle types of one degree as ``cycle_type``
    does; the same lengths ascending, which ``_rooted_key`` reads; the mask
    of its fixed points; whether the row is a permutation), computed on
    first use and kept.  ``spellings`` maps each descending spelling to the
    pair of spellings, so the rows of one cycle type share both tuples.
    ``rooted`` maps each least rooted key to its ``_rooted_row``, filled by
    the one-cell search; both hold a few entries per cycle type."""

    def __init__(self):
        super().__init__()
        self.spellings: dict[tuple[int, ...], tuple] = {}
        self.rooted: dict[tuple, tuple[list[int], list[int]]] = {}

    def __missing__(
        self, row: Perm
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, bool]:
        sizes = _orbit_sizes(row)
        # only a fixed point walks a path of one point
        fixed = sum(1 << x for x, s in enumerate(sizes) if s == 1)
        perm = len(set(row)) == len(row)
        spelt = tuple(sorted(sizes, reverse=True))
        pair = self.spellings.get(spelt)
        if pair is None:
            pair = self.spellings[spelt] = (spelt, spelt[::-1])
        facts = self[row] = (tuple(sizes), *pair, fixed, perm)
        return facts


def _rooted_key(entry: tuple, x: int) -> tuple:
    """The rooted row of point x for a permutation p, the least conjugate
    of p that sends x to 0, is x's cycle laid out on 0, 1, ... and then the
    other cycles by increasing length.  Rooted rows are ordered as their
    keys: the length of x's cycle, then p's cycle lengths ascending, spelt
    out point by point, both read from ``entry``, p's ``RowFacts`` entry.
    The layout leaves x's cycle out of the other lengths, but between keys
    with the same first part that changes no comparison.

    >>> _rooted_key(RowFacts()[(1, 0, 2)], 2)
    (1, (1, 2, 2))
    """
    return entry[0][x], entry[2]


def _rooted_row(key: tuple) -> tuple[list[int], list[int]]:
    """The rooted row of key ``key`` (``_rooted_key``) label by label, as
    (starts, row): starts gives the length of the cycle that begins at each
    label, 0 for a label inside a cycle, and row is the row itself, each
    cycle on consecutive labels from its start.  The root's cycle comes
    first, then the others by increasing length.

    >>> _rooted_row((2, (1, 2, 2, 3, 3, 3)))
    ([2, 0, 1, 3, 0, 0], [1, 0, 2, 4, 5, 3])
    """
    length, spelt = key
    # spelt lists each cycle length once per point, ascending, so dropping
    # one run of the root's length drops its cycle
    first = spelt.index(length)
    rest = spelt[:first] + spelt[first + length :]
    starts = [length] + [0] * (length - 1)
    i = 0
    while i < len(rest):
        m = rest[i]
        starts += [m] + [0] * (m - 1)
        i += m
    row: list[int] = []
    for s, m in enumerate(starts):
        if m:
            row += [*range(s + 1, s + m), s]
    return starts, row


def relabel_table(table: Sequence[Sequence[int]], rho: Sequence[int]) -> Table:
    """Relabel points of a table: entry (i, j) becomes rho[t[inv(i)][inv(j)]]."""
    inv = inverse(rho)
    n = len(rho)
    return tuple(
        tuple(rho[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )


def _lex_min(
    rows: Table,
    cells: Sequence[Sequence[int]],
    cancel: Callable[[], bool] | None,
    facts: RowFacts,
) -> tuple[Perm, Table]:
    """The lex-least relabeled table over the pre-orders that give the
    points of each cell, cell after cell, consecutive labels, with its
    relabeling; pre[k] is the original point that receives label k, and the
    lex-first pre-order reaching the minimum wins.

    The search builds pre one label at a time, trying pre[k] in ascending
    order, so it meets the pre-orders in lex order.  A node is cut only when
    its determined row-major prefix is strictly above the incumbent's, so
    the winner is never cut.  With labels 0..k-1 placed, cell (i, j) for
    i, j < k is exact when its image is labelled and at least k when it is
    not, and the rest of row i is k, k+1, ... when that row fixes every
    unlabelled point.  Rows that a node finds determined and equal to the
    incumbent's keep their values in its subtree, and so does every
    incumbent found there, so the comparisons below it start after them.  A
    new incumbent is rebuilt from its first row that differs from the old
    one.  With one cell and permutation rows, row k of a relabeled table is
    a conjugate of the row of the point labelled k.  When m >= 1 points have
    the identity as their row, they take labels 0..m-1.  A permutation p
    other than the identity is above it: at the first x with p[x] != x,
    p[x] > x, as p keeps 0..x-1 in place.  The identity is the only conjugate of
    itself and no conjugate of another row, so the tables whose rows 0..m-1
    are the identity are exactly those of the pre-orders that list the
    identity-row points first, and any other pre-order has a non-identity
    row at its first label below m where they have the identity, so it is
    above the winner.  Leaving those out changes neither the result nor the
    order of the rest; rows 0..m-1 of every incumbent are the identity, so
    they are set before the first leaf and tie at every node.  Otherwise the
    search keeps row 0 at the least rooted row R: row 0 of a relabeled table
    is a conjugate of the row sigma of the point labelled 0 that sends that
    point to 0, and the least of those is the point's rooted row, so only
    the points of least ``_rooted_key`` may take label 0.  Row 0 is then R
    exactly when each label inside a cycle of R goes to sigma of the point
    labelled just before it, and each label that starts a cycle of R to an
    unlabelled point on a cycle of sigma as long (``_rooted_row`` reads the
    cycles of R off the key; the points of sigma are listed by cycle length
    once per choice of label 0).  Every pre-order with another row 0 is
    above the winner, so leaving them out changes neither the result nor the
    order of the rest.  Row 0 of every leaf, and so of every incumbent, is
    then R, so the incumbent's row 0 is set before the first leaf and every
    comparison starts at row 1.  A leaf that ties the incumbent gives an
    automorphism g of the table; a point c is skipped at label k when some
    such g fixes pre[0..k-1] and maps a smaller candidate c' to c, since g
    carries the subtree of c' onto that of c, leaf for leaf and table for
    table (g maps the identity-row points onto themselves, and fixing
    pre[0], it commutes with sigma, so it keeps row 0 too).  The search
    keeps the automorphisms it finds, each as its inverse map with the mask
    of its fixed points.  The rows' fixed points, cycle lengths and whether
    they are permutations are read from ``facts``, and the rooted row of
    each least rooted key is kept in it."""
    n = len(rows)
    if not n:
        return (), ()
    # the points that may take label k, as a bit mask; under the rooted
    # rule with no identity row, masks[k] for k >= 1 is set as label k - 1
    # is placed
    masks: list[int] = []
    for cell in cells:
        masks += [sum(1 << x for x in cell)] * len(cell)
    # the incumbent, row-major; n fills what no leaf has set yet
    best = [n] * (n * n)
    # tied[k]: how many leading rows are the incumbent's in every leaf below
    # the node with labels 0..k-1 placed: rows determined there and equal
    # to it, and the rows the rooted rule sets in advance
    tied = [0] * (n + 1)
    row_facts = [facts[r] for r in rows]
    fixes = [f[3] for f in row_facts]
    full = free = (1 << n) - 1
    # the points whose row is the identity, the row that fixes every point
    ones = sum(1 << x for x, f in enumerate(fixes) if f == full)
    # starts[k]: the length of the cycle of R that begins at label k, 0 for
    # a label inside a cycle; empty when the rooted rule does not apply
    starts: list[int] = []
    # the rooted rule: one cell, and every row a permutation
    rooted_rule = len(cells) == 1 and all(f[4] for f in row_facts)
    if rooted_rule and ones:
        # the identity is the least rooted row, and rows 0..m-1 of the
        # winner are the identity: the m points with identity rows take
        # labels 0..m-1, the others the rest, and those rows are set now
        # and tie at every node
        m = ones.bit_count()
        masks = [ones] * m + [full ^ ones] * (n - m)
        best[: m * n] = list(range(n)) * m
        tied = [m] * (n + 1)
    elif rooted_rule:
        # row 0 of the winner is the least rooted row R, so label 0 goes
        # only to the points with the least rooted key
        keys = [_rooted_key(f, x) for x, f in enumerate(row_facts)]
        least = min(keys)
        masks[0] = sum(1 << x for x, key in enumerate(keys) if key == least)
        # every leaf, so every incumbent, has row 0 R: it is set now and
        # ties at every node
        rooted = facts.rooted.get(least)
        if rooted is None:
            rooted = facts.rooted[least] = _rooted_row(least)
        starts, best[:n] = rooted
        tied = [1] * (n + 1)
    pre = [0] * n
    label = [n] * n  # n marks an unlabelled point
    best_rho: Perm | None = None
    best_pre: list[int] = []
    autos: list[tuple[list[int], int]] = []
    nodes = 0
    # the row of the point labelled 0 and, for each m, its points on
    # cycles of length m, once starts is set
    sigma: Perm = ()
    on: list[int] = []

    def compare(k: int, free: int) -> int:
        """1 when the determined prefix of the partial relabeling is above
        the incumbent, 0 when it ties it, -1 when it is below or stops at an
        undetermined cell that the incumbent does not exceed.  It starts
        after the rows tied at the parent node and records tied[k]."""
        start = tied[k - 1]
        if start >= k:
            tied[k] = start
            return 0
        pos = start * n
        for i in range(start, k):
            tied[k] = i
            row = rows[pre[i]]
            for j in range(k):
                v = label[row[pre[j]]]
                b = best[pos]
                if v >= k:  # unlabelled image: a label of k or more
                    return 1 if k > b else -1
                if v != b:
                    return 1 if v > b else -1
                pos += 1
            if free & ~fixes[pre[i]]:
                return -1
            for j in range(k, n):
                b = best[pos]
                if j != b:
                    return 1 if j > b else -1
                pos += 1
        tied[k] = k
        return 0

    avail = [0] * n  # the candidates for label k not tried yet
    avail[0] = masks[0]
    k = 0
    while k >= 0:
        a = avail[k]
        if not a:  # label k is done: take back label k - 1
            k -= 1
            if k >= 0:
                label[pre[k]] = n
                free |= 1 << pre[k]
            continue
        bit = a & -a
        avail[k] = a ^ bit
        c = bit.bit_length() - 1
        # skip c when an automorphism fixing the placed points maps a smaller
        # candidate onto c; the least candidate has none
        if autos and masks[k] & free & (bit - 1):
            placed = full ^ free
            skip = False
            for g, fixed in autos:
                if g[c] < c and not placed & ~fixed:
                    skip = True
                    break
            if skip:
                continue
        if cancel is not None and nodes % 1024 == 0 and cancel():
            raise SearchCancelled("canonical labeling cancelled")
        nodes += 1
        forced = masks[k] & free == bit
        pre[k] = c
        label[c] = k
        free ^= bit
        if free:
            # a forced label is checked with the next one, which cuts the
            # same; nothing is cut before the first incumbent.  A node that
            # is not compared keeps its parent's tied rows
            tied[k + 1] = tied[k]
            if forced or best_rho is None or compare(k + 1, free) <= 0:
                k += 1
                if starts:
                    # keep row 0 at R: inside a cycle of R, label k goes to
                    # sigma of the point just labelled; a cycle of R that
                    # starts at k starts on a cycle of sigma as long
                    if k == 1:
                        sigma = rows[c]
                        on = [0] * (n + 1)
                        for x, m in enumerate(row_facts[c][0]):
                            on[m] |= 1 << x
                    masks[k] = on[starts[k]] if starts[k] else 1 << sigma[c]
                avail[k] = masks[k] & free
                continue
        else:
            # the first leaf is the first incumbent; until then tied[n]
            # counts the rows set in advance
            verdict = compare(n, 0) if best_rho is not None else -1
            if verdict < 0:
                best_rho = tuple(label)
                best_pre = pre[:]
                # the rows before tied[n] are the incumbent's already
                t = tied[n]
                best[t * n :] = [label[rows[x][y]] for x in pre[t:] for y in pre]
            elif verdict == 0:
                g = [0] * n
                fixed = 0
                for old, new in zip(best_pre, pre):
                    g[new] = old
                    if old == new:
                        fixed |= 1 << new
                autos.append((g, fixed))
        label[c] = n
        free |= bit
    return best_rho, tuple(tuple(best[i * n : (i + 1) * n]) for i in range(n))


def canonical_relabeling(
    table: Sequence[Sequence[int]],
    cancel: Callable[[], bool] | None = None,
) -> tuple[Perm, Table]:
    """Return (rho, canonical table) with the lex-least relabeled flattening."""
    rows = tuple(tuple(r) for r in table)
    return _lex_min(rows, [range(len(rows))], cancel, RowFacts())


def canonical_form(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> Table:
    """The lex-least relabeled table.  It is exact at every size, but its
    time has no bound past census sizes: on 30 randomly relabeled direct
    products of a size-4 class with a class of size 5 or 6 (20 and 24
    points), 13 calls ran past 10 s.  ``cancel`` bounds it: the search polls
    it every 1,024 nodes and raises ``SearchCancelled`` once it is true."""
    return canonical_relabeling(table, cancel)[1]


def colours(rows: Sequence[Perm], facts: RowFacts | None = None) -> list[tuple]:
    """The invariant colour of each point x: the length of its T-cycle for
    the diagonal T, the cycle type of its row, both read from ``facts``, a
    fresh ``RowFacts`` when None, and how many y have y.x = x, counted by
    columns.  A census passes the facts of its degree, so T's are computed
    once.

    >>> colours(((1, 0, 2), (1, 0, 2), (1, 0, 2)))
    [(2, (2, 2, 1), 0), (2, (2, 2, 1), 0), (1, (2, 2, 1), 3)]
    """
    if facts is None:
        facts = RowFacts()
    t_len = facts[tuple(r[x] for x, r in enumerate(rows))][0]
    fixing = [col.count(x) for x, col in enumerate(zip(*rows))]
    return [(t_len[x], facts[r][1], fixing[x]) for x, r in enumerate(rows)]


def _colour_cells(rows: Table, facts: RowFacts | None = None) -> list[tuple[int, ...]]:
    """The points grouped by ``colours``, cells in increasing colour."""
    cells: dict[tuple, list[int]] = {}
    for x, c in enumerate(colours(rows, facts)):
        cells.setdefault(c, []).append(x)
    return [tuple(cells[c]) for c in sorted(cells)]


def class_relabeling(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> tuple[Perm, Table]:
    """Return (rho, key): a relabeled table that is equal for two tables
    exactly when they are isomorphic, the lex-min over the relabelings that
    keep the colour cells in colour order, with its relabeling.
    Cheaper than ``canonical_relabeling`` but a different table in general."""
    rows = tuple(tuple(r) for r in table)
    facts = RowFacts()
    return _lex_min(rows, _colour_cells(rows, facts), cancel, facts)


def class_key(
    table: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
) -> Table:
    return class_relabeling(table, cancel)[1]


class Classes:
    """The canonical forms of the isomorphism classes of the tables added,
    kept in ``found`` as each table is added, each by one one-cell search,
    which the rooted rule keeps cheap whether or not the table has an
    identity row.  Every search polls ``cancel`` and reads ``facts``, a
    fresh ``RowFacts`` when None."""

    def __init__(self, cancel: Callable[[], bool] | None = None, facts: RowFacts | None = None):
        self.cancel = cancel
        self.facts = RowFacts() if facts is None else facts
        self.found: set[Table] = set()

    def add(self, table: Sequence[Sequence[int]]) -> None:
        """Keep the class of ``table``."""
        rows = tuple(map(tuple, table))
        self.found.add(_lex_min(rows, [range(len(rows))], self.cancel, self.facts)[1])
