"""Bipartite matching with Hall certificates.

A bipartite graph is matched on bit rows: row i is an integer whose set
bits are the columns of left vertex i.  The per-edge curvature engine
takes its rows straight from `graphs._split`, which builds H(x, y) as
rows[i] = masks[nx[i]] & ny_mask, and `_bit_matching` finds a
maximum matching with one integer operation per row visited (bit-parallel
matching after Cheriyan and Mehlhorn, Algorithmica 15, 1996).  Its failed
searches stay closed, and together they are the Koenig reach, so the same
call returns the minimum vertex cover.  After the greedy pass its work
grows with the free rows and what their searches reach, not with the row
count: the free rows are the 0s of the matching list, found by
list.index, a column's row is its bit's place in that list, so no map
from columns to rows is built, and a free row that is empty, or whose
columns are all closed, stays free and reached with no search.
`_lex_first_matching` turns a perfect matching of bit rows into the
lexicographically first one; it and `_bit_matching` share one alternating
search, `_augmenting_path`, and one path flip, `_flip`.
`local_perfect_matching` solves H(x, y)'s rows as
`decompose_edge` builds them, whose column bits are N_y's vertices, so it
answers in vertices: a matched bit b is the vertex b.bit_length() - 1.
`_lex_first_maximum` pads the rows to a perfect instance, so the pairs
`match --witness` prints are the lexicographically first maximum matching,
on a sharp edge the `curvature --edge` witness.  When the left side is
deficient, the reach of that `_bit_matching` call is an explicit Hall
violator, so callers get a checkable certificate instead of a bare boolean.
That violator is the one Hall check an answer needs.  The half-size
reduction (Hall's condition on every subset of at most (m+1)/2 vertices
of either side implies it on all) holds for every instance, so no answer
path checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotRegularError
from .graphs import EdgeNeighborhood, Graph, decompose_edge


@dataclass(frozen=True)
class MatchingResult:
    """Maximum matching as (N_x vertex, N_y vertex) pairs, with a Hall violator in N_x."""

    pairs: tuple[tuple[int, int], ...]
    perfect: bool
    violator: tuple[int, ...] | None


def _bit_matching(
    rows: Sequence[int], match: list[int] | None = None
) -> tuple[list[int], set[int], int]:
    """Maximum matching of bit rows, with the rows and column bits of its Koenig reach.

    The matching gives the column bit of each row, 0 when it is free; a
    given starting matching is extended in place.  Without one it starts
    from `_greedy_matching`.  Then every free row, found as the
    next 0 of the list (a flip frees no row), takes the lowest free column
    of its own row, if it has one, or else gets one alternating
    breadth-first search for a free column, and the path found is flipped.
    A search that fails reaches only matched columns whose rows see
    nothing else, and a later flip never enters them, so its columns stay
    closed: later searches start with them seen, and the row stays free
    (Kuhn).  A free row with no column outside the closed ones, an empty
    row first of all, would fail at once, so it stays free with no
    search.  The closed columns, and the free rows with the rows matched
    to those columns, are then what alternating paths from the free rows
    reach: the reached rows Z have |Z| - (free rows) columns, the Hall
    deficiency certificate, and (rows not reached) + (columns reached) is
    a minimum vertex cover (Koenig's theorem), so the matching leaves
    |Z| - |cover| rows free.
    """
    if match is None:
        match, taken = _greedy_matching(rows)
    else:
        taken = sum(match)  # distinct bits
    closed = 0
    stuck = []  # the free rows that stay free
    root = -1
    for _ in range(match.count(0)):
        # A flip frees no row, so the next free row is the next 0 of match.
        root = match.index(0, root + 1)
        row = rows[root]
        b = row & ~taken
        if b:  # the root's own row holds a free column: no search
            b &= -b
            match[root] = b
            taken |= b
            continue
        if row & ~closed:
            r, b, parent = _augmenting_path(rows, match, taken, root, closed)
            if r is not None:
                taken |= b
                _flip(match, root, r, b, parent)
                continue
            closed = b  # a failed search returns the columns it saw
        stuck.append(root)  # an empty or closed row needs no search
    reached = set(stuck)
    cover = closed
    while closed:
        b = closed & -closed
        closed ^= b
        reached.add(match.index(b))
    return match, reached, cover


def _greedy_matching(rows: Sequence[int]) -> tuple[list[int], int]:
    """The greedy matching of bit rows: each row in order takes its lowest free bit.

    Returns the matching, 0 for a free row, and the column bits it takes.
    `_bit_matching` starts from it, and its free rows bound the free rows
    of a maximum matching from above.
    """
    match = []
    taken = 0
    for row in rows:
        b = row & ~taken
        b &= -b  # the lowest free bit, or 0
        match.append(b)
        taken |= b
    return match, taken


def _lex_first_matching(rows: Sequence[int], match: Sequence[int]) -> list[int]:
    """The lexicographically first perfect matching of bit rows, from any perfect one.

    Rows are fixed in order.  Row i, holding column c, tries each bit b of
    its row below c that no fixed row holds, lowest first: it can take b
    when an alternating path through the unfixed rows other than i leads
    from b's row to a row that sees c.  That is `_augmenting_path` with c
    the only free column and the fixed columns and b seen from the start
    (the search never enters c: a row that sees it ends the search); the
    first path found is flipped and row i takes b.  The result does not
    depend on the starting matching.
    """
    match = list(match)
    fixed = 0
    for i, row in enumerate(rows):
        c = match[i]
        lower = row & (c - 1) & ~fixed
        while lower:
            b = lower & -lower
            lower ^= b
            root = match.index(b)
            r, free, parent = _augmenting_path(rows, match, ~c, root, fixed | b)
            if r is not None:
                _flip(match, root, r, free, parent)
                match[i] = c = b
                break
        fixed |= c
    return match


def _augmenting_path(
    rows: Sequence[int], match: list[int], taken: int, root: int, seen: int = 0
) -> tuple[int | None, int, dict[int, int]]:
    """Alternating breadth-first search from a row for a row that sees a free column.

    A column is free when its bit is not in taken; the search never enters
    the columns already in seen, and a column's row is its place in match.
    Returns that row, the free column's bit
    and the parent map (column bit -> the row whose search reached it), or,
    when no row sees a free column, None, the seen columns (those given
    and every column the search reached) and the parent map.  The seen
    columns are one integer, so a row costs one AND whatever its degree,
    and each row is tested for a free column as soon as it is reached.
    """
    parent: dict[int, int] = {}
    free = rows[root] & ~taken
    if free:
        return root, free & -free, parent
    queue = [root]
    for r in queue:
        new = rows[r] & ~seen
        seen |= new
        while new:
            b = new & -new
            new ^= b
            parent[b] = r
            w = match.index(b)
            free = rows[w] & ~taken
            if free:
                return w, free & -free, parent
            queue.append(w)
    return None, seen, parent


def _flip(match: list[int], root: int, r: int, b: int, parent: dict[int, int]) -> None:
    """Flip the augmenting path from root to row r and its free bit b.

    r takes b, and each row back up the path takes the column of the row
    after it, until the root.
    """
    while True:
        match[r], b = b, match[r]
        if r == root:
            return
        r = parent[b]


def _lex_first_maximum(rows: Sequence[int], ymask: int) -> tuple[list[int], set[int]]:
    """The lexicographically first maximum matching of bit rows, and its Koenig reach.

    Rows are taken in order, and a free row ranks after every column.
    `_bit_matching` gives a maximum matching and the reach.  Padding makes
    the instance perfect: each row also sees one dummy column per free
    row, above ymask's top bit, and each free column gets one dummy row
    that sees all of ymask.  The perfect matchings of the padded rows are
    then the maximum matchings of the real ones, each free row holding a
    dummy, so `_lex_first_matching`, started from the matching completed
    with the dummies and cut to the real rows, gives the answer, a dummy
    reading as unmatched (0).  The reach is the same for every maximum
    matching (Dulmage-Mendelsohn).
    """
    match, reached, _ = _bit_matching(rows)
    top = ymask.bit_length()
    free_rows = [i for i, b in enumerate(match) if not b]
    free_cols = ymask & ~sum(match)  # distinct bits
    dummies = ((1 << len(free_rows)) - 1) << top
    start = list(match)
    for k, i in enumerate(free_rows):
        start[i] = 1 << (top + k)
    padded = [row | dummies for row in rows]
    while free_cols:
        b = free_cols & -free_cols
        free_cols ^= b
        padded.append(ymask)
        start.append(b)
    lex = _lex_first_matching(padded, start)[: len(rows)]
    return [b & ~dummies for b in lex], reached


def local_perfect_matching(g: Graph, x: int, y: int) -> tuple[EdgeNeighborhood, MatchingResult]:
    """The split around the edge xy, and the lex-first maximum matching of N_x against N_y.

    It is solved on H(x, y)'s rows as `decompose_edge` builds them, so a
    matched bit b is the N_y vertex b.bit_length() - 1; a deficient N_x
    gets the N_x vertices of the Koenig reach as its Hall violator.
    """
    if not g.is_regular():
        raise NotRegularError("local matching is stated for regular graphs")
    parts = decompose_edge(g, x, y)
    nx = parts.nx
    match, reached = _lex_first_maximum(parts.rows, parts.ny_mask)
    pairs = tuple((v, b.bit_length() - 1) for v, b in zip(nx, match) if b)
    violator = tuple(nx[i] for i in sorted(reached)) or None
    return parts, MatchingResult(pairs=pairs, perfect=len(pairs) == len(nx), violator=violator)
