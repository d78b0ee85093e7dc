"""Independent oracles and fixtures shared by the test modules.

Everything here deliberately re-derives results by the dumbest correct
method available (matrix powers, permutation enumeration, single
augmenting paths) so it cannot share a bug with the production code paths
it checks.  The O(m^3) Hungarian assignment (`hungarian`,
`lex_smallest_optimal_assignment`), the list-based lex-first pass
(`_lex_first_tight_assignment`) and the list-based Koenig reach
(`_alternating_reach`) are the references of the bit-row engine, the
separate bit-row reach (`_bit_reach`) that of the reach `_bit_matching`
collects from its failed searches, the set-built split (`set_decompose_edge`)
that of `graphs.decompose_edge`, the all-pairs loop
(`all_pairs_classify_regularity`) and the dense product A^2
(`matrix_srg_identity`) those of `classify_regularity`'s 2-ball walk and
its strongly regular verdict, the edge walk (`_edge_orbits`) over the
affine generators of P(q) (`paley_automorphisms`) that of the one-orbit
check behind `transport.paley_kappa`, the field-arithmetic search
(`canonical_pair`) that of the pair `residues.verify_corollary` reads off
P(q), and the squaring of every element (`squaring_square_index_set`)
that of the squares `fields.square_index_set` reads off the power walk.
The size-by-size sweep of the cleared discriminant
(`swept_first_feasible`) is the reference of `certify._first_feasible`'s
closed form.
`src/` handles a GF(q) element as its index; here it is also a
coefficient tuple (`Element`), which subtracts coefficient by
coefficient, the reference of `fields._subtract`.  Products and powers
of polynomials reduced mod the field's modulus (`poly_mul`, `poly_pow`)
are the references of the product and power read off the power walk
(`table_product`, `table_power`), the Euler criterion on them
(`euler_is_nonzero_square`) that of `fields.is_nonzero_square`, and the
witness search on coefficient tuples (`coefficient_pattern_witness`)
that of `residues.find_pattern_witness`.
Hopcroft-Karp on index lists (`_hopcroft_karp`) and the column-by-column
`lex_first_maximum_reference` are the references of
`max_matching`, which runs the engine of `matching.local_perfect_matching`
on a `BipartiteInstance` fixture and answers in indices;
`sharpness_equivalence` sets an edge's curvature sharpness beside its
local perfect matching, and `hall_reduction_check` enumerates every
subset to test the half-size Hall reduction.  The other fixtures are
`random_regular_graph`, the seeded generator of the tests' random regular
graphs, and `parse_csv`, which reads a `scan` or `curvature` CSV back.
No code in `src/` calls any of them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations, product
from math import gcd
from typing import Sequence

import numpy as np

from llycurv import families
from llycurv.certify import _cleared
from llycurv.errors import (
    InvalidOrderError,
    InvalidPairError,
    InvalidParamsError,
    LlycurvError,
    TooLargeError,
)
from llycurv.fields import FiniteField, Poly, _index, _poly_mod, _power_walk, _trim, square_index_set
from llycurv.graphs import (
    Graph,
    RegularityClass,
    RegularityKind,
    SrgParams,
    is_connected,
    neighbor_masks,
)
from llycurv.matching import MatchingResult, _lex_first_maximum, local_perfect_matching
from llycurv.spectral import integral_multiplicities
from llycurv.transport import lly_curvature


def matrix_power_distances(g: Graph) -> list[list[int | None]]:
    """Distances via boolean powers of the adjacency matrix."""
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    for u, v in g.edges():
        a[u, v] = True
        a[v, u] = True
    dist: list[list[int | None]] = [[None] * n for _ in range(n)]
    reach = np.eye(n, dtype=bool)
    for v in range(n):
        dist[v][v] = 0
    power = np.eye(n, dtype=bool)
    for k in range(1, n):
        power = power @ a
        newly = power & ~reach
        for u, v in zip(*np.nonzero(newly)):
            dist[u][v] = k
        reach |= power
        if reach.all():
            break
    return dist


def brute_force_assignment(cost: list[list[int]]) -> int:
    """Minimum assignment cost by enumerating all permutations."""
    m = len(cost)
    if m == 0:
        return 0
    return min(sum(cost[i][p[i]] for i in range(m)) for p in permutations(range(m)))


def all_optimal_assignments(cost: list[list[int]]) -> list[tuple[int, ...]]:
    m = len(cost)
    best = brute_force_assignment(cost)
    return [
        p
        for p in permutations(range(m))
        if sum(cost[i][p[i]] for i in range(m)) == best
    ]


def augmenting_path_matching_size(n_left: int, n_right: int, edges) -> int:
    """Maximum bipartite matching by plain single augmenting paths."""
    adj = [[] for _ in range(n_left)]
    for li, ri in edges:
        adj[li].append(ri)
    match_right = [-1] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for r in adj[u]:
            if seen[r]:
                continue
            seen[r] = True
            if match_right[r] == -1 or try_augment(match_right[r], seen):
                match_right[r] = u
                return True
        return False

    size = 0
    for u in range(n_left):
        if try_augment(u, [False] * n_right):
            size += 1
    return size


class UnbalancedSidesError(LlycurvError):
    """Bipartite sides must have equal size."""


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite graph given by side labels and index edges (left, right)."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def rows(self) -> list[int]:
        """Bit rows: bit ri of row li is set iff (li, ri) is an edge."""
        rows = [0] * len(self.left)
        for li, ri in self.edges:
            rows[li] |= 1 << ri
        return rows


def max_matching(instance: BipartiteInstance) -> MatchingResult:
    """Lexicographically first maximum matching, pairs and Hall violator as indices."""
    match, reached = _lex_first_maximum(instance.rows(), (1 << len(instance.right)) - 1)
    pairs = tuple((i, b.bit_length() - 1) for i, b in enumerate(match) if b)
    perfect = len(pairs) == len(instance.left) == len(instance.right)
    return MatchingResult(pairs=pairs, perfect=perfect, violator=tuple(sorted(reached)) or None)


def adjacency(instance: BipartiteInstance) -> list[list[int]]:
    """Each left vertex's right neighbours, in increasing order."""
    adj: list[list[int]] = [[] for _ in instance.left]
    for li, ri in sorted(instance.edges):
        adj[li].append(ri)
    return adj


def _hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Return (match_left, match_right) with -1 for unmatched."""
    n_left = len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    inf = n_left + n_right + 1
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for r in adj[u]:
                w = match_right[r]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for r in adj[u]:
            w = match_right[r]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = r
                match_right[r] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u)
    return match_left, match_right


def lex_first_maximum_reference(instance: BipartiteInstance) -> tuple[tuple[int, int], ...]:
    """The lexicographically first maximum matching, from its definition.

    Left vertices are taken in order, and each tries its columns in
    ascending order.  It keeps the first column after which the later left
    vertices, on the columns still free, can still complete a maximum
    matching (Hopcroft-Karp on what is left); when none can, it stays
    unmatched, which ranks after every column.
    """
    adj = adjacency(instance)
    n_right = len(instance.right)
    nu = len(adj) - _hopcroft_karp(adj, n_right)[0].count(-1)
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for i, cols in enumerate(adj):
        for j in cols:
            if j in used:
                continue
            rest = [[r for r in row if r not in used and r != j] for row in adj[i + 1:]]
            if len(pairs) + 1 + len(rest) - _hopcroft_karp(rest, n_right)[0].count(-1) == nu:
                pairs.append((i, j))
                used.add(j)
                break
    return tuple(pairs)


@dataclass(frozen=True)
class SharpnessEquivalence:
    kappa_sharp: bool
    matching_perfect: bool
    agree: bool


def sharpness_equivalence(g: Graph, x: int, y: int) -> SharpnessEquivalence:
    """Curvature-meets-upper-bound vs perfect-local-matching, side by side."""
    kappa_sharp = lly_curvature(g, x, y).sharp
    _, result = local_perfect_matching(g, x, y)
    return SharpnessEquivalence(
        kappa_sharp=kappa_sharp,
        matching_perfect=result.perfect,
        agree=kappa_sharp == result.perfect,
    )


_HALL_EXHAUSTIVE_CAP = 14


@dataclass(frozen=True)
class HallReduction:
    hypothesis_holds: bool
    full_hall_holds: bool


def hall_reduction_check(instance: BipartiteInstance) -> HallReduction:
    """Exhaustively test the half-size Hall hypothesis against full Hall.

    hypothesis: every subset of size <= (m+1)/2 on either side has enough
    neighbors; full: every left subset does.  The reduction lemma says the
    first implies the second; this brute-forces both flags so that can be
    tested.
    """
    m = len(instance.left)
    if m != len(instance.right):
        raise UnbalancedSidesError("sides must have equal size")
    if m > _HALL_EXHAUSTIVE_CAP:
        raise TooLargeError(f"subset enumeration capped at m = {_HALL_EXHAUSTIVE_CAP}")
    left_mask = instance.rows()
    right_mask = [0] * m
    for li, ri in instance.edges:
        right_mask[ri] |= 1 << li
    half = (m + 1) // 2  # |S| <= (m+1)/2 for integer sizes

    def neighbors_of(mask: int, table: list[int]) -> int:
        out = 0
        mm = mask
        while mm:
            low = mm & -mm
            out |= table[low.bit_length() - 1]
            mm ^= low
        return out

    hypothesis = True
    full = True
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        ok = neighbors_of(mask, left_mask).bit_count() >= size
        if not ok:
            full = False
            if size <= half:
                hypothesis = False
        if size <= half and neighbors_of(mask, right_mask).bit_count() < size:
            hypothesis = False
        if not hypothesis and not full:
            break
    return HallReduction(hypothesis_holds=hypothesis, full_hall_holds=full)


def uniform_measure_w1_oracle(g: Graph, verts1, verts2) -> Fraction:
    """W1 between uniform measures via brute-force unit assignment.

    Valid because optimal transport between uniform measures of equal
    support size is achieved by a bijection (Birkhoff).  Exponential in the
    support size, so keep it tiny.
    """
    dist = matrix_power_distances(g)
    k = len(verts1)
    assert len(verts2) == k
    cost = [[dist[u][v] for v in verts2] for u in verts1]
    return Fraction(brute_force_assignment(cost), k)


def fraction_obstruction_quadratic(params, b: int) -> tuple[Fraction, ...]:
    """(a2, a1, a0, discriminant) of the size-b violator inequality, term by term.

    The paper's formula in Fractions: four convexity lower bounds on the
    common-neighbor counts inside delta (denominator alpha), P_xy
    (denominator n - 2d + alpha), T (denominator b - 1) and N_x
    (denominator d - alpha - 1), summed against the ceiling
    C(b,2) * max(alpha, beta) - C(b,2).
    """
    n, d, alpha, beta = params.as_tuple()
    pxy = n - 2 * d + alpha
    core = d - alpha - 1
    half = Fraction(1, 2)
    a2 = half * (
        Fraction(1, alpha) + Fraction(1, pxy) + Fraction(1, b - 1) + Fraction(1, core)
    )
    a1 = -b * (
        Fraction(beta - 1, alpha) + Fraction(core, pxy) - Fraction(alpha - beta + 1, core)
    )
    a0 = (
        half
        * b
        * b
        * (
            Fraction((beta - 1) ** 2, alpha)
            + Fraction(core * core, pxy)
            + Fraction((alpha - beta + 1) ** 2, core)
        )
        - half * (d - 1) * b
        + half * (b * b - b) * (1 - max(alpha, beta))
    )
    return a2, a1, a0, a1 * a1 - 4 * a2 * a0


def swept_first_feasible(terms: tuple[int, int, int, int, int], last: int) -> int | None:
    """The least b in 2..last whose cleared discriminant is >= 0, size by size."""
    for b in range(2, last + 1):
        if _cleared(terms, b)[3] >= 0:
            return b
    return None


def matrix_srg_identity(g: Graph, params) -> bool:
    """A^2 = dI + alpha A + beta (J - I - A) by a dense integer matrix product."""
    n = g.n
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = 1
        a[v, u] = 1
    eye = np.eye(n, dtype=np.int64)
    ones = np.ones((n, n), dtype=np.int64)
    rhs = params.d * eye + params.alpha * a + params.beta * (ones - eye - a)
    return bool((a @ a == rhs).all())


def ndj_scan_tuples(max_n: int) -> list[tuple[int, int, int, int]]:
    """Feasible (n, d, alpha, beta), n <= max_n, by a search over n, d and j = d - 1 - alpha.

    Independent of the eigenvalue enumeration of `scan_parameters`; rows
    come out in (n, d, -alpha) order.
    """
    rows = []
    for n in range(3, max_n + 1):
        for d in range(2, n - 1):
            m = n - d - 1
            # d*j = 0 mod m exactly when j is a multiple of m / gcd(d, m).
            step = m // gcd(d, m)
            for j in range(step, d, step):
                beta = d * j // m
                if not 1 <= beta <= d:
                    continue
                alpha = d - 1 - j
                if integral_multiplicities(n, d, alpha, beta) is None:
                    continue
                rows.append((n, d, alpha, beta))
    return rows


def _assignment(cost: list[list[int]]) -> tuple[int, list[int], list[int], list[int]]:
    """Potential-based O(m^3) assignment on a square integer matrix.

    The duals start at the row minima (u_i = min_j cost[i][j], v = 0), which
    are feasible for any matrix, and each row costs one
    shortest-augmenting-path phase.  Returns (total cost, column of each
    row, row duals u, column duals v); every reduced cost
    cost[i][j] - u[i] - v[j] ends >= 0 and is 0 on the chosen pairs, so
    (u, v) is an optimal dual.
    """
    m = len(cost)
    if m == 0:
        return 0, [], [], []
    if any(len(row) != m for row in cost):
        raise InvalidParamsError("cost matrix must be square")
    u = [0] + [min(row) for row in cost]  # 1-based, slot 0 unused
    # An "infinity" above every reduced cost of any integer matrix.  With
    # spread = max - min entry, a phase's augmenting path costs at most
    # spread (the direct edge from the new row, whose dual is still its row
    # minimum, to a free column, whose dual is still 0), so a column dual
    # falls by at most spread per phase and by at most m * spread overall.
    # A row's dual equals its matched cost minus that column's dual, so
    # every reduced cost c - u - v is at most (m + 1) * spread.
    spread = max(map(max, cost)) - min(u[1:])
    big = (m + 1) * spread + 1
    v = [0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row occupying column j (1-based)
    for i in range(1, m + 1):
        match[0] = i
        j0 = 0
        minv = [big] * (m + 1)
        used = [False] * (m + 1)
        way = [0] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = big
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [0] * m
    for j in range(1, m + 1):
        row_to_col[match[j] - 1] = j - 1
    total = sum(cost[i][row_to_col[i]] for i in range(m))
    return total, row_to_col, u[1:], v[1:]


def _lex_first_tight_assignment(tight: list[list[int]], cols: list[int]) -> list[int]:
    """Lexicographically first perfect matching of the tight pairs.

    tight[i] lists, in increasing order, the columns j with (i, j) tight
    under an optimal dual, and cols is a perfect matching of those pairs.
    The optimal assignments are then exactly the perfect matchings of the
    tight pairs, whichever optimal dual was used.  Rows are fixed in order:
    row i takes the smallest tight column j for which an alternating path
    through the unfixed rows leads from j's current row to row i's current
    column, and the matching is rotated along that path.
    """
    m = len(tight)
    cols = list(cols)
    row_of = [0] * m
    for i, j in enumerate(cols):
        row_of[j] = i
    for i in range(m):
        target = cols[i]
        for j in tight[i]:
            if j == target:
                break
            start = row_of[j]
            if start < i:  # column taken by a fixed row
                continue
            parent = {start: -1}
            queue = [start]
            end = -1
            for r in queue:
                if target in tight[r]:
                    end = r
                    break
                for c in tight[r]:
                    owner = row_of[c]
                    if owner > i and owner not in parent:
                        parent[owner] = r
                        queue.append(owner)
            if end == -1:
                continue
            # Rotate: end takes target, each row on the path takes the
            # column of the row after it, and row i takes j.
            take = target
            r = end
            while r != -1:
                cols[r], take = take, cols[r]
                row_of[cols[r]] = r
                r = parent[r]
            cols[i] = j
            row_of[j] = i
            break
    return cols


def hungarian(cost: list[list[int]]) -> tuple[int, list[int]]:
    """Minimum-cost perfect assignment on a square integer matrix.

    Potential-based O(m^3) method; all arithmetic stays integral, so the
    optimum is exact.  Returns (total cost, column chosen for each row).
    """
    total, cols, _, _ = _assignment(cost)
    return total, cols


def lex_smallest_optimal_assignment(cost: list[list[int]]) -> tuple[int, list[int]]:
    """Among all minimum-cost assignments, the lexicographically first one.

    Read off the equality subgraph of the solver's optimal duals: every
    optimal assignment is tight under any optimal dual.
    """
    total, cols, u, v = _assignment(cost)
    tight = [[j for j, c in enumerate(row) if c == u[i] + v[j]] for i, row in enumerate(cost)]
    return total, _lex_first_tight_assignment(tight, cols)


def _alternating_reach(
    adj: Sequence[Sequence[int]], match_left: list[int], match_right: list[int]
) -> tuple[set[int], set[int]]:
    """Left and right vertices reached by alternating paths from unmatched left ones.

    With the matching maximum, the reached left set Z satisfies
    |N(Z)| = |Z| - (number of unmatched left vertices), the Hall deficiency
    certificate, and (left not reached) + (right reached) is a minimum
    vertex cover (Koenig's theorem).
    """
    queue = deque(u for u in range(len(adj)) if match_left[u] == -1)
    seen_left = set(queue)
    seen_right: set[int] = set()
    while queue:
        u = queue.popleft()
        for r in adj[u]:
            if r in seen_right:
                continue
            seen_right.add(r)
            w = match_right[r]
            if w != -1 and w not in seen_left:
                seen_left.add(w)
                queue.append(w)
    return seen_left, seen_right


def _bit_reach(rows: Sequence[int], match: Sequence[int]) -> tuple[set[int], int]:
    """Rows and column bits reached by alternating paths from the free rows.

    One breadth-first search from all free rows of a finished matching; with
    the matching maximum, (rows not reached) + (columns reached) is a
    minimum vertex cover (Koenig's theorem).
    """
    owner = {b: i for i, b in enumerate(match) if b}
    queue = [i for i, b in enumerate(match) if not b]
    seen = 0
    for r in queue:
        new = rows[r] & ~seen
        seen |= new
        while new:
            b = new & -new
            new ^= b
            queue.append(owner[b])
    return set(queue), seen


def set_decompose_edge(g: Graph, x: int, y: int) -> dict[str, object]:
    """The split of `graphs.decompose_edge` built through sets, field by field, and P_xy."""
    masks = neighbor_masks(g)
    gx = g.neighbors(x)
    gy_set = set(g.neighbors(y))
    delta = tuple(v for v in gx if v in gy_set)
    delta_set = set(delta)
    nx = tuple(v for v in gx if v not in delta_set and v != y)
    ny = tuple(v for v in g.neighbors(y) if v not in delta_set and v != x)
    ny_mask = sum(1 << v for v in ny)
    closed = {x, y, *delta, *nx, *ny}
    return {
        "delta": delta,
        "nx": nx,
        "ny": ny,
        "ny_mask": ny_mask,
        "rows": tuple(masks[v] & ny_mask for v in nx),
        "pxy": tuple(v for v in range(g.n) if v not in closed),
    }


def list_two_matching_assignment(h1, near, want_witness):
    """The two-matching {1, 2, 3} assignment on index lists, by Hopcroft-Karp.

    h1[i] lists, in increasing order, the columns j with cost 1 and near(i)
    those with cost at most 2.  The cost is 3m - nu(H1) - nu(H_delta) (Kao,
    Lam, Sung and Ting); the witness is the lex-first perfect matching of
    the pairs tight under the dual 1_C1 + 1_C2 of the two Koenig covers.
    This is the list engine the bit-row `transport._two_matching_assignment`
    replaced, kept as its reference.
    """
    m = len(h1)
    match, match_right = _hopcroft_karp(h1, m)
    if -1 not in match:
        return m, _lex_first_tight_assignment(h1, match) if want_witness else None
    reached, cover = _alternating_reach(h1, match, match_right)
    h_delta = [
        h1[i] + [j for j in near(i) if j not in cover]
        if i in reached
        else [j for j in h1[i] if j not in cover]
        for i in range(m)
    ]
    match_delta, match_delta_right = _hopcroft_karp(h_delta, m)
    cost = 3 * m - (m - match.count(-1)) - (m - match_delta.count(-1))
    if not want_witness:
        return cost, None
    reached_delta, cover_delta = _alternating_reach(h_delta, match_delta, match_delta_right)
    y_col = [(j in cover) + (j in cover_delta) for j in range(m)]
    tight = []
    for i in range(m):
        y_i = (i not in reached) + (i not in reached_delta)
        near_i, h1_i = set(near(i)), set(h1[i])
        tight.append([j for j in range(m) if (j in near_i) + (j in h1_i) == y_i + y_col[j]])
    cols, _ = _hopcroft_karp(tight, m)
    return cost, _lex_first_tight_assignment(tight, cols)


def all_pairs_classify_regularity(g: Graph) -> RegularityClass:
    """`graphs.classify_regularity` by testing all n(n-1)/2 vertex pairs."""
    if g.n < 2:
        raise InvalidParamsError("classification needs at least two vertices")
    degs = g.degree_sequence()
    d = degs[0]
    if any(deg != d for deg in degs):
        return RegularityClass(RegularityKind.IRREGULAR)
    if d == 0 or d == g.n - 1:
        return RegularityClass(RegularityKind.REGULAR, degree=d)
    masks = neighbor_masks(g)
    alphas: set[int] = set()
    betas: set[int] = set()
    every_nonadjacent_close = True
    for u in range(g.n):
        row = masks[u]
        for v in range(u + 1, g.n):
            c = (row & masks[v]).bit_count()
            if row >> v & 1:
                alphas.add(c)
            elif c > 0:
                # Non-adjacent with a common neighbor is exactly distance 2.
                betas.add(c)
            else:
                every_nonadjacent_close = False
    if len(alphas) > 1 or len(betas) > 1 or not betas:
        return RegularityClass(RegularityKind.REGULAR, degree=d)
    params = SrgParams(g.n, d, alphas.pop(), betas.pop())
    if every_nonadjacent_close:
        return RegularityClass(RegularityKind.STRONGLY_REGULAR, degree=d, params=params)
    return RegularityClass(RegularityKind.AMPLY_REGULAR, degree=d, params=params)


def paley_automorphisms(q: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the affine maps t -> a t + b, a a nonzero square, of P(q).

    Each map is a vertex permutation (image of every field index): the m
    translations by the basis elements 1, t, ..., t^(m-1) of GF(p^m), which
    generate every translation, and t -> g^2 t for the first primitive
    element g in index order, which generates every square multiplier.
    The group they generate is transitive on the edges of P(q).
    """
    field = families._paley_field(q)
    p, m = field.p, field.m
    # t^k has the index p^(m-1-k): the constant term is the leading digit.
    maps = [tuple(families._translation((p,) * m, p ** (m - 1 - k))) for k in range(m)]
    square = Element.of(field, _power_walk(field)[2])
    maps.append(tuple(poly_mul(square, Element.of(field, e)).index for e in field.elements()))
    return tuple(maps)


@dataclass(frozen=True)
class Element:
    """An element of GF(p^m) as its m coefficients over GF(p), constant term first.

    The tests' polynomial form of the elements that `src/` handles as
    indices: elements add and subtract coefficient by coefficient, and
    `poly_mul` and `poly_pow` multiply them mod the field's modulus.
    """

    field: FiniteField
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, field: FiniteField, index: int) -> "Element":
        """The element numbered index: its base-p digits, constant term most significant."""
        digits = []
        for _ in range(field.m):
            index, digit = divmod(index, field.p)
            digits.append(digit)
        return cls(field, tuple(reversed(digits)))

    @property
    def index(self) -> int:
        return _index(self.coeffs, self.field.p)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        p = self.field.p
        return Element(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        p = self.field.p
        return Element(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))


def _poly_mulmod(a: Poly, b: Poly, modulus: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _poly_powmod(base: Poly, exp: int, modulus: Poly, p: int) -> Poly:
    result: Poly = (1,)
    b = _poly_mod(list(base), modulus, p)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, b, modulus, p)
        b = _poly_mulmod(b, b, modulus, p)
        exp >>= 1
    return result


def _pad(field: FiniteField, coeffs: Poly) -> tuple[int, ...]:
    return tuple(coeffs) + (0,) * (field.m - len(coeffs))


def poly_mul(a: Element, b: Element) -> Element:
    """a * b as polynomials mod the field's modulus."""
    f = a.field
    prod = _poly_mulmod(_trim(list(a.coeffs)), _trim(list(b.coeffs)), f.modulus, f.p)
    return Element(f, _pad(f, prod))


def poly_pow(a: Element, exp: int) -> Element:
    """a ** exp by square-and-multiply on polynomials."""
    f = a.field
    return Element(f, _pad(f, _poly_powmod(_trim(list(a.coeffs)), exp, f.modulus, f.p)))


def euler_is_nonzero_square(field: FiniteField, a: int) -> bool:
    """Euler criterion on the element of index a: a != 0 and a^((q-1)/2) = 1, by poly_pow."""
    if a == 0:
        return False
    if field.q % 2 == 0:
        return True  # every element of a characteristic-2 field is a square
    return poly_pow(Element.of(field, a), (field.q - 1) // 2).coeffs == _pad(field, (1,))


@lru_cache(maxsize=None)
def _walk_logs(field: FiniteField) -> dict[int, int]:
    return {e: k for k, e in enumerate(_power_walk(field))}


def table_product(field: FiniteField, a: int, b: int) -> int:
    """Index of a * b read off the power walk: the logs of nonzero factors add mod q - 1."""
    if a == 0 or b == 0:
        return 0
    log = _walk_logs(field)
    return _power_walk(field)[(log[a] + log[b]) % (field.q - 1)]


def table_power(field: FiniteField, a: int, exp: int) -> int:
    """Index of a ** exp, exp >= 0, read off the power walk: the log of a times exp."""
    if a == 0:
        return _power_walk(field)[0] if exp == 0 else 0
    return _power_walk(field)[_walk_logs(field)[a] * exp % (field.q - 1)]


def squaring_square_index_set(field: FiniteField) -> frozenset[int]:
    """Indices of the nonzero squares, obtained by squaring every element.

    Each nonzero coefficient tuple c is squared as c * c mod the modulus; a
    prime field is the case m = 1, modulus t.  This is the reference of
    fields.square_index_set, which reads the squares off the power walk.
    """
    p, modulus = field.p, field.modulus
    squares = set()
    for coeffs in islice(product(range(p), repeat=field.m), 1, None):  # zero comes first
        c = _trim(list(coeffs))
        squares.add(_index(_pad(field, _poly_mulmod(c, c, modulus, p)), p))
    return frozenset(squares)


def _edge_orbits(
    g: Graph, edges: list[tuple[int, int]], automorphisms: Sequence[Sequence[int]]
) -> list[int]:
    """For each edge, the index of the first edge of its orbit.

    edges must be list(g.edges()), and each map a permutation of range(n).
    From each edge not yet labelled, in edge order, the walk applies every
    map to every edge it reaches, so it labels exactly the orbit of that
    edge under the group the maps generate.  The walk is also the check
    that each map is an automorphism of g: it sends every edge through
    every map, and a permutation that carries every edge onto an edge is
    an automorphism, so an image that is not an edge raises.
    """
    for sigma in automorphisms:
        if len(sigma) != g.n or set(sigma) != set(range(g.n)):
            raise InvalidParamsError("an automorphism must be a permutation of range(n)")
    index = {e: i for i, e in enumerate(edges)}
    roots = [-1] * len(edges)
    for first in range(len(edges)):
        if roots[first] != -1:
            continue
        roots[first] = first
        orbit = [first]
        for i in orbit:
            x, y = edges[i]
            for sigma in automorphisms:
                a, b = sigma[x], sigma[y]
                j = index.get((a, b) if a < b else (b, a))
                if j is None:  # sigma[y] is not a neighbor of sigma[x]
                    raise InvalidParamsError(f"map does not preserve the neighbors of vertex {x}")
                if roots[j] == -1:
                    roots[j] = first
                    orbit.append(j)
    return roots


def canonical_pair(field: FiniteField) -> tuple[int, int]:
    """(0, c) with c the index-smallest nonzero square, by the Euler criterion.

    Affine maps t -> a t + b with a a nonzero square act transitively on
    square-difference pairs, so verifying one pair verifies them all.
    tests/test_residues.py::test_paley_edges_form_one_orbit checks that
    transitivity for every Paley order q <= 101, with generators verified
    as automorphisms of P(q).
    """
    for c in field.elements():
        if euler_is_nonzero_square(field, c):
            return 0, c
    raise InvalidOrderError(f"GF({field.q}) has no nonzero square")


def coefficient_pattern_witness(
    field: FiniteField, x: int, y: int, subset: Sequence[int]
) -> tuple[int, int] | None:
    """residues.find_pattern_witness on coefficient tuples, in and out as indices.

    Every difference is taken coefficient by coefficient on Elements and
    numbered by _index before it is looked up among the squares, where
    the index version subtracts the indices digit by digit.
    """
    squares = square_index_set(field)
    xe, ye = Element.of(field, x), Element.of(field, y)
    if (xe - ye).index not in squares:
        raise InvalidPairError("x - y must be a nonzero square")
    members = [Element.of(field, v) for v in sorted(subset) if v != x and v != y]
    side_x = [w for w in members if (xe - w).index in squares and (ye - w).index not in squares]
    side_y = [z for z in members if (z - ye).index in squares and (xe - z).index not in squares]
    for w in side_x:
        for z in side_y:
            if (w - z).index in squares:
                return (w.index, z.index)
    return None


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Connected random d-regular simple graph, deterministic in the seed.

    Pairs stubs one edge at a time, restarting with a derived seed whenever
    the construction wedges or the result is disconnected.
    """
    if n * d % 2 or d >= n or d < 1:
        raise InvalidParamsError(f"no {d}-regular graph on {n} vertices")
    if d == 1 and n > 2:
        raise InvalidParamsError(f"a 1-regular graph on {n} > 2 vertices is never connected")
    attempt = 0
    while True:
        rng = random.Random(f"{seed}:{attempt}")
        g = _try_regular(n, d, rng)
        if g is not None and is_connected(g):
            return g
        attempt += 1


def _try_regular(n: int, d: int, rng: random.Random) -> Graph | None:
    # candidates stays, in order, the unused pairs of unsaturated vertices:
    # the drawn pair leaves it, and a vertex's pairs leave when it saturates.
    remaining = {v: d for v in range(n)}
    adj: set[tuple[int, int]] = set()
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while remaining:
        if not candidates:
            return None
        u, v = pair = rng.choice(candidates)
        candidates.remove(pair)
        adj.add(pair)
        for w in (u, v):
            remaining[w] -= 1
            if remaining[w] == 0:
                del remaining[w]
                candidates = [c for c in candidates if w not in c]
    return Graph(n, adj)


def parse_csv(text: str) -> list[dict[str, int | None]]:
    """Read back a scan or curvature CSV emission; an empty field reads as None."""
    rows = []
    header: list[str] | None = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append({k: int(v) if v else None for k, v in zip(header, line.split(","))})
    return rows
