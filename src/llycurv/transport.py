"""Exact optimal transport on graphs and the two curvature notions built on it.

Everything is rational: Wasserstein distances come from an integer min-cost
flow after clearing denominators, and the curvature of an edge of a
d-regular graph comes from the minimum-cost bijection between the punctured
neighborhoods N_x and N_y under costs in {1, 2, 3}.  That bijection is
decided by unweighted maximum matchings on integer bit rows, H1 being the
rows of H(x, y) that `graphs._split` builds: a perfect matching of the
distance-1 pairs H1 decides the edge outright, and otherwise the
decomposition theorem of Kao, Lam, Sung and Ting gives the cost as
3m - nu(H1) - nu(H_delta), H_delta's rows built from bits against the
Koenig cover of H1, which `matching._bit_matching` returns with the
matching (its failed searches are the cover's reach).  H_delta's matching
continues in H1's matching list, and most of its free rows take a free
column of their own row with no search; each matching's free-row count is
its reach less its cover, so the cost is m plus the two counts, with no
walk over the rows.  The witness, the lexicographically first optimal
bijection, is found on the same bit rows (`matching._lex_first_matching`).
The two routes are deliberately independent so they can cross-check each
other through the identity kappa = (d+1)/d * kappa_{1/(d+1)}.  A spectrum
solves each contiguous chunk of edges in one call: each edge, taken from
g.edges(), is split once straight from the neighbour masks, and the chunk
builds each vertex's 2-ball and each Fraction k/d of a kappa or bound
once, in tables it drops on return.  d is fixed, so the least kappa is
that of the largest integer cost, and no Fractions are compared.  The
least kappa alone (`_worst_cost`) builds no report: H_delta holds H1's
matching, so an edge's cost lies between m plus H1's free rows and m plus
twice them, and an edge whose upper bound cannot pass the largest cost
already proved stops there, most before H_delta is built.
lly_curvature splits its one edge through `graphs.decompose_edge`, which
checks the edge.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence, TypeVar

from .errors import (
    DisconnectedError,
    InfiniteDistanceError,
    InvalidIdlenessError,
    InvalidParamsError,
    NotAnEdgeError,
    NotRegularError,
)
from .families import _paley_root_split
from .graphs import (
    EdgeNeighborhood,
    Graph,
    _split,
    _two_ball,
    bfs_distances,
    decompose_edge,
    is_connected,
    neighbor_masks,
)
from .matching import _bit_matching, _greedy_matching, _lex_first_matching


_T = TypeVar("_T")


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Finitely supported measure; masses are positive fractions summing to 1.

    The support must be a tuple of (vertex, mass) tuples, so the frozen
    measure hashes.  Vertices must be ints and masses ints or Fractions: W1
    indexes with the vertices and clears the masses' denominators, and a
    float sum of 1.0 is no exact check.
    """

    support: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if type(self.support) is not tuple or any(
            type(entry) is not tuple or len(entry) != 2 for entry in self.support
        ):
            raise InvalidParamsError("support must be a tuple of (vertex, mass) tuples")
        if any(type(v) is not int or type(mass) not in (int, Fraction) for v, mass in self.support):
            raise InvalidParamsError("support vertices must be ints and masses ints or Fractions")
        verts = [v for v, _ in self.support]
        if verts != sorted(set(verts)):
            raise InvalidParamsError("support must be sorted with distinct vertices")
        if any(mass <= 0 for _, mass in self.support):
            raise InvalidParamsError("masses must be positive")
        if sum((mass for _, mass in self.support), Fraction(0)) != 1:
            raise InvalidParamsError("masses must sum to exactly 1")

    @classmethod
    def point(cls, v: int) -> "ProbabilityMeasure":
        return cls(((v, Fraction(1)),))

    @classmethod
    def from_dict(cls, masses: dict[int, Fraction]) -> "ProbabilityMeasure":
        return cls(tuple(sorted((v, Fraction(m)) for v, m in masses.items() if m)))


def lazy_walk_measure(g: Graph, x: int, p: Fraction | int) -> ProbabilityMeasure:
    """Mass p at x and (1-p)/deg(x) on each neighbor."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidIdlenessError(f"idleness {p} outside [0, 1]")
    if p == 1:
        return ProbabilityMeasure.point(x)
    deg = g.degree(x)
    if deg == 0:
        raise InvalidParamsError(f"vertex {x} is isolated; only p = 1 is meaningful")
    masses: dict[int, Fraction] = {w: (1 - p) / deg for w in g.neighbors(x)}
    if p > 0:
        masses[x] = p
    return ProbabilityMeasure.from_dict(masses)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two measures together with its (already minimal) cost."""

    entries: tuple[tuple[int, int, Fraction], ...]
    total_cost: Fraction


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature of one edge plus the quantities the upper bound is made of."""

    x: int
    y: int
    kappa: Fraction
    delta_size: int
    upper_bound: Fraction
    sharp: bool
    min_bijection_cost: int
    witness: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class CurvatureSpectrum:
    reports: tuple[CurvatureReport, ...]
    min_kappa: Fraction


def _transportation(
    supplies: list[int], demands: list[int], cost: list[list[int]]
) -> tuple[int, list[list[int]]]:
    """Integer transportation problem via successive shortest paths.

    Row i is node i and column j is node nl + j.  The residual arcs are the
    forward arcs (i, nl + j, cost[i][j]), in row-major order, then the
    backward arcs (nl + j, i, -cost[i][j]) of the pairs carrying flow, in
    column-major order.  Each round, Bellman-Ford from every row with supply
    left finds a shortest path to the first column of least distance among
    those with demand left, and the path's bottleneck is pushed along it.
    """
    nl, nr = len(supplies), len(demands)
    flow = [[0] * nr for _ in range(nl)]
    sup, dem = list(supplies), list(demands)
    forward = [(i, nl + j, cost[i][j]) for i in range(nl) for j in range(nr)]
    while any(s > 0 for s in sup):
        backward = [(nl + j, i, -cost[i][j]) for j in range(nr) for i in range(nl) if flow[i][j]]
        dist: list[int | None] = [0 if s > 0 else None for s in sup] + [None] * nr
        parent = [-1] * (nl + nr)
        for _ in range(nl + nr):
            changed = False
            for u, v, c in forward + backward:
                du, dv = dist[u], dist[v]
                if du is not None and (dv is None or du + c < dv):
                    dist[v] = du + c
                    parent[v] = u
                    changed = True
            if not changed:
                break
        open_columns = [j for j in range(nr) if dem[j] > 0 and dist[nl + j] is not None]
        if not open_columns:
            raise InfiniteDistanceError("no residual path between remaining supports")
        target = min(open_columns, key=lambda j: dist[nl + j])
        # A column is entered by a forward arc, a row by a backward one.
        path, node = [], nl + target
        while parent[node] != -1:
            path.append(node)
            node = parent[node]
        bottleneck = min(sup[node], dem[target], *(flow[v][parent[v] - nl] for v in path if v < nl))
        for v in path:
            if v < nl:
                flow[v][parent[v] - nl] -= bottleneck
            else:
                flow[parent[v]][v - nl] += bottleneck
        sup[node] -= bottleneck
        dem[target] -= bottleneck
    total = sum(flow[i][j] * cost[i][j] for i in range(nl) for j in range(nr))
    return total, flow


def wasserstein_w1(
    g: Graph, mu1: ProbabilityMeasure, mu2: ProbabilityMeasure
) -> tuple[Fraction, TransportPlan]:
    """Exact W1 between two measures, with a plan achieving it."""
    s1 = [v for v, _ in mu1.support]
    s2 = [v for v, _ in mu2.support]
    for v in s1 + s2:
        if not 0 <= v < g.n:
            raise InvalidParamsError(f"support vertex {v} outside graph")
    dist_rows = [bfs_distances(g, v) for v in s1]
    if any(dist_rows[0][v] is None for v in s1 + s2):
        raise InfiniteDistanceError("measure supports span several components")
    cost = [[dist_rows[i][w] for w in s2] for i in range(len(s1))]
    denom = math.lcm(
        *(mass.denominator for _, mass in mu1.support),
        *(mass.denominator for _, mass in mu2.support),
    )
    supplies = [int(mass * denom) for _, mass in mu1.support]
    demands = [int(mass * denom) for _, mass in mu2.support]
    total, flow = _transportation(supplies, demands, cost)
    entries = tuple(
        (s1[i], s2[j], Fraction(flow[i][j], denom))
        for i in range(len(s1))
        for j in range(len(s2))
        if flow[i][j]
    )
    w1 = Fraction(total, denom)
    return w1, TransportPlan(entries=entries, total_cost=w1)


def ollivier_kappa_p(g: Graph, x: int, y: int, p: Fraction | int) -> Fraction:
    """p-Ollivier curvature 1 - W1(mu_x^p, mu_y^p) of the edge xy."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidIdlenessError(f"idleness {p} outside [0, 1]")
    if not g.has_edge(x, y):
        raise NotAnEdgeError(f"({x},{y}) is not an edge")
    w1, _ = wasserstein_w1(g, lazy_walk_measure(g, x, p), lazy_walk_measure(g, y, p))
    return 1 - w1


def _two_matching_assignment(
    h1: Sequence[int], near: Callable[[int], int], ymask: int, want_witness: bool
) -> tuple[int, list[int] | None]:
    """Minimum cost of a bijection whose costs lie in {1, 2, 3}, and its witness.

    Each row is an integer whose set bits are its columns, all within
    ymask.  h1[i] holds the columns with cost 1 (the pairs at distance 1,
    H1), and near(i) those with cost at most 2.  With weights
    w = 3 - cost in {0, 1, 2}, the decomposition theorem of Kao, Lam, Sung
    and Ting (SIAM J. Comput. 31, 2001) gives the maximum weight from two
    unweighted maximum matchings:
    let C1 be a minimum vertex cover of H1 and keep in H_delta the pairs
    with w - [i in C1] - [j in C1] >= 1; then the least cost is
    3m - nu(H1) - nu(H_delta).  When H1 has a perfect matching this is m
    and H1 holds every optimal bijection.

    Otherwise, with C2 a minimum vertex cover of H_delta, the dual
    y = 1_C1 + 1_C2 is feasible (w <= y_i + y_j) and sums to the optimum,
    so the optimal bijections are the perfect matchings of the tight pairs
    w = y_i + y_j.  The witness, when requested, is the lexicographically
    first of them, as the column bit of each row.
    """
    m = len(h1)
    # Koenig: C1 is the rows not reached plus the columns reached (R).
    match, reached, cover = _bit_matching(h1)
    if not reached:  # no free row: H1 is perfect
        if not want_witness:
            return m, None
        return m, _lex_first_matching(h1, match)
    _, reached_delta, cover_delta = _bit_matching(_h_delta(h1, near, reached, cover), match)
    # Koenig again: a matching leaves |reached| - |cover| rows free, and
    # 3m - nu(H1) - nu(H_delta) is m plus the free rows of both matchings.
    cost = m + len(reached) - cover.bit_count() + len(reached_delta) - cover_delta.bit_count()
    if not want_witness:
        return cost, None
    # Column bits by their dual 0, 1 or 2, and each row's pairs by their
    # weight: w(i, j) = [j in near(i)] + [j in h1[i]].
    y_col = (ymask & ~(cover | cover_delta), cover ^ cover_delta, cover & cover_delta)
    tight = []
    for i in range(m):
        y_i = (i not in reached) + (i not in reached_delta)
        near_i = near(i)
        w = (ymask & ~near_i, near_i & ~h1[i], h1[i])
        row = 0
        for k in range(y_i, 3):
            row |= w[k] & y_col[k - y_i]
        tight.append(row)
    match_tight = _bit_matching(tight)[0]
    return cost, _lex_first_matching(tight, match_tight)


def _h_delta(
    h1: Sequence[int], near: Callable[[int], int], reached: set[int], cover: int
) -> list[int]:
    """The rows of H_delta, from H1's rows and the Koenig reach and cover of its matching.

    C1 is the rows not reached plus the columns reached (R).  A reached row
    has all of its H1 columns in R, so the columns of near(i) outside R are
    at cost 2; a row in C1 keeps only its H1 pairs whose column is outside
    R.  H1's matching lies in H_delta: a reached row keeps its H1 row, and
    the column matched to an unreached row is not reached, so H_delta's
    matching continues in H1's list.
    """
    keep = ~cover
    return [row | near(i) & keep if i in reached else row & keep for i, row in enumerate(h1)]


def _near(g: Graph, balls: list[int], nx: Sequence[int], ymask: int) -> Callable[[int], int]:
    """near(i), the columns of ymask within distance 2 of nx[i].

    balls[v] is the 2-ball of v, or 0 until some edge needs it; the caller
    owns the list and decides how many edges share it.
    """

    def near(i: int) -> int:
        # v -> u costs 1 when adjacent, 2 when they share a neighbor, else 3
        # (the path v-x-y-u).
        v = nx[i]
        ball = balls[v]
        if not ball:
            ball = balls[v] = _two_ball(g, v)
        return ball & ymask

    return near


def _edge_report(
    g: Graph,
    parts: EdgeNeighborhood,
    want_witness: bool,
    balls: list[int],
    over: Callable[[int], Fraction],
) -> CurvatureReport:
    """lly_curvature of a split edge of a graph already known to be regular.

    balls is `_near`'s list of 2-balls and over(k) is the Fraction k/d; the
    caller owns both and decides how many edges share them.
    """
    nx, ymask = parts.nx, parts.ny_mask
    near = _near(g, balls, nx, ymask)
    min_cost, bits = _two_matching_assignment(parts.rows, near, ymask, want_witness)
    delta_size = parts.delta_mask.bit_count()
    d = len(nx) + delta_size + 1  # x's neighbours: N_x, delta and y
    witness = None if bits is None else tuple((v, b.bit_length() - 1) for v, b in zip(nx, bits))
    return CurvatureReport(
        x=parts.x,
        y=parts.y,
        kappa=over(d + 1 - min_cost),
        delta_size=delta_size,
        upper_bound=over(2 + delta_size),
        # kappa = (2 + delta)/d exactly when C = d - 1 - delta = |N_x|
        sharp=min_cost == len(nx),
        min_bijection_cost=min_cost,
        witness=witness,
    )


def lly_curvature(g: Graph, x: int, y: int, want_witness: bool = False) -> CurvatureReport:
    """Lin-Lu-Yau curvature of the edge xy of a regular graph.

    kappa = (d + 1 - C)/d where C is the minimum cost of a bijection
    N_x -> N_y under graph distance (entries lie in {1, 2, 3}).  A perfect
    matching of N_x and N_y decides C = |N_x| outright; otherwise
    C = 3m - nu(H1) - nu(H_delta) from a second maximum matching
    (_two_matching_assignment).  When a witness is requested it is the
    lexicographically smallest optimal bijection, listed in N_x order.
    """
    if not g.is_regular():
        raise NotRegularError("Lin-Lu-Yau curvature is only computed for regular graphs")
    parts = decompose_edge(g, x, y)
    over = partial(Fraction, denominator=g.degree(x))
    return _edge_report(g, parts, want_witness, [0] * g.n, over)


def paley_kappa(q: int) -> Fraction:
    """kappa of every edge of P(q), solved on the edge (0, c) with no graph.

    families._paley_root_split checks that the edges of P(q) form one orbit
    and builds the split of (0, c) from the squares S.  P(q) has diameter 2, so
    every pair of N_x and N_y costs at most 2 and near(i) is all of N_y.
    """
    split = _paley_root_split(q)
    d, ny_mask = (q - 1) // 2, split.ny_mask
    min_cost, _ = _two_matching_assignment(split.rows, lambda i: ny_mask, ny_mask, False)
    return Fraction(d + 1 - min_cost, d)


def _spectrum_chunk(g: Graph, edges: Sequence[tuple[int, int]]) -> list[CurvatureReport]:
    """The reports of a run of edges of g, which share one list of 2-balls.

    Each edge is split once, straight from the neighbour masks: the edges
    come from g.edges(), so none needs decompose_edge's checks.  Each ball
    is built the first time an edge needs it, and each Fraction k/d the
    first time a kappa or bound needs it (d is fixed on a regular graph);
    both are dropped when the chunk returns, and nothing is kept on the graph.
    """
    balls = [0] * g.n
    mask_of = neighbor_masks(g).__getitem__
    over = cache(partial(Fraction, denominator=g.degree(edges[0][0])))
    return [_edge_report(g, _split(x, y, mask_of), False, balls, over) for x, y in edges]


def _worst_chunk_cost(g: Graph, edges: Sequence[tuple[int, int]]) -> int:
    """The largest least bijection cost C over a run of edges of g.

    C = m + f1 + f2, f1 and f2 the free rows of the maximum matchings of H1
    and H_delta, and H_delta holds H1's matching, so f2 <= f1 and
    m + f1 <= C <= m + 2 f1; the free rows of the greedy pass bound f1 from
    above.  The edges are taken in order against the largest C proved so
    far, worst: an edge stops at the first upper bound that does not pass
    worst, and H1's matching raises worst to m + f1 before H_delta is
    built.  The edges are split and their 2-balls kept as in
    `_spectrum_chunk`.
    """
    balls = [0] * g.n
    mask_of = neighbor_masks(g).__getitem__
    worst = 0
    for x, y in edges:
        parts = _split(x, y, mask_of)
        h1 = parts.rows
        m = len(h1)
        match, _ = _greedy_matching(h1)
        if m + 2 * match.count(0) <= worst:
            continue
        _, reached, cover = _bit_matching(h1, match)
        f1 = len(reached) - cover.bit_count()
        worst = max(worst, m + f1)
        if m + 2 * f1 <= worst:
            continue
        near = _near(g, balls, parts.nx, parts.ny_mask)
        _, reached_delta, cover_delta = _bit_matching(_h_delta(h1, near, reached, cover), match)
        worst = max(worst, m + f1 + len(reached_delta) - cover_delta.bit_count())
    return worst


def _map_chunks(
    solve: Callable[[Graph, list[tuple[int, int]]], _T], g: Graph, processes: int
) -> list[_T]:
    """solve(g, chunk) for each contiguous chunk of g's edges, in edge order.

    g must be regular, have an edge and be connected.  The edges are cut
    into at most processes chunks, one per worker; with one process the
    whole edge list is one chunk.  processes is capped at the core count
    and at the number of edges.
    """
    if not g.is_regular():
        raise NotRegularError("curvature spectrum needs a regular graph")
    edges = list(g.edges())
    if not edges:
        raise InvalidParamsError("graph has no edges")
    if not is_connected(g):
        raise DisconnectedError("curvature spectrum needs a connected graph")
    processes = min(processes, os.cpu_count() or 1, len(edges))
    if processes <= 1 or len(edges) < 4:
        return [solve(g, edges)]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    size = -(-len(edges) // processes)
    chunks = [edges[i : i + size] for i in range(0, len(edges), size)]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(solve, [g] * len(chunks), chunks, chunksize=1))


def curvature_spectrum(g: Graph, processes: int = 1) -> CurvatureSpectrum:
    """One curvature report per edge (sorted edge order) plus the minimum.

    The edges are solved in contiguous chunks (`_map_chunks`), so their
    reports come back in edge order.
    """
    reports = tuple(r for run in _map_chunks(_spectrum_chunk, g, processes) for r in run)
    # d is fixed, so the least kappa (d + 1 - C)/d is that of the largest cost C.
    d, worst = g.degree(0), max(r.min_bijection_cost for r in reports)
    return CurvatureSpectrum(reports=reports, min_kappa=Fraction(d + 1 - worst, d))


def _worst_cost(g: Graph, processes: int = 1) -> int:
    """The largest least bijection cost C over the edges of g, the C of its least kappa.

    It takes curvature_spectrum's checks and chunks, and each chunk gives
    its largest C (`_worst_chunk_cost`), so no edge gets a report.
    """
    return max(_map_chunks(_worst_chunk_cost, g, processes))


def idleness_identity_check(g: Graph, x: int, y: int) -> tuple[Fraction, Fraction]:
    """Both sides of kappa = (d+1)/d * kappa_{1/(d+1)}, computed independently."""
    if not g.is_regular():
        raise NotRegularError("the idleness identity is stated for regular graphs")
    d = g.degree(x)
    via_assignment = lly_curvature(g, x, y).kappa
    via_flow = Fraction(d + 1, d) * ollivier_kappa_p(g, x, y, Fraction(1, d + 1))
    return via_assignment, via_flow
