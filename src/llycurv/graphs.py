"""Immutable simple graphs and their local structure.

A graph holds its adjacency in two forms, one sorted neighbor tuple per
vertex (its rows) and one integer bitmask per vertex (its masks), and
nothing mutates it.  It keeps whichever form it was built from and builds
the other the first time a caller reads it.  It has three constructors:
``Graph(n, edges)`` validates every edge (range, no loop; duplicates and
orientation are absorbed) and is the one for outside input and arbitrary
callers; ``Graph._from_rows(rows, mask_of)`` trusts rows that are already
sorted, symmetric and loop-free (the Cayley families, after their own
checks, which may hand over a builder of each vertex's mask);
and ``Graph._from_masks(masks)`` trusts masks that are already symmetric
and loop-free (the graph6 reader).  The per-edge paths (degree, edge
test, regularity, the decomposition around an edge, 2-balls) read the
masks only, so a graph read from graph6 and asked about one edge never
builds a row.  Alongside the type live the operations the curvature
machinery leans on: neighbor bitmasks (the one common-neighbor primitive
of the exact code), breadth-first distances, the 2-ball of a vertex as a
mask, the four-way decomposition of the vertex set around an edge
together with its local matching graph H(x, y) as bit rows, and
regularity classification, which decides the amply and strongly regular
parameters (n, d, alpha, beta) the paper's counting rests on.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import (
    InvalidParamsError,
    InvalidVertexError,
    NotAnEdgeError,
    TooLargeError,
)

VertexId = int

# Vertex v's mask is an integer of max(N(v)) + 1 bits, so a sparse graph's
# masks grow with n^2: on a JSON cycle of 2^16 vertices they took about
# 290 MB.  Every graph6 file fits (at most 2^27 vertex pairs, so under 2^28
# bits).
_MASK_BITS = 2**28


@dataclass(frozen=True)
class SrgParams:
    """Parameter tuple (n, d, alpha, beta) of a strongly/amply regular graph.

    n vertices, degree d, alpha common neighbors across an edge, beta common
    neighbors across a distance-2 pair.
    """

    n: int
    d: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if not (self.n > self.d >= 1):
            raise InvalidParamsError(f"need n > d >= 1, got n={self.n}, d={self.d}")
        if not (0 <= self.alpha <= self.d - 1):
            raise InvalidParamsError(f"need 0 <= alpha <= d-1, got alpha={self.alpha}")
        if not (0 <= self.beta <= self.d):
            raise InvalidParamsError(f"need 0 <= beta <= d, got beta={self.beta}")

    @property
    def is_conference(self) -> bool:
        """True when (n, d, alpha, beta) = (4g+1, 2g, g-1, g) for some g >= 1."""
        g, r = divmod(self.n - 1, 4)
        return r == 0 and g >= 1 and (self.d, self.alpha, self.beta) == (2 * g, g - 1, g)

    @property
    def gamma(self) -> int:
        """The g of a conference tuple (n = 4g + 1); only defined for those."""
        if not self.is_conference:
            raise InvalidParamsError(f"{self.as_tuple()} is not a conference tuple")
        return (self.n - 1) // 4

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.d, self.alpha, self.beta)


class Graph:
    """Simple undirected graph on vertices 0..n-1: sorted rows and neighbor masks.

    Either form is built from the other on first read and then kept.
    Equality and hashing compare the rows.
    """

    __slots__ = ("n", "_rows", "_masks", "_mask_of")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise InvalidParamsError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidParamsError(f"loop at vertex {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._rows: tuple[tuple[int, ...], ...] | None = tuple(tuple(sorted(s)) for s in adj)
        self._masks: tuple[int, ...] | None = None  # built by neighbor_masks
        self._mask_of: Callable[[VertexId], int] | None = None

    @classmethod
    def _from_rows(
        cls, rows: tuple[tuple[int, ...], ...], mask_of: Callable[[VertexId], int] | None = None
    ) -> Graph:
        """The graph with these adjacency rows, taken as they are.

        Nothing is checked: each row must be strictly increasing, w must
        be in row v exactly when v is in row w, and no row may hold its
        own vertex.  mask_of(v), when given, must be the mask of row v;
        neighbor_masks then builds the masks with it.
        """
        g = cls.__new__(cls)
        g.n = len(rows)
        g._rows = rows
        g._masks = None
        g._mask_of = mask_of
        return g

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> Graph:
        """The graph with these neighbor masks, taken as they are.

        Nothing is checked: bit w of masks[v] must be set exactly when bit
        v of masks[w] is, no mask may hold its own vertex's bit, and every
        bit must lie below len(masks).
        """
        g = cls.__new__(cls)
        g.n = len(masks)
        g._rows = None
        g._masks = masks
        g._mask_of = None
        return g

    @property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbor rows, built from the masks on first read."""
        if self._rows is None:
            self._rows = tuple(map(_set_bits, self._masks))
        return self._rows

    def neighbors(self, v: VertexId) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: VertexId) -> int:
        self._check_vertex(v)
        if self._rows is None:
            return self._masks[v].bit_count()
        return len(self._rows[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if self._rows is None:
            return self._masks[u] >> v & 1 == 1
        row = self._rows[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self._adj):
            for v in row:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self._adj)

    def is_regular(self) -> bool:
        if self._rows is None:
            return len(set(map(int.bit_count, self._masks))) <= 1
        return len(set(map(len, self._rows))) <= 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def neighbor_masks(g: Graph) -> tuple[int, ...]:
    """Bit w of masks[v] is set iff vw is an edge.

    (masks[u] & masks[v]).bit_count() is the number of common neighbors of
    u and v, and masks[u] >> v & 1 tells whether uv is an edge.  A graph
    read from graph6 is built from its masks; any other builds them on
    first use, with the mask_of its constructor was given or else from its
    rows, and keeps them, as the graph never changes.  Masks of more than
    _MASK_BITS bits in all raise TooLargeError before any is built.
    """
    if g._masks is None:
        bits = sum(row[-1] + 1 for row in g._rows if row)
        if bits > _MASK_BITS:
            raise TooLargeError(
                f"neighbor masks of this graph need {bits} bits, above the bound {_MASK_BITS}"
            )
        if g._mask_of is None:
            g._masks = tuple(sum(1 << w for w in row) for row in g._rows)
        else:
            g._masks = tuple(map(g._mask_of, range(g.n)))
    return g._masks


def _two_ball(g: Graph, v: VertexId) -> int:
    """The vertices within distance 2 of v as a mask: v, its neighbors and theirs."""
    masks = neighbor_masks(g)
    ball = masks[v] | 1 << v
    for w in _set_bits(masks[v]):
        ball |= masks[w]
    return ball


def bfs_distances(g: Graph, source: VertexId) -> list[int | None]:
    """Distances from source; None marks vertices in other components."""
    if not (0 <= source < g.n):
        raise InvalidVertexError(f"vertex {source} out of range for n={g.n}")
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] is None:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d is not None for d in bfs_distances(g, 0))


def all_pairs_distances(g: Graph) -> list[list[int | None]]:
    """One BFS per vertex; graphs here stay small enough to afford this."""
    return [bfs_distances(g, s) for s in range(g.n)]


def _set_bits(mask: int) -> tuple[int, ...]:
    """The positions of mask's set bits, lowest first.

    They are taken highest first, which costs one shift per bit where the
    lowest bit, mask & -mask, costs a negation and an AND.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class EdgeNeighborhood:
    """The neighbours of an edge xy as delta + nx + ny; P_xy is the vertices left over.

    delta holds the common neighbors and nx/ny the exclusive neighbors of
    x/y.  delta_mask and ny_mask are the neighbor-mask forms of delta and
    ny, and rows is the local matching graph H(x, y), built by _split.  The
    curvature paths read only nx, the masks and the rows, so the delta and
    ny tuples are built from their masks on first read.
    """

    x: VertexId
    y: VertexId
    nx: tuple[int, ...]
    delta_mask: int
    ny_mask: int
    rows: tuple[int, ...]

    @cached_property
    def delta(self) -> tuple[int, ...]:
        return _set_bits(self.delta_mask)

    @cached_property
    def ny(self) -> tuple[int, ...]:
        return _set_bits(self.ny_mask)


def _split(x: VertexId, y: VertexId, mask_of: Callable[[VertexId], int]) -> EdgeNeighborhood:
    """Split the neighbours of the edge xy into delta, N_x and N_y, with H(x, y).

    mask_of(v) is v's neighbour mask, and no set is built: N_x is x's mask
    less y's and y itself, N_y the other way round, delta is their AND, and
    rows[i], the row of nx[i] in H(x, y), is the mask of nx[i] cut to N_y.
    """
    gx, gy = mask_of(x), mask_of(y)
    nx = _set_bits(gx & ~gy & ~(1 << y))
    ny_mask = gy & ~gx & ~(1 << x)
    rows = tuple([mask_of(v) & ny_mask for v in nx])
    return EdgeNeighborhood(x=x, y=y, nx=nx, delta_mask=gx & gy, ny_mask=ny_mask, rows=rows)


def decompose_edge(g: Graph, x: VertexId, y: VertexId) -> EdgeNeighborhood:
    """The _split of the edge xy of g, read off its neighbour masks."""
    if not g.has_edge(x, y):
        raise NotAnEdgeError(f"({x},{y}) is not an edge")
    return _split(x, y, neighbor_masks(g).__getitem__)


class RegularityKind(Enum):
    IRREGULAR = "irregular"
    REGULAR = "regular"
    AMPLY_REGULAR = "amply_regular"
    STRONGLY_REGULAR = "strongly_regular"


@dataclass(frozen=True)
class RegularityClass:
    """Strongest regularity tag of a graph, with parameters when they exist."""

    kind: RegularityKind
    degree: int | None = None
    params: SrgParams | None = None

    @property
    def is_amply_regular(self) -> bool:
        return self.kind in (RegularityKind.AMPLY_REGULAR, RegularityKind.STRONGLY_REGULAR)

    @property
    def is_strongly_regular(self) -> bool:
        return self.kind is RegularityKind.STRONGLY_REGULAR


def classify_regularity(g: Graph) -> RegularityClass:
    """Return the strongest of Irregular / Regular / AmplyRegular / StronglyRegular.

    Amply regular means every adjacent pair shares exactly alpha neighbors
    and every distance-2 pair exactly beta; strongly regular additionally
    needs diameter <= 2 and the graph neither complete nor empty.  Every
    pair within distance 2 is checked, no sampling; the diameter is read
    off the 2-balls, so pairs farther apart are never visited.
    """
    if g.n < 2:
        raise InvalidParamsError("classification needs at least two vertices")
    degs = g.degree_sequence()
    d = degs[0]
    if any(deg != d for deg in degs):
        return RegularityClass(RegularityKind.IRREGULAR)
    # Complete and empty graphs carry no (alpha, beta) data.
    if d == 0 or d == g.n - 1:
        return RegularityClass(RegularityKind.REGULAR, degree=d)

    masks = neighbor_masks(g)
    everyone = (1 << g.n) - 1
    alphas: set[int] = set()
    betas: set[int] = set()
    every_ball_full = True
    for u in range(g.n):
        row = masks[u]
        ball = _two_ball(g, u)
        every_ball_full = every_ball_full and ball == everyone
        # v > u in the 2-ball is a neighbor or, sharing one, at distance 2.
        later = ball >> (u + 1) << (u + 1)
        while later:
            bit = later & -later
            later ^= bit
            c = (row & masks[bit.bit_length() - 1]).bit_count()
            (alphas if row & bit else betas).add(c)
        if len(alphas) > 1 or len(betas) > 1:
            return RegularityClass(RegularityKind.REGULAR, degree=d)
    if not betas:
        # No distance-2 pair at all (disjoint unions of cliques): beta void.
        return RegularityClass(RegularityKind.REGULAR, degree=d)
    params = SrgParams(g.n, d, alphas.pop(), betas.pop())
    if every_ball_full:
        return RegularityClass(RegularityKind.STRONGLY_REGULAR, degree=d, params=params)
    return RegularityClass(RegularityKind.AMPLY_REGULAR, degree=d, params=params)
