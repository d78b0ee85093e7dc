"""Seeded inputs and independent reference computations for the benchmark.

Nothing here imports llycurv: the graphs, graph6 bytes, distances and
parameter tuples the benchmark feeds to the program, and later checks its
answers against, are computed by this module alone.
"""

from __future__ import annotations

import random
from collections import deque
from math import gcd, isqrt

SWAPS_PER_EDGE = 10
COST_CAP = 3  # transport costs are graph distances capped at 3


def circulant_swap_regular(n: int, d: int, seed: str) -> list[set[int]]:
    """Connected simple d-regular graph on n vertices, deterministic in the seed.

    Starts from the circulant C_n(1..d/2) and applies SWAPS_PER_EDGE x |E|
    seeded double-edge swaps {a,b},{c,e} -> {a,e},{c,b}; a swap keeps every
    degree, and a swap that would make a loop or a multi-edge is skipped.
    Raises ValueError if the result is not simple, d-regular and connected.
    """
    if d % 2 or not 2 <= d < n:
        raise ValueError(f"need an even degree 2 <= d < n, got n={n}, d={d}")
    rng = random.Random(f"circulant-swap:{n}:{d}:{seed}")
    adj = [set() for _ in range(n)]
    for v in range(n):
        for k in range(1, d // 2 + 1):
            w = (v + k) % n
            adj[v].add(w)
            adj[w].add(v)
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    for _ in range(SWAPS_PER_EDGE * len(edges)):
        i = rng.randrange(len(edges))
        j = rng.randrange(len(edges))
        a, b = edges[i]
        c, e = edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        if len({a, b, c, e}) < 4 or e in adj[a] or b in adj[c]:
            continue
        adj[a].remove(b)
        adj[b].remove(a)
        adj[c].remove(e)
        adj[e].remove(c)
        adj[a].add(e)
        adj[e].add(a)
        adj[c].add(b)
        adj[b].add(c)
        edges[i] = (min(a, e), max(a, e))
        edges[j] = (min(b, c), max(b, c))
    check_simple_regular_connected(adj, d)
    return adj


def check_simple_regular_connected(adj: list[set[int]], d: int) -> None:
    """Raise ValueError unless adj is a simple, d-regular, connected graph."""
    for v, row in enumerate(adj):
        if v in row:
            raise ValueError(f"loop at vertex {v}")
        if len(row) != d:
            raise ValueError(f"vertex {v} has degree {len(row)}, expected {d}")
        if any(v not in adj[w] for w in row):
            raise ValueError(f"adjacency of vertex {v} is not symmetric")
    if any(dist is None for dist in bfs(adj, 0)):
        raise ValueError("graph is disconnected")


def paley_prime_adjacency(p: int) -> list[set[int]]:
    """Paley graph on Z_p (p prime, p = 1 mod 4): u ~ v iff u - v is a nonzero square."""
    squares = {(i * i) % p for i in range(1, p)}
    return [{(u + s) % p for s in squares} for u in range(p)]


def edge_list(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def graph6(adj: list[set[int]]) -> str:
    """Header-less graph6 encoding (n < 258048)."""
    n = len(adj)
    out = [n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = [1 if u in adj[v] else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = 2 * value + bit
        out.append(value + 63)
    return bytes(out).decode("ascii")


def bfs(adj: list[set[int]], source: int, cap: int | None = None) -> list[int | None]:
    """Distances from source, None when unreached (or farther than cap)."""
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if cap is not None and dist[u] == cap:
            continue
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def capped_distance(adj: list[set[int]], u: int, v: int) -> int:
    """Graph distance between u and v, capped at COST_CAP (the curvature cost)."""
    dist = bfs(adj, u, COST_CAP)[v]
    return COST_CAP if dist is None else dist


def local_sides(adj: list[set[int]], x: int, y: int) -> tuple[list[int], list[int], list[int]]:
    """(common neighbours, N_x, N_y) of the edge xy, each sorted."""
    common = adj[x] & adj[y]
    nx = sorted(adj[x] - common - {y})
    ny = sorted(adj[y] - common - {x})
    return sorted(common), nx, ny


def is_prime_power(q: int) -> bool:
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return q >= 2


def srg_multiplicities(n: int, d: int, alpha: int, beta: int) -> tuple[int, int] | None:
    """Multiplicities (f, g) of the two nontrivial adjacency eigenvalues.

    f, g = ((n-1) -+ (2d + (n-1)(alpha-beta)) / sqrt(D)) / 2 with
    D = (alpha-beta)^2 + 4(d-beta); None unless both are positive integers.
    """
    disc = (alpha - beta) ** 2 + 4 * (d - beta)
    if disc <= 0:
        return None
    num = 2 * d + (n - 1) * (alpha - beta)
    if num == 0:
        return ((n - 1) // 2,) * 2 if (n - 1) % 2 == 0 and n >= 3 else None
    root = isqrt(disc)
    if root * root != disc or num % root or (n - 1 - num // root) % 2:
        return None
    f = (n - 1 - num // root) // 2
    g = (n - 1 + num // root) // 2
    return (f, g) if f >= 1 and g >= 1 else None


def srg_feasible_tuples(max_n: int) -> list[tuple[int, int, int, int]]:
    """All (n, d, alpha, beta), n <= max_n, with d(d-alpha-1) = (n-d-1)beta,
    1 <= beta <= d, and positive integral eigenvalue multiplicities."""
    rows = []
    for n in range(3, max_n + 1):
        for d in range(2, n - 1):
            m = n - d - 1
            step = m // gcd(d, m)
            # j = d - 1 - alpha; beta = d j / m must be an integer <= d.
            for j in range(step, d, step):
                beta = d * j // m
                if beta > d:
                    break
                alpha = d - 1 - j
                if srg_multiplicities(n, d, alpha, beta) is not None:
                    rows.append((n, d, alpha, beta))
    return rows
