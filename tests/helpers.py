"""Independent oracles shared by the test modules.

Everything here deliberately re-derives results by the dumbest correct
method available (matrix powers, permutation enumeration, single
augmenting paths) so it cannot share a bug with the production code paths
it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from llycurv.graphs import Graph


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
