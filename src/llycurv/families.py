"""Constructions for every named graph family used by the tests and the CLI.

Each constructor yields a deterministic vertex numbering, so serialized
output is stable across runs.  ``catalog()`` bundles the standard instances
the verification suites sweep over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb, prod
from typing import Collection

from .errors import (
    InvalidParamsError,
    NotPaleyOrderError,
    NotPrimePowerError,
    TooLargeError,
    UnknownFamilyError,
)
from .fields import FiniteField, _power_walk, _prime_divisors, make_field, square_index_set
from .graphs import EdgeNeighborhood, Graph, SrgParams, _split

# A family's build costs time and memory in proportion to its edges (or, for
# the k-subset families, to the vertex pairs tested), so one bound covers
# every family; P(1021), the largest Paley graph inside it, builds in about
# 0.15 s on a 2-core machine.
_EDGE_BOUND = 2**18


def _check_edges(count: int, what: str, unit: str = "edges") -> None:
    if count > _EDGE_BOUND:
        raise TooLargeError(f"{what} has {count} {unit}, above the bound {_EDGE_BOUND}")


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m, or None when q is not a prime power."""
    divisors = _prime_divisors(q)
    if len(divisors) != 1:
        return None
    p, m = divisors[0], 1
    while p**m < q:
        m += 1
    return p, m


def _check_paley_size(q: int) -> None:
    """P(q) has q(q-1)/4 edges; callers check this before they factor q."""
    if q > 1:
        _check_edges(q * (q - 1) // 4, f"Paley order {q}")


def _paley_field(q: int) -> FiniteField:
    """GF(q) for a valid Paley order, checked against the size bound first."""
    _check_paley_size(q)
    pm = prime_power_decomposition(q)
    if pm is None:
        raise NotPrimePowerError(f"{q} is not a prime power")
    if q % 4 != 1:
        raise NotPaleyOrderError(f"{q} is not congruent to 1 mod 4")
    return make_field(*pm)


def _translation(radices: tuple[int, ...], s: int) -> list[int]:
    """Image of every index under u -> u + s in Z_r1 x ... x Z_rk.

    Indices are mixed-radix with the first digit most significant, and the
    sum is taken digit by digit; with radices (p,) * m this is the canonical
    index of GF(p^m), whose addition is coefficient-wise mod p.
    """
    image, weight = [0], 1
    for r in reversed(radices):  # least significant digit first
        s, d = divmod(s, r)
        highs = [*range(d * weight, r * weight, weight), *range(0, d * weight, weight)]
        image = highs if weight == 1 else [high + low for high in highs for low in image]
        weight *= r
    return image


def _rotation(radices: tuple[int, ...], mask: int, s: int) -> int:
    """The image of a vertex mask under u -> u + s in Z_r1 x ... x Z_rk.

    The digits are added one at a time, least significant first.  For a
    digit d of weight w and radix r, the members whose digit is below r - d
    move up by d w and the rest wrap down by (r - d) w; the first are picked
    by a block mask with period r w.  With one radix this is a rotation: the
    mask and its copy n places up, shifted down by n - s and cut to n bits,
    hold each member u at u + s mod n.
    """
    n, weight = prod(radices), 1
    if len(radices) == 1:
        return (mask | mask << n) >> (n - s) & (1 << n) - 1
    for r in reversed(radices):
        s, d = divmod(s, r)
        if d:
            low = ((1 << (r - d) * weight) - 1) * (((1 << n) - 1) // ((1 << r * weight) - 1))
            mask = (mask & low) << d * weight | (mask & ~low) >> (r - d) * weight
        weight *= r
    return mask


def _index_mask(n: int, indices: Collection[int]) -> int:
    """The mask with bit s set for each s in indices that lies in 1..n-1.

    The bits are set in a bytearray and read as one integer, where a sum of
    1 << s would build an integer of up to n bits per index.
    """
    buf = bytearray(n // 8 + 1)
    for s in indices:
        if 0 < s < n:
            buf[s >> 3] |= 1 << (s & 7)
    return int.from_bytes(buf, "little")


def _cayley_graph(radices: tuple[int, ...], connection: Collection[int]) -> Graph:
    """Cayley graph of Z_r1 x ... x Z_rk: u ~ u + s for s in the connection set.

    The connection set is given by index, must be closed under negation and
    must not hold 0 or repeat an element; then row u, the images of u under
    the translations by S, is symmetric and loop-free, and is taken as it
    is once sorted.  The n |S| / 2 edges are checked against the bound
    before anything is built.  The check reads S as its mask: the indices
    in 1..n-1 give one bit each, so S is valid iff it has |S| bits and
    s + S holds 0, i.e. -s is in S, for each s in S (bit 0 of _rotation).
    Vertex v's neighbour mask is S's mask rotated by v.  When S has more
    than four members a digit, the graph is handed that rotation to build
    its masks with: a rotation costs a few big-integer operations a digit,
    a mask summed from its row one a member.
    """
    n = prod(radices)
    _check_edges(n * len(connection) // 2, f"a Cayley graph of order {n} and degree {len(connection)}")
    s_mask = _index_mask(n, connection)
    if s_mask.bit_count() != len(connection) or not all(
        _rotation(radices, s_mask, s) & 1 for s in connection
    ):
        raise InvalidParamsError(
            f"a Cayley connection set needs distinct indices in 1..{n - 1}, closed under negation"
        )
    images = [_translation(radices, s) for s in connection]
    rows = tuple(map(tuple, map(sorted, zip(*images)))) if images else ((),) * n
    dense = len(connection) > 4 * len(radices)
    return Graph._from_rows(rows, partial(_rotation, radices, s_mask) if dense else None)


def _intersection_graph(n: int, k: int, meet: int) -> Graph:
    """k-subsets of an n-set in lexicographic order, adjacent iff they share `meet` elements.

    The n-set is built whatever k is, so n is checked against the bound
    first; every pair of subsets is tested, so the pair count is checked next.
    """
    what = f"the graph on the {k}-subsets of a {n}-set"
    _check_edges(n, what, "elements in its ground set")
    if 0 < k < n:  # at least n subsets: a large n is rejected before C(n, k) is computed
        _check_edges(comb(n, 2), what, "or more pairs to test")
    _check_edges(comb(comb(n, k), 2), what, "pairs to test")
    verts = [set(s) for s in combinations(range(n), k)]
    edges = [
        (i, j)
        for i, s in enumerate(verts)
        for j in range(i + 1, len(verts))
        if len(s & verts[j]) == meet
    ]
    return Graph(len(verts), edges)


def paley_graph(q: int) -> Graph:
    """Vertices GF(q), u ~ v iff u - v is a nonzero square; needs q = 1 mod 4.

    q = 1 mod 4 makes -1 a square, so P(q) is the Cayley graph of the
    additive group Z_p^m on the nonzero squares.
    """
    field = _paley_field(q)
    return _cayley_graph((field.p,) * field.m, square_index_set(field))


def _paley_root_split(q: int) -> EdgeNeighborhood:
    """graphs._split of the edge (0, c) of P(q), c the least square, from S alone.

    The neighbour mask of v is v + S, the mask of S under _rotation by v, so
    the split equals decompose_edge(paley_graph(q), 0, c).  The edge decides
    every pair x, y with x - y a nonzero square, the edges of P(q), as the
    translations and the multipliers in S put them in one orbit.  The power
    walk of GF(q) proves that, or the split raises: g has q - 1 distinct
    powers, so S, its even powers, is the orbit of 1 under g^2 and the
    multipliers g^2 ... g^(q-1) are all of S; and S = -S, as it holds -1,
    the constant p - 1 of index q - q / p (the constant term is the top digit).
    """
    field = _paley_field(q)
    radices, powers = (field.p,) * field.m, _power_walk(field)
    s_mask = _index_mask(q, powers[::2])
    if len(set(powers)) != q - 1 or not s_mask >> (q - q // field.p) & 1:
        raise InvalidParamsError(f"the nonzero squares of GF({q}) do not give one edge orbit")
    c = (s_mask & -s_mask).bit_length() - 1
    return _split(0, c, partial(_rotation, radices, s_mask))


def rook_graph(k: int) -> Graph:
    """Cartesian product of two complete graphs K_k; vertex (i,j) -> i*k+j."""
    if k < 2:
        raise InvalidParamsError("rook graph needs k >= 2")
    _check_edges(k * k * (k - 1), f"rook({k})")
    return _cayley_graph((k, k), [*range(1, k), *range(k, k * k, k)])


def shrikhande_graph() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    return _cayley_graph((4, 4), [4, 12, 1, 3, 5, 15])


def cocktail_party_graph(k: int) -> Graph:
    """K_{2k} minus the perfect matching {(2i, 2i+1)}: Z_k x Z_2 without (0, 1)."""
    if k < 2:
        raise InvalidParamsError("cocktail party graph needs k >= 2")
    _check_edges(2 * k * (k - 1), f"cocktail_party({k})")
    return _cayley_graph((k, 2), range(2, 2 * k))


def johnson_graph(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent iff the intersection has size k-1."""
    if not (1 <= k <= n):
        raise InvalidParamsError(f"johnson graph needs 1 <= k <= n, got ({n},{k})")
    return _intersection_graph(n, k, k - 1)


def petersen_graph() -> Graph:
    """Kneser graph on 2-subsets of a 5-set: adjacent iff disjoint."""
    return _intersection_graph(5, 2, 0)


def clebsch_graph() -> Graph:
    """Halved 5-cube: even-weight 5-bit strings, adjacent at Hamming distance 2.

    Vertex i is the even-weight string v with i = v >> 1, so the graph is
    the Cayley graph of Z_2^4 on the s of popcount 1 or 2 (v ^ w has weight
    popcount(s) rounded up to even). This is the (16, 10, 6, 6)
    realization; since that parameter set has a unique graph, the
    classifier signature is the whole correctness check.
    """
    return _cayley_graph((2,) * 4, [s for s in range(1, 16) if bin(s).count("1") <= 2])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParamsError("cycle needs n >= 3")
    return _cayley_graph((n,), [1, n - 1])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidParamsError("complete graph needs n >= 1")
    _check_edges(n * (n - 1) // 2, f"complete({n})")
    return _cayley_graph((n,), range(1, n))


def hypercube_graph(m: int) -> Graph:
    if m < 1:
        raise InvalidParamsError("hypercube needs m >= 1")
    # from m = 19 on, 2^m vertices of degree m pass the bound: stop before m-sized radices
    if m >= _EDGE_BOUND.bit_length():
        raise TooLargeError(f"hypercube({m}) has more than {_EDGE_BOUND} edges")
    return _cayley_graph((2,) * m, [1 << b for b in range(m)])


_FAMILIES = {
    "paley": (paley_graph, ("q",)),
    "rook": (rook_graph, ("k",)),
    "shrikhande": (shrikhande_graph, ()),
    "cocktail_party": (cocktail_party_graph, ("k",)),
    "johnson": (johnson_graph, ("n", "k")),
    "clebsch": (clebsch_graph, ()),
    "petersen": (petersen_graph, ()),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "hypercube": (hypercube_graph, ("m",)),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def named_graph(name: str, **params: int) -> Graph:
    """Dispatch to a family constructor by name; see family_names()."""
    if name not in _FAMILIES:
        raise UnknownFamilyError(f"unknown family {name!r}; know {family_names()}")
    builder, wanted = _FAMILIES[name]
    missing = [w for w in wanted if w not in params]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise InvalidParamsError(
            f"family {name!r} takes {wanted}, missing {missing}, unexpected {extra}"
        )
    return builder(*(params[w] for w in wanted))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    params: SrgParams | None  # expected srg/amply parameters when known


def catalog() -> list[CatalogEntry]:
    """The named corpus the verification suites run over."""
    entries = [
        CatalogEntry("rook(4)", rook_graph(4), SrgParams(16, 6, 2, 2)),
        CatalogEntry("shrikhande", shrikhande_graph(), SrgParams(16, 6, 2, 2)),
        CatalogEntry("petersen", petersen_graph(), SrgParams(10, 3, 0, 1)),
        CatalogEntry("johnson(5,2)", johnson_graph(5, 2), SrgParams(10, 6, 3, 4)),
        CatalogEntry("johnson(6,2)", johnson_graph(6, 2), SrgParams(15, 8, 4, 4)),
        CatalogEntry("clebsch", clebsch_graph(), SrgParams(16, 10, 6, 6)),
        CatalogEntry("paley(9)", paley_graph(9), SrgParams(9, 4, 1, 2)),
        CatalogEntry("paley(13)", paley_graph(13), SrgParams(13, 6, 2, 3)),
        CatalogEntry("paley(17)", paley_graph(17), SrgParams(17, 8, 3, 4)),
        CatalogEntry("paley(25)", paley_graph(25), SrgParams(25, 12, 5, 6)),
        CatalogEntry("cycle(6)", cycle_graph(6), SrgParams(6, 2, 0, 1)),
        CatalogEntry("hypercube(3)", hypercube_graph(3), SrgParams(8, 3, 0, 2)),
        CatalogEntry("complete(5)", complete_graph(5), None),
    ]
    for k in range(2, 7):
        entries.append(
            CatalogEntry(
                f"cocktail_party({k})",
                cocktail_party_graph(k),
                SrgParams(2 * k, 2 * k - 2, 2 * k - 4, 2 * k - 2),
            )
        )
    return entries


def paley_gamma_orders(gamma_max: int) -> list[tuple[int, int]]:
    """All (gamma, q=4*gamma+1) with q a prime power, 2 <= gamma <= gamma_max.

    Raises TooLargeError up front when P(4*gamma_max+1) would exceed the
    Paley edge bound.
    """
    if gamma_max >= 2:
        _check_paley_size(4 * gamma_max + 1)
    out = []
    for g in range(2, gamma_max + 1):
        q = 4 * g + 1
        if prime_power_decomposition(q) is not None:
            out.append((g, q))
    return out
