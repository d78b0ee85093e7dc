"""Closed-form SRG spectra and Lichnerowicz sharpness.

Eigenvalues of strongly regular graphs are quadratic irrationalities
(u + v sqrt(D))/w and are kept in that exact form; numerical values only
appear where a graph has no closed form, and equality with a rational
curvature is always decided exactly.  numerical_lambda2, the one
floating-point computation, imports its eigensolver inside the function,
so importing this module loads no linear-algebra library, and refuses a
graph above `_DENSE_VERTICES` before it does.  Whether a graph satisfies
the SRG identity A^2 = dI + alpha A + beta (J - I - A) is
`graphs.classify_regularity`'s strongly regular verdict and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import (
    DisconnectedError,
    InfeasibleParametersError,
    InvalidParamsError,
    NotSrgParametersError,
    TooLargeError,
)
from .graphs import Graph, SrgParams, classify_regularity, is_connected
from .transport import _worst_cost

_EIG_TOL = 1e-9
# numerical_lambda2 holds several dense n x n float64 matrices at once, 8n^2
# bytes each (128 MiB at the bound).
_DENSE_VERTICES = 2**12


@dataclass(frozen=True)
class Eigenvalue:
    """Exact algebraic number (u + v*sqrt(disc))/w with integer data."""

    u: int
    v: int
    w: int
    disc: int

    @property
    def is_rational(self) -> bool:
        if self.v == 0:
            return True
        s = isqrt(self.disc)
        return s * s == self.disc

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise InvalidParamsError(f"{self} is irrational")
        return Fraction(self.u + self.v * isqrt(self.disc), self.w)

    def to_float(self) -> float:
        return (self.u + self.v * self.disc**0.5) / self.w

    def equals_fraction(self, value: Fraction) -> bool:
        return self.is_rational and self.as_fraction() == value

    def __repr__(self) -> str:
        return f"({self.u} + {self.v}*sqrt({self.disc}))/{self.w}"


@dataclass(frozen=True)
class SpectrumReport:
    """Normalized Laplacian spectrum of an SRG: 0 < lambda2 <= lambda3."""

    params: SrgParams
    lambda2: Eigenvalue
    lambda3: Eigenvalue
    m1: int
    m2: int
    m3: int


def integral_multiplicities(n: int, d: int, alpha: int, beta: int) -> tuple[int, int] | None:
    """(m2, m3) when both are positive integers, else None.

    The degenerate case 2d + (n-1)(alpha-beta) = 0 (conference parameters)
    bypasses the square root and forces m2 = m3 = (n-1)/2.
    """
    disc = (alpha - beta) ** 2 + 4 * (d - beta)
    if disc <= 0:
        return None
    num = 2 * d + (n - 1) * (alpha - beta)
    if num == 0:
        if (n - 1) % 2:
            return None
        m = (n - 1) // 2
        return (m, m) if m >= 1 else None
    s = isqrt(disc)
    if s * s != disc or num % s:
        return None
    t = num // s
    if (n - 1 - t) % 2:
        return None
    m2 = (n - 1 - t) // 2
    m3 = (n - 1 + t) // 2
    if m2 < 1 or m3 < 1:
        return None
    return m2, m3


def srg_spectrum(params: SrgParams) -> SpectrumReport:
    """Closed-form Laplacian spectrum from the parameters alone.

    lambda_{2,3} = 1 - ((alpha-beta) -+ sqrt(D))/(2d) with
    D = (alpha-beta)^2 + 4(d-beta), and the multiplicities must come out as
    positive integers for the parameters to be feasible.
    """
    n, d, alpha, beta = params.as_tuple()
    if d * (d - alpha - 1) != (n - d - 1) * beta:
        raise NotSrgParametersError(
            f"{params.as_tuple()} fails d(d-alpha-1) = (n-d-1)beta"
        )
    mult = integral_multiplicities(n, d, alpha, beta)
    if mult is None:
        raise InfeasibleParametersError(
            f"{params.as_tuple()} has non-integral eigenvalue multiplicities"
        )
    m2, m3 = mult
    disc = (alpha - beta) ** 2 + 4 * (d - beta)
    lambda2 = Eigenvalue(u=2 * d - (alpha - beta), v=-1, w=2 * d, disc=disc)
    lambda3 = Eigenvalue(u=2 * d - (alpha - beta), v=1, w=2 * d, disc=disc)
    return SpectrumReport(
        params=params, lambda2=lambda2, lambda3=lambda3, m1=1, m2=m2, m3=m3
    )


def numerical_lambda2(g: Graph) -> float:
    """Smallest nonzero eigenvalue of the normalized Laplacian, to < 1e-9."""
    if g.n > _DENSE_VERTICES:
        raise TooLargeError(
            f"numerical lambda2 on {g.n} vertices needs dense {g.n} x {g.n} matrices; "
            f"the bound is {_DENSE_VERTICES} vertices"
        )
    if g.n < 2:
        raise InvalidParamsError("need at least two vertices")
    if not is_connected(g):
        raise DisconnectedError("lambda2 of a disconnected graph is 0")
    import numpy as np

    a = np.zeros((g.n, g.n), dtype=float)
    for u, v in g.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    scale = 1.0 / np.sqrt(np.array(g.degree_sequence(), dtype=float))
    # I - D^-1/2 A D^-1/2 in a's own memory; 0.0 - x, unlike -x, leaves +0.0 at non-edges.
    a *= scale[:, None]
    a *= scale[None, :]
    np.subtract(0.0, a, out=a)
    a[np.diag_indices(g.n)] += 1.0
    return float(np.linalg.eigvalsh(a)[1])


@dataclass(frozen=True)
class SharpnessReport:
    """Is min-edge curvature equal to lambda2 (Lichnerowicz sharpness)?"""

    min_kappa: Fraction
    lambda2_exact: Eigenvalue | None
    lambda2_float: float
    sharp: bool
    bound_kappa: Fraction | None  # (2+alpha)/d when parameters exist


def lichnerowicz_report(g: Graph, processes: int = 1) -> SharpnessReport:
    """Compare min-edge curvature against lambda2, exactly when possible.

    The least kappa is (d + 1 - C)/d for the largest least bijection cost C
    over the edges, which `transport._worst_cost` finds with the checks and
    the process chunks of `curvature_spectrum` but no per-edge report: an
    edge whose bounds m + f1 <= C <= m + 2 f1 (f1 the free rows of H1's
    maximum matching) cannot pass the largest C found so far is dropped
    before H_delta is built.  For strongly regular graphs the comparison is
    exact: a rational curvature can only equal lambda2 when D is a perfect
    square.  Otherwise sharpness falls back to a 1e-9 numerical window.
    """
    worst = _worst_cost(g, processes=processes)
    d = g.degree(0)
    min_kappa = Fraction(d + 1 - worst, d)
    rc = classify_regularity(g)
    bound = (
        Fraction(2 + rc.params.alpha, rc.params.d)
        if rc.is_amply_regular and rc.params is not None
        else None
    )
    if rc.is_strongly_regular and rc.params is not None:
        lam = srg_spectrum(rc.params).lambda2
        return SharpnessReport(
            min_kappa=min_kappa,
            lambda2_exact=lam,
            lambda2_float=lam.to_float(),
            sharp=lam.equals_fraction(min_kappa),
            bound_kappa=bound,
        )
    lam_float = numerical_lambda2(g)
    return SharpnessReport(
        min_kappa=min_kappa,
        lambda2_exact=None,
        lambda2_float=lam_float,
        sharp=abs(float(min_kappa) - lam_float) < _EIG_TOL,
        bound_kappa=bound,
    )


@dataclass(frozen=True)
class SharpCandidate:
    family: str  # "a": (n, a+4, a, a); "b": (n, a+3, a, a+1); "c": (n, a+2, a, a+2)
    params: SrgParams


def enumerate_sharp_candidates(max_alpha: int = 12, max_k: int = 6) -> list[SharpCandidate]:
    """Parameter tuples with beta >= alpha that allow lambda2 = (2+alpha)/d.

    Mechanically applies the degree window d in {alpha+2, alpha+3, alpha+4},
    d <= 2 alpha - beta + 4, integrality of n from the counting identity and
    of the multiplicities, then verifies lambda2 = (2+alpha)/d exactly.
    Families (a) and (b) close off (the filters kill alpha > 12); family
    (c) is the cocktail-party chain, enumerated up to max_k.
    """
    found: list[SharpCandidate] = []

    def try_candidate(family: str, alpha: int, d: int, beta: int) -> None:
        if beta < 1 or d < 2 or d > 2 * alpha - beta + 4:
            return
        num = d * (d - alpha - 1)
        if num <= 0 or num % beta:
            return
        n = num // beta + d + 1
        if integral_multiplicities(n, d, alpha, beta) is None:
            return
        params = SrgParams(n, d, alpha, beta)
        lam2 = srg_spectrum(params).lambda2
        if not lam2.equals_fraction(Fraction(2 + alpha, d)):
            return
        found.append(SharpCandidate(family=family, params=params))

    for alpha in range(0, max_alpha + 1):
        try_candidate("a", alpha, alpha + 4, alpha)
        try_candidate("b", alpha, alpha + 3, alpha + 1)
    for k in range(2, max_k + 1):
        alpha = 2 * k - 4
        try_candidate("c", alpha, alpha + 2, alpha + 2)
    return found
