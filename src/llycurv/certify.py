"""Parameter-only sharpness certificates for amply regular graphs.

Given (n, d, alpha, beta) alone, decide whether every edge must achieve the
curvature upper bound (2+alpha)/d.  Two mechanisms: closed-form sufficient
conditions evaluated in exact integer arithmetic, and a discriminant sweep
that rules out Hall violators of every relevant size by showing the master
quadratic in the violator's edge count X has no real solution.

The sweep decides each size b by the sign of one integer: with
K = alpha |P_xy| (d-alpha-1), the coefficients cleared to A2 = 2K(b-1) a2,
A1 = 2K a1 and A0 = 2K a0 are integers, and the discriminant has the sign
of (b-1) A1^2 - 4 A2 A0, which is 4b times an integer quadratic R(b).  So
the sweep visits no size: the first feasible b is 2 or the ceiling of a
root of R, found with isqrt and exact sign tests (`_first_feasible`).
Fractions are built from the same integers only when a transcript
(`Certificate.sweep`, `obstruction_quadratic`) is read.

All square-root comparisons are done by squaring behind sign guards; there
is no floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .errors import DegenerateParametersError, TooLargeError, ViolatorTooSmallError
from .fields import _prime_divisors
from .graphs import SrgParams
from .spectral import integral_multiplicities

_CONDITION_ORDER = ("cond1", "cond2", "cond3", "cond4", "cond5", "hlx", "ll")
_SWEEP_BOUND = 2**16  # violator sizes one certificate may sweep
_SCAN_CAP = 4096  # largest max_n of scan_parameters


@dataclass(frozen=True)
class ConditionReport:
    """Which of the sufficient parameter conditions hold.

    cond1..cond5 are the five closed-form conditions; hlx is the earlier
    d <= 2*beta - alpha - 1 criterion and ll the alpha = 0, beta >= 2 one.
    """

    params: SrgParams
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    cond5: bool
    hlx: bool
    ll: bool

    @property
    def any_holds(self) -> bool:
        return any(getattr(self, name) for name in _CONDITION_ORDER)

    def first_satisfied(self) -> str | None:
        for name in _CONDITION_ORDER:
            if getattr(self, name):
                return name
        return None

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in _CONDITION_ORDER}


def evaluate_conditions(params: SrgParams) -> ConditionReport:
    """Evaluate the five conditions plus the two prior quick criteria exactly.

    Irrational thresholds are compared by squaring:
      (1) d > alpha + sqrt(6 alpha + 1/4) + 3/2   with t = 2d - 2 alpha - 3
          becomes t > 0 and t^2 > 24 alpha + 1;
      (2) the non-strict analogue with t^2 >= 40 alpha + 41;
      (3) |2d - 3 beta| >= sqrt(R), R = 4 a^2 - 3 b^2 + 4a + 24b - 20,
          requiring R >= 0 (negative radicand counts as condition false);
      (4) beta >= (2 sqrt(3)/3) alpha + 7 becomes beta >= 7 and
          3 (beta - 7)^2 >= 4 alpha^2;
      (5) cross-multiplied with a sign guard on 6 beta - d - 1.
    """
    n, d, a, b = params.as_tuple()
    narrow = n < 3 * d - 2 * a
    t = 2 * d - 2 * a - 3
    cond1 = b == a + 1 and narrow and t > 0 and t * t > 24 * a + 1
    cond2 = b == a + 2 and narrow and t >= 0 and t * t >= 40 * a + 41
    radicand = 4 * a * a - 3 * b * b + 4 * a + 24 * b - 20
    cond3 = (
        b > a + 2
        and narrow
        and radicand >= 0
        and (2 * d - 3 * b) ** 2 >= radicand
    )
    cond4 = b >= 7 and 3 * (b - 7) ** 2 >= 4 * a * a and narrow
    cond5 = False
    if b <= a and a >= 1 and 2 * n < 5 * d - 3 * a:
        lower_d = a * d + (b - 1) ** 2 >= a * (2 * a + 3)
        den = 6 * b - d - 1
        num = 2 * d * d - 4 * b * d + 7 * b * b + d - 14 * b + 7
        if den > 0:
            upper_a = a * den <= num
        elif den < 0:
            upper_a = a * den >= num
        else:
            upper_a = False
        cond5 = lower_d and upper_a
    hlx = d <= 2 * b - a - 1
    ll = a == 0 and b >= 2
    return ConditionReport(
        params=params,
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond4=cond4,
        cond5=cond5,
        hlx=hlx,
        ll=ll,
    )


@dataclass(frozen=True)
class ObstructionQuadratic:
    """Master inequality a2 X^2 + a1 X + a0 <= 0 for a size-b Hall violator.

    X counts the edges between the hypothetical violator S (|S| = b) and its
    neighborhood T in N_y.  Infeasible (negative discriminant with a2 > 0)
    certifies that no violator of size b exists.
    """

    b: int
    a2: Fraction
    a1: Fraction
    a0: Fraction
    discriminant: Fraction
    feasible: bool


def _sweep_terms(params: SrgParams) -> tuple[int, int, int, int, int]:
    """The b-independent integers (K, s, u, w2, w1) of the cleared quadratic.

    The four convexity lower bounds on the common-neighbor counts inside
    delta (denominator alpha), P_xy (denominator |P_xy| = n - 2d + alpha),
    T (denominator b - 1) and N_x (denominator c = d - alpha - 1) are summed
    against the ceiling C(b,2) * max(alpha, beta) - C(b,2).  Multiplying by
    2K, K = alpha |P_xy| c, clears every denominator but b - 1:
      2K(b-1) a2 = (b-1) s + K,  s = |P_xy| c + alpha c + alpha |P_xy|;
      2K a1 = -2b u,
        u = (beta-1) |P_xy| c + alpha c^2 - (alpha-beta+1) alpha |P_xy|;
      2K a0 = b^2 w2 - b w1,  w1 = K (d - max(alpha, beta)),
        w2 = (beta-1)^2 |P_xy| c + alpha c^3 + (alpha-beta+1)^2 alpha |P_xy|
             + K (1 - max(alpha, beta)).
    """
    n, d, alpha, beta = params.as_tuple()
    pxy = n - 2 * d + alpha
    core = d - alpha - 1
    if alpha < 1 or pxy < 1 or core < 1:
        raise DegenerateParametersError(
            f"quadratic undefined: alpha={alpha}, |P_xy|={pxy}, |N_x|={core}"
        )
    k = alpha * pxy * core
    top = max(alpha, beta)
    excess = alpha - beta + 1
    s = pxy * core + alpha * core + alpha * pxy
    u = (beta - 1) * pxy * core + alpha * core * core - excess * alpha * pxy
    w2 = (
        (beta - 1) ** 2 * pxy * core
        + alpha * core**3
        + excess * excess * alpha * pxy
        + k * (1 - top)
    )
    return k, s, u, w2, k * (d - top)


def _cleared(terms: tuple[int, int, int, int, int], b: int) -> tuple[int, int, int, int]:
    """(A2, A1, A0, (b-1) A1^2 - 4 A2 A0) at size b.

    The last has the sign of the discriminant, since it is the discriminant
    times (2K)^2 (b-1) > 0.
    """
    k, s, u, w2, w1 = terms
    a2 = (b - 1) * s + k
    a1 = -2 * b * u
    a0 = b * (b * w2 - w1)
    return a2, a1, a0, (b - 1) * a1 * a1 - 4 * a2 * a0


def _first_feasible(terms: tuple[int, int, int, int, int], last: int) -> int | None:
    """The least b in 2..last whose quadratic admits a real edge count, or None.

    Expanding `_cleared` gives (b-1) A1^2 - 4 A2 A0 = 4b R(b) with
    R(b) = A b^2 + B b + C, A = u^2 - s w2, B = s w1 + s w2 - K w2 - u^2 and
    C = w1 (K - s) (a, b1 and c below; D = B^2 - 4AC), so for b >= 2 size b
    is feasible iff R(b) >= 0.  The least such b is 2
    or else, as R(b - 1) < 0 <= R(b), the ceiling of a real root of R.
    Since isqrt(D) <= sqrt(D) < isqrt(D) + 1, each root lies less than
    1/(2|A|) from (-B +- isqrt(D)) / (2A), a multiple of 1/(2|A|), on the
    side that keeps its ceiling at that quotient's floor or one above (the
    linear case's -C/B is exact).  Each candidate is decided by the exact
    sign of R.
    """
    k, s, u, w2, w1 = terms
    a, b1, c = u * u - s * w2, s * w1 + s * w2 - k * w2 - u * u, w1 * (k - s)
    floors = []
    if a:
        disc = b1 * b1 - 4 * a * c
        if disc >= 0:
            root = isqrt(disc)
            floors = [(-b1 + root) // (2 * a), (-b1 - root) // (2 * a)]
    elif b1:
        floors = [-c // b1]
    candidates = {2, *floors, *(f + 1 for f in floors)}
    for b in sorted(candidates):
        if 2 <= b <= last and (a * b + b1) * b + c >= 0:
            return b
    return None


def obstruction_quadratic(params: SrgParams, b: int) -> ObstructionQuadratic:
    """The exact-|P_xy| violator inequality at size b, in Fractions.

    Built from the cleared integers of `_cleared`, so it is the same
    derivation the sweep of `certify_curvature` decides by.
    """
    if b < 2:
        raise ViolatorTooSmallError("sizes b < 2 are handled by the b = 1 rules")
    terms = _sweep_terms(params)
    k = terms[0]
    a2, a1, a0, disc = _cleared(terms, b)
    return ObstructionQuadratic(
        b=b,
        a2=Fraction(a2, 2 * k * (b - 1)),
        a1=Fraction(a1, 2 * k),
        a0=Fraction(a0, 2 * k),
        discriminant=Fraction(disc, 4 * k * k * (b - 1)),
        feasible=disc >= 0,
    )


def b_one_rule(params: SrgParams) -> str | None:
    """Why no single vertex of N_x can miss N_y entirely, if provable.

    Such a vertex needs beta - 1 neighbors inside delta and d - alpha - 1
    inside P_xy; "delta_deficit" and "pxy_deficit" mark capacity violations.
    When beta = alpha + 1 and |P_xy| = d - alpha - 1 exactly, the two
    distance-2 counts 2p = d - alpha - 1 and 2q = d - alpha - 2 demand
    opposite parities, which is the "parity" rule.  None means the b = 1
    case is not excludable from the parameters alone.
    """
    n, d, alpha, beta = params.as_tuple()
    pxy = n - 2 * d + alpha
    core = d - alpha - 1
    if beta - 1 > alpha:
        return "delta_deficit"
    if pxy < core:
        return "pxy_deficit"
    if beta == alpha + 1 and pxy == core:
        return "parity"
    return None


@dataclass(frozen=True)
class Certificate:
    """Outcome of the parameter-only argument for kappa = (2+alpha)/d.

    conditions is the report of the closed-form conditions it started from.
    last_b is the last violator size the sweep decided (1 when there was no
    sweep); the sweep covers b = 2 .. last_b.
    """

    params: SrgParams
    outcome: str  # "sharp_by_condition" | "sharp_by_sweep" | "inconclusive"
    conditions: ConditionReport
    b_one: str | None = None
    last_b: int = 1
    reason: str | None = None

    @property
    def sharp(self) -> bool:
        return self.outcome != "inconclusive"

    @property
    def condition(self) -> str | None:
        """The first condition that holds; only sharp_by_condition has one."""
        return self.conditions.first_satisfied()

    @property
    def certified_kappa(self) -> Fraction | None:
        """(2 + alpha)/d when the certificate is sharp, else None."""
        return Fraction(2 + self.params.alpha, self.params.d) if self.sharp else None

    @property
    def sweep(self) -> tuple[ObstructionQuadratic, ...]:
        """The swept quadratics in Fractions, built on demand for transcripts."""
        return tuple(obstruction_quadratic(self.params, b) for b in range(2, self.last_b + 1))


def certify_curvature(params: SrgParams) -> Certificate:
    """Certify the curvature of every edge from the parameters, if possible.

    Tries the closed-form conditions first, then excludes a size-1 violator
    and sweeps the obstruction quadratic over b = 2 .. floor((d-alpha)/2);
    larger subsets are covered by the half-size Hall reduction.  Each size
    is decided by the sign of the cleared integer discriminant, and the
    sweep stops at the first feasible b, which `_first_feasible` finds in
    closed form.  Any non-excludable case yields an inconclusive
    certificate, never a guess.  A sweep of more than _SWEEP_BOUND sizes
    raises TooLargeError before any size is decided.
    """
    n, d, alpha, beta = params.as_tuple()
    report = evaluate_conditions(params)
    if report.any_holds:
        return Certificate(params=params, conditions=report, outcome="sharp_by_condition")
    core = d - alpha - 1
    if core == 0:
        # N_x and N_y are empty; the empty matching is perfect.
        return Certificate(
            params=params, conditions=report, outcome="sharp_by_sweep", b_one="empty_core"
        )
    rule = b_one_rule(params)
    if rule is None:
        return Certificate(
            params=params, conditions=report, outcome="inconclusive",
            reason="size-1 violators not excludable from parameters",
        )
    pxy = n - 2 * d + alpha
    if pxy == 0:
        # Every vertex of N_x is adjacent to all of N_y; no violator of any size.
        return Certificate(params=params, conditions=report, outcome="sharp_by_sweep", b_one=rule)
    if alpha == 0:
        return Certificate(
            params=params, conditions=report, outcome="inconclusive", b_one=rule,
            reason="alpha = 0 degenerates the quadratic and no condition applies",
        )
    last = (d - alpha) // 2  # >= 1, since d - alpha - 1 >= 1 here
    if last >= 2:
        terms = _sweep_terms(params)
        if last - 1 > _SWEEP_BOUND:
            raise TooLargeError(
                f"sweep of {last - 1} violator sizes exceeds the bound {_SWEEP_BOUND}"
            )
        b = _first_feasible(terms, last)
        if b is not None:
            return Certificate(
                params=params, conditions=report, outcome="inconclusive", b_one=rule,
                last_b=b, reason=f"quadratic admits a real edge count at b = {b}",
            )
    return Certificate(
        params=params, conditions=report, outcome="sharp_by_sweep", b_one=rule, last_b=last
    )


def _divisors(factors: tuple[int, ...]) -> list[int]:
    """Every divisor of the product of factors, from the primes dividing each factor."""
    product = prod(factors)
    divisors = [1]
    for p in {p for f in factors for p in _prime_divisors(f)}:
        powers = [1]
        while product % (powers[-1] * p) == 0:
            powers.append(powers[-1] * p)
        divisors = [x * y for x in divisors for y in powers]
    return divisors


def _candidate_tuples(max_n: int) -> set[tuple[int, int, int, int]]:
    """The (n, d, alpha, beta) with n <= max_n that the eigenvalue equations allow.

    Read off the eigenvalues of a non-complete SRG with beta >= 1
    (Brouwer-Van Maldeghem, Strongly Regular Graphs, ch. 1).  Irrational
    eigenvalues force the conference line (4g+1, 2g, g-1, g).  Integral ones
    r >= 0 > -t have t >= 2, beta = e, d = e + rt, alpha = e + r - t and
    n = d + 1 + d(r+1)(t-1)/e, and -t has multiplicity (d + r(n-1))/(r+t),
    so r + t must divide d + r(n-1).  For r = 0 that is the complete
    multipartite chain n = d + t with t | d; for r >= 1,
    n = 1 + rt + (r+1)(t-1) + e + P/e with P = rt(r+1)(t-1), so e runs over
    the divisors of P, built from the factors of r, r+1, t and t-1.  Since
    e + P/e >= 2 sqrt(P), n grows with r and t past the loops' bounds.
    """
    found = {(4 * g + 1, 2 * g, g - 1, g) for g in range(1, (max_n - 1) // 4 + 1)}
    for t in range(2, max_n // 2 + 1):
        found.update((d + t, d, d - t, d) for d in range(t, max_n - t + 1, t))
    r = 1
    while 3 * r + 2 + 2 * isqrt(2 * r * (r + 1)) <= max_n:  # the floor of n at t = 2
        t = 2
        while True:
            rt = r * t
            base = 1 + rt + (r + 1) * (t - 1)
            product = rt * (r + 1) * (t - 1)
            if base + 2 * isqrt(product) > max_n:
                break
            for e in _divisors((r, r + 1, t, t - 1)):
                n, d = base + e + product // e, e + rt
                if e >= t - r and n <= max_n and (d + r * (n - 1)) % (r + t) == 0:
                    found.add((n, d, e + r - t, e))
            t += 1
        r += 1
    return found


def scan_parameters(max_n: int) -> list[Certificate]:
    """The certificate of every feasible SRG parameter tuple with n <= max_n.

    Feasible means the counting identity d(d-alpha-1) = (n-d-1) beta holds
    and both nontrivial eigenvalue multiplicities are positive integers.
    The candidates come from the eigenvalue equations (`_candidate_tuples`);
    certificates are in (n, d, -alpha) order.
    Graph existence is NOT decided; these are parameter-level objects.
    """
    if max_n > _SCAN_CAP:
        raise TooLargeError(f"scan capped at max_n = {_SCAN_CAP}")
    candidates = sorted(_candidate_tuples(max_n), key=lambda p: (p[0], p[1], -p[2]))
    return [
        certify_curvature(SrgParams(n, d, alpha, beta))
        for n, d, alpha, beta in candidates
        if d * (d - alpha - 1) == (n - d - 1) * beta
        and integral_multiplicities(n, d, alpha, beta) is not None
    ]
