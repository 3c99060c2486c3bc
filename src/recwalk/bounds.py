"""Closed-form mixing-time bounds and the quantities in their proofs.

All logarithms are natural: the underlying estimates run through
exp(-x) comparisons, so e is the only base that keeps the stated
constants exact.  Real-valued bounds are returned as reals; integer
comparisons against exact mixing times use ceil/floor at the call site.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DegenerateStateSpace, DomainError
from .recurrence import RecurrenceSpec, SequenceWindow, estimate_growth
from .recurrence import first_unbounded_j, s_value
from .spectrum import DEFAULT_N_MAX, half_spectrum, slem_streaming
from . import walk

_ETA1_MIN = 1.0 + 1e-9


class BoundReport(NamedTuple):
    """Every applicable bound for one (sequence, n, epsilon) triple."""

    sequence_id: str
    n: int
    N: int
    epsilon: float
    s: int
    ratio_bounded: bool
    first_unbounded_j: int | None
    kappa_general: float | None
    upper_general: float | None
    lower_general: float | None
    c: int | None
    kappa_first_order: float | None
    upper_first_order: float | None
    gamma_first_order: float | None
    lower_first_order: float | None
    relaxation_lower: float
    ubl_implied_t: int | None
    exact_t_mix: int | None

    def to_dict(self) -> dict:
        return self._asdict()


def kappa_general(s: int) -> float:
    """kappa = 1/(4 - 4 cos(pi/(s+1)))."""
    if s < 1:
        raise DomainError(f"s must be at least 1, got {s}")
    return 1.0 / (4.0 - 4.0 * math.cos(math.pi / (s + 1)))


def upper_general(n: int, G_n: int, s: int, epsilon: float) -> float:
    """General upper bound kappa*n*log(G_n - 1) - kappa*n*log(4*eps^2)."""
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if G_n < 2:
        raise DomainError(f"G_n must be at least 2, got {G_n}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    k = kappa_general(s)
    # math.log takes the exact integer, so G_n far beyond float range is fine
    return k * n * math.log(G_n - 1) - k * n * math.log(4.0 * epsilon * epsilon)


def gamma_general(eta1_lower: float) -> float:
    """gamma = 2/log(eta_1) + pi^2/log(2) for the exponential lower bound."""
    if not _ETA1_MIN <= eta1_lower < math.inf:  # NaN fails this test too
        raise DomainError(f"eta_1 must exceed 1 + 1e-9 and be finite, got {eta1_lower}")
    return 2.0 / math.log(eta1_lower) + math.pi**2 / math.log(2.0)


def lower_general(n: int, gamma: float, epsilon: float) -> float:
    """Exponential-growth lower bound ((n - g*ln n)/(g*ln n)) * ln(1/(2 eps)).

    May be negative at small n; it is then a valid but vacuous bound.
    """
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if not 0.0 < epsilon <= 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2], got {epsilon}")
    g = gamma * math.log(n)
    return (n - g) / g * math.log(1.0 / (2.0 * epsilon))


def kappa_first_order(c: int) -> float:
    """kappa = 1/(1 - cos(pi/c)) for the sequence c^(n-1)."""
    if c < 2:
        raise DomainError(f"c must be at least 2, got {c}")
    return 1.0 / (1.0 - math.cos(math.pi / c))


def upper_first_order(c: int, n: int, epsilon: float) -> float:
    """First-order upper bound k*n*log((n-1)(c-1)) - k*n*log(log(4 eps^2 + 1))."""
    if c < 2:
        raise DomainError(f"c must be at least 2, got {c}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    k = kappa_first_order(c)
    # log1p: 4 eps^2 + 1 rounds to 1.0, and its log to 0, once eps <= about 1e-9
    inner = math.log1p(4.0 * epsilon * epsilon)
    return k * n * math.log((n - 1) * (c - 1)) - k * n * math.log(inner)


def gamma_first_order(c: int) -> float:
    """gamma = 1/(1 - cos(2 pi/c)); infinite at c = 2, hence an error there."""
    if c < 3:
        raise DomainError(f"c = {c} is at or past the cos(2 pi/c) = 1 pole; need c >= 3")
    return 1.0 / (1.0 - math.cos(2.0 * math.pi / c))


def lower_first_order(c: int, n: int, epsilon: float) -> float:
    """First-order lower bound (gamma*n - 1) * log(1/(2 eps)), c >= 3."""
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if not 0.0 < epsilon <= 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2], got {epsilon}")
    g = gamma_first_order(c)
    return (g * n - 1.0) * math.log(1.0 / (2.0 * epsilon))


def relaxation_lower(slem: float, epsilon: float) -> float:
    """Relaxation-time lower bound (1/(1 - slem) - 1) * log(1/(2 eps))."""
    if not 0.0 <= slem < 1.0:
        raise DomainError(f"slem must be in [0, 1), got {slem}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    return (1.0 / (1.0 - slem) - 1.0) * math.log(1.0 / (2.0 * epsilon))


def ubl_sums(sq: np.ndarray, N: int) -> Iterator[float]:
    """Yield the upper-bound-lemma sum (1/4) sum_{k<N} |lambda_k|^(2t)
    for t = 0, 1, 2, ... without end; it bounds TV(t)^2 from above.

    sq[k-1] = |lambda_k|^2 for k = 1..N//2, from half_spectrum.  Since
    |lambda_{N-k}| = |lambda_k|, the sum is twice the sum over k < N/2,
    plus |lambda_{N/2}|^(2t) once when N is even.
    """
    mirrored = (N - 1) // 2  # the k < N/2
    powered = np.ones_like(sq)
    while True:
        total = 2.0 * float(powered[:mirrored].sum())
        if mirrored < len(powered):
            total += float(powered[mirrored])
        yield 0.25 * total
        powered *= sq


def ubl_implied_t(sq: np.ndarray, N: int, epsilon: float) -> int:
    """Smallest t with (1/4) sum_{k<N} |lambda_k|^(2t) <= epsilon^2, the
    sum as ubl_sums computes it: the first t whose ubl_sums value is at
    most float(epsilon)**2.

    sq is as in ubl_sums.  Most t are decided from the m entries at least
    tau = max(sq)/4, in O(N + m t) rather than ubl_sums' O(N t).  With
    A_t the sum over those entries alone (ubl_sums run on them, each k
    still counted with its mirror) and c the count of the other k, each
    with sq below tau, the exact sum S_t lies in [A_t, A_t + c tau^t / 4].
    A float sum of such powers, summed in any order, is within rho times
    the exact one plus U: Higham's gamma_K = K u / (1 - K u), u = 2^-53,
    with K = t + N + 8, covers the t - 1 repeated products and a sum of
    at most N//2 terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Sec. 3.1 and 4.2), and U = (t + 1) N 2^-1074
    covers products that underflow.  So, with A the float A_t, ubl_sums'
    value lies in

        [(A - U)(1 - 4 rho) - U,  (A + c tau^t / 4 + 2 U)(1 + 5 rho) + U];

    the margins need 2 rho and 3.1 rho, and the rest absorbs the rounding
    of the bracket itself.  A t whose bracket lies clear of epsilon^2
    takes its verdict from it.  A t inside it advances one ubl_sums pass,
    started at the first such t, to t and decides as ubl_sums does, so
    every t returned is ubl_sums' own.  The sum is strictly decreasing in
    t whenever slem < 1.
    """
    if N < 2:
        raise DegenerateStateSpace("N = 1 has no nontrivial eigenvalue")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    top = float(sq.max())
    if top >= 1.0:
        raise DomainError("slem >= 1: the scan would not terminate")
    target = float(epsilon) ** 2
    tau = top / 4.0
    large = sq >= tau
    mid = int(N % 2 == 0 and large[-1])  # k = N/2, its own mirror, is large
    base = sq[large]
    rest = 0.25 * (N - 1 - 2 * len(base) + mid)  # c / 4, exact
    small = 1.0  # tau^t
    sums = None  # the ubl_sums pass, started at the first t in the band
    for t, part in enumerate(ubl_sums(base, 2 * len(base) + 1 - mid)):
        rho = walk._gamma(t + N + 8)
        under = math.ldexp((t + 1) * N, -1074)
        low = (part - under) * (1.0 - 4.0 * rho) - under
        high = (part + rest * small + 2.0 * under) * (1.0 + 5.0 * rho) + under
        if high <= target:
            return t
        if low <= target:  # epsilon^2 inside the bracket: ubl_sums decides
            if sums is None:
                sums = enumerate(ubl_sums(sq, N))
            if next(total for i, total in sums if i == t) <= target:
                return t
        small *= tau


def seq2bound_multiset(c: int, n: int) -> list[tuple[float, int]]:
    """Dominating multiset for |lambda-tilde_{n,k}| on the sequence c^(n-1).

    Pairs (n + (m/2)(cos(pi/c) - 1), C(n-1, m) (c-1)^m) for m = 0..n-1;
    the multiplicities total c^(n-1).
    """
    if c < 2:
        raise DomainError(f"c must be at least 2, got {c}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    shrink = math.cos(math.pi / c) - 1.0
    return [
        (n + 0.5 * m * shrink, math.comb(n - 1, m) * (c - 1) ** m)
        for m in range(n)
    ]


def first_order_base(spec: RecurrenceSpec) -> int | None:
    """c when the spec is G_i = c^(i-1) (order 1, coefficient >= 2), else None."""
    if spec.order == 1 and spec.coeffs[0] >= 2:
        return spec.coeffs[0]
    return None


def build_report(
    sequence_id: str,
    window: SequenceWindow,
    epsilon: Fraction | float,
    eta1_override: float | None = None,
    n_max_states: int = DEFAULT_N_MAX,
) -> BoundReport:
    """Evaluate every applicable bound for one window, for epsilon in
    (0, 1/2), which is refused (DomainError) before any bound is evaluated.

    First-order bounds appear only for pow-c specs.  The general upper
    bound and its kappa need G_{j+1} <= s G_j for every j (ratio_bounded)
    and are None elsewhere; first_unbounded_j names the first j where it
    fails.  The general lower bound needs an eta_1; without an override
    it uses the window estimate and is omitted for sequences classified
    as non-exponential or windows too short to classify.  Where
    N <= n_max_states (at most DEFAULT_N_MAX) the report reads the dense
    spectrum and the exact scan; past it, only the streamed SLEM.
    """
    n, N = window.n, window.modulus
    if n < 2:
        raise DomainError("bound reports need n >= 2")
    eps = float(epsilon)
    if not 0.0 < eps < 0.5:  # relaxation_lower, in every report, needs it
        raise DomainError(f"epsilon must be in (0, 1/2), got {eps}")
    s = s_value(window.spec)
    unbounded_j = first_unbounded_j(window)
    bounded = unbounded_j is None

    eta1 = eta1_override
    if eta1 is None and n >= 3:
        growth = estimate_growth(window)
        if growth.is_exponential:
            eta1 = growth.eta1_lower
    lower_gen = None
    if eta1 is not None:
        lower_gen = lower_general(n, gamma_general(eta1), eps)

    c = first_order_base(window.spec)
    kappa_fo = upper_fo = gamma_fo = lower_fo = None
    if c is not None:
        kappa_fo = kappa_first_order(c)
        upper_fo = upper_first_order(c, n, eps)
        if c >= 3:
            gamma_fo = gamma_first_order(c)
            lower_fo = lower_first_order(c, n, eps)

    ubl_t: int | None = None
    exact: int | None = None
    if N <= n_max_states:
        mods = np.abs(half_spectrum(window)[1:])
        lam_star = float(mods.max())
        ubl_t = ubl_implied_t(np.square(mods, out=mods), N, eps)
        del mods  # its 4 N bytes are freed before the scan takes 16 N
        exact = walk.mixing_time(window, epsilon).t_mix
    else:
        lam_star = slem_streaming(window)

    return BoundReport(
        sequence_id=sequence_id,
        n=n,
        N=N,
        epsilon=eps,
        s=s,
        ratio_bounded=bounded,
        first_unbounded_j=unbounded_j,
        kappa_general=kappa_general(s) if bounded else None,
        upper_general=upper_general(n, N, s, eps) if bounded else None,
        lower_general=lower_gen,
        c=c,
        kappa_first_order=kappa_fo,
        upper_first_order=upper_fo,
        gamma_first_order=gamma_fo,
        lower_first_order=lower_fo,
        relaxation_lower=relaxation_lower(lam_star, eps),
        ubl_implied_t=ubl_t,
        exact_t_mix=exact,
    )
