"""Linear-recurrence integer sequences and their scalar parameters.

A sequence spec is the pair (coefficients, initial terms) of

    G_i = a_1 G_{i-1} + a_2 G_{i-2} + ... + a_d G_{i-d},   G_1 = 1,

generated in exact integer arithmetic.  The window G_1..G_n doubles as
the step multiset of the walk on Z_{G_n}; SequenceWindow.steps states it
mod N.  A Walk is any such walk, fixed by its modulus and step multiset
alone; the scan, the eigenvalue engine and the simulator read only
modulus, n and steps, from a Walk or a window.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    NonIncreasingSequence,
    NonPositiveTerm,
    NoPositiveCoefficient,
    StateSpaceTooLarge,
    WindowTooShort,
)

# Trailing-ratio threshold separating exponential from polynomial growth.
GROWTH_DELTA = 1e-6


# typing.NamedTuple refuses a __new__, so the checks live in the subclass's
class _SpecFields(NamedTuple):
    coeffs: tuple[int, ...]
    init: tuple[int, ...]


class RecurrenceSpec(_SpecFields):
    """Coefficients a_1..a_d and the d initial terms G_1..G_d."""

    __slots__ = ()

    def __new__(cls, coeffs, init):
        # operator.index refuses 2.5 and "3", which int() would accept, but
        # takes True as 1, so booleans are refused first
        checked = []
        for field, values in (("coeffs", coeffs), ("init", init)):
            values = tuple(values)
            if any(isinstance(v, bool) for v in values):
                raise TypeError(f"{field} must be integers, not booleans: {values}")
            checked.append(tuple(map(operator.index, values)))
        coeffs, init = checked
        if len(coeffs) < 1:
            raise ValueError("recurrence order must be at least 1")
        if len(init) != len(coeffs):
            raise ValueError("need exactly one initial term per coefficient")
        if init[0] != 1:
            raise ValueError("G_1 must be 1")
        if any(g <= 0 for g in init):
            raise NonPositiveTerm(f"initial terms must be positive: {init}")
        return super().__new__(cls, coeffs, init)

    @property
    def order(self) -> int:
        return len(self.coeffs)


class SequenceWindow(NamedTuple):
    """The exact terms G_1..G_n of one sequence, strictly increasing; n is
    len(values), not a field of its own."""

    spec: RecurrenceSpec
    values: tuple[int, ...]

    @property
    def n(self) -> int:
        """Window length n = len(values)."""
        return len(self.values)

    @property
    def modulus(self) -> int:
        """State-space size N = G_n."""
        return self.values[-1]

    @property
    def steps(self) -> tuple[int, ...]:
        """The walk's n distinct steps mod N: G_1..G_{n-1} < N, then the
        hold G_n = 0 mod N.  Each is taken with probability 1/n."""
        return self.values[:-1] + (0,)


# typing.NamedTuple refuses a __new__, so the checks live in the subclass's
class _WalkFields(NamedTuple):
    modulus: int
    steps: tuple[int, ...]


class Walk(_WalkFields):
    """The walk X_{t+1} = X_t + z_t mod N, z_t uniform on the step multiset
    steps (residues 0..N-1, in any order, repeats counted), started at 0.

    n = len(steps).  A SequenceWindow has the same three attributes,
    modulus, n and steps, so every walk-level function takes either.
    """

    __slots__ = ()

    def __new__(cls, modulus, steps):
        steps = tuple(steps)
        if isinstance(modulus, bool) or any(isinstance(g, bool) for g in steps):
            raise TypeError("modulus and steps must be integers, not booleans")
        modulus = operator.index(modulus)
        steps = tuple(map(operator.index, steps))
        if not steps:
            raise ValueError("a walk needs at least one step")
        if not all(0 <= g < modulus for g in steps):
            raise ValueError(f"steps must be residues 0..{modulus - 1}: {steps}")
        return super().__new__(cls, modulus, steps)

    @property
    def n(self) -> int:
        """Number of steps, counted with multiplicity."""
        return len(self.steps)


class GrowthEstimate(NamedTuple):
    """Numerical growth summary of a window.

    The exponential/polynomial call is made on an extrapolated limit of
    the ratio sequence, and eta1_lower is a usable lower growth base.
    """

    is_exponential: bool
    eta1_lower: float | None


PRESETS: dict[str, RecurrenceSpec] = {
    "pow2": RecurrenceSpec((2,), (1,)),
    "pow3": RecurrenceSpec((3,), (1,)),
    "fib-odd": RecurrenceSpec((3, -1), (1, 3)),
}


def first_terms(spec: RecurrenceSpec, n: int, limit: int | None = None) -> tuple[int, ...]:
    """G_1..G_n exactly, or G_1..G_i where G_i is the first term past
    limit: no term after it is made.

    Raises NonPositiveTerm or NonIncreasingSequence at the first term
    that leaves the positive increasing regime; both mean the walk's
    standing hypotheses do not hold for this spec.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = spec.order
    vals: list[int] = []
    while len(vals) < n:
        i = len(vals)
        g = spec.init[i] if i < d else sum(spec.coeffs[j] * vals[-1 - j] for j in range(d))
        if g <= 0:
            raise NonPositiveTerm(f"G_{i + 1} = {g} is not positive")
        if vals and g <= vals[-1]:
            raise NonIncreasingSequence(f"G_{i + 1} = {g} does not exceed G_{i} = {vals[-1]}")
        vals.append(g)
        if limit is not None and g > limit:
            break
    return tuple(vals)


def generate(
    spec: RecurrenceSpec, n: int, limit: int | None = None, limit_name: str = "limit"
) -> SequenceWindow:
    """The window G_1..G_n, made exactly by first_terms.

    With a limit on N, StateSpaceTooLarge is raised at the first term
    past it, before any later term is made, so a huge n costs no more
    than the terms up to the limit; its message calls the limit
    limit_name.
    """
    values = first_terms(spec, n, limit)
    if limit is not None and values[-1] > limit:
        raise StateSpaceTooLarge(
            f"G_{len(values)} = {values[-1]} exceeds the {limit_name} {limit} "
            f"on N = G_{n}"
        )
    return SequenceWindow(spec, values)


def s_value(spec: RecurrenceSpec) -> int:
    """Sum of the positive recurrence coefficients."""
    s = sum(a for a in spec.coeffs if a > 0)
    if s <= 0:
        raise NoPositiveCoefficient(f"no positive coefficient in {spec.coeffs}")
    return s


def first_unbounded_j(window: SequenceWindow) -> int | None:
    """The first j < n with G_{j+1} > s G_j, or None where there is none:
    the angle cover behind the general upper bound needs G_{j+1} <= s G_j
    for every j, and past the d initial terms it always holds."""
    s = s_value(window.spec)
    v = window.values  # v[j] is G_{j+1}
    for j in range(1, window.n):
        if v[j] > s * v[j - 1]:
            return j
    return None


def estimate_growth(window: SequenceWindow) -> GrowthEstimate:
    """Estimate the limiting ratio G_{i+1}/G_i from a window.

    For the exponential/polynomial decision the raw trailing ratio
    G_n/G_{n-1} is misleading at small n (polynomial families still have
    ratio > 1), so the classifier uses a two-point extrapolation of
    r_i = G_{i+1}/G_i: with r_i = L + c/i the limit is
    L = i*r_i - (i-1)*r_{i-1}, exact for both geometric ratios (constant r)
    and polynomial families (r_i = 1 + O(1/i)).

    eta1_lower is the minimum ratio over the trailing half of the window,
    found by comparing the ratios cross-multiplied in integers, so only
    the last two ratios and the minimum's become Fractions.
    """
    if window.n < 3:
        raise WindowTooShort("growth estimation needs at least 3 terms")
    v = window.values

    i = window.n - 1  # 1-based position of the last ratio
    extrapolated = float(i * Fraction(v[-1], v[-2]) - (i - 1) * Fraction(v[-2], v[-3]))
    exponential = extrapolated >= 1.0 + GROWTH_DELTA

    low = i // 2  # r_j = v[j+1]/v[j] over j = i//2..i-1; keep the first minimum
    for j in range(low + 1, i):
        if v[j + 1] * v[low] < v[low + 1] * v[j]:
            low = j
    eta1 = float(Fraction(v[low + 1], v[low]))
    return GrowthEstimate(is_exponential=exponential, eta1_lower=eta1)
