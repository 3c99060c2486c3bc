"""Numerical verification suites for the inequalities the bounds rest on.

Each suite sweeps a family of instances and reports the worst case:
either the smallest margin left under an inequality ("min_margin",
negative means violated beyond tolerance) or the largest residual of an
identity ("max_error").  Exit-code policy lives in the CLI; here a
suite just says passed or not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import SUITE_NAMES, DomainError, UnknownSuite, WorkTooLarge
from .recurrence import PRESETS, RecurrenceSpec, SequenceWindow, first_terms
from .recurrence import first_unbounded_j, s_value
from .spectrum import (
    _INT64_SAFE_N,
    eigenvalue_bound,
    half_spectrum,
    iter_k_rows,
    require_dense,
    require_int64_safe,
    row_width,
    slem_streaming,
    unnormalized_values,
)
from .bounds import seq2bound_multiset, ubl_sums
from . import walk

EIGMOD_TOL = 1e-12
LIFT_TOL = 1e-9
DOMINATION_TOL = 1e-9
UBL_TOL = 1e-9

# Bases c of the lifting and domination sweeps, and their size cap on c^n.
_LIFT_BASES = (2, 3)
_DOMINATION_BASES = (2, 3, 4)
_CAP = 10**5

# Engine terms sum (N//2)(n - 1) over its windows that a streamed suite may
# take.  Sized on the presets (pow2 n <= 26, pow3 n <= 17, fib-odd n <= 16)
# when eigmod-bound's complex terms cost 2.1-2.9 ns and angle-cover's int64
# terms 4.0-4.6 ns (one x86-64 CPU), it was about 5 s of work each there.
# Since the engine takes each tile of rows as one matrix product, a
# constant number of numpy calls, not about 4(n - 1), eigmod-bound's terms
# cost 0.56-1.17 ns there (OpenBLAS 0.3.31, one thread), about 2 s of its
# budget.  It still undercounts windows whose n is large against log N,
# where angle-cover's per-step numpy calls cost more than its terms: on
# G_i = i, angle-cover at --nmax 1860 ran 31.4 s inside it, and
# eigmod-bound at --nmax 2344 ran 8.6 s, down from 84.1 s (ROADMAP item 2).
_TERM_BUDGET = {"eigmod-bound": 1 << 31, "angle-cover": 1 << 30}


class SuiteResult(NamedTuple):
    suite: str
    passed: bool
    metric: str  # "min_margin" or "max_error"
    worst_slack: float
    cases: list[dict]

    def to_dict(self) -> dict:
        return self._asdict()


def _window_terms(specs: dict[str, RecurrenceSpec], n_max: int):
    """(name, spec, n, terms) for every window n = 2..n_max of every spec
    (n = 1 has N = 1), whose values are terms[:n].

    Each spec's terms are made once, and stop at the first past
    _INT64_SAFE_N: every suite refuses that window, so none after it is
    needed.
    """
    if n_max < 2:
        raise DomainError(f"no windows: n_max = {n_max} is below 2")
    for name, spec in specs.items():
        terms = first_terms(spec, n_max, limit=_INT64_SAFE_N)
        for n in range(2, len(terms) + 1):
            yield name, spec, n, terms


def _preset_windows(specs: dict[str, RecurrenceSpec], n_max: int):
    """Every window n = 2..n_max of every spec, as (name, window)."""
    for name, spec, n, terms in _window_terms(specs, n_max):
        yield name, SequenceWindow(spec, terms[:n])


def _hypothesis(window) -> dict:
    """Whether G_{j+1} <= s G_j for every j, which the eigenvalue bound and
    the angle cover rest on, and the first j where it fails."""
    j = first_unbounded_j(window)
    return {"ratio_bounded": j is None, "first_unbounded_j": j}


def eigmod_bound_suite(specs: dict[str, RecurrenceSpec], n_max: int = 8) -> SuiteResult:
    """|lambda_k| <= 1 - (2/n)(1 - |cos(pi/(s+1))|) for every nontrivial k."""
    cases = []
    worst = math.inf
    for name, window in _preset_windows(specs, n_max):
        bound = eigenvalue_bound(window.n, s_value(window.spec))
        slack = bound - slem_streaming(window)
        worst = min(worst, slack)
        cases.append(
            {"sequence": name, "n": window.n, "slack": slack, "bound": bound}
            | _hypothesis(window)
        )
    passed = worst >= -EIGMOD_TOL
    return SuiteResult("eigmod-bound", passed, "min_margin", worst, cases)


def _require_angle_range(name: str, spec: RecurrenceSpec, n: int, N: int) -> None:
    """Refuse a window whose exact angle-cover test would leave int64: N
    past the engine's int64 reductions, or (s + 1) N >= 2^63."""
    require_int64_safe(N)
    s = s_value(spec)
    if (s + 1) * N >= 1 << 63:
        raise DomainError(
            f"{name} n = {n}: (s + 1) N = {(s + 1) * N} is past the "
            "int64 range of the exact angle-cover test"
        )


def angle_cover_suite(specs: dict[str, RecurrenceSpec], n_max: int = 8) -> SuiteResult:
    """Every k in 1..N-1 has some j < n with frac(k G_j / N) in the
    closed interval [1/(s+1), s/(s+1)].

    With r = (k G_j) mod N that is N <= (s+1) r <= s N, so k is covered
    exactly when best_k = max_j min((s+1) r - N, s N - (s+1) r) >= 0, in
    int64 while (s+1) N < 2^63 (DomainError past it); the margin
    min_k best_k / ((s+1) N), a quotient of Python ints, is correctly
    rounded.  The scan takes k = q*B + j over k <= N/2, as the eigenvalue
    engine does: r = a + b - N [a + b >= N] with a = q (B G_j mod N) mod N
    per row and b = j G_j mod N per table, so no remainder is taken per
    (k, step).
    k' = N - k has r' = N - r (0 when r = 0), which leaves best_k as it
    is, so each k < N/2 counts twice.  k = N/2 (N even) is always covered:
    G_1 = 1 gives r = N/2 there, where both sides of the test are
    (s - 1) N/2 >= 0, so an uncovered k is never its own mirror.
    """
    cases = []
    worst = math.inf
    for name, window in _preset_windows(specs, n_max):
        N = window.modulus
        _require_angle_range(name, window.spec, window.n, N)
        s = s_value(window.spec)
        B = row_width(N)
        js = np.arange(B, dtype=np.int64)
        tables = [(js * g % N, B * g % N) for g in window.steps[:-1]]  # j = 1..n-1
        miss = 0
        lowest = math.inf  # min_k best_k
        for qs, keep in iter_k_rows(N, B):
            best = np.full((len(qs), B), -N, dtype=np.int64)  # every best_k >= -N
            for table, bg in tables:
                r = (qs * bg % N)[:, None] + table
                r -= N * (r >= N)
                r *= s + 1
                np.maximum(best, np.minimum(r - N, s * N - r, out=r), out=best)
            best = best.ravel()[keep]
            miss += 2 * int(np.count_nonzero(best < 0))
            lowest = min(lowest, int(best.min()))
        margin = lowest / ((s + 1) * N)
        worst = min(worst, margin)
        cases.append(
            {"sequence": name, "n": window.n, "uncovered": miss, "margin": margin}
            | _hypothesis(window)
        )
    passed = all(c["uncovered"] == 0 for c in cases)
    return SuiteResult("angle-cover", passed, "min_margin", worst, cases)


def lifting_suite() -> SuiteResult:
    """Residual of the lifting identity
    lam~_{n+1, k + j c^(n-1)} = lam~_{n,k} + xi_{c^n}^(k + j c^(n-1))
    over all (c, n, k, j) with c in _LIFT_BASES and c^n <= _CAP."""
    cases = []
    worst = 0.0
    for c in _LIFT_BASES:
        n = 1
        parents = unnormalized_values(c, n)  # k = 1..c^(n-1)
        while c**n <= _CAP:
            children = unnormalized_values(c, n + 1)  # k = 1..c^n
            idx = np.arange(1, c**n + 1, dtype=np.int64)
            # child k has parent ((k - 1) mod c^(n-1)) + 1: the parents, c times
            predicted = np.tile(parents, c) + np.exp(2j * np.pi * idx / (c**n))
            err = float(np.max(np.abs(children - predicted)))
            worst = max(worst, err)
            cases.append({"c": c, "n": n, "max_error": err})
            parents = children
            n += 1
    passed = worst < LIFT_TOL
    return SuiteResult("lifting", passed, "max_error", worst, cases)


def multiset_domination_suite() -> SuiteResult:
    """Sorted |lam~_{n,k}| dominated pairwise by the sorted bound multiset
    with multiplicities C(n-1, m)(c-1)^m; totals must equal c^(n-1).
    Bases c come from _DOMINATION_BASES, with c^(n-1) <= _CAP."""
    cases = []
    worst = math.inf
    for c in _DOMINATION_BASES:
        n = 2
        while c ** (n - 1) <= _CAP:
            mods = np.sort(np.abs(unnormalized_values(c, n)))[::-1]
            pairs = seq2bound_multiset(c, n)
            total = sum(mult for _, mult in pairs)
            # already descending: value m is n + (m/2)(cos(pi/c) - 1), and
            # cos(pi/c) - 1 < 0
            expanded = np.repeat(
                [val for val, _ in pairs], [mult for _, mult in pairs]
            )
            ok_total = total == c ** (n - 1) and len(expanded) == len(mods)
            margin = float(np.min(expanded - mods)) if ok_total else -math.inf
            worst = min(worst, margin)
            cases.append(
                {
                    "c": c,
                    "n": n,
                    "margin": margin,
                    "multiplicity_total_ok": ok_total,
                }
            )
            n += 1
    passed = worst >= -DOMINATION_TOL
    return SuiteResult("multiset-domination", passed, "min_margin", worst, cases)


def ubl_consistency_suite(
    specs: dict[str, RecurrenceSpec],
    n_max: int = 8,
    epsilon: Fraction | float = 0.25,
) -> SuiteResult:
    """TV(t)^2 <= (1/4) sum_{k<N} |lambda_k|^(2t) at every scanned t, on
    windows with N <= DEFAULT_N_MAX."""
    cases = []
    worst = math.inf
    for name, window in _preset_windows(specs, n_max):
        mods = np.abs(half_spectrum(window)[1:])
        result = walk.mixing_time(window, epsilon)
        margin = math.inf
        sums = ubl_sums(np.square(mods, out=mods), window.modulus)
        for (_, tv), rhs in zip(result.tv_curve, sums):
            margin = min(margin, rhs - tv * tv)
        worst = min(worst, margin)
        cases.append({"sequence": name, "n": window.n, "margin": margin})
    passed = worst >= -UBL_TOL
    return SuiteResult("ubl-consistency", passed, "min_margin", worst, cases)


def run_suites(
    suite: str,
    specs: dict[str, RecurrenceSpec] | None = None,
    n_max: int = 8,
    epsilon: Fraction | float = 0.25,
) -> list[SuiteResult]:
    """Run one named suite, or all of them.

    Every window a selected suite will visit is checked first, in the
    order the suites run, so a window that suite would refuse part way
    through (StateSpaceTooLarge or DomainError) is refused before any
    suite starts.  Then the streamed suites' engine terms are summed over
    those windows, until the sum passes every selected _TERM_BUDGET, and
    a suite past its budget is refused (WorkTooLarge).  Both passes read
    only each window's n and N.
    """
    if specs is None:
        specs = dict(PRESETS)
    checks = {
        "eigmod-bound": lambda name, spec, n, N: require_int64_safe(N),
        "angle-cover": _require_angle_range,
        "ubl-consistency": lambda name, spec, n, N: require_dense(N),
    }
    runners = {
        "eigmod-bound": lambda: eigmod_bound_suite(specs, n_max=n_max),
        "angle-cover": lambda: angle_cover_suite(specs, n_max=n_max),
        "lifting": lifting_suite,
        "multiset-domination": multiset_domination_suite,
        "ubl-consistency": lambda: ubl_consistency_suite(specs, n_max=n_max, epsilon=epsilon),
    }
    if suite != "all" and suite not in runners:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    for name in names:
        if name in checks:
            for label, spec, n, terms in _window_terms(specs, n_max):
                checks[name](label, spec, n, terms[n - 1])
    budgeted = [name for name in names if name in _TERM_BUDGET]
    if budgeted:
        most = max(_TERM_BUDGET[name] for name in budgeted)
        work = 0
        for _, _, n, terms in _window_terms(specs, n_max):
            work += (terms[n - 1] // 2) * (n - 1)
            if work > most:
                break
        for name in budgeted:
            if work > _TERM_BUDGET[name]:
                raise WorkTooLarge(
                    f"{name} would take at least {work} engine terms, sum "
                    f"(N//2)(n - 1) over its windows; the budget is "
                    f"{_TERM_BUDGET[name]}"
                )
    return [runners[name]() for name in names]
