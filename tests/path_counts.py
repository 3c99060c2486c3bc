"""Exact TV curves from integer path counts, independent of recwalk's scan.

After t steps from 0, the count c_x of step sequences that end at x is an
integer, and the counts total n^t, so

    TV(t) = sum_x |N c_x - n^t| / (2 N n^t)

exactly.  Counts are shifted with np.roll by each step of the walk's
multiset (a repeated step once per repeat; a window's steps are its G_i
mod N) and summed, in int64 while n^(t+1) < 2^63 and as Python integers in an object array
from there on, so no range limit applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from typing import Iterator

import numpy as np

from recwalk.spectrum import require_dense


def iter_counts(window) -> Iterator[np.ndarray]:
    """The path counts after t = 0, 1, ... steps, without end."""
    N, n = window.modulus, window.n
    counts = np.zeros(N, dtype=np.int64)
    counts[0] = 1
    for t in count():
        yield counts
        if n ** (t + 1) >= 2**63:
            counts = counts.astype(object)
        counts = sum(np.roll(counts, g) for g in window.steps)


def iter_tv(window) -> Iterator[Fraction]:
    """TV(0), TV(1), ... as exact fractions, without end."""
    N, n = window.modulus, window.n
    for t, counts in enumerate(iter_counts(window)):
        total = n**t
        gap = sum(abs(N * c - total) for c in counts.tolist())
        yield Fraction(gap, 2 * N * total)


def tv_curve(window, t_max: int) -> list[Fraction]:
    """TV(0), ..., TV(t_max), as a fresh list the caller may change."""
    return list(_tv_curve(window, t_max))


@lru_cache(maxsize=None)
def _tv_curve(window, t_max: int) -> tuple[Fraction, ...]:
    """tv_curve, computed once per (window, t_max): the tests ask for the
    same curves across many parametrizations."""
    return tuple(islice(iter_tv(window), t_max + 1))


def t_mix(window, epsilon: Fraction) -> int:
    """Smallest t with TV(t) <= epsilon, decided in exact rationals."""
    for t, tv in enumerate(iter_tv(window)):
        if tv <= epsilon:
            return t


# Float laws over Z_N, for the tests of evolve and the spectrum: entry x
# is the mass at x, and N is the array's length.


def point_mass(N: int) -> np.ndarray:
    p = np.zeros(N)
    p[0] = 1.0
    return p


def step_distribution(walk) -> np.ndarray:
    """Step law: p[x] = (times x occurs in walk.steps) / n, for
    N <= DEFAULT_N_MAX."""
    N = walk.modulus
    require_dense(N)
    return np.bincount(walk.steps, minlength=N) / walk.n


def tv_to_uniform(probs: np.ndarray) -> float:
    """(1/2) sum_x |probs[x] - 1/N|, N = len(probs)."""
    dev = probs - 1.0 / len(probs)
    return 0.5 * float(np.abs(dev, out=dev).sum())
