"""Seeded trajectory simulation and empirical TV curves.

Cross-validates the exact engine and reaches state spaces beyond the
dense cap, up to N = MAX_N = 2^62 - 1.  The empirical TV at t depends on
the T walkers only through their occupancy histogram h_t, itself a
Markov chain: the h_t(x) walkers at x split Multinomial(h_t(x); 1/n,
..., 1/n) among the n steps.  With at least R = _HISTOGRAM_RATIO walkers
per state and step (N n R <= T) that chain is advanced, one
rng.multinomial draw per t (at most N (n - 1) binomials), in 8 N n <=
T/2 bytes.  Otherwise all trajectories advance together, one step per t,
each t's histogram reduced to TV before the next step.  Within a t the
trajectories move in blocks of _BLOCK (at least N wide when N <= T, so
that each block's histogram costs O(block)), so memory is the T
positions, in the narrowest unsigned type that holds 2N - 1 (one byte a
trajectory up to N = 128, eight at most), one block's temporaries and
either an N-entry histogram (N <= T) or a sorted copy of the positions
(N > T); the curve is O(t_max).  N, T, T * t_max and the curve's
t_max + 1 rows are capped before anything is allocated.
The RNG is one Philox stream (counter-based).  The walkers draw T
indices per t: bounded draws take the stream's 32-bit words index by
index (one each, bar rare rejections) and keep nothing back between
calls, so drawing block after block gives the same indices as one draw
of T, and a seed fixes the curve, whatever the block width and whichever
integer type holds the positions.  A seed fixes the histogram chain's
curve too.  Note the empirical TV is upward-biased when
num_trajectories is small relative to N; no debiasing is applied.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import StateSpaceTooLarge
from .recurrence import SequenceWindow
from .walk import MAX_ROWS, _tv_excess

# Largest N simulated.  Positions are the narrowest unsigned integers that
# hold pos + step <= 2N - 2 (one byte up to N = 128, two up to 2^15, four
# up to 2^31, eight up to MAX_N).  Past it the at most _MAX_TRAJECTORIES
# walkers occupy at most 2^24 states, so every row is TV >= 1 - 2^-38.
MAX_N = (1 << 62) - 1

# Trajectories per block: a block's int64 draws and gathered steps, 9 to
# 16 bytes a trajectory, stay in L2.
_BLOCK = 1 << 16

# R: the histogram is advanced instead of the positions when N n R <= T.
# A walker step costs about 8 ns, a binomial of the split 75-135 ns.  Seconds
# for T = 2^18, t_max = 10 (medians of 5, one pinned x86-64 CPU):
#
#   window       T/(N n)  walkers  histogram
#   pow2 n=13      4.9    0.0181   0.0232
#   pow3 n=9       4.4    0.0183   0.0173
#   pow2 n=12     10.7    0.0202   0.0173
#   fib-odd n=9   11.3    0.0197   0.0139
#   pow3 n=8      15      0.0201   0.0096
#   pow2 n=11     23.3    0.0199   0.0106
#   pow2 n=9     114      0.0203   0.0026
#
# The histogram's cost per step does not grow with T, so the crossover
# falls as T grows (pow3 n=10 at T = 2^20, ratio 5.3: 0.082 s against
# 0.048 s) and rises below 2^16, where a run takes milliseconds either way.
_HISTOGRAM_RATIO = 16

# Largest T accepted.  The positions (1 to 8 bytes a trajectory) are the
# one T-entry array live through a step; the sorted copy taken when N > T
# doubles them.  Child peak RSS with this many trajectories: `simulate
# --seq pow3 --n 3` 35 MiB (the histogram; 52 MiB on uint8 positions),
# `--n 14 --tmax 3` (uint32) 135 MiB, `--n 20 --tmax 2` (uint32) 179 MiB,
# `--seq pow2 --n 33 --tmax 2` (uint64) 307 MiB.
_MAX_TRAJECTORIES = 1 << 24

# Most trajectory-steps T * t_max: each costs 8-33 ns (one x86-64 CPU;
# the most at N = T = 2^24, whose histogram leaves the cache), so a run
# stays under about a minute.
_MAX_WORK = 1 << 31


def _position_type(N: int):
    """The positions' dtype on Z_N, N <= MAX_N: unsigned and wide enough
    for 2N - 1."""
    return np.min_scalar_type(2 * N - 1)


# typing.NamedTuple refuses a __new__, so the checks live in the subclass's
class _SimFields(NamedTuple):
    window: SequenceWindow
    t_max: int
    num_trajectories: int
    seed: int


class SimConfig(_SimFields):
    """One seeded run: T = num_trajectories walkers on Z_N, N <= MAX_N,
    for t = 0..t_max.  N, T and T * t_max are checked here, before
    anything is allocated."""

    __slots__ = ()

    def __new__(cls, window, t_max, num_trajectories, seed):
        if window.modulus > MAX_N:
            raise StateSpaceTooLarge(
                f"N = {window.modulus} exceeds the simulation limit {MAX_N}"
            )
        if num_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if num_trajectories > _MAX_TRAJECTORIES:
            raise ValueError(
                f"at most {_MAX_TRAJECTORIES} trajectories, got {num_trajectories}"
            )
        if not 0 <= t_max < MAX_ROWS:  # a curve of at most MAX_ROWS rows
            raise ValueError(f"t_max must be in 0..{MAX_ROWS - 1}, got {t_max}")
        work = num_trajectories * t_max
        if work > _MAX_WORK:
            raise ValueError(
                f"trajectories * t_max must be at most {_MAX_WORK}, got {work}"
            )
        return super().__new__(cls, window, t_max, num_trajectories, seed)


def _advances_histogram(N: int, n: int, T: int) -> bool:
    """Whether simulate_tv advances the occupancy histogram rather than
    the T positions: at least _HISTOGRAM_RATIO walkers per state and step."""
    return N * n * _HISTOGRAM_RATIO <= T


def _histogram_step(hist: np.ndarray, steps, rng) -> np.ndarray:
    """The next occupancy histogram: the hist[x] walkers at x split
    Multinomial(hist[x]; 1/n, ..., 1/n) among the n steps, and column i
    of the split moves by steps[i]."""
    n = len(steps)
    split = rng.multinomial(hist, [1 / n] * n)
    return sum(np.roll(split[:, i], g) for i, g in enumerate(steps))


def _histogram_tv(hist: np.ndarray, T: int) -> float:
    """The TV of T walkers with counts hist on Z_N, from the mixing
    scan's integer N T TV (walk._tv_excess) over N T, which rounds it
    correctly.  hist is overwritten."""
    N = len(hist)
    hist -= T // N
    np.maximum(hist, 0, out=hist)
    return _tv_excess(N, T, int(hist.sum()), int(np.count_nonzero(hist))) / (N * T)


def simulate_tv(config: SimConfig) -> list[tuple[int, float]]:
    """Empirical TV to uniform at every t = 0..t_max.

    Deterministic for a given config.  When N n R <= T each t draws one
    multinomial split of the histogram from a Philox stream
    (_histogram_step).  Otherwise t = 1..t_max each draw T step indices
    from that stream, block by block.  Positions are the narrowest
    unsigned integers that hold 2N - 1 (uint8 up to N = 128, uint64 up to
    MAX_N).  When N <= T, each block's counts come from np.bincount into
    one N-entry histogram.  Either histogram's TV is _histogram_tv's.
    When N > T, every occupied state holds at least 1/T > 1/N of the
    mass, so the TV is exactly 1 - occupied/N: only the distinct
    positions are counted, and (N - occupied) / N in integers rounds that
    fraction correctly.
    """
    window = config.window
    N = window.modulus
    T = config.num_trajectories
    rng = np.random.Generator(np.random.Philox(config.seed))
    if _advances_histogram(N, window.n, T):
        hist = np.zeros(N, dtype=np.int64)
        hist[0] = T
        out = [(0, _histogram_tv(hist.copy(), T))]
        for t in range(1, config.t_max + 1):
            hist = _histogram_step(hist, window.steps, rng)
            out.append((t, _histogram_tv(hist.copy(), T)))
        return out
    dtype = _position_type(N)
    steps = np.array(window.steps, dtype=dtype)
    pos = np.zeros(T, dtype=dtype)
    # a block at least N wide keeps each bincount O(block)
    width = max(_BLOCK, N) if N <= T else _BLOCK
    out = []
    for t in range(config.t_max + 1):
        hist = None  # the last t's histogram is not live through this step
        for lo in range(0, T, width):
            block = pos[lo : lo + width]
            if t:
                # the drawn indices are in 0..n-1, so "clip" changes none of them
                block += steps.take(
                    rng.integers(0, window.n, size=len(block)), mode="clip"
                )
                # pos < 2N, and pos - N wraps above pos where pos < N
                np.minimum(block, block - N, out=block)
            if N > T:
                continue
            if hist is None:
                hist = np.bincount(block, minlength=N)
            else:
                hist += np.bincount(block, minlength=N)
        if N <= T:
            out.append((t, _histogram_tv(hist, T)))
            continue
        ordered = np.sort(pos)
        occupied = 1
        for lo in range(1, T, _BLOCK):  # one block's mask at a time
            hi = min(lo + _BLOCK, T)
            occupied += int(np.count_nonzero(ordered[lo:hi] != ordered[lo - 1 : hi - 1]))
        del ordered  # not live through the next step
        out.append((t, (N - occupied) / N))
    return out
