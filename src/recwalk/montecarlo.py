"""Seeded trajectory simulation and empirical TV curves.

Cross-validates the exact engine and reaches state spaces beyond the
dense cap.  All trajectories advance together, one step per t, and each
t's histogram is taken and reduced to TV before the next step, so
memory is O(T) for T trajectories (plus the occupied states of one t),
and T is capped at _MAX_TRAJECTORIES.
The RNG is one Philox stream (counter-based), drawn T indices per t with
no blocking, so a seed fixes the curve.  Note the empirical TV is
upward-biased when num_trajectories is small relative to N; no
debiasing is applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .recurrence import SequenceWindow

# (pos + step) stays below 2^63 whenever N is below this.
_INT64_SAFE_N = 1 << 62

# Largest T accepted.  Positions, drawn step indices and np.unique's sort
# copy are live at once: `simulate --seq pow3 --n 14` peaked at 420 MiB
# with this many trajectories.
_MAX_TRAJECTORIES = 1 << 24


@dataclass(frozen=True)
class SimConfig:
    window: SequenceWindow
    t_max: int
    num_trajectories: int
    seed: int

    def __post_init__(self):
        if self.num_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.num_trajectories > _MAX_TRAJECTORIES:
            raise ValueError(
                f"at most {_MAX_TRAJECTORIES} trajectories, got {self.num_trajectories}"
            )
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")


def _empirical_tv(nonzero_counts: np.ndarray, total: int, N: int) -> float:
    """TV between the histogram counts/total and uniform on N states."""
    occupied = nonzero_counts / total - 1.0 / N
    missing = (N - len(nonzero_counts)) / N
    return 0.5 * (float(np.abs(occupied).sum()) + missing)


def simulate_tv(config: SimConfig) -> list[tuple[int, float]]:
    """Empirical TV to uniform at every t = 0..t_max.

    Deterministic for a given config: t = 1..t_max each draw T step
    indices from one Philox stream.  Positions are int64 while N < 2^62
    and Python ints (an object array, exact at any N) past that.  Each
    t's counts come from np.bincount when N <= T and from np.unique
    otherwise; both list the occupied states' counts in state order.
    """
    window = config.window
    N = window.modulus
    T = config.num_trajectories
    rng = np.random.Generator(np.random.Philox(config.seed))

    dtype = np.int64 if N < _INT64_SAFE_N else object
    steps = np.array(window.steps, dtype=dtype)
    pos = np.zeros(T, dtype=dtype)
    out = []
    for t in range(config.t_max + 1):
        if t:
            pos += steps[rng.integers(0, window.n, size=T)]
            pos %= N
        if dtype is object:
            # np.unique would sort Python ints, about 3x slower than Counter
            counts = np.fromiter(Counter(pos.tolist()).values(), dtype=np.int64)
        elif N <= T:
            # same nonzero counts in the same state order as np.unique, no sort
            counts = np.bincount(pos)
            counts = counts[counts > 0]
        else:
            counts = np.unique(pos, return_counts=True)[1]
        out.append((t, _empirical_tv(counts, T, N)))
    return out
