"""Seeded trajectory simulation and empirical TV curves.

Cross-validates the exact engine and reaches state spaces beyond the
dense cap.  All trajectories advance together, one step per t, and each
t's histogram is taken and reduced to TV before the next step, so
memory is O(T) for T trajectories (plus the occupied states of one t)
and O(t_max) for the curve; T is capped at _MAX_TRAJECTORIES, and the
curve's t_max + 1 rows at MAX_ROWS.
The RNG is one Philox stream (counter-based), drawn T indices per t with
no blocking, so a seed fixes the curve, whichever integer type holds the
positions.  Note the empirical TV is upward-biased when num_trajectories
is small relative to N; no debiasing is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recurrence import SequenceWindow
from .walk import _tv_excess

# Positions are int32 while N <= _INT32_POSITIONS and int64 while N <
# _INT64_POSITIONS: pos + step < 2 N, so neither overflows.
_INT32_POSITIONS = 1 << 30
_INT64_POSITIONS = 1 << 62

# Largest T accepted.  During a step the int32 positions, the int64 drawn
# step indices and the gathered int32 steps are live at once, 16 bytes a
# trajectory: `simulate --seq pow3 --n 14 --tmax 3` peaked at 300 MiB (child
# peak RSS) with this many trajectories.
_MAX_TRAJECTORIES = 1 << 24

# Most rows an artifact may hold: a curve of t = 0..t_max, and the CLI's
# spectrum listing.  Child peak RSS at 2^18 rows: the pow2 listing 40 MiB
# as CSV or JSON; `simulate --seq pow3 --n 3 --trajectories 1` 69 MiB as
# CSV or JSON (a bare interpreter with numpy: 33 MiB).
MAX_ROWS = 1 << 18


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
        if not 0 <= self.t_max < MAX_ROWS:  # a curve of at most MAX_ROWS rows
            raise ValueError(f"t_max must be in 0..{MAX_ROWS - 1}, got {self.t_max}")


def simulate_tv(config: SimConfig) -> list[tuple[int, float]]:
    """Empirical TV to uniform at every t = 0..t_max.

    Deterministic for a given config: t = 1..t_max each draw T step
    indices from one Philox stream.  Positions are int32 while N <= 2^30,
    int64 while N < 2^62 and Python ints (an object array, exact at any
    N) past that.  When N <= T, each t's counts come from np.bincount,
    and the mixing scan's integer N T TV (walk._tv_excess) over N T
    rounds the TV correctly.
    When N > T, every occupied state holds at least 1/T > 1/N of the
    mass, so the TV is exactly 1 - occupied/N: only the distinct
    positions are counted, and (N - occupied) / N in integers rounds that
    fraction correctly.
    """
    window = config.window
    N = window.modulus
    T = config.num_trajectories
    rng = np.random.Generator(np.random.Philox(config.seed))

    if N <= _INT32_POSITIONS:
        dtype, unsigned = np.int32, np.uint32
    elif N < _INT64_POSITIONS:
        dtype, unsigned = np.int64, np.uint64
    else:
        dtype, unsigned = object, None
    steps = np.array(window.steps, dtype=dtype)
    pos = np.zeros(T, dtype=dtype)
    out = []
    for t in range(config.t_max + 1):
        if t:
            # the drawn indices are in 0..n-1, so "clip" changes none of them
            pos += steps.take(rng.integers(0, window.n, size=T), mode="clip")
            if dtype is object:
                pos %= N
            else:  # pos < 2N; as unsigned, pos - N wraps above pos where pos < N
                wrapped = pos.view(unsigned)
                np.minimum(wrapped, wrapped - N, out=wrapped)
        if N <= T:
            over = np.maximum(np.bincount(pos) - T // N, 0)
            excess = _tv_excess(N, T, int(over.sum()), int(np.count_nonzero(over)))
            out.append((t, excess / (N * T)))
            continue
        if dtype is object:
            occupied = len(set(pos.tolist()))
        else:
            ordered = np.sort(pos)
            occupied = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
            del ordered  # not live through the next step
        out.append((t, (N - occupied) / N))
    return out
