import contextlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recwalk import (
    PRESETS,
    RecurrenceSpec,
    SimConfig,
    StateSpaceTooLarge,
    Walk,
    generate,
    simulate_tv,
)
from recwalk import montecarlo
from recwalk.montecarlo import _MAX_TRAJECTORIES
from recwalk.walk import MAX_ROWS, _tv_excess

import path_counts
from test_walk import PROPERTY_SETTINGS, small_windows


def test_config_validation():
    window = generate(PRESETS["pow2"], 3)
    with pytest.raises(ValueError):
        SimConfig(window=window, t_max=5, num_trajectories=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(window=window, t_max=-1, num_trajectories=10, seed=1)


def test_t_zero_is_point_mass():
    window = generate(PRESETS["pow3"], 3)
    curve = simulate_tv(
        SimConfig(window=window, t_max=0, num_trajectories=1000, seed=3)
    )
    assert curve == [(0, pytest.approx(1.0 - 1.0 / 9))]


def test_single_state_space():
    window = generate(PRESETS["pow2"], 1)
    curve = simulate_tv(
        SimConfig(window=window, t_max=4, num_trajectories=50, seed=0)
    )
    assert [tv for _, tv in curve] == [0.0] * 5


def test_same_seed_is_bit_identical():
    window = generate(PRESETS["fib-odd"], 4)
    config = SimConfig(window=window, t_max=8, num_trajectories=20_000, seed=42)
    assert simulate_tv(config) == simulate_tv(config)


def test_different_seeds_differ():
    window = generate(PRESETS["fib-odd"], 4)
    a = simulate_tv(SimConfig(window=window, t_max=6, num_trajectories=5000, seed=1))
    b = simulate_tv(SimConfig(window=window, t_max=6, num_trajectories=5000, seed=2))
    assert a != b


def test_empirical_tracks_exact_distribution():
    window = generate(PRESETS["pow3"], 2)
    curve = simulate_tv(
        SimConfig(window=window, t_max=4, num_trajectories=200_000, seed=11)
    )
    exact = path_counts.tv_curve(window, 4)
    for t, emp in curve:
        assert emp == pytest.approx(float(exact[t]), abs=5e-3), t


@pytest.mark.parametrize("walkers", [False, True])
def test_repeated_step_walk_tracks_exact_curve(monkeypatch, walkers):
    # steps 1 twice, 3 and two holds on Z_9: 10^6 trajectories stay within
    # 5e-3 of the exact curve at every t <= 20, as the acceptance test asks
    # of pow3 n = 3, by the histogram chain and by moving every walker
    if walkers:
        monkeypatch.setattr(montecarlo, "_HISTOGRAM_RATIO", 10**9)
    walk = Walk(9, (1, 0, 3, 1, 0))
    config = SimConfig(window=walk, t_max=20, num_trajectories=10**6, seed=0)
    assert montecarlo._advances_histogram(9, walk.n, 10**6) is not walkers
    curve = simulate_tv(config)
    exact = path_counts.tv_curve(walk, 20)
    assert max(abs(emp - float(exact[t])) for t, emp in curve) <= 5e-3


def test_big_state_space_fallback():
    """N = 2^61, the largest preset window accepted, on uint64 positions.

    With 500 walkers in a 2.3e18-state space every occupied state holds
    one walker, so the empirical TV must sit just under 1 and be seeded
    deterministically.
    """
    spec = RecurrenceSpec((2,), (1,))
    window = generate(spec, 62)
    assert window.modulus == 2 ** 61
    config = SimConfig(window=window, t_max=3, num_trajectories=500, seed=5)
    curve = simulate_tv(config)
    assert curve == simulate_tv(config)
    for _, tv in curve:
        assert 0.99 < tv <= 1.0 + 1e-12


def _walkers_only():
    """Keep a run on the walker path, which the per-walker oracles
    replay draw for draw, also where N n R <= T would take the histogram."""
    return mock.patch.object(montecarlo, "_advances_histogram", lambda N, n, T: False)


def _blocked_simulate_tv(config: SimConfig) -> list[tuple[int, float]]:
    """The former two-loop simulation, kept as an oracle.

    Trajectories ran in blocks of 2^20, each block drawing all of its
    steps before the next; one Counter per t gathered the histograms.
    Positions were int64.  The TV is taken exactly from the histogram and
    correctly rounded, as simulate_tv now reports it.
    """
    block = 1 << 20
    window = config.window
    N = window.modulus
    T = config.num_trajectories
    rng = np.random.Generator(np.random.Philox(config.seed))
    counters = [Counter() for _ in range(config.t_max + 1)]
    counters[0][0] = T
    steps = np.array([g % N for g in window.values], dtype=np.int64)
    for lo in range(0, T, block):
        size = min(block, T - lo)
        pos = np.zeros(size, dtype=np.int64)
        for t in range(1, config.t_max + 1):
            pos = (pos + steps[rng.integers(0, window.n, size=size)]) % N
            vals, cnts = np.unique(pos, return_counts=True)
            counters[t].update(dict(zip(vals.tolist(), cnts.tolist())))
    return [(t, _exact_tv(list(c.values()), T, N)) for t, c in enumerate(counters)]


def _exact_tv(counts, T, N):
    """(1/2) sum_x |c_x/T - 1/N| over Z_N, from the nonzero counts c_x,
    as an exact Fraction correctly rounded to float."""
    missing = (N - len(counts)) * T  # |N c - T| = T at each empty state
    return float(Fraction(sum(abs(N * c - T) for c in counts) + missing, 2 * N * T))


@pytest.mark.parametrize(
    "spec, n, t_max, trajectories, seed",
    [
        (PRESETS["pow3"], 3, 12, 100_000, 1),  # N = 9 < T
        (PRESETS["pow3"], 10, 12, 5_000, 2),  # N = 19683 > T
        (PRESETS["fib-odd"], 6, 3, 1 << 20, 7),  # one full former block
        (RecurrenceSpec((2,), (1,)), 62, 6, 500, 5),  # N = 2^61, largest preset accepted
        (RecurrenceSpec((2,), (1,)), 62, 6, 2_000, 3),  # the same with more walkers
        (RecurrenceSpec((2,), (1,)), 30, 6, 2_000, 8),  # N = 2^29, int32
        (RecurrenceSpec((2,), (1,)), 31, 6, 2_000, 9),  # N = 2^30, largest on int32
        (RecurrenceSpec((2,), (1,)), 32, 6, 2_000, 10),  # N = 2^31, smallest on int64
        (PRESETS["pow3"], 19, 6, 3_000, 11),  # N = 3^18 < 2^30, int32
        (PRESETS["pow3"], 20, 6, 3_000, 12),  # N = 3^19 > 2^30, int64
        (PRESETS["pow3"], 12, 3, (1 << 18) + 1, 13),  # two blocks N = 3^11 wide
    ]
    + [
        # T = _BLOCK - 1, _BLOCK and _BLOCK + 1: one block short of, at and
        # past its edge, on N <= T, N > T, uint32 and uint64 positions
        (spec, n, 3, montecarlo._BLOCK + d, 20 + d)
        for spec, n in [
            (PRESETS["pow3"], 3),
            (PRESETS["pow3"], 14),
            (PRESETS["pow3"], 20),
            (RecurrenceSpec((2,), (1,)), 62),
        ]
        for d in (-1, 0, 1)
    ]
    + [
        # N = 128, 256, 2^15 and 2^16: the largest on uint8, the smallest
        # on uint16, the largest on uint16 and the smallest on uint32, with
        # N <= T and N > T
        (RecurrenceSpec((2,), (1,)), n, 6, trajectories, 30 + n)
        for n, trajectories in [
            (8, 100_000),
            (9, 100_000),
            (16, 100_000),
            (17, 100_000),
            (16, 1_000),
            (17, 1_000),
        ]
    ],
)
def test_bit_identical_to_blocked_loop(spec, n, t_max, trajectories, seed):
    window = generate(spec, n)
    config = SimConfig(
        window=window, t_max=t_max, num_trajectories=trajectories, seed=seed
    )
    with _walkers_only():
        assert simulate_tv(config) == _blocked_simulate_tv(config)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_support_invariant(seed):
    """T < N: each visited state holds at least 1/T > 1/N of the mass, so
    N(1 - TV(t)) is the number of occupied states, at most min(T, C(n+t-1, t))
    and exactly 1 at t = 0."""
    n, T = 10, 2000
    window = generate(PRESETS["pow3"], n)
    N = window.modulus
    assert T < N
    curve = simulate_tv(
        SimConfig(window=window, t_max=20, num_trajectories=T, seed=seed)
    )
    for t, tv in curve:
        occupied = N * (1.0 - tv)
        assert occupied == pytest.approx(round(occupied), abs=1e-6), t
        cap = 1 if t == 0 else min(T, math.comb(n + t - 1, t))
        assert 1 <= round(occupied) <= cap, t


def test_more_than_one_former_block_tracks_exact_distribution():
    window = generate(PRESETS["pow3"], 2)
    with _walkers_only():
        curve = simulate_tv(
            SimConfig(window=window, t_max=4, num_trajectories=(1 << 20) + 1, seed=11)
        )
    exact = path_counts.tv_curve(window, 4)
    for t, emp in curve:
        assert emp == pytest.approx(float(exact[t]), abs=5e-3), t


def _unique_simulate_tv(config: SimConfig) -> list[tuple[int, float]]:
    """The int64 loop with every histogram taken by np.unique, as an oracle."""
    window = config.window
    N = window.modulus
    T = config.num_trajectories
    rng = np.random.Generator(np.random.Philox(config.seed))
    steps = np.array([g % N for g in window.values], dtype=np.int64)
    pos = np.zeros(T, dtype=np.int64)
    out = []
    for t in range(config.t_max + 1):
        if t:
            pos += steps[rng.integers(0, window.n, size=T)]
            pos %= N
        counts = np.unique(pos, return_counts=True)[1]
        out.append((t, _exact_tv(counts.tolist(), T, N)))
    return out


@pytest.mark.parametrize(
    "name, n, trajectories",
    [
        ("pow3", 3, 1_000),  # N = 9 < T
        ("fib-odd", 5, 5_000),  # N = 55 < T
        ("pow3", 3, 9),  # N == T
        ("pow3", 5, 81),  # N == T
    ],
)
def test_bincount_histogram_matches_unique_exactly(name, n, trajectories):
    window = generate(PRESETS[name], n)
    assert window.modulus <= trajectories
    config = SimConfig(window=window, t_max=15, num_trajectories=trajectories, seed=4)
    with _walkers_only():
        assert simulate_tv(config) == _unique_simulate_tv(config)


@PROPERTY_SETTINGS
@given(
    window=small_windows(),
    trajectories=st.integers(1, 1 << 13),  # N <= 2^12: N <= T and N > T
    t_max=st.integers(0, 10),
    seed=st.integers(0, 2**32),
    block=st.sampled_from([1, 3, 7]),
)
def test_matches_unique_histogram_loop_property(
    window, trajectories, t_max, seed, block
):
    # blocks of 1, 3 and 7 trajectories (N wide when N <= T) split each
    # t's T draws many times, with a partial last block unless they divide T
    config = SimConfig(
        window=window, t_max=t_max, num_trajectories=trajectories, seed=seed
    )
    with mock.patch.object(montecarlo, "_BLOCK", block), _walkers_only():
        assert simulate_tv(config) == _unique_simulate_tv(config)


# Per n: the sequence and the most bytes a trajectory simulate_tv may hold
MEMORY_CASES = {3: ("pow3", 2), 14: ("pow3", 9), 12: ("pow3", 21), 13: ("pow2", 5.5)}


@pytest.mark.parametrize(
    "n, trajectories",
    [
        (3, 1 << 20),  # N = 9 <= T, uint8: bincount of one block at a time
        (14, 1 << 18),  # N = 3^13 > T, uint32: the positions and their sorted copy
        (12, 1 << 18),  # N = 3^11 just under T: blocks N wide, N-entry counts
        (13, 1 << 18),  # N = 2^12 <= T, uint16
    ],
)
def test_memory_per_trajectory(n, trajectories):
    # the positions are the one T-entry array live through a step; a
    # block's draws and steps are O(_BLOCK), or O(N) when _BLOCK < N <= T
    name, bytes_each = MEMORY_CASES[n]
    window = generate(PRESETS[name], n)
    config = SimConfig(window=window, t_max=4, num_trajectories=trajectories, seed=1)
    # numpy.random imports the rest of its modules on first use
    simulate_tv(SimConfig(window=window, t_max=1, num_trajectories=1, seed=1))
    tracemalloc.start()
    try:
        with _walkers_only():
            simulate_tv(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bytes_each * trajectories


def test_trajectory_count_capped():
    window = generate(PRESETS["pow3"], 3)
    SimConfig(window=window, t_max=5, num_trajectories=_MAX_TRAJECTORIES, seed=1)
    with pytest.raises(ValueError):
        SimConfig(
            window=window, t_max=5, num_trajectories=_MAX_TRAJECTORIES + 1, seed=1
        )


@pytest.mark.parametrize(
    "N, dtype",
    [(1, np.uint8), (128, np.uint8), (129, np.uint16), (1 << 15, np.uint16),
     ((1 << 15) + 1, np.uint32), (1 << 31, np.uint32), ((1 << 31) + 1, np.uint64),
     ((1 << 62) - 1, np.uint64)],
)
def test_position_type_holds_two_n_minus_two(N, dtype):
    # pos + step <= 2N - 2 before the wrap
    assert montecarlo._position_type(N) == dtype


def test_state_space_past_limit_refused():
    # N = 2^62 - 1 at n = 2 and 2^62 at n = 3: the largest N simulated and
    # the smallest refused
    spec = RecurrenceSpec((1, 1), (1, (1 << 62) - 1))
    window = generate(spec, 2)
    assert window.modulus == montecarlo.MAX_N
    config = SimConfig(window=window, t_max=2, num_trajectories=100, seed=1)
    assert len(simulate_tv(config)) == 3
    window = generate(spec, 3)
    assert window.modulus == 1 << 62
    with pytest.raises(StateSpaceTooLarge, match="exceeds the simulation limit"):
        SimConfig(window=window, t_max=2, num_trajectories=100, seed=1)


@pytest.mark.parametrize(
    "name, n, cap",
    [
        ("pow3", 3, montecarlo._MAX_WORK),  # uint8 positions
        ("pow3", 20, montecarlo._MAX_WORK),  # uint32 positions
        ("pow2", 62, montecarlo._MAX_WORK),  # uint64 positions, N = 2^61
    ],
)
def test_work_capped(name, n, cap):
    # T * t_max trajectory-steps, refused before anything is allocated
    window = generate(PRESETS[name], n)
    T = cap >> 16
    SimConfig(window=window, t_max=1 << 16, num_trajectories=T, seed=1)
    with pytest.raises(ValueError, match=f"trajectories \\* t_max must be at most {cap}"):
        SimConfig(window=window, t_max=(1 << 16) + 1, num_trajectories=T, seed=1)


def test_curve_rows_capped():
    # t = 0..t_max is t_max + 1 rows, at most MAX_ROWS = 2^18
    window = generate(PRESETS["pow3"], 3)
    SimConfig(window=window, t_max=MAX_ROWS - 1, num_trajectories=1, seed=1)
    with pytest.raises(ValueError, match="t_max"):
        SimConfig(window=window, t_max=MAX_ROWS, num_trajectories=1, seed=1)


def test_sparse_tv_never_exceeds_one():
    # N = 2^61 > T: the float sum of the histogram terms once gave
    # 1.0000000000000002 at t = 2 and 3; 1 - occupied/N, correctly
    # rounded, is 1.0 here
    window = generate(PRESETS["pow2"], 62)
    config = SimConfig(window=window, t_max=3, num_trajectories=125, seed=0)
    assert simulate_tv(config) == [(t, 1.0) for t in range(4)]


@PROPERTY_SETTINGS
@given(data=st.data(), N=st.integers(2, montecarlo.MAX_N))
def test_sparse_row_is_one_minus_occupied_share_property(data, N):
    # N > T: k = T // N = 0, so the scan's N T TV from (T, occupied),
    # over N T, is (N - occupied) / N, both correctly rounded
    T = data.draw(st.integers(1, min(N - 1, _MAX_TRAJECTORIES)))
    occupied = data.draw(st.integers(1, T))
    assert _tv_excess(N, T, T, occupied) / (N * T) == (N - occupied) / N


@pytest.mark.parametrize("name, n", [("pow3", 2), ("pow3", 3), ("pow2", 13)])
def test_histogram_from_n_n_r_trajectories(name, n):
    # T = N n R takes the histogram, one multinomial split a step; T - 1
    # keeps the walkers
    window = generate(PRESETS[name], n)
    T = window.modulus * n * montecarlo._HISTOGRAM_RATIO
    assert montecarlo._advances_histogram(window.modulus, n, T)
    assert not montecarlo._advances_histogram(window.modulus, n, T - 1)
    for trajectories, steps in [(T, 3), (T - 1, 0)]:
        config = SimConfig(window=window, t_max=3, num_trajectories=trajectories, seed=1)
        with mock.patch.object(
            montecarlo, "_histogram_step", wraps=montecarlo._histogram_step
        ) as step:
            simulate_tv(config)
        assert step.call_count == steps, trajectories


class _FixedSplit:
    """A stand-in generator whose multinomial split is a given matrix."""

    def __init__(self, split):
        self.split = split
        self.calls = []

    def multinomial(self, counts, pvals):
        self.calls.append((counts, pvals))
        return self.split


@PROPERTY_SETTINGS
@given(window=small_windows(), seed=st.integers(0, 2**32))
def test_histogram_step_shifts_each_column_by_its_step(window, seed):
    N, n = window.modulus, window.n
    split = np.random.default_rng(seed).integers(0, 1000, size=(N, n))
    hist = split.sum(axis=1)
    rng = _FixedSplit(split)
    stepped = montecarlo._histogram_step(hist, window.steps, rng)
    (counts, pvals), = rng.calls
    assert counts is hist and pvals == [1 / n] * n
    # column i's walkers at x move to x + steps[i] mod N
    expected = np.zeros(N, dtype=np.int64)
    np.add.at(expected, (np.arange(N)[:, None] + np.array(window.steps)) % N, split)
    assert stepped.dtype == np.int64
    assert np.array_equal(stepped, expected)


def _histograms(config: SimConfig) -> list[np.ndarray]:
    """The histogram at each t = 0..t_max of one run, N <= T."""
    seen = []
    reduce = montecarlo._above

    def record(hist, k, out=None):
        seen.append(hist.copy())
        return reduce(hist, k, out=out)

    with mock.patch.object(montecarlo, "_above", record):
        simulate_tv(config)
    return seen


@pytest.mark.parametrize("walkers", [False, True], ids=["histogram", "walkers"])
@pytest.mark.parametrize("name, n", [("pow3", 3), ("pow2", 4)])
def test_histogram_counts_follow_the_walk_law(name, n, walkers):
    # each count h_t(x) is Binomial(T, P^t(x)) on either path, so over S
    # seeds its mean lies within 6 sigma = 6 sqrt(T p (1 - p) / S) of T p
    window = generate(PRESETS[name], n)
    T, seeds = 1000, range(40)
    assert montecarlo._advances_histogram(window.modulus, n, T)
    runs = []
    for seed in seeds:
        config = SimConfig(window=window, t_max=2, num_trajectories=T, seed=seed)
        with _walkers_only() if walkers else contextlib.nullcontext():
            runs.append(_histograms(config))
    for t, counts in zip((1, 2), islice(path_counts.iter_counts(window), 1, 3)):
        p = counts / n**t
        mean = np.mean([run[t] for run in runs], axis=0)
        sigma = np.sqrt(T * p * (1 - p) / len(seeds))
        assert np.all(np.abs(mean - T * p) <= 6 * sigma + 1e-9), t


def test_histogram_memory_does_not_grow_with_trajectories():
    # N = 9: the histogram and one 9 x 3 split, whatever T
    window = generate(PRESETS["pow3"], 3)
    config = SimConfig(window=window, t_max=20, num_trajectories=1 << 24, seed=1)
    simulate_tv(SimConfig(window=window, t_max=1, num_trajectories=1000, seed=1))
    tracemalloc.start()
    try:
        simulate_tv(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
