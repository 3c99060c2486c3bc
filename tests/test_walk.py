import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from recwalk import (
    InsideErrorBand,
    PRESETS,
    RecurrenceSpec,
    RecwalkError,
    ScanTooLong,
    StateSpaceTooLarge,
    eigenvalue_bound,
    evolve,
    first_unbounded_j,
    full_spectrum,
    generate,
    half_spectrum,
    mixing_time,
    s_value,
    scan_lower_bound,
    slem_streaming,
    Walk,
)

from recwalk import walk

import path_counts
from path_counts import point_mass, step_distribution, tv_to_uniform
from expected_values import EXACT_TMIX, REFERENCE_TABLE
from test_spectrum import per_term_exp_eigenvalues


def _counting_step_law(window):
    """Reference: p[x] = #{i : G_i = x mod N} / n, counting multiplicities."""
    N = window.modulus
    p = np.zeros(N)
    for g in window.values:
        p[g % N] += 1.0
    p /= window.n
    return p


def _roll_convolve(probs, step):
    """Reference: the sum over the support of w_x * np.roll(probs, x)."""
    out = np.zeros_like(probs)
    for x in np.flatnonzero(step):
        out += step[x] * np.roll(probs, x)
    return out


def _roll_evolve(window, t):
    """Reference law of X_t: t applications of _roll_convolve to the point
    mass at 0."""
    step = step_distribution(window)
    probs = point_mass(len(step))
    for _ in range(t):
        probs = _roll_convolve(probs, step)
    return probs


def _assert_curve_matches_oracle(window, epsilon):
    """The scan's TV curve is float(TV(t)) of the integer oracle, exactly,
    while n^t < walk._INT64_PATHS (2^63), and within the float band past
    that; t_mix is the oracle's."""
    res = mixing_time(window, epsilon)
    exact = path_counts.tv_curve(window, res.t_mix)
    assert [t for t, _ in res.tv_curve] == list(range(res.t_mix + 1))
    n, t0 = window.n, 0
    while n > 1 and n ** (t0 + 1) < walk._INT64_PATHS:
        t0 += 1
    for (t, tv), want in zip(res.tv_curve, exact):
        if n**t < walk._INT64_PATHS:
            assert tv == float(want), (window.steps, t)
        else:
            band = walk._band(n, t - t0)
            assert abs(Fraction(tv) - want) <= band, (window.steps, t)
    eps = Fraction(epsilon)
    assert exact[-1] <= eps and all(tv > eps for tv in exact[:-1])  # the oracle's t_mix
    return res


def test_step_distribution_counts_multiplicities():
    # pow3 n=2: steps {1, 3} on Z_3, so 3 wraps onto 0
    step = step_distribution(generate(PRESETS["pow3"], 2))
    assert step == pytest.approx([0.5, 0.5, 0.0])

    # pow2 n=3: steps {1, 2, 4} on Z_4, 4 wraps onto 0
    step = step_distribution(generate(PRESETS["pow2"], 3))
    assert step == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0])


def test_step_distribution_single_state():
    step = step_distribution(generate(PRESETS["pow2"], 1))
    assert step == pytest.approx([1.0])


def test_step_distribution_respects_cap():
    window = generate(PRESETS["pow2"], 26)  # N = 2^25 > DEFAULT_N_MAX
    with pytest.raises(StateSpaceTooLarge):
        step_distribution(window)


def test_evolve_zero_steps_is_point_mass():
    probs = evolve(generate(PRESETS["pow3"], 3), 0)
    assert probs[0] == 1.0
    assert float(probs.sum()) == 1.0


def test_evolve_small_cases_exact():
    # pow3 n=2 after 2 steps: (1/2, 1/2, 0) convolved with itself
    window = generate(PRESETS["pow3"], 2)
    p1 = evolve(window, 1)
    assert p1 == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    p2 = evolve(window, 2)
    assert p2 == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    assert tv_to_uniform(p2) == pytest.approx(1 / 6, abs=1e-12)


def test_evolve_rejects_bad_arguments():
    window = generate(PRESETS["pow2"], 2)
    with pytest.raises(ValueError):
        evolve(window, -1)


def test_direct_and_spectral_agree():
    for name in PRESETS:
        window = generate(PRESETS[name], 6)
        for t in (1, 2, 3, 7, 16, 33, 64):
            a = _roll_evolve(window, t)
            b = evolve(window, t)
            gap = float(np.max(np.abs(a - b)))
            assert gap <= 1e-9, (name, t, gap)


def test_spectral_stays_normalized_at_huge_t():
    # eigenvalue moduli clamped at 1 before powering: mass error stays
    # tiny even at t = 10^6, and negative entries are only rounding dust
    probs = evolve(generate(PRESETS["pow3"], 3), 10**6)
    assert abs(float(probs.sum()) - 1.0) <= 1e-9
    assert float(probs.min()) >= -1e-12
    assert tv_to_uniform(probs) <= 1e-9


def test_tv_examples():
    assert tv_to_uniform(np.full(7, 1.0 / 7)) == 0.0
    # point mass on Z_4: exact dyadic arithmetic gives exactly 3/4
    assert tv_to_uniform(point_mass(4)) == 0.75
    assert tv_to_uniform(point_mass(1)) == 0.0


def test_mixing_times_match_exact_oracle():
    for name, expected in EXACT_TMIX.items():
        for n in range(1, 10):
            res = mixing_time(generate(PRESETS[name], n), 0.25)
            assert res.t_mix == expected[n - 1], (name, n)


def test_reference_table_mismatches_carry_exact_certificates():
    # test_acceptance_table_reproduction stays red: 15 of its 27 reference
    # cells are not this walk's t_mix(1/4), and the integer oracle
    # certifies each.  In 14 the exact TV at the reference t is above 1/4,
    # so t_mix is larger; at pow2 n = 3, TV(1) = 1/4 exactly, so t_mix is
    # 1, not the reference's 2.
    quarter = Fraction(1, 4)
    above, below, matched = {}, {}, 0
    for name, row in REFERENCE_TABLE.items():
        for n, ref in enumerate(row, start=1):
            window = generate(PRESETS[name], n)
            t_mix = path_counts.t_mix(window, quarter)
            assert t_mix == EXACT_TMIX[name][n - 1], (name, n)
            curve = path_counts.tv_curve(window, max(ref, t_mix))
            if ref < t_mix:
                above[name, n] = curve[ref]
            elif ref > t_mix:
                below[name, n] = (t_mix, curve[t_mix])
            else:
                matched += 1
    assert (matched, len(above), len(below)) == (12, 14, 1)
    assert all(tv > quarter for tv in above.values())
    assert above["pow2", 7] == Fraction(11, 32)
    assert above["pow3", 9] == Fraction(626, 729)
    assert above["fib-odd", 9] == Fraction(14228225, 16953624)
    assert below == {("pow2", 3): (1, quarter)}


def test_mixing_result_threshold_bracketing():
    for name in PRESETS:
        res = mixing_time(generate(PRESETS[name], 7), 0.25)
        curve = dict(res.tv_curve)
        assert curve[res.t_mix] <= 0.25
        if res.t_mix > 0:
            assert curve[res.t_mix - 1] > 0.25
        assert len(res.tv_curve) == res.t_mix + 1


def test_mixing_tie_case_is_stable():
    # pow2 n=3 at t=1 has TV exactly 1/4; the nonstrict threshold and the
    # time-domain scan must land on t = 1, not 2
    res = mixing_time(generate(PRESETS["pow2"], 3), 0.25)
    assert res.t_mix == 1
    assert dict(res.tv_curve)[1] == pytest.approx(0.25, abs=1e-12)


def test_mixing_tv_curve_is_nonincreasing():
    for name in PRESETS:
        res = mixing_time(generate(PRESETS[name], 8), 0.01)
        tvs = [tv for _, tv in res.tv_curve]
        for a, b in zip(tvs, tvs[1:]):
            assert b <= a + 1e-12


def test_mixing_epsilon_validated():
    window = generate(PRESETS["pow2"], 3)
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            mixing_time(window, eps)


def test_mixing_single_state():
    res = mixing_time(generate(PRESETS["pow3"], 1), 0.25)
    assert res.t_mix == 0
    assert res.N == 1


def test_mixing_scan_holds_no_step_law():
    # live arrays: the int64 counts and their spare, 16 N bytes, plus one
    # tile of scratch (8 N here, where N is one tile); the float scan held
    # the law, its spare and a product buffer, 24 N, and a dense step law
    # on top made it 32 N
    window = generate(PRESETS["pow2"], 17)  # N = 2^16
    tracemalloc.start()
    try:
        mixing_time(window, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * window.modulus


def test_mixing_scan_memory_does_not_grow_with_tiles_times_steps():
    # G_i = i: n = N = 2^15, every step inside the one tile.  The scan
    # holds 16 N bytes of counts, 8 N of scratch and the n steps; a stored
    # per-tile plan of the adds at both count widths took 12 MiB (384 N)
    window = generate(RecurrenceSpec((2, -1), (1, 2)), 1 << 15)
    tracemalloc.start()
    try:
        res = mixing_time(window, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.t_mix == 1  # every residue is one step from 0
    assert peak < 64 * window.modulus


@pytest.mark.parametrize("name, n", [("pow2", 17), ("fib-odd", 12)])
def test_spectral_evolve_holds_only_the_half_spectrum(name, n):
    # live arrays: the half spectrum, 8 N bytes, its clamped power, 8 N,
    # and irfft's N-entry law, 8 N; a full N-entry spectrum on top made
    # it 40 N
    window = generate(PRESETS[name], n)
    tracemalloc.start()
    try:
        evolve(window, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * window.modulus


def test_mixing_epsilon_monotonicity():
    window = generate(PRESETS["fib-odd"], 6)
    loose = mixing_time(window, 0.4).t_mix
    tight = mixing_time(window, 0.05).t_mix
    assert loose <= tight


def test_mixing_curve_bit_identical_to_roll_reference():
    # now against the integer oracle; eps = 0.01 takes pow3 n = 8..10 and
    # fib-odd n = 9, 10 past the int64 range of path counts
    for name in PRESETS:
        for n in range(1, 11):
            window = generate(PRESETS[name], n)
            for eps in (0.25, 0.01):
                _assert_curve_matches_oracle(window, eps)


@pytest.mark.parametrize(
    "name, n",
    [
        ("pow2", 18),  # N = 2^17: two full tiles
        ("pow3", 12),  # N = 177147: a partial last tile
        ("fib-odd", 13),  # N = 121393
    ],
)
def test_mixing_curve_bit_identical_past_one_tile(name, n):
    window = generate(PRESETS[name], n)
    assert window.modulus > walk._TILE
    res = _assert_curve_matches_oracle(window, 0.25)
    assert window.n**res.t_mix < 2**63  # exact all the way


def test_small_tiles_bit_identical_to_roll_reference(monkeypatch):
    # tiles of 64 entries put shifts before, inside, on the edge of and
    # past each tile, so every wrap branch of the plan fires
    monkeypatch.setattr(walk, "_TILE", 64)
    for name in PRESETS:
        for n in range(1, 11):
            _assert_curve_matches_oracle(generate(PRESETS[name], n), 0.25)
    # tiles of 3 entries put shifts on both tile edges, inside tiles and
    # past a partial last tile; epsilon = the exact TV(24) runs the scan to
    # t = 24, except where TV reaches 0 (N <= 2), which no epsilon can ask
    monkeypatch.setattr(walk, "_TILE", 3)
    for name in PRESETS:
        for n in range(1, 7):
            window = generate(PRESETS[name], n)
            tv24 = path_counts.tv_curve(window, 24)[24]
            if tv24 > 0:
                assert _assert_curve_matches_oracle(window, tv24).t_mix == 24


def _record_count_types(monkeypatch) -> list:
    """Patch walk._convolve_tiles to list the dtype of the counts each scan
    step reads, and return that list."""
    types = []
    convolve = walk._convolve_tiles

    def recording(src, out, plan):
        types.append(src.dtype)
        return convolve(src, out, plan)

    monkeypatch.setattr(walk, "_convolve_tiles", recording)
    return types


@pytest.mark.parametrize("name, n", [("pow2", 18), ("pow3", 12)])
def test_narrow_counts_widen_where_the_oracle_says(monkeypatch, name, n):
    # each dense step reads uint32 counts exactly while n times the
    # oracle's largest count is below 2^32, and these windows cross from
    # uint32 to int64 before t_mix (fib-odd n = 13 stays in uint32)
    window = generate(PRESETS[name], n)
    types = _record_count_types(monkeypatch)
    res = mixing_time(window, 0.25)
    counts = list(islice(path_counts.iter_counts(window), res.t_mix))
    # the dense steps read c_first .. c_(t_mix - 1)
    first = res.t_mix - len(types)
    want = [np.uint32 if n * int(c.max()) < 2**32 else np.int64 for c in counts[first:]]
    assert types == want
    assert types[0] == np.uint32 and types[-1] == np.int64


@pytest.mark.parametrize("tile", [walk._TILE, 8])
@pytest.mark.parametrize("narrow", [np.uint8, np.uint16])
def test_narrow_types_bit_identical_to_integer_oracle(monkeypatch, narrow, tile):
    # 8 or 16 bits are outgrown after a few steps, so the presets cross
    # from the narrow type to int64 at many different steps; small tiles
    # spread the largest count over many tiles
    monkeypatch.setattr(walk, "_NARROW", narrow)
    monkeypatch.setattr(walk, "_TILE", tile)
    types = _record_count_types(monkeypatch)
    for name in PRESETS:
        for n in range(1, 12):
            for eps in (0.25, 0.01) if n <= 10 else (0.25,):
                _assert_curve_matches_oracle(generate(PRESETS[name], n), eps)
    assert narrow in types and np.int64 in types


def test_float_phase_converts_narrow_counts(monkeypatch):
    # with int64 taken to end at n^t = 2^20, the counts of pow3 n = 9 go
    # from uint32 straight to float64, which must read them at their width
    monkeypatch.setattr(walk, "_INT64_PATHS", 1 << 20)
    types = _record_count_types(monkeypatch)
    _assert_curve_matches_oracle(generate(PRESETS["pow3"], 9), 0.01)
    assert np.uint32 in types and np.float64 in types and np.int64 not in types


@st.composite
def small_windows(draw):
    """Windows of random order <= 3 specs, cut to the longest prefix with
    N <= 2^12; specs that generate rejects are skipped."""
    d = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(-3, 4), min_size=d, max_size=d))
    init = [1] + draw(st.lists(st.integers(1, 40), min_size=d - 1, max_size=d - 1))
    n = draw(st.integers(1, 14))
    try:
        spec = RecurrenceSpec(tuple(coeffs), tuple(init))
        window = generate(spec, n)
    except RecwalkError:
        reject()
    return generate(spec, sum(1 for g in window.values if g <= 2**12))


PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
)


@PROPERTY_SETTINGS
@given(window=small_windows(), t=st.integers(0, 32))
def test_spectral_evolution_matches_direct_property(window, t):
    spectral = evolve(window, t)
    assert float(np.max(np.abs(spectral - _roll_evolve(window, t)))) <= 1e-9


@PROPERTY_SETTINGS
@given(window=small_windows())
def test_spectrum_matches_per_term_exp_oracle_property(window):
    got = full_spectrum(window)
    assert float(np.max(np.abs(got - per_term_exp_eigenvalues(window)))) <= 1e-15


@PROPERTY_SETTINGS
@given(window=small_windows(), narrow=st.sampled_from([np.uint8, np.uint16]))
def test_narrow_types_match_integer_oracle_property(window, narrow):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "_NARROW", narrow)
        _assert_curve_matches_oracle(window, 0.25)


@PROPERTY_SETTINGS
@given(window=small_windows())
def test_step_set_and_evolution_match_roll_oracle_property(window):
    steps = window.steps
    assert len(set(steps)) == len(steps) == window.n
    assert all(0 <= x < window.modulus for x in steps)
    assert steps[-1] == 0
    assert np.array_equal(step_distribution(window), _counting_step_law(window))
    _assert_curve_matches_oracle(window, 0.25)
    assert float(np.max(np.abs(evolve(window, 24) - _roll_evolve(window, 24)))) <= 1e-9


@st.composite
def small_walks(draw):
    """Walks on Z_N, N <= 2^12: 1..16 nonzero steps drawn with repeats from
    a pool of at most four residues, and 1..3 holds, in any order."""
    N = draw(st.integers(2, 2**12))
    pool = draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=4))
    moves = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    holds = [0] * draw(st.integers(1, 3))
    return Walk(N, draw(st.permutations(moves + holds)))


def test_walk_checks_its_steps():
    walk_ = Walk(6, [5, 0, 5, 2, 0])
    assert walk_ == (6, (5, 0, 5, 2, 0)) and walk_.n == 5
    with pytest.raises(TypeError):
        Walk(6, (1, 0), 0.5)
    for steps in ((), (6,), (-1, 0)):
        with pytest.raises(ValueError):
            Walk(6, steps)
    with pytest.raises(TypeError):
        Walk(6, (True, 0))


@pytest.mark.parametrize("name", list(PRESETS))
def test_window_and_its_walk_agree(name):
    # the walk-level functions read modulus, n and steps, and both take
    # the scan's last float step from the steps' own bound, so a window and
    # the Walk of its steps give the same bytes
    for n in range(1, 9):
        window = generate(PRESETS[name], n)
        walk_ = Walk(window.modulus, window.steps)
        assert mixing_time(walk_, 0.01) == mixing_time(window, 0.01)
        assert half_spectrum(walk_).tobytes() == half_spectrum(window).tobytes()
        assert step_distribution(walk_).tobytes() == step_distribution(window).tobytes()
    # past int64 both take their last step from the paper's bound at the
    # steps' s: the same t_mix at 1e-10, the same refusal at 1e-12
    window = generate(PRESETS[name], 10)
    walk_ = Walk(window.modulus, window.steps)
    eps = Fraction(1, 10**10)
    assert walk._bound_last_step(window, eps) is not None
    got = mixing_time(walk_, eps)
    assert 10**got.t_mix > walk._INT64_PATHS and got == mixing_time(window, eps)
    refusals = []
    for w in (window, walk_):
        with pytest.raises(InsideErrorBand) as exc:
            mixing_time(w, Fraction(1, 10**12))
        refusals.append(str(exc.value))
    assert refusals[0] == refusals[1]


def test_scan_takes_its_last_step_from_the_walks_bound():
    window = generate(PRESETS["pow2"], 9)
    eps, bound = Fraction(1, 1000), eigenvalue_bound(9, 2)
    assert walk._bound_last_step(window, eps) == walk._ubl_last_step(256, bound, eps)
    assert walk._bound_last_step(Walk(256, window.steps), eps) == walk._bound_last_step(
        window, eps
    )
    # G_2 = 7 > s G_1 = 3, but the steps {1, 0} on Z_7 give s* = 7
    window = generate(RecurrenceSpec((3, 0), (1, 7)), 2)
    assert walk._bound_last_step(window, eps) == walk._ubl_last_step(
        7, eigenvalue_bound(2, 7), eps
    )
    # no step 1: the steps {2, 0} on Z_100 bound no |lambda_k| below 1
    assert walk._bound_last_step(Walk(100, (2, 0)), eps) is None


def test_step_distribution_of_a_multiset():
    assert step_distribution(Walk(5, (1, 0, 1))) == pytest.approx([1 / 3, 2 / 3, 0, 0, 0])


def test_walks_without_a_hold_or_with_only_holds():
    # with no hold the scan's first shift is a nonzero step; with only
    # holds the engine has no table and every lambda_k is 1
    for walk_ in (Walk(9, (1, 2)), Walk(11, (3, 7, 3)), Walk(64, (5, 1, 2, 1))):
        got = half_spectrum(walk_)
        want = per_term_exp_eigenvalues(walk_, np.arange(walk_.modulus // 2 + 1))
        assert float(np.max(np.abs(got - want))) <= 1e-15
        _assert_curve_matches_oracle(walk_, Fraction(1, 4))
    assert np.array_equal(half_spectrum(Walk(6, (0, 0))), np.ones(4))
    assert slem_streaming(Walk(6, (0, 0, 0))) == 1.0


def test_single_step_walk_never_mixes():
    # one step moves the point mass whole: TV(t) = 1 - 1/N for every t
    assert mixing_time(Walk(5, (1,)), Fraction(4, 5)).t_mix == 0
    with pytest.raises(ScanTooLong, match="every t"):
        mixing_time(Walk(5, (1,)), Fraction(3, 5))


@pytest.mark.parametrize(
    "walk_, d",
    [(Walk(4, (2, 0)), 2), (Walk(4, (1, 3)), 2), (Walk(9, (3, 6, 0)), 3)],
)
def test_walks_confined_to_a_coset_never_mix(walk_, d):
    # every step is the first plus a multiple of d, so X_t stays in the
    # coset t g_1 + dZ_N and TV(t) >= 1 - 1/d; the scan once ran these to
    # the float phase and refused them by a SLEM of 1 instead
    with pytest.raises(ScanTooLong, match=f"d = {d},.*every t"):
        mixing_time(walk_, Fraction(d - 1, d) - Fraction(1, 20))
    # at epsilon = 1 - 1/d the scan runs: one step is uniform on the coset
    assert mixing_time(walk_, Fraction(d - 1, d)).t_mix == 1


@PROPERTY_SETTINGS
@given(walk_=small_walks(), factor=st.integers(2, 8), shift=st.integers(0, 2**15))
def test_walks_confined_to_a_coset_are_refused_before_any_step_property(
    walk_, factor, shift
):
    # factor g + shift on Z_{factor N}: the steps differ by multiples of factor
    N = walk_.modulus * factor
    lifted = Walk(N, [(factor * g + shift) % N for g in walk_.steps])
    d = math.gcd(N, *(g - lifted.steps[0] for g in lifted.steps))
    assert d % factor == 0
    with (
        mock.patch.object(walk, "_sparse_step", side_effect=AssertionError),
        mock.patch.object(walk, "_convolve_tiles", side_effect=AssertionError),
        pytest.raises(ScanTooLong, match=f"d = {d},.*every t"),
    ):
        mixing_time(lifted, Fraction(1, 4))


@st.composite
def counts_and_k(draw):
    """Counts of each type _above takes, totalling below 2^63, and a k
    that fits the type, from 0 to past the largest count."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]))
    size = draw(st.integers(1, 300))
    top = int(np.iinfo(dtype).max)
    if dtype is np.int64:
        top //= size
    counts = draw(hnp.arrays(dtype, size, elements=st.integers(0, top)))
    k = draw(st.integers(0, min(int(counts.max()) + 3, int(np.iinfo(dtype).max))))
    return counts, k


@PROPERTY_SETTINGS
@given(case=counts_and_k(), out=st.sampled_from(["none", "counts", "scratch"]))
def test_above_is_exact_property(case, out):
    counts, k = case
    values = counts.tolist()
    want = (sum(max(c - k, 0) for c in values), sum(c > k for c in values))
    over = {"none": None, "counts": counts, "scratch": np.empty_like(counts)}[out]
    assert walk._above(counts, k, out=over) == want
    if over is None:
        assert counts.tolist() == values
        return
    assert over.tolist() == [max(c - k, 0) for c in values]
    # the narrow scan's largest count: k + max over = max c whenever k <= max c
    assert k + int(over.max()) == max(max(values), k)


@pytest.mark.parametrize(
    "walk_, t_mix",
    [
        (Walk(27, (1, 3, 9, 0, 0)), 5),  # pow3 n = 5 on Z_27
        (Walk(18, (1, 17, 0, 1, 0)), 28),  # G = 1, 17, 18, 19, 36 on Z_18
        (Walk(64, (1, 1, 5, 0, 0, 0)), 62),
    ],
)
def test_repeated_step_walks_match_integer_oracle(walk_, t_mix):
    # the last two leave int64 (5^28, 6^25 >= 2^63) before they mix
    assert _assert_curve_matches_oracle(walk_, Fraction(1, 4)).t_mix == t_mix
    lam = half_spectrum(walk_)
    want = per_term_exp_eigenvalues(walk_, np.arange(walk_.modulus // 2 + 1))
    assert float(np.max(np.abs(lam - want))) <= 1e-15


@PROPERTY_SETTINGS
@given(walk_=small_walks())
def test_mixing_time_on_step_multisets_matches_integer_oracle_property(walk_):
    # Steps that share a factor with N, or that all differ by one, never mix:
    # the SLEM is 1, and the scan refuses them.  Otherwise 2 TV(t) >=
    # slem^t, one character at a time, puts t_mix at t_slow or later; the
    # oracle's work is about n N t additions, and walks past 2^22 are
    # skipped before the scan, which would take seconds for them.
    eps = Fraction(1, 4)
    n, N = walk_.n, walk_.modulus
    slem = slem_streaming(walk_)
    if slem + walk._SLEM_ERROR >= 1.0:
        with pytest.raises((ScanTooLong, InsideErrorBand)):
            mixing_time(walk_, eps)
        return
    t_slow = math.log(2 * eps) / math.log(slem)
    if n * N * t_slow <= 2**22:
        res = _assert_curve_matches_oracle(walk_, eps)
        assert res.t_mix >= t_slow - 1e-9


@PROPERTY_SETTINGS
@given(walk_=small_walks())
def test_half_spectrum_of_step_multisets_matches_per_term_exps_property(walk_):
    got = half_spectrum(walk_)
    want = per_term_exp_eigenvalues(walk_, np.arange(walk_.modulus // 2 + 1))
    assert float(np.max(np.abs(got - want))) <= 1e-15


@PROPERTY_SETTINGS
@given(window=small_windows())
# G = 1, 17, 18, 19, 36: its image (1, 17, 0, 1, 0) on Z_18 leaves int64
@example(window=generate(RecurrenceSpec((1, 0, 1), (1, 17, 18)), 5))
def test_quotient_walks_mix_no_slower_property(window):
    # x -> x mod d maps the walk on Z_N onto the walk on Z_d whose steps are
    # the G_i mod d, repeats and holds counted, and uniform onto uniform;
    # TV cannot grow under a map, so TV_d(t) <= TV_N(t) at every t and
    # t_mix on Z_d is at most t_mix on Z_N.  The oracle's work is about
    # n N t additions per curve, checked below 2^22.
    eps = Fraction(1, 4)
    N, n = window.modulus, window.n
    try:
        t_mix = mixing_time(window, eps).t_mix
    except (ScanTooLong, InsideErrorBand):
        return
    if n * N * t_mix > 2**22:
        return
    curve = path_counts.tv_curve(window, t_mix)
    for d in range(2, N):
        if N % d:
            continue
        image = Walk(d, tuple(g % d for g in window.steps))
        image_curve = path_counts.tv_curve(image, t_mix)
        assert all(a <= b for a, b in zip(image_curve, curve)), (window.values, d)
        assert mixing_time(image, eps).t_mix <= t_mix, (window.values, d)


def test_tie_probe_decided_exactly():
    # epsilon = each exact TV(t) >= 1e-12 at t <= 24, every preset at
    # n = 2..7: 426 cases, 155 of which the float scan got wrong.  Ties
    # inside the int64 range are decided exactly; the 6 at n = 7, t = 23
    # and 24 (7^23 >= 2^63) sit at the centre of the float band.
    cases = refused = 0
    for name in PRESETS:
        for n in range(2, 8):
            window = generate(PRESETS[name], n)
            curve = path_counts.tv_curve(window, 24)
            for t, tv in enumerate(curve):
                if tv < Fraction(1, 10**12):
                    continue
                cases += 1
                first = min(s for s, v in enumerate(curve) if v <= tv)
                if n**first >= 2**63:
                    with pytest.raises(InsideErrorBand):
                        mixing_time(window, tv)
                    refused += 1
                else:
                    assert mixing_time(window, tv).t_mix == first, (name, n, t)
    assert (cases, refused) == (426, 6)


def test_five_sixteenths_tie():
    # TV(2) = 5/16 exactly at pow2 n = 5; its float is 0.3125000000000001
    res = mixing_time(generate(PRESETS["pow2"], 5), Fraction(5, 16))
    assert res.t_mix == 2
    assert res.tv_curve == ((0, 0.9375), (1, 0.6875), (2, 0.3125))


def test_float_scan_rescales_exactly(monkeypatch):
    # a 4-bit rescale threshold makes the float phase rescale every step
    monkeypatch.setattr(walk, "_RESCALE_BITS", 4)
    for name, n in (("pow3", 8), ("fib-odd", 9)):
        window = generate(PRESETS[name], n)
        res = _assert_curve_matches_oracle(window, 0.01)
        assert window.n**res.t_mix >= 2**63  # decided in float


def test_slem_at_one_refused_before_float_scan(monkeypatch):
    # the int64 range ends at t = 19 for n = 9; at 1e-14 the paper's bound
    # puts the last step at t = 529, where the band is 4.8e-13, so the scan
    # asks the engine, and a SLEM of 1 bounds no t for the float scan
    window = generate(PRESETS["fib-odd"], 9)
    monkeypatch.setattr(walk, "slem_streaming", lambda window: 1.0 - 1e-15)
    with pytest.raises(InsideErrorBand, match="SLEM"):
        mixing_time(window, Fraction(1, 10**14))


def _steps_s(walk_):
    """s* = max ceil(h_{j+1} / h_j) over the distinct nonzero steps
    1 = h_1 < ... < h_m and h_{m+1} = N, or None without a 1 or a 0."""
    rungs = sorted({g for g in walk_.steps if g}) + [walk_.modulus]
    if rungs[0] != 1 or 0 not in walk_.steps:
        return None
    return max(math.ceil(Fraction(b, a)) for a, b in zip(rungs, rungs[1:]))


def _expected_last_step(walk_, epsilon):
    """_bound_last_step's t from _steps_s, or None."""
    s = _steps_s(walk_)
    if s is None:
        return None
    bound = eigenvalue_bound(walk_.n, s)
    if bound + walk._SLEM_ERROR >= 1.0:
        return None
    return walk._ubl_last_step(walk_.modulus, bound, epsilon)


@PROPERTY_SETTINGS
@given(
    window=small_windows(),
    epsilon=st.fractions(Fraction(1, 10**14), Fraction(1, 4), max_denominator=10**15),
)
def test_paper_bound_is_at_least_the_engine_slem_property(window, epsilon):
    # the bound holds where s exists and G_{j+1} <= s G_j for every j;
    # small_windows also draws specs with no positive coefficient, e.g.
    # coeffs (0, 0, 0), init (1, 19, 1) at n = 2, which have no s
    if window.modulus < 2:
        return
    slem = slem_streaming(window)
    t_last = walk._bound_last_step(window, epsilon)
    s = _steps_s(window)  # every window with N >= 2 has the steps 1 and 0
    assert eigenvalue_bound(window.n, s) >= slem
    if max(window.spec.coeffs) > 0 and first_unbounded_j(window) is None:
        assert eigenvalue_bound(window.n, s_value(window.spec)) >= slem
        assert s <= s_value(window.spec)
    if t_last is not None:
        assert t_last >= walk._ubl_last_step(window.modulus, slem, epsilon)


@PROPERTY_SETTINGS
@given(
    walk_=small_walks(),
    epsilon=st.fractions(Fraction(1, 10**14), Fraction(1, 4), max_denominator=10**15),
)
def test_steps_bound_is_at_least_the_engine_slem_property(walk_, epsilon):
    # a 1 and a 0 forced in: the angle cover runs up the distinct steps to N
    walk_ = Walk(walk_.modulus, walk_.steps + (1, 0))
    assert eigenvalue_bound(walk_.n, _steps_s(walk_)) >= slem_streaming(walk_)
    assert walk._bound_last_step(walk_, epsilon) == _expected_last_step(walk_, epsilon)


@pytest.mark.parametrize("name", list(PRESETS))
def test_steps_give_the_presets_s(name):
    eps = Fraction(1, 1000)
    for n in range(2, 33):
        window = generate(PRESETS[name], n)
        assert _steps_s(window) == s_value(PRESETS[name])
        assert walk._bound_last_step(window, eps) == _expected_last_step(window, eps)


def _engine_must_not_run(walk_):
    raise AssertionError("the scan ran the eigenvalue engine")


def test_steps_bound_spares_the_engine(monkeypatch):
    # a Walk of pow2's steps gets s* = 2 from them, as its window does
    monkeypatch.setattr(walk, "slem_streaming", _engine_must_not_run)
    steps = generate(PRESETS["pow2"], 21).steps
    assert mixing_time(Walk(2**20, steps), 1e-10).t_mix == 224


def test_coset_walk_refused_before_the_engine(monkeypatch):
    # d = gcd(100, 2 - 0) = 2, so |lambda_50| = 1 and TV(t) >= 1/2 for
    # ever: past int64 the scan refuses at once, without asking the engine
    monkeypatch.setattr(walk, "slem_streaming", _engine_must_not_run)
    with pytest.raises(InsideErrorBand, match=r"\|lambda_\(N/d\)\| = 1 at d = 2"):
        mixing_time(Walk(100, (2, 0)), Fraction(5, 8))
    # coset walks decided in the integer phases are unchanged
    assert mixing_time(Walk(4, (2, 0)), Fraction(1, 2)).t_mix == 1
    assert mixing_time(Walk(9, (3, 6, 0)), Fraction(2, 3)).t_mix == 1


def test_epsilon_below_band_refused_before_float_scan():
    window = generate(PRESETS["fib-odd"], 9)
    start = time.perf_counter()
    with pytest.raises(InsideErrorBand, match="error band"):
        mixing_time(window, Fraction(1, 10**16))
    assert time.perf_counter() - start < 1.0


def test_sparse_start_runs_into_float_scan():
    # steps {1, 0} on Z_4000 occupy t + 1 residues, so the counts stay
    # sparse until n^t leaves int64 at t = 62 and go straight to float
    window = generate(RecurrenceSpec((1, 1), (1, 4000)), 2)
    res = _assert_curve_matches_oracle(window, 0.98)
    assert res.t_mix > 62


@pytest.mark.parametrize("N, t_low", [(1400, 275_304), (1024, 147_284), (24, 81)])
def test_scan_lower_bound_is_the_slem_bound_on_steps_one_and_zero(N, t_low):
    # |lambda_1| = cos(pi/N) is the SLEM of the steps {1, 0}, and
    # TV(t) >= cos(pi/N)^t / 2 > 1/4 for every t < t_low
    window = generate(RecurrenceSpec((1, 1), (1, N)), 2)
    assert scan_lower_bound(window, Fraction(1, 4)) == t_low
    assert 0.5 * np.cos(np.pi / N) ** (t_low - 1) > 0.25 >= 0.5 * np.cos(np.pi / N) ** t_low


@PROPERTY_SETTINGS
@given(
    window=small_windows(),
    epsilon=st.fractions(Fraction(1, 10**9), Fraction(999, 1000), max_denominator=10**12),
)
def test_scan_lower_bound_below_t_mix_property(window, epsilon):
    # t_low <= t_mix means TV(t_low - 1) > epsilon, as TV only falls with
    # t; the oracle's work is about n N t_low big-integer additions
    n, N = window.n, window.modulus
    t_low = scan_lower_bound(window, epsilon)
    if t_low == 0 or n * N * t_low > 2**22:
        return
    assert path_counts.tv_curve(window, t_low - 1)[-1] > epsilon


@pytest.mark.parametrize(
    "rows, t_mix",
    [
        (81, None),  # t_low = 81: refused before the scan
        (82, None),  # the scan stops undecided at t = 81
        (110, None),
        (111, 110),  # t_mix = 110 is the last row
    ],
)
def test_scan_holds_at_most_max_rows(monkeypatch, rows, t_mix):
    # steps {1, 0} on Z_24 have t_low = 81 and t_mix = 110 at epsilon = 1/4
    window = generate(RecurrenceSpec((1, 1), (1, 24)), 2)
    monkeypatch.setattr(walk, "MAX_ROWS", rows)
    if t_mix is not None:
        res = mixing_time(window, 0.25)
        assert (res.t_mix, len(res.tv_curve)) == (t_mix, rows)
        return
    match = f">= 81, by" if rows == 81 else f"stops undecided at t = {rows - 1}"
    with pytest.raises(ScanTooLong, match=match):
        mixing_time(window, 0.25)


@PROPERTY_SETTINGS
@given(
    window=small_windows(),
    epsilon=st.one_of(
        st.fractions(Fraction(1, 10**9), Fraction(999, 1000), max_denominator=10**12),
        st.floats(1e-9, 0.999),
    ),
)
def test_mixing_time_matches_integer_oracle_property(window, epsilon):
    # The oracle's big-integer work is about n N t additions; past 2^22 (a
    # second or more) only the scan's own claims are checked.  A refusal
    # is allowed only at a near-tie, where the exact TV at some t past the
    # int64 range is within twice the band of epsilon.  Slow walks reach
    # one at epsilon >= 1e-9: steps {1, 0} on Z_27 has
    # |TV(2988) - 1e-9| = 1.5e-13, inside the band 3.5e-13 there.
    n, N, eps = window.n, window.modulus, Fraction(epsilon)
    try:
        res = mixing_time(window, epsilon)
    except InsideErrorBand as exc:
        t = int(re.match(r"TV\((\d+)\)", str(exc)).group(1))
        if n * N * t <= 2**22:
            t0 = max(s for s in range(t) if n**s < 2**63)
            curve = path_counts.tv_curve(window, t)
            assert abs(curve[t] - eps) <= 2 * walk._band(n, t - t0)
        return
    tvs = [tv for _, tv in res.tv_curve]
    assert all(b <= a for a, b in zip(tvs, tvs[1:]))
    if n * N * res.t_mix <= 2**22:
        assert res.t_mix == path_counts.t_mix(window, eps)
