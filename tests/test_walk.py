import tracemalloc

import numpy as np
import pytest

from hypothesis import given, reject, settings, strategies as st

from recwalk import (
    PRESETS,
    RecurrenceSpec,
    RecwalkError,
    StateSpaceTooLarge,
    compute_spectrum,
    evolve,
    generate,
    mixing_time,
    point_mass,
    step_distribution,
    tv_to_uniform,
)

from recwalk import walk
from recwalk.walk import _Convolver

from expected_values import EXACT_TMIX
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


def _roll_scan(window, epsilon):
    """Reference TV curve up to the first t with TV <= epsilon."""
    step = step_distribution(window)
    N = len(step)
    probs = point_mass(N)
    curve = []
    while True:
        tv = 0.5 * float(np.abs(probs - 1.0 / N).sum())
        curve.append((len(curve), tv))
        if tv <= epsilon:
            return tuple(curve)
        probs = _roll_convolve(probs, step)


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
    window = generate(PRESETS["pow2"], 12)
    with pytest.raises(StateSpaceTooLarge):
        step_distribution(window, n_max_states=1024)


def test_evolve_zero_steps_is_point_mass():
    window = generate(PRESETS["pow3"], 3)
    for method in ("direct", "spectral"):
        probs = evolve(window, 0, method=method)
        assert probs[0] == 1.0
        assert float(probs.sum()) == 1.0


def test_evolve_small_cases_exact():
    # pow3 n=2 after 2 steps: (1/2, 1/2, 0) convolved with itself
    window = generate(PRESETS["pow3"], 2)
    for method in ("direct", "spectral"):
        p1 = evolve(window, 1, method=method)
        assert p1 == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        p2 = evolve(window, 2, method=method)
        assert p2 == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert tv_to_uniform(p2) == pytest.approx(1 / 6, abs=1e-12)


def test_evolve_rejects_bad_arguments():
    window = generate(PRESETS["pow2"], 2)
    with pytest.raises(ValueError):
        evolve(window, -1)
    for t, method in ((3, "magic"), (0, "auto"), (3, "auto")):
        with pytest.raises(ValueError):
            evolve(window, t, method=method)


def test_direct_and_spectral_agree():
    for name in PRESETS:
        window = generate(PRESETS[name], 6)
        for t in (1, 2, 3, 7, 16, 33, 64):
            a = evolve(window, t, method="direct")
            b = evolve(window, t, method="spectral")
            gap = float(np.max(np.abs(a - b)))
            assert gap <= 1e-9, (name, t, gap)


def test_spectral_stays_normalized_at_huge_t():
    # repeated squaring with modulus clamping: mass error stays tiny
    # even at t = 10^6, and negative entries are only rounding dust
    probs = evolve(generate(PRESETS["pow3"], 3), 10**6, method="spectral")
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
    # live arrays: the law, the spare and the convolver's product buffer,
    # 24 N bytes; a dense step law on top made it 32 N
    window = generate(PRESETS["pow2"], 17)  # N = 2^16
    tracemalloc.start()
    try:
        mixing_time(window, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * window.modulus


def test_mixing_epsilon_monotonicity():
    window = generate(PRESETS["fib-odd"], 6)
    loose = mixing_time(window, 0.4).t_mix
    tight = mixing_time(window, 0.05).t_mix
    assert loose <= tight


def test_convolution_bit_identical_to_roll_reference():
    for name in PRESETS:
        for n in range(1, 11):
            window = generate(PRESETS[name], n)
            step = step_distribution(window)
            probs = np.random.default_rng(n).random(len(step))
            got = _Convolver(window)(probs, np.empty_like(probs))
            assert np.array_equal(got, _roll_convolve(probs, step)), (name, n)


def test_mixing_curve_bit_identical_to_roll_reference():
    for name in PRESETS:
        for n in range(1, 11):
            window = generate(PRESETS[name], n)
            for eps in (0.25, 0.01):
                res = mixing_time(window, eps)
                assert res.tv_curve == _roll_scan(window, eps), (name, n, eps)


def _assert_convolver_matches_roll(window, steps):
    """Ping-pong _Convolver over `steps` steps from the point mass, each
    step exactly equal to the np.roll reference; returns the last law."""
    step = step_distribution(window)
    convolve = _Convolver(window)
    probs, spare = point_mass(len(step)), np.empty(len(step))
    expected = point_mass(len(step))
    for t in range(1, steps + 1):
        expected = _roll_convolve(expected, step)
        probs, spare = convolve(probs, spare), probs
        assert np.array_equal(probs, expected), t
    return expected


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
    assert mixing_time(window, 0.25).tv_curve == _roll_scan(window, 0.25)


def test_small_tiles_bit_identical_to_roll_reference(monkeypatch):
    # tiles of 64 entries put shifts before, inside, on the edge of and
    # past each tile, so every wrap branch of the plan fires
    monkeypatch.setattr(walk, "_TILE", 64)
    for name in PRESETS:
        for n in range(1, 11):
            window = generate(PRESETS[name], n)
            step = step_distribution(window)
            probs = np.random.default_rng(n).random(len(step))
            got = _Convolver(window)(probs, np.empty_like(probs))
            assert np.array_equal(got, _roll_convolve(probs, step)), (name, n)
            curve = mixing_time(window, 0.25).tv_curve
            assert curve == _roll_scan(window, 0.25), (name, n)
    # tiles of 3 entries put shifts on both tile edges, inside tiles and
    # past a partial last tile
    monkeypatch.setattr(walk, "_TILE", 3)
    for name in PRESETS:
        for n in range(1, 7):
            _assert_convolver_matches_roll(generate(PRESETS[name], n), 24)


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
    spectral = evolve(window, t, method="spectral")
    direct = evolve(window, t, method="direct")
    assert float(np.max(np.abs(spectral - direct))) <= 1e-9


@PROPERTY_SETTINGS
@given(window=small_windows())
def test_spectrum_matches_per_term_exp_oracle_property(window):
    got = compute_spectrum(window).eigenvalues
    assert float(np.max(np.abs(got - per_term_exp_eigenvalues(window)))) <= 1e-15


@PROPERTY_SETTINGS
@given(window=small_windows())
def test_step_set_and_evolution_match_roll_oracle_property(window):
    steps = window.steps
    assert len(set(steps)) == len(steps) == window.n
    assert all(0 <= x < window.modulus for x in steps)
    assert steps[-1] == 0
    assert np.array_equal(step_distribution(window), _counting_step_law(window))
    assert mixing_time(window, 0.25).tv_curve == _roll_scan(window, 0.25)
    last = _assert_convolver_matches_roll(window, 24)
    assert np.array_equal(evolve(window, 24, method="direct"), last)
