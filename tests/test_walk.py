import numpy as np
import pytest

from recwalk import (
    Distribution,
    PRESETS,
    StateSpaceTooLarge,
    evolve,
    generate,
    mixing_time,
    point_mass,
    step_distribution,
    tv_to_uniform,
    uniform,
)

from recwalk import walk
from recwalk.walk import _convolve_once

from expected_values import EXACT_TMIX


def _roll_convolve(probs, step):
    """Reference: the sum over the support of w_x * np.roll(probs, x)."""
    out = np.zeros_like(probs)
    for x in np.flatnonzero(step.probs):
        out += step.probs[x] * np.roll(probs, x)
    return out


def _roll_scan(window, epsilon):
    """Reference TV curve up to the first t with TV <= epsilon."""
    step = step_distribution(window)
    probs = point_mass(step.N).probs
    curve = []
    while True:
        tv = 0.5 * float(np.abs(probs - 1.0 / step.N).sum())
        curve.append((len(curve), tv))
        if tv <= epsilon:
            return tuple(curve)
        probs = _roll_convolve(probs, step)


def test_step_distribution_counts_multiplicities():
    # pow3 n=2: steps {1, 3} on Z_3, so 3 wraps onto 0
    step = step_distribution(generate(PRESETS["pow3"], 2))
    assert step.probs == pytest.approx([0.5, 0.5, 0.0])

    # pow2 n=3: steps {1, 2, 4} on Z_4, 4 wraps onto 0
    step = step_distribution(generate(PRESETS["pow2"], 3))
    assert step.probs == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0])


def test_step_distribution_single_state():
    step = step_distribution(generate(PRESETS["pow2"], 1))
    assert step.probs == pytest.approx([1.0])


def test_step_distribution_respects_cap():
    window = generate(PRESETS["pow2"], 12)
    with pytest.raises(StateSpaceTooLarge):
        step_distribution(window, n_max_states=1024)


def test_distribution_length_checked():
    with pytest.raises(ValueError):
        Distribution(N=3, probs=np.zeros(4))


def test_evolve_zero_steps_is_point_mass():
    step = step_distribution(generate(PRESETS["pow3"], 3))
    for method in ("direct", "spectral"):
        dist = evolve(step, 0, method=method)
        assert dist.probs[0] == 1.0
        assert float(dist.probs.sum()) == 1.0


def test_evolve_small_cases_exact():
    # pow3 n=2 after 2 steps: (1/2, 1/2, 0) convolved with itself
    step = step_distribution(generate(PRESETS["pow3"], 2))
    for method in ("direct", "spectral"):
        d1 = evolve(step, 1, method=method)
        assert d1.probs == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        d2 = evolve(step, 2, method=method)
        assert d2.probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert tv_to_uniform(d2) == pytest.approx(1 / 6, abs=1e-12)


def test_evolve_rejects_bad_arguments():
    step = step_distribution(generate(PRESETS["pow2"], 2))
    with pytest.raises(ValueError):
        evolve(step, -1)
    for t, method in ((3, "magic"), (0, "auto"), (3, "auto")):
        with pytest.raises(ValueError):
            evolve(step, t, method=method)


def test_direct_and_spectral_agree():
    for name in PRESETS:
        step = step_distribution(generate(PRESETS[name], 6))
        for t in (1, 2, 3, 7, 16, 33, 64):
            a = evolve(step, t, method="direct")
            b = evolve(step, t, method="spectral")
            gap = float(np.max(np.abs(a.probs - b.probs)))
            assert gap <= 1e-9, (name, t, gap)


def test_spectral_stays_normalized_at_huge_t():
    # repeated squaring with modulus clamping: mass error stays tiny
    # even at t = 10^6, and negative entries are only rounding dust
    step = step_distribution(generate(PRESETS["pow3"], 3))
    dist = evolve(step, 10**6, method="spectral")
    assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
    assert float(dist.probs.min()) >= -1e-12
    assert tv_to_uniform(dist) <= 1e-9


def test_tv_examples():
    assert tv_to_uniform(uniform(7)) == 0.0
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


def test_mixing_epsilon_monotonicity():
    window = generate(PRESETS["fib-odd"], 6)
    loose = mixing_time(window, 0.4).t_mix
    tight = mixing_time(window, 0.05).t_mix
    assert loose <= tight


def test_convolution_bit_identical_to_roll_reference():
    for name in PRESETS:
        for n in range(1, 11):
            step = step_distribution(generate(PRESETS[name], n))
            probs = np.random.default_rng(n).random(step.N)
            assert np.array_equal(
                _convolve_once(probs, step), _roll_convolve(probs, step)
            ), (name, n)


def test_mixing_curve_bit_identical_to_roll_reference():
    for name in PRESETS:
        for n in range(1, 11):
            window = generate(PRESETS[name], n)
            for eps in (0.25, 0.01):
                res = mixing_time(window, eps)
                assert res.tv_curve == _roll_scan(window, eps), (name, n, eps)


def test_convolution_with_distinct_weights_bit_identical():
    # three distinct weights interleaved in x order, so every output entry
    # mixes products taken from different per-weight buffers
    step = Distribution(N=7, probs=np.array([0.1, 0.3, 0.0, 0.2, 0.1, 0.3, 0.0]))
    expected = point_mass(7).probs
    for t in range(1, 25):
        expected = _roll_convolve(expected, step)
        assert np.array_equal(evolve(step, t, method="direct").probs, expected), t
    probs = np.random.default_rng(7).random(7)
    assert np.array_equal(_convolve_once(probs, step), _roll_convolve(probs, step))


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
            probs = np.random.default_rng(n).random(step.N)
            assert np.array_equal(
                _convolve_once(probs, step), _roll_convolve(probs, step)
            ), (name, n)
            curve = mixing_time(window, 0.25).tv_curve
            assert curve == _roll_scan(window, 0.25), (name, n)
    monkeypatch.setattr(walk, "_TILE", 3)
    step = Distribution(N=7, probs=np.array([0.1, 0.3, 0.0, 0.2, 0.1, 0.3, 0.0]))
    expected = point_mass(7).probs
    for t in range(1, 25):
        expected = _roll_convolve(expected, step)
        assert np.array_equal(evolve(step, t, method="direct").probs, expected), t
