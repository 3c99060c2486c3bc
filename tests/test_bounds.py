import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, reject, strategies as st

from recwalk import (
    BoundReport,
    DegenerateStateSpace,
    DomainError,
    PRESETS,
    build_report,
    estimate_growth,
    first_order_base,
    full_spectrum,
    gamma_first_order,
    gamma_general,
    generate,
    half_spectrum,
    kappa_first_order,
    kappa_general,
    lower_first_order,
    lower_general,
    relaxation_lower,
    seq2bound_multiset,
    ubl_implied_t,
    ubl_sums,
    unnormalized_values,
    upper_first_order,
    upper_general,
    RecurrenceSpec,
    first_unbounded_j,
    ratio_bounded,
    s_value,
)

from recwalk import bounds
from expected_values import EXACT_TMIX, UBL_IMPLIED_T
from test_walk import PROPERTY_SETTINGS, small_windows


def test_kappa_general_values():
    assert kappa_general(1) == pytest.approx(0.25)
    assert kappa_general(2) == pytest.approx(0.5)
    assert kappa_general(3) == pytest.approx(0.853553390593274, abs=1e-12)
    with pytest.raises(DomainError):
        kappa_general(0)


def test_upper_general_anchor():
    got = upper_general(9, 256, 2, 0.25)
    assert got == pytest.approx(31.17, abs=5e-3)
    want = 0.5 * 9 * (math.log(255) - math.log(0.25))
    assert got == pytest.approx(want, rel=1e-12)


def test_upper_general_handles_huge_integers():
    # exact int log: G_n far beyond float range must not overflow
    big = 3 ** 5000
    got = upper_general(5000, big, 3, 0.25)
    assert math.isfinite(got)
    assert got > 0


def test_upper_general_domain():
    with pytest.raises(DomainError):
        upper_general(1, 4, 2, 0.25)
    with pytest.raises(DomainError):
        upper_general(3, 1, 2, 0.25)
    with pytest.raises(DomainError):
        upper_general(3, 8, 2, 0.5)
    with pytest.raises(DomainError):
        upper_general(3, 8, 2, 0.0)


def test_gamma_general_values():
    assert gamma_general(2.0) == pytest.approx(
        (2.0 + math.pi**2) / math.log(2.0), rel=1e-12
    )
    assert gamma_general(2.0) == pytest.approx(17.126, abs=3e-3)
    assert gamma_general(math.e**2) == pytest.approx(15.239, abs=1e-3)
    with pytest.raises(DomainError):
        gamma_general(1.0)
    with pytest.raises(DomainError):
        gamma_general(1.0 + 1e-10)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gamma_general(bad)


def test_lower_general_anchor():
    got = lower_general(100, gamma_general(2.0), 0.25)
    assert got == pytest.approx(0.187, abs=2e-3)


def test_lower_general_edge_cases():
    # epsilon = 1/2 zeroes the bound regardless of n
    assert lower_general(50, 10.0, 0.5) == 0.0
    # small n: vacuous (negative) but well-defined
    assert lower_general(2, gamma_general(2.0), 0.25) < 0.0
    with pytest.raises(DomainError):
        lower_general(1, 10.0, 0.25)
    with pytest.raises(DomainError):
        lower_general(10, 0.0, 0.25)
    with pytest.raises(DomainError):
        lower_general(10, 10.0, 0.6)


def test_kappa_first_order_values():
    assert kappa_first_order(2) == pytest.approx(1.0)
    assert kappa_first_order(3) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        kappa_first_order(1)


def test_upper_first_order_anchors():
    assert upper_first_order(2, 9, 0.25) == pytest.approx(32.21, abs=5e-3)
    assert upper_first_order(3, 2, 0.25) == pytest.approx(8.77, abs=5e-3)
    with pytest.raises(DomainError):
        upper_first_order(1, 5, 0.25)
    with pytest.raises(DomainError):
        upper_first_order(2, 1, 0.25)
    with pytest.raises(DomainError):
        upper_first_order(2, 5, 0.5)


def test_gamma_first_order_values():
    assert gamma_first_order(4) == pytest.approx(1.0)
    assert gamma_first_order(3) == pytest.approx(2 / 3)
    assert gamma_first_order(6) == pytest.approx(2.0)
    # cos(2 pi / 2) = 1 is a pole, not a value
    with pytest.raises(DomainError):
        gamma_first_order(2)


def test_lower_first_order_anchors():
    assert lower_first_order(4, 9, 0.25) == pytest.approx(8 * math.log(2), rel=1e-12)
    assert lower_first_order(4, 9, 0.25) == pytest.approx(5.545, abs=1e-3)
    assert lower_first_order(3, 9, 0.25) == pytest.approx(3.466, abs=1e-3)
    assert lower_first_order(3, 9, 0.5) == 0.0
    with pytest.raises(DomainError):
        lower_first_order(2, 9, 0.25)
    with pytest.raises(DomainError):
        lower_first_order(3, 1, 0.25)


def test_relaxation_lower_values():
    assert relaxation_lower(0.0, 0.25) == 0.0
    assert relaxation_lower(0.5, 0.25) == pytest.approx(math.log(2), rel=1e-12)
    assert relaxation_lower(0.9, 0.25) == pytest.approx(6.238, abs=1e-3)
    with pytest.raises(DomainError):
        relaxation_lower(1.0, 0.25)
    with pytest.raises(DomainError):
        relaxation_lower(-0.1, 0.25)
    with pytest.raises(DomainError):
        relaxation_lower(0.5, 0.5)


def test_ubl_implied_t_matches_frozen_scan():
    for name, expected in UBL_IMPLIED_T.items():
        for n in range(2, 10):
            window = generate(PRESETS[name], n)
            sq = np.abs(half_spectrum(window)[1:]) ** 2
            assert ubl_implied_t(sq, window.modulus, 0.25) == expected[n - 2], (name, n)


def test_ubl_upper_bounds_exact_mixing():
    for name in PRESETS:
        for n in range(2, 10):
            assert UBL_IMPLIED_T[name][n - 2] >= EXACT_TMIX[name][n - 1]


def test_ubl_trivial_spectrum():
    # N = 2 with lambda_1 = 0: the sum is 1/4 at t = 0 and 0 after
    assert ubl_implied_t(np.array([0.0]), 2, 0.25) == 1


def test_ubl_rejects_degenerate_inputs():
    with pytest.raises(DegenerateStateSpace):
        ubl_implied_t(np.empty(0), 1, 0.25)
    with pytest.raises(DomainError):
        ubl_implied_t(np.array([1.0]), 2, 0.25)


def _ubl_sums_t(sq, N, epsilon):
    """The first t at which ubl_sums' own value is at most epsilon^2."""
    return next(t for t, s in enumerate(ubl_sums(sq, N)) if s <= epsilon**2)


def _squared_moduli(window):
    return np.abs(half_spectrum(window)[1:]) ** 2


# just under 1/2 and 1/4, the round values themselves (where pow2 sums hit
# epsilon^2 exactly), and small ones
_UBL_EPSILONS = (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.25, 0.0), 0.25,
                 1e-3, 1e-9)


@PROPERTY_SETTINGS
@given(window=small_windows(),
       epsilon=st.one_of(st.sampled_from(_UBL_EPSILONS),
                         st.floats(1e-12, 0.5, exclude_max=True)))
def test_ubl_implied_t_is_the_ubl_sums_t_property(window, epsilon):
    N = window.modulus
    assume(N >= 2)
    sq = _squared_moduli(window)
    top = float(sq.max())
    # the upper-bound lemma's own t on the largest modulus bounds the answer;
    # keep the ubl_sums reference to at most a few thousand passes
    assume(top == 0.0 or math.log(4 * epsilon**2 / (N - 1)) / math.log(top) < 4000)
    assert ubl_implied_t(sq, N, epsilon) == _ubl_sums_t(sq, N, epsilon)


@pytest.mark.parametrize("sq, N", [
    (np.array([0.0]), 2),  # lambda_1 = 0
    (_squared_moduli(generate(RecurrenceSpec((2, -1), (1, 2)), 64)), 64),  # G_i = i
    *((_squared_moduli(generate(PRESETS["pow2"], n)), 2 ** (n - 1)) for n in (2, 3, 4)),
])
def test_ubl_implied_t_is_the_ubl_sums_t_on_ties_and_zero_spectra(sq, N):
    # on G_i = i every nontrivial lambda is 0 up to the engine's rounding;
    # at pow2 n <= 4 the sums reach 1/4 exactly
    for epsilon in _UBL_EPSILONS:
        assert ubl_implied_t(sq, N, epsilon) == _ubl_sums_t(sq, N, epsilon), epsilon


def test_ubl_implied_t_at_epsilon_squared_equal_to_each_ubl_sums_value():
    # 32 moduli at least max/4 between 32 of 1e-20: at t = 8 the sum over
    # the 32 alone rounds one ulp above the sum over all 64
    sq = np.full(64, 1e-20)
    sq[::2] = np.random.default_rng(0).uniform(0.25, 0.6, 32)
    for total in itertools.islice(ubl_sums(sq, 129), 12):
        epsilon = math.sqrt(total)
        if epsilon < 1.0:
            assert ubl_implied_t(sq, 129, epsilon) == _ubl_sums_t(sq, 129, epsilon)


def test_ubl_implied_t_decides_from_the_large_moduli(monkeypatch):
    window = generate(PRESETS["pow2"], 17)
    sq = _squared_moduli(window)
    want = _ubl_sums_t(sq, window.modulus, 0.25)

    def no_full_pass(moduli, N):
        if moduli is sq:
            raise AssertionError("ubl_sums ran over every modulus")
        return ubl_sums(moduli, N)

    monkeypatch.setattr(bounds, "ubl_sums", no_full_pass)
    assert ubl_implied_t(sq, window.modulus, 0.25) == want


def test_ubl_implied_t_falls_back_to_ubl_sums_on_a_tie(monkeypatch):
    # N = 3, |lambda_1|^2 = 1/2: the sum is 1/2^(t+1), exactly 1/4 at t = 1,
    # so no bracket around it clears epsilon^2 = 1/4
    sq = np.array([0.5])
    full_passes = []

    def counted(moduli, N):
        full_passes.append(moduli is sq)
        return ubl_sums(moduli, N)

    monkeypatch.setattr(bounds, "ubl_sums", counted)
    assert ubl_implied_t(sq, 3, 0.5) == 1
    assert full_passes.count(True) == 1


def test_ubl_sums_count_mirrors_once_each():
    # the half-spectrum sum equals the full one over k = 1..N-1
    for name in PRESETS:
        for n in (2, 5, 8):
            window = generate(PRESETS[name], n)
            N = window.modulus
            sq = np.abs(half_spectrum(window)[1:]) ** 2
            full = np.abs(full_spectrum(window)[:-1]) ** 2
            assert sq.max() == full.max()
            for t, total in zip(range(6), ubl_sums(sq, N)):
                assert total == pytest.approx(0.25 * float((full**t).sum()), rel=1e-13)


def test_seq2bound_multiset_small_cases():
    assert seq2bound_multiset(2, 2) == [(2.0, 1), (1.5, 1)]
    got = seq2bound_multiset(3, 2)
    assert got[0] == (2.0, 1)
    assert got[1][0] == pytest.approx(1.75)
    assert got[1][1] == 2


def test_seq2bound_multiplicities_total():
    for c in (2, 3, 4):
        for n in range(2, 9):
            pairs = seq2bound_multiset(c, n)
            assert sum(mult for _, mult in pairs) == c ** (n - 1)


def test_seq2bound_values_descend():
    # the domination suite pairs them with sorted moduli as they come
    for c in (2, 3, 4, 7):
        for n in range(2, 30):
            values = [v for v, _ in seq2bound_multiset(c, n)]
            assert values == sorted(values, reverse=True)


def test_seq2bound_dominates_actual_moduli():
    # sorted dominance: r-th largest |tilde lambda| <= r-th largest bound
    for c, n in [(2, 6), (3, 4), (4, 3)]:
        mods = np.sort(np.abs(unnormalized_values(c, n)))[::-1]
        bound = np.repeat(
            [b for b, _ in seq2bound_multiset(c, n)],
            [m for _, m in seq2bound_multiset(c, n)],
        )
        bound = np.sort(bound)[::-1]
        assert len(bound) == len(mods)
        assert float(np.min(bound - mods)) >= -1e-9


def test_first_order_base_detection():
    assert first_order_base(PRESETS["pow2"]) == 2
    assert first_order_base(PRESETS["pow3"]) == 3
    assert first_order_base(PRESETS["fib-odd"]) is None
    assert first_order_base(RecurrenceSpec((1,), (1,))) is None


def test_slem_lower_bound_from_growth():
    # slem >= 1 - gamma * ln(n)/n for exponential windows
    for name in PRESETS:
        for n in range(3, 10):
            window = generate(PRESETS[name], n)
            est = estimate_growth(window)
            assert est.is_exponential
            gamma = gamma_general(est.eta1_lower)
            floor = 1.0 - gamma * math.log(n) / n
            slem = float(np.abs(half_spectrum(window)[1:]).max())
            assert slem >= floor - 1e-9


def test_first_order_witness_eigenvalue():
    """|lambda_{c^(n-2)}| equals |xi_c + n - 1|/n and is at least
    1 - (1 - cos(2 pi/c))/n; the witness drives the relaxation bound."""
    for c in (2, 3):
        for n in range(2, 9):
            k = c ** (n - 2) if n >= 2 else 1
            xi = complex(math.cos(2 * math.pi / c), math.sin(2 * math.pi / c))
            want = abs(xi + (n - 1)) / n
            tilde = unnormalized_values(c, n)[k - 1]
            assert abs(tilde) / n == pytest.approx(want, abs=1e-12)
            floor = 1.0 - (1.0 - math.cos(2 * math.pi / c)) / n
            assert want >= floor - 1e-12


def test_build_report_pow2():
    report = build_report("pow2", generate(PRESETS["pow2"], 5), 0.25)
    assert isinstance(report, BoundReport)
    assert report.N == 16
    assert report.s == 2
    assert report.c == 2
    assert report.exact_t_mix == 3
    assert report.ubl_implied_t == 3
    assert report.kappa_first_order == pytest.approx(1.0)
    assert report.lower_first_order is None
    assert report.relaxation_lower <= report.exact_t_mix
    assert report.exact_t_mix <= report.ubl_implied_t
    assert report.ubl_implied_t <= math.ceil(report.upper_general)
    assert report.exact_t_mix <= math.ceil(report.upper_first_order)


def test_build_report_pow3_has_first_order_lower():
    report = build_report("pow3", generate(PRESETS["pow3"], 4), 0.25)
    assert report.c == 3
    assert report.gamma_first_order == pytest.approx(2 / 3)
    assert report.lower_first_order is not None
    assert report.lower_first_order <= report.exact_t_mix


def test_build_report_non_first_order():
    report = build_report("fib-odd", generate(PRESETS["fib-odd"], 3), 0.25)
    assert report.c is None
    assert report.kappa_first_order is None
    assert report.upper_first_order is None
    assert report.lower_first_order is None
    assert report.exact_t_mix == 3
    # exponential classification at n = 3 yields a (vacuous) lower bound
    assert report.lower_general is not None
    assert report.lower_general <= report.exact_t_mix


def test_build_report_eta1_override_and_short_window():
    # n = 2 cannot be classified, so no general lower bound by default
    window = generate(PRESETS["pow2"], 2)
    assert build_report("pow2", window, 0.25).lower_general is None
    override = build_report("pow2", window, 0.25, eta1_override=2.0)
    assert override.lower_general is not None


def test_build_report_streaming_fallback():
    # over the dense cap: slem comes from the streaming pass, scan fields absent
    report = build_report(
        "pow2", generate(PRESETS["pow2"], 8), 0.25, n_max_states=64
    )
    assert report.ubl_implied_t is None
    assert report.exact_t_mix is None
    assert report.relaxation_lower > 0.0


def test_build_report_frees_spectrum_before_scan():
    # no dense spectrum: the 4 N bytes of squared moduli are gone before
    # the scan takes its 16 N (25 N here, with one tile of scratch and the
    # engine's blocks); the spectrum held through the scan made it 48 N,
    # and freed before it 37 N
    window = generate(PRESETS["pow2"], 17)  # N = 2^16
    tracemalloc.start()
    try:
        build_report("pow2", window, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * window.modulus


def test_build_report_requires_n_at_least_2():
    with pytest.raises(DomainError):
        build_report("pow2", generate(PRESETS["pow2"], 1), 0.25)


def test_report_to_dict_round_trip():
    report = build_report("pow3", generate(PRESETS["pow3"], 3), 0.25)
    d = report.to_dict()
    assert d["sequence_id"] == "pow3"
    assert d["exact_t_mix"] == 3
    assert set(d) == set(BoundReport._fields)


def test_general_upper_bound_needs_bounded_ratios():
    # G_2 = 7 > s G_1 = 3: the general upper bound 5.43 would sit below the
    # exact t_mix 9 and the relaxation lower bound 6.31
    window = generate(RecurrenceSpec((3, 0), (1, 7)), 2)
    assert not ratio_bounded(window)
    report = build_report("custom0", window, 0.25)
    assert report.kappa_general is None and report.upper_general is None
    assert (report.ratio_bounded, report.first_unbounded_j) == (False, 1)
    assert report.exact_t_mix == 9


@PROPERTY_SETTINGS
@given(
    window=small_windows(),
    epsilon=st.sampled_from([Fraction(1, 4), Fraction(1, 10), Fraction(1, 100)]),
)
def test_general_upper_bound_holds_where_ratios_bounded_property(window, epsilon):
    if window.n < 2 or max(window.spec.coeffs) <= 0:
        reject()  # no report, or no s
    report = build_report("custom0", window, epsilon)
    assert report.ratio_bounded == ratio_bounded(window)
    assert report.first_unbounded_j == first_unbounded_j(window)
    if ratio_bounded(window):
        assert report.exact_t_mix <= math.ceil(report.upper_general)
        assert report.kappa_general == kappa_general(s_value(window.spec))
    else:
        assert report.kappa_general is None and report.upper_general is None
