import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from recwalk import (
    GrowthEstimate,
    NonIncreasingSequence,
    NonPositiveTerm,
    NoPositiveCoefficient,
    PRESETS,
    RecurrenceSpec,
    SequenceWindow,
    SimConfig,
    StateSpaceTooLarge,
    SuiteResult,
    WindowTooShort,
    build_report,
    estimate_growth,
    first_unbounded_j,
    generate,
    mixing_time,
    ratio_bounded,
    s_value,
)

from recwalk.errors import RecwalkError
from recwalk.recurrence import GROWTH_DELTA, first_terms

from expected_values import SEQUENCE_VALUES
from test_walk import PROPERTY_SETTINGS


def test_preset_windows_match_frozen_values():
    for name, expected in SEQUENCE_VALUES.items():
        window = generate(PRESETS[name], 9)
        assert list(window.values) == expected
        assert window.modulus == expected[-1]


def test_generate_single_term():
    window = generate(PRESETS["pow2"], 1)
    assert list(window.values) == [1]
    assert window.modulus == 1


def test_recurrence_identity_holds_exactly():
    # each term past the initial block satisfies the defining relation
    for spec in PRESETS.values():
        window = generate(spec, 12)
        d = len(spec.coeffs)
        for i in range(d, 12):
            acc = sum(
                spec.coeffs[j] * window.values[i - 1 - j] for j in range(d)
            )
            assert window.values[i] == acc


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RecurrenceSpec(coeffs=(), init=())
    with pytest.raises(ValueError):
        RecurrenceSpec(coeffs=(2,), init=(1, 2))
    with pytest.raises(ValueError):
        RecurrenceSpec(coeffs=(2,), init=(3,))
    with pytest.raises(NonPositiveTerm):
        RecurrenceSpec(coeffs=(1, 1), init=(1, 0))
    # non-integers are refused, not truncated or parsed into another walk;
    # True would otherwise pass as the coefficient or G_1 of 1
    for coeffs, init in [
        ((2.5,), (1,)), ((2,), (1.9,)), (("3",), (1,)),
        ((True, True), (1, 2)), ((2,), (True,)),
    ]:
        with pytest.raises(TypeError):
            RecurrenceSpec(coeffs=coeffs, init=init)


def test_generate_rejects_nonpositive_terms():
    spec = RecurrenceSpec(coeffs=(-1,), init=(1,))
    with pytest.raises(NonPositiveTerm):
        generate(spec, 2)


def test_generate_rejects_non_increasing_terms():
    spec = RecurrenceSpec(coeffs=(1,), init=(1,))
    with pytest.raises(NonIncreasingSequence):
        generate(spec, 3)
    # a decreasing tail must be caught even when the start looks fine
    spec = RecurrenceSpec(coeffs=(1, -2), init=(1, 4))
    with pytest.raises(NonIncreasingSequence):
        generate(spec, 3)


def test_generate_stops_at_the_first_term_past_its_limit():
    # pow2's G_26 = 2^25 is the first term past 2^24, and the last one made
    assert first_terms(PRESETS["pow2"], 10**4, limit=2**24)[-1] == 2**25
    with pytest.raises(StateSpaceTooLarge, match=(
        "^G_26 = 33554432 exceeds the dense cap 16777216 on N = G_10000$"
    )):
        generate(PRESETS["pow2"], 10**4, limit=2**24, limit_name="dense cap")
    assert generate(PRESETS["pow2"], 25, limit=2**24).modulus == 2**24
    # the first fault is the one reported: G_3 = 1 before G_4 = -1
    with pytest.raises(NonIncreasingSequence, match="G_3"):
        generate(RecurrenceSpec(coeffs=(1, -1), init=(1, 2)), 4)


def test_generate_requires_positive_length():
    with pytest.raises(ValueError):
        generate(PRESETS["pow2"], 0)


def test_s_value_sums_positive_coefficients():
    assert s_value(PRESETS["pow2"]) == 2
    assert s_value(PRESETS["pow3"]) == 3
    assert s_value(PRESETS["fib-odd"]) == 3
    assert s_value(RecurrenceSpec(coeffs=(1, 1), init=(1, 2))) == 2


def test_ratio_bounded_exactly():
    # the presets meet G_{j+1} <= s G_j with equality at G_2
    for name in PRESETS:
        assert all(ratio_bounded(generate(PRESETS[name], n)) for n in range(1, 40))
    assert ratio_bounded(generate(RecurrenceSpec((3, 0), (1, 3)), 5))
    assert not ratio_bounded(generate(RecurrenceSpec((3, 0), (1, 4)), 2))
    # G_2 = 2^60 + 1 exceeds s G_1 = 2^60 by one, which float64 would lose
    assert not ratio_bounded(generate(RecurrenceSpec((2**60, 0), (1, 2**60 + 1)), 2))


def test_first_unbounded_j_names_the_first_failing_ratio():
    for name in PRESETS:
        assert first_unbounded_j(generate(PRESETS[name], 30)) is None
    assert first_unbounded_j(generate(RecurrenceSpec((3, 0), (1, 7)), 2)) == 1
    # G = 1, 2, 7, 10 with s = 3: G_2 <= 3 G_1, then G_3 = 7 > 3 G_2
    assert first_unbounded_j(generate(RecurrenceSpec((1, 1, 1), (1, 2, 7)), 4)) == 2
    assert first_unbounded_j(generate(RecurrenceSpec((1, 1, 1), (1, 2, 7)), 2)) is None


def test_s_value_requires_a_positive_coefficient():
    spec = RecurrenceSpec(coeffs=(-1,), init=(1,))
    with pytest.raises(NoPositiveCoefficient):
        s_value(spec)


def test_growth_estimate_geometric():
    window = generate(PRESETS["pow2"], 10)
    est = estimate_growth(window)
    assert isinstance(est, GrowthEstimate)
    assert est.is_exponential
    assert est.eta1_lower == 2.0


def test_growth_estimate_fib_like():
    window = generate(PRESETS["fib-odd"], 9)
    est = estimate_growth(window)
    assert est.is_exponential
    # trailing ratios decrease toward the golden-ratio-squared limit
    assert 2.6 < est.eta1_lower <= 2584 / 987


def test_growth_estimate_polynomial_sequence():
    # G_n = n solves G_n = 2 G_{n-1} - G_{n-2}; last ratio stays above 1
    # but the extrapolated limit is exactly 1, so not exponential
    spec = RecurrenceSpec(coeffs=(2, -1), init=(1, 2))
    window = generate(spec, 10)
    est = estimate_growth(window)
    assert not est.is_exponential


def test_growth_estimate_window_too_short():
    window = generate(PRESETS["pow2"], 2)
    with pytest.raises(WindowTooShort):
        estimate_growth(window)


def test_growth_rate_sandwich_for_presets():
    # log G_n / n stays within the geometric bracket for every preset
    for spec in PRESETS.values():
        window = generate(spec, 30)
        rate = math.log(window.modulus) / 30
        assert 0.3 < rate < 1.2


def test_ratios_are_exact_rationals():
    # the classifier must not lose exactness on huge terms
    window = generate(PRESETS["pow3"], 40)
    est = estimate_growth(window)
    assert est.eta1_lower == 3.0
    assert window.values[-1] == 3 ** 39


def _fraction_growth(window: SequenceWindow) -> GrowthEstimate:
    """The former estimate_growth, one Fraction per ratio, kept as an oracle."""
    v = window.values
    ratios = [Fraction(v[i + 1], v[i]) for i in range(window.n - 1)]
    i = len(ratios)  # 1-based position of the last ratio
    extrapolated = float(i * ratios[-1] - (i - 1) * ratios[-2])
    eta1 = float(min(ratios[len(ratios) // 2 :]))
    return GrowthEstimate(extrapolated >= 1.0 + GROWTH_DELTA, eta1)


@st.composite
def growth_windows(draw):
    """Windows of 3 to 80 terms of random order <= 3 specs; specs that
    generate rejects are skipped."""
    d = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(-3, 4), min_size=d, max_size=d))
    init = [1] + draw(st.lists(st.integers(1, 40), min_size=d - 1, max_size=d - 1))
    try:
        return generate(RecurrenceSpec(tuple(coeffs), tuple(init)), draw(st.integers(3, 80)))
    except RecwalkError:
        assume(False)


@PROPERTY_SETTINGS
@given(window=growth_windows())
def test_growth_estimate_matches_fraction_oracle_property(window):
    assert estimate_growth(window) == _fraction_growth(window)


def test_growth_estimate_keeps_no_ratio_list():
    # G_i = i at n = 2^17: a Fraction per ratio once peaked at 15.57 MiB
    window = generate(RecurrenceSpec((2, -1), (1, 2)), 1 << 17)
    tracemalloc.start()
    try:
        est = estimate_growth(window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est == _fraction_growth(window)
    assert peak < 1 << 20


_WINDOW = generate(PRESETS["pow2"], 4)
RECORDS = [
    PRESETS["pow2"],
    _WINDOW,
    estimate_growth(_WINDOW),
    mixing_time(_WINDOW, Fraction(1, 4)),
    SimConfig(window=_WINDOW, t_max=2, num_trajectories=10, seed=0),
    build_report("pow2", _WINDOW, 0.25),
    SuiteResult("lifting", True, "max_error", 0.0, []),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record == type(record)(*record)  # compared by value


def test_record_checks_run_when_built_by_keyword():
    assert RecurrenceSpec(init=[1], coeffs=[2]) == PRESETS["pow2"]
    assert type(RecurrenceSpec(coeffs=[2], init=[1]).coeffs) is tuple
    with pytest.raises(ValueError, match="G_1 must be 1"):
        RecurrenceSpec(coeffs=(2,), init=(2,))
    with pytest.raises(TypeError, match="coeffs must be integers, not booleans"):
        RecurrenceSpec(init=(1,), coeffs=(True,))
    with pytest.raises(NonPositiveTerm):
        RecurrenceSpec(coeffs=(1, 1), init=(1, 0))
    with pytest.raises(ValueError, match="need at least one trajectory"):
        SimConfig(window=_WINDOW, t_max=2, num_trajectories=0, seed=0)
    with pytest.raises(ValueError, match="t_max must be in"):
        SimConfig(seed=0, num_trajectories=5, t_max=-1, window=_WINDOW)


def test_ratio_extrapolation_matches_fraction_arithmetic():
    # sanity-pin the two-point extrapolation on the fib-like preset
    window = generate(PRESETS["fib-odd"], 9)
    values = window.values
    r_last = Fraction(values[8], values[7])
    r_prev = Fraction(values[7], values[6])
    extrapolated = 8 * r_last - 7 * r_prev
    assert extrapolated > Fraction(1, 1)
    est = estimate_growth(window)
    assert est.is_exponential
