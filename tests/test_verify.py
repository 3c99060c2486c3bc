import math
from fractions import Fraction

import numpy as np
import pytest

from recwalk import (
    DomainError,
    PRESETS,
    SUITE_NAMES,
    RecurrenceSpec,
    StateSpaceTooLarge,
    UnknownSuite,
    WorkTooLarge,
    full_spectrum,
    generate,
    mixing_time,
    run_suites,
    s_value,
    unnormalized_values,
)
from recwalk import verify
from recwalk.spectrum import iter_eigenvalue_chunks
from recwalk.verify import (
    angle_cover_suite,
    eigmod_bound_suite,
    lifting_suite,
    multiset_domination_suite,
    ubl_consistency_suite,
)


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "eigmod-bound",
        "angle-cover",
        "lifting",
        "multiset-domination",
        "ubl-consistency",
    )


def test_all_suites_pass_on_presets():
    results = run_suites("all", n_max=6)
    assert [r.suite for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.passed, (r.suite, r.worst_slack)


def test_run_single_suite():
    (result,) = run_suites("lifting")
    assert result.suite == "lifting"
    assert result.passed


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suites("bogus")


def test_eigmod_bound_slack_for_two_state_walk():
    # pow2 n=2: slem ~ 0, bound = 1 - (2/2)(1 - cos(pi/3)) = 1/2
    result = eigmod_bound_suite({"pow2": PRESETS["pow2"]}, n_max=2)
    assert result.metric == "min_margin"
    assert result.worst_slack == pytest.approx(0.5, abs=1e-12)
    assert result.passed


@pytest.mark.parametrize(
    "suite", [eigmod_bound_suite, angle_cover_suite, ubl_consistency_suite]
)
def test_windowed_suites_refuse_empty_range(suite):
    with pytest.raises(DomainError):
        suite(dict(PRESETS), n_max=1)


def test_angle_cover_all_covered():
    result = angle_cover_suite(dict(PRESETS), n_max=7)
    assert result.passed
    assert all(case["uncovered"] == 0 for case in result.cases)
    # the pow2 interval endpoint is hit exactly, so zero margin is legal
    assert result.worst_slack >= -1e-15


def test_lifting_residuals_tiny(monkeypatch):
    monkeypatch.setattr(verify, "_CAP", 10**4)
    result = lifting_suite()
    assert result.metric == "max_error"
    assert result.passed
    assert result.worst_slack < 1e-9
    assert {case["c"] for case in result.cases} == {2, 3}


def _lifting_errors_oracle(c, cap):
    """Each level's residual, every child k indexed to its parent
    ((k - 1) mod c^(n-1)) + 1 in a spectrum with tilde(n, 0) = 1 prepended."""
    errors = []
    n = 1
    while c**n <= cap:
        parents = np.concatenate(([1.0 + 0j], unnormalized_values(c, n)))
        idx = np.arange(1, c**n + 1, dtype=np.int64)
        k_parent = ((idx - 1) % c ** (n - 1)) + 1 if n > 1 else np.ones_like(idx)
        predicted = parents[k_parent] + np.exp(2j * np.pi * idx / (c**n))
        errors.append(float(np.max(np.abs(unnormalized_values(c, n + 1) - predicted))))
        n += 1
    return errors


def test_lifting_computes_each_level_once(monkeypatch):
    monkeypatch.setattr(verify, "_CAP", 10**3)
    calls = []

    def counted(c, n):
        calls.append((c, n))
        return unnormalized_values(c, n)

    monkeypatch.setattr(verify, "unnormalized_values", counted)
    result = lifting_suite()
    assert len(calls) == len(set(calls))  # each level computed once
    for c in (2, 3):
        errors = [case["max_error"] for case in result.cases if case["c"] == c]
        assert errors == _lifting_errors_oracle(c, 10**3)


def test_multiset_domination_margins(monkeypatch):
    monkeypatch.setattr(verify, "_CAP", 10**4)
    result = multiset_domination_suite()
    assert result.passed
    assert result.worst_slack >= -1e-9
    assert all(case["multiplicity_total_ok"] for case in result.cases)


def test_ubl_consistency_margins():
    result = ubl_consistency_suite(dict(PRESETS), n_max=6)
    assert result.passed
    assert result.worst_slack >= -1e-9


def test_suite_result_serializes():
    (result,) = run_suites("eigmod-bound", n_max=3)
    d = result.to_dict()
    assert d["suite"] == "eigmod-bound"
    assert isinstance(d["cases"], list)
    assert d["passed"] is True


def test_angle_cover_refuses_past_int64_range():
    # the n = 2 window already has N = 3^21: (k * G_j) mod N would wrap
    # in int64, so no scan may start
    with pytest.raises(StateSpaceTooLarge):
        angle_cover_suite({"big": RecurrenceSpec((3**21,), (1,))}, n_max=2)


# Standalone loops for the three windowed suites, kept here as oracles
# so the shared SLEM, k-block and UBL code must reproduce them bit for bit.


def _eigmod_slack_oracle(window):
    s = s_value(window.spec)
    bound = 1.0 - (2.0 / window.n) * (1.0 - abs(math.cos(math.pi / (s + 1))))
    top = 0.0
    for block in iter_eigenvalue_chunks(window):
        top = max(top, float(np.max(np.abs(block))))
    return bound - top


def _angle_bests(window):
    """For every k in 1..N-1, max_j min(f - 1/(s+1), s/(s+1) - f) with
    f = frac(k G_j / N), as numerators over (s+1) N in Python ints."""
    N = window.modulus
    s = s_value(window.spec)
    bests = []
    for k in range(1, N):
        rs = [k * g % N for g in window.values[:-1]]
        bests.append(max(min((s + 1) * r - N, s * N - (s + 1) * r) for r in rs))
    return bests, (s + 1) * N


def _angle_margin_oracle(window):
    bests, denominator = _angle_bests(window)
    return float(Fraction(min(bests), denominator))


def _ubl_margin_oracle(window):
    # |lambda_{N-k}| = |lambda_k|: twice the k < N/2, and k = N/2 once
    N = window.modulus
    sq = np.abs(full_spectrum(window)[: N // 2]) ** 2
    mirrored = (N - 1) // 2
    powered = np.ones_like(sq)
    margin = math.inf
    for _, tv in mixing_time(window, 0.25).tv_curve:
        total = 2.0 * float(powered[:mirrored].sum())
        if mirrored < len(sq):
            total += float(powered[mirrored])
        margin = min(margin, 0.25 * total - tv * tv)
        powered *= sq
    return margin


def test_windowed_suites_match_standalone_loops_exactly():
    specs = {**PRESETS, "custom": RecurrenceSpec((1, 1), (1, 2))}
    order = [(name, n) for name in specs for n in range(2, 11)]
    checks = (
        (eigmod_bound_suite, "slack", _eigmod_slack_oracle),
        (angle_cover_suite, "margin", _angle_margin_oracle),
        (ubl_consistency_suite, "margin", _ubl_margin_oracle),
    )
    for suite, key, oracle in checks:
        result = suite(specs, n_max=10)
        assert [(c["sequence"], c["n"]) for c in result.cases] == order
        expected = [oracle(generate(specs[name], n)) for name, n in order]
        assert [c[key] for c in result.cases] == expected, result.suite
        assert result.worst_slack == min(expected), result.suite


def test_angle_cover_counts_every_uncovered_k():
    # steps 1, 3, 4, 7, ... and 1, 4, 5, 9, ... leave k uncovered at most
    # n; the half-range scan counts them through the mirror k -> N - k
    specs = {
        "lucas": RecurrenceSpec((1, 1), (1, 3)),
        "one-four": RecurrenceSpec((1, 1), (1, 4)),
    }
    result = angle_cover_suite(specs, n_max=9)
    assert not result.passed
    for case in result.cases:
        bests, denominator = _angle_bests(generate(specs[case["sequence"]], case["n"]))
        assert case["uncovered"] == sum(b < 0 for b in bests), case
        assert case["margin"] == float(Fraction(min(bests), denominator)), case
    assert any(case["uncovered"] for case in result.cases)


@pytest.mark.parametrize("suite", ["eigmod-bound", "angle-cover"])
def test_term_budget_admits_its_own_size(monkeypatch, suite):
    # n = 2..4 take sum (N//2)(n - 1) = 17 + 48 + 39 engine terms on pow2
    # (N = 2, 4, 8), pow3 (3, 9, 27) and fib-odd (3, 8, 21)
    monkeypatch.setitem(verify._TERM_BUDGET, suite, 104)
    (result,) = run_suites(suite, n_max=4)
    assert result.suite == suite
    monkeypatch.setitem(verify._TERM_BUDGET, suite, 103)
    with pytest.raises(WorkTooLarge, match="104 engine terms.*the budget is 103"):
        run_suites(suite, n_max=4)
    # "all" holds each suite to its own budget before any suite runs
    with pytest.raises(WorkTooLarge, match=f"^{suite} would take"):
        run_suites("all", n_max=4)
    # lifting visits no windows, so no sum is taken (n = 2..1 is none)
    run_suites("lifting", n_max=1)
