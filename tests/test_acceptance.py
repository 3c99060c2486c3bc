"""Acceptance gate: one test per measured criterion, each printing a
single PASS/FAIL line.

Criteria and tolerances are pinned here and must not be loosened; a
failing criterion stays red rather than being weakened.
"""

import math
import time

import numpy as np

from recwalk import (
    PRESETS,
    SimConfig,
    build_report,
    evolve,
    generate,
    mixing_time,
    simulate_tv,
)
from recwalk.cli import main
from recwalk.verify import (
    angle_cover_suite,
    eigmod_bound_suite,
    lifting_suite,
    multiset_domination_suite,
    ubl_consistency_suite,
)

import path_counts
from expected_values import REFERENCE_TABLE

SEQ_ORDER = ("pow2", "pow3", "fib-odd")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_table_reproduction(tmp_path, capsys):
    """`table` with defaults must reproduce the 27 reference t_mix
    values exactly, in under 10 seconds."""
    out_file = tmp_path / "table.csv"
    start = time.monotonic()
    code = main(["table", "--out", str(out_file)])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0

    lines = out_file.read_text().strip().splitlines()
    got = {name: [] for name in SEQ_ORDER}
    for line in lines[1:]:
        cells = line.split(",")
        for pos, name in enumerate(SEQ_ORDER):
            got[name].append(int(cells[2 + 2 * pos]))

    mismatches = [
        (name, n + 1, got[name][n], REFERENCE_TABLE[name][n])
        for name in SEQ_ORDER
        for n in range(9)
        if got[name][n] != REFERENCE_TABLE[name][n]
    ]
    matched = 27 - len(mismatches)
    ok = not mismatches and elapsed < 10.0
    with capsys.disabled():
        _report(
            "table-reproduction",
            ok,
            f"{matched}/27 reference values matched, {elapsed:.2f}s",
        )
    # The unmatched reference entries are unreachable for this walk: a
    # sum of t steps drawn from n distinct values lands in at most
    # C(n+t-1, t) residues, so e.g. pow3 n=9 at t=5 occupies at most
    # C(13,5) = 1287 of 6561 states, forcing TV >= (6561-1287)/6561 - eps
    # territory, i.e. TV > 1/4 no matter how the mass is arranged.
    # The exact scan therefore returns strictly larger t for those cells.
    assert ok, (
        f"reference table not reproduced; {len(mismatches)} cells differ "
        f"(sequence, n, computed, reference): {mismatches}"
    )


def test_acceptance_evolution_oracle(capsys):
    """Direct convolution (a sum of np.roll shifts) and spectral
    evolution agree to Linf 1e-9 for every preset, n <= 8, t <= 64."""
    worst = 0.0
    for name in SEQ_ORDER:
        for n in range(1, 9):
            window = generate(PRESETS[name], n)
            N = window.modulus
            probs = np.zeros(N)
            probs[0] = 1.0
            for t in range(0, 65):
                if t > 0:
                    probs = sum(np.roll(probs, g % N) for g in window.values) / n
                gap = float(np.max(np.abs(probs - evolve(window, t))))
                worst = max(worst, gap)
    ok = worst <= 1e-9
    with capsys.disabled():
        _report("evolution-oracle", ok, f"max Linf {worst:.3e}, bound 1e-9")
    assert ok, f"direct and spectral evolution disagree: Linf = {worst}"


def test_acceptance_ubl_consistency(capsys):
    """TV(t)^2 <= (1/4) sum |lambda_k|^(2t) + 1e-9 at every scanned t,
    all presets, n <= 8."""
    result = ubl_consistency_suite(dict(PRESETS), n_max=8)
    ok = result.passed and result.worst_slack >= -1e-9
    with capsys.disabled():
        _report(
            "ubl-consistency", ok, f"min margin {result.worst_slack:.3e}, floor -1e-9"
        )
    assert ok, f"eigenvalue upper bound violated: margin {result.worst_slack}"


def test_acceptance_eigmod_bound_and_angle_cover(capsys):
    """|lambda_k| <= 1 - (2/n)(1 - |cos(pi/(s+1))|) + 1e-12 for every k,
    2 <= n <= 8, and every k has an angle-cover witness j."""
    eig = eigmod_bound_suite(dict(PRESETS), n_max=8)
    cover = angle_cover_suite(dict(PRESETS), n_max=8)
    uncovered = sum(case["uncovered"] for case in cover.cases)
    ok = eig.passed and eig.worst_slack >= -1e-12 and cover.passed and uncovered == 0
    with capsys.disabled():
        _report(
            "eigmod-and-angle-cover",
            ok,
            f"min eigmod slack {eig.worst_slack:.3e}, uncovered k {uncovered}",
        )
    assert ok, (
        f"eigenvalue bound slack {eig.worst_slack}, uncovered count {uncovered}"
    )


def test_acceptance_bound_sandwich(capsys):
    """relaxation_lower <= exact t_mix <= ubl_implied_t <= ceil(upper_general)
    for all presets at 2 <= n <= 8, eps = 1/4; pow-c additionally honors
    the first-order upper bound and, for c >= 3, the first-order lower."""
    violations = []
    checked = 0
    for name in SEQ_ORDER:
        for n in range(2, 9):
            report = build_report(name, generate(PRESETS[name], n), 0.25)
            checked += 1
            chain = [
                report.relaxation_lower <= report.exact_t_mix,
                report.exact_t_mix <= report.ubl_implied_t,
                report.ubl_implied_t <= math.ceil(report.upper_general),
            ]
            if report.c is not None:
                chain.append(
                    report.exact_t_mix <= math.ceil(report.upper_first_order)
                )
                if report.c >= 3:
                    chain.append(report.lower_first_order <= report.exact_t_mix)
            if not all(chain):
                violations.append((name, n, report))
    ok = not violations
    with capsys.disabled():
        _report(
            "bound-sandwich", ok, f"{checked - len(violations)}/{checked} reports ordered"
        )
    assert ok, f"bound ordering violated at: {[(v[0], v[1]) for v in violations]}"


def test_acceptance_multiset_domination(capsys):
    """Sorted unnormalized moduli dominated by the bound multiset for
    c in {2,3,4}, c^(n-1) <= 1e5; slack >= -1e-9 and exact multiplicity
    totals."""
    result = multiset_domination_suite()
    totals_ok = all(case["multiplicity_total_ok"] for case in result.cases)
    bases_ok = {case["c"] for case in result.cases} == {2, 3, 4} and all(
        case["c"] ** (case["n"] - 1) <= 10**5 for case in result.cases
    )
    ok = result.passed and result.worst_slack >= -1e-9 and totals_ok and bases_ok
    with capsys.disabled():
        _report(
            "multiset-domination",
            ok,
            f"min slack {result.worst_slack:.3e} over {len(result.cases)} (c, n) pairs",
        )
    assert ok, f"domination failed: slack {result.worst_slack}, totals ok {totals_ok}"


def test_acceptance_lifting_identity(capsys):
    """Level-(n+1) eigenvalues equal parent + root-of-unity term to
    1e-9 for c in {2,3}, c^n <= 1e5."""
    result = lifting_suite()
    bases_ok = {case["c"] for case in result.cases} == {2, 3} and all(
        case["c"] ** case["n"] <= 10**5 for case in result.cases
    )
    ok = result.passed and result.worst_slack < 1e-9 and bases_ok
    with capsys.disabled():
        _report(
            "lifting-identity",
            ok,
            f"max residual {result.worst_slack:.3e} over {len(result.cases)} levels",
        )
    assert ok, f"lifting identity residual {result.worst_slack}"


def test_acceptance_monte_carlo(capsys):
    """pow3 n=3: 1e6 trajectories track the exact TV curve within 5e-3
    at every t <= 20, and the seeded run is bit-identical on rerun."""
    window = generate(PRESETS["pow3"], 3)
    config = SimConfig(window=window, t_max=20, num_trajectories=10**6, seed=0)
    curve = simulate_tv(config)
    rerun = simulate_tv(config)

    exact = path_counts.tv_curve(window, 20)
    worst = 0.0
    for t, emp in curve:
        worst = max(worst, abs(emp - float(exact[t])))
    identical = curve == rerun
    ok = worst <= 5e-3 and identical
    with capsys.disabled():
        _report(
            "monte-carlo",
            ok,
            f"max |empirical - exact| {worst:.3e}, rerun identical {identical}",
        )
    assert ok, f"monte carlo gap {worst}, bit-identical {identical}"
