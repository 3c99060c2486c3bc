import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from recwalk import (
    DegenerateStateSpace,
    NotFirstOrder,
    PRESETS,
    RecurrenceSpec,
    StateSpaceTooLarge,
    full_spectrum,
    generate,
    half_spectrum,
    slem_streaming,
    step_distribution,
    unnormalized_values,
)

from recwalk import spectrum
from recwalk import verify
from recwalk.spectrum import (
    _CHUNK,
    _INT64_SAFE_N,
    _ROW_MAX,
    _WIDE_FROM,
    DEFAULT_N_MAX,
    TABLES_N_MAX,
    _roots,
    iter_k_rows,
    row_width,
)
from recwalk.verify import lifting_suite

from expected_values import SLEMS

# The reference exp rounds an angle below 2*pi (half an ulp of 2*pi), each
# root an angle in (-pi, pi], then the exps and the roots' product add a
# few ulps of 1.
PHASE_TOL = 2 * float(np.spacing(2 * np.pi))


def _phase_error(N, r):
    return float(np.max(np.abs(_roots(N, r) - np.exp((2j * np.pi / N) * r))))


def _factored_term_error(N, k, g):
    """Gap between the engine's term xi^(q*(B*g mod N)) * xi^(j*g mod N),
    k = q*B + j, and one exp of the reduced exponent k*g mod N."""
    q, j = np.divmod(k, _ROW_MAX)
    term = _roots(N, q * (_ROW_MAX * g % N) % N) * _roots(N, j * g % N)
    return float(np.max(np.abs(term - np.exp((2j * np.pi / N) * (k * g % N)))))


def spectrum_for(name, n):
    return full_spectrum(generate(PRESETS[name], n))


def dense_slem(window):
    """max |lambda_k| over k = 1..N//2 of the dense half spectrum."""
    return float(np.abs(half_spectrum(window)[1:]).max())


def slem_for(name, n):
    return dense_slem(generate(PRESETS[name], n))


def per_term_exp_eigenvalues(window, ks=None):
    """lambda_k (default k = 1..N) with one np.exp per step and k, from the
    exact reduction k * G_i mod N: the formula the phase tables replace."""
    N = window.modulus
    if ks is None:
        ks = np.arange(1, N + 1, dtype=np.int64)
    lam = np.zeros(len(ks), dtype=np.complex128)
    for g in window.values:
        lam += np.exp((2j * np.pi / N) * ((ks * (g % N)) % N))
    return lam / window.n


def tilde_oracle(c, n, k):
    """lambda-tilde_{n,k} for G_i = c^(i-1) as the scalar sum over
    m = 0..n-1 of exp(2 pi i (k mod c^m) / c^m); the m = 0 term is 1."""
    return complex(sum(np.exp(2j * np.pi * (k % c**m) / c**m) for m in range(n)))


def test_trivial_eigenvalue_is_exactly_one():
    for name in PRESETS:
        for n in range(1, 7):
            eig = spectrum_for(name, n)
            assert eig[-1] == 1.0 + 0.0j


def test_pow2_n2_spectrum():
    # steps {1, 2} on Z_2: lambda_1 = (xi_2 + 1)/2 = 0
    eig = spectrum_for("pow2", 2)
    assert abs(eig[0]) < 1e-15
    assert slem_for("pow2", 2) < 1e-15


def test_pow3_n2_spectrum():
    # steps {1, 3} on Z_3: |lambda_1| = |lambda_2| = 1/2
    eig = spectrum_for("pow3", 2)
    assert abs(eig[0]) == pytest.approx(0.5, abs=1e-12)
    assert abs(eig[1]) == pytest.approx(0.5, abs=1e-12)


def test_conjugate_symmetry():
    # real transition matrix: lambda_{N-k} is the conjugate of lambda_k
    for name in PRESETS:
        eig = spectrum_for(name, 6)
        N = len(eig)
        for k in range(1, N):
            assert eig[N - k - 1] == pytest.approx(np.conj(eig[k - 1]), abs=1e-12)


def test_moduli_bounded_by_one():
    for name in PRESETS:
        eig = spectrum_for(name, 8)
        assert float(np.max(np.abs(eig))) <= 1.0 + 1e-12


def test_slem_matches_frozen_values():
    for name, expected in SLEMS.items():
        for i, want in enumerate(expected):
            slem = slem_for(name, i + 2)
            assert slem == pytest.approx(want, abs=1e-12), (name, i + 2)


def test_pow2_slem_closed_form():
    # k = N/2 maps every step but G_1 to +1, giving |(n-2)/n| exactly
    for n in range(3, 10):
        assert slem_for("pow2", n) == pytest.approx((n - 2) / n, abs=1e-12)


def test_slem_requires_nontrivial_state_space():
    with pytest.raises(DegenerateStateSpace):
        slem_streaming(generate(PRESETS["pow2"], 1))


def test_streaming_slem_agrees_with_dense(monkeypatch):
    windows = [generate(PRESETS[name], 7) for name in PRESETS]
    dense = [dense_slem(window) for window in windows]
    monkeypatch.setattr(spectrum, "_CHUNK", 64)
    for window, slem in zip(windows, dense):
        assert slem_streaming(window) == pytest.approx(slem, abs=1e-14)


def test_streaming_slem_is_exactly_dense(monkeypatch):
    # every tile is one product of one fixed shape, so chunking cannot change
    # lambda_k
    windows = [generate(PRESETS[name], n) for name in PRESETS for n in range(2, 10)]
    dense = [dense_slem(window) for window in windows]
    monkeypatch.setattr(spectrum, "_CHUNK", 64)
    assert [slem_streaming(window) for window in windows] == dense


def test_phase_tables_match_exp():
    for N in (2, 3, 2**10 - 1, 2**10, 2**10 + 1, 2**11 - 1, 2**11, 2**11 + 1):
        assert _phase_error(N, np.arange(N, dtype=np.int64)) <= PHASE_TOL, N


def test_phase_tables_match_exp_near_int64_limit():
    rng = np.random.default_rng(0)
    for N in (_INT64_SAFE_N, _INT64_SAFE_N - 1, 2**31 + 1):
        r = np.concatenate(([0, 1, N - 1], rng.integers(0, N, 10**5)))
        assert _phase_error(N, r) <= PHASE_TOL, N
        k = rng.integers(1, N // 2 + 1, 10**5)
        g = rng.integers(0, N, 10**5)
        assert _factored_term_error(N, k, g) <= PHASE_TOL, N


def test_roots_take_signed_angles():
    # an angle in (-pi, pi] makes xi^(N-r) the exact conjugate of xi^r,
    # r != N/2; xi^0 is exactly 1
    for N in (3, 7, 2**10, 2**11 + 1, 2178309, _INT64_SAFE_N):
        r = np.unique(np.linspace(1, N - 1, 4099).astype(np.int64))
        r = r[2 * r != N]
        assert np.array_equal(_roots(N, N - r), np.conj(_roots(N, r))), N
        assert _roots(N, np.zeros(1, dtype=np.int64))[0] == 1.0


def test_k_rows_cover_one_to_half_n(monkeypatch):
    monkeypatch.setattr(spectrum, "_CHUNK", 64)
    for N in (1, 2, 3, 64, 65, 129, 2**12 + 7):
        B = row_width(N)
        assert B * B >= N // 2 + 1, N
        blocks = list(iter_k_rows(N, B))
        assert all(qs.dtype == np.int64 and 1 <= len(qs) <= max(1, 64 // B)
                   for qs, _ in blocks), N
        ks = [(qs[:, None] * B + np.arange(B)).ravel()[keep] for qs, keep in blocks]
        got = np.concatenate(ks) if ks else np.empty(0, dtype=np.int64)
        assert np.array_equal(got, np.arange(1, N // 2 + 1)), N


def test_k_rows_refuse_past_int64_range():
    with pytest.raises(StateSpaceTooLarge):
        iter_k_rows(_INT64_SAFE_N + 1, _ROW_MAX)
    qs, keep = next(iter_k_rows(_INT64_SAFE_N, _ROW_MAX))
    assert qs[0] == 0 and keep.start == 1
    with pytest.raises(StateSpaceTooLarge):
        slem_streaming(generate(PRESETS["pow2"], 33))  # N = 2^32


def test_dense_cap_enforced():
    window = generate(PRESETS["pow2"], 26)  # N = 2^25 > DEFAULT_N_MAX
    with pytest.raises(StateSpaceTooLarge):
        half_spectrum(window)
    with pytest.raises(StateSpaceTooLarge):
        full_spectrum(window)


def test_engine_root_tables_refused_past_dense_cap():
    # G_i = i has N = n, so the n - 1 tables of row_width(N) entries grow
    # with n: 65,535 tables of 256 fit 2^24, 131,071 of 512 would be 2^26
    spectrum.require_tables(65_536, 65_536)
    with pytest.raises(StateSpaceTooLarge, match="root tables"):
        spectrum.require_tables(131_072, 131_072)
    spectrum.require_tables(32, 2**31)  # the presets' most: pow2 n = 32
    window = generate(RecurrenceSpec((2, -1), (1, 2)), 131_072)
    with pytest.raises(StateSpaceTooLarge, match="root tables"):
        next(spectrum.iter_eigenvalue_chunks(window))


def test_tables_bound_derived_from_row_width_and_dense_cap():
    # row_width never falls as N grows (it is _ROW_MAX from 2 * _WIDE_FROM
    # on) and every window has G_n >= n, so (n - 1) * row_width(n) is the
    # fewest table entries n steps need
    widths = [row_width(N) for N in range(1, 4 * _WIDE_FROM)]
    assert widths == sorted(widths) and widths[-1] == _ROW_MAX
    fits = [n for n in range(1, len(widths) + 1) if (n - 1) * widths[n - 1] <= DEFAULT_N_MAX]
    assert fits[-1] == TABLES_N_MAX
    spectrum.require_tables(TABLES_N_MAX, TABLES_N_MAX)
    with pytest.raises(StateSpaceTooLarge, match="root tables"):
        spectrum.require_tables(TABLES_N_MAX + 1, TABLES_N_MAX + 1)


def test_against_naive_angle_oracle():
    """Cross-check the exact-reduction path against naive float angles.

    Valid only while k*G_i stays well below 2^53, which holds for every
    preset window with N <= 10^4.
    """
    for name, n in [("pow2", 9), ("pow3", 7), ("fib-odd", 9)]:
        window = generate(PRESETS[name], n)
        N = window.modulus
        eig = full_spectrum(window)
        ks = np.arange(1, N + 1, dtype=np.float64)
        naive = np.zeros(N, dtype=np.complex128)
        for g in window.values:
            naive += np.exp(2j * np.pi * ks * g / N)
        naive /= window.n
        assert float(np.max(np.abs(eig - naive))) < 1e-9


def test_against_dft_of_step_distribution():
    # lambda_k must equal the DFT of the step distribution at -k
    for name in PRESETS:
        window = generate(PRESETS[name], 6)
        N = window.modulus
        eig = full_spectrum(window)
        lam = N * np.fft.ifft(step_distribution(window))
        for k in range(1, N + 1):
            assert eig[k - 1] == pytest.approx(lam[k % N], abs=1e-9)


def test_unnormalized_scalar_values():
    # c=2: tilde(1,1) = 1, tilde(2,2) = 2, tilde(3,2) = 1 + xi_4^2 + 1 = 1
    for n, k, want in ((1, 1, 1.0), (2, 2, 2.0), (3, 2, 1.0)):
        assert tilde_oracle(2, n, k) == pytest.approx(want, abs=1e-12)
        assert unnormalized_values(2, n)[k - 1] == pytest.approx(want, abs=1e-12)
    for c, n in [(2, 6), (3, 5), (4, 4), (5, 3)]:
        got = unnormalized_values(c, n)
        want = [tilde_oracle(c, n, k) for k in range(1, c ** (n - 1) + 1)]
        assert float(np.max(np.abs(got - want))) <= 1e-12, (c, n)


def test_unnormalized_matches_scaled_spectrum():
    # tilde lambda_{n,k} = n * lambda_k for the pow-c walk, same k order
    for c, n in [(2, 5), (3, 4)]:
        name = f"pow{c}"
        window = generate(PRESETS[name], n)
        tilde = unnormalized_values(c, n)
        assert np.max(np.abs(tilde - n * full_spectrum(window))) < 1e-9


def test_unnormalized_moduli_bounded_by_n():
    for c, n in [(2, 6), (3, 5), (4, 4)]:
        mods = np.abs(unnormalized_values(c, n))
        assert float(np.max(mods)) <= n + 1e-12
        # k = c^(n-1) hits every root equal to 1
        assert mods[-1] == pytest.approx(n, abs=1e-12)


def test_lift_children_of_constant_eigenvalue():
    # the level-2 children of tilde(1, 1) = 1 are 1 + xi_2^1 and 1 + xi_2^2
    children = unnormalized_values(2, 2)
    assert children[0] == pytest.approx(1 + np.exp(1j * np.pi), abs=1e-12)
    assert children[1] == pytest.approx(2.0, abs=1e-12)


def test_lift_satisfies_additive_identity():
    # tilde(n+1, k + j c^(n-1)) = tilde(n, k) + xi_{c^n}^(k + j c^(n-1))
    for c in (2, 3):
        for n in range(1, 5):
            base = c ** (n - 1)
            parents = unnormalized_values(c, n)
            children = unnormalized_values(c, n + 1)
            for k in range(1, base + 1):
                for j in range(c):
                    idx = k + j * base
                    predicted = parents[k - 1] + np.exp(2j * np.pi * idx / c**n)
                    assert children[idx - 1] == pytest.approx(predicted, abs=1e-9)


def test_lift_rejects_bad_arguments(monkeypatch):
    monkeypatch.setattr(verify, "_LIFT_BASES", (1,))
    monkeypatch.setattr(verify, "_CAP", 10)
    with pytest.raises(NotFirstOrder):
        lifting_suite()
    with pytest.raises(NotFirstOrder):
        unnormalized_values(0, 3)


def _windows_up_to(n_max):
    specs = {**PRESETS, "custom": RecurrenceSpec((1, 1), (1, 2))}
    return [generate(spec, n) for spec in specs.values() for n in range(1, n_max + 1)]


def test_upper_half_is_exact_conjugate_of_lower_half():
    moduli = set()
    for window in _windows_up_to(10):
        eig = full_spectrum(window)
        half = half_spectrum(window)
        N = window.modulus
        moduli.add(N)
        assert len(half) == N // 2 + 1 and half[0] == 1.0
        assert eig[: N // 2].tobytes() == half[1:].tobytes(), N
        k = np.arange(1, N)
        off_middle = 2 * k != N
        mirrored = eig[N - 1 - k]  # lambda_{N-k}
        assert np.array_equal(
            mirrored[off_middle], np.conj(eig[k - 1])[off_middle]
        ), N
        if N % 2 == 0:
            # k = N/2 is computed directly, its imaginary part only dust
            assert abs(eig[N // 2 - 1].imag) <= 1e-15
        assert eig[N - 1] == 1.0
    # N = 2, 3, 4 and both parities are among the windows
    assert {2, 3, 4} <= moduli
    assert any(N % 2 for N in moduli) and any(N % 2 == 0 for N in moduli)


def _peak_bytes(f, window) -> int:
    tracemalloc.start()
    try:
        f(window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name, n", [("pow2", 21), ("fib-odd", 12)])
def test_full_spectrum_mirrors_into_its_result(name, n):
    # live arrays: the half spectrum's buffer, 8 N bytes, and the N-entry
    # result, 16 N; a conjugated upper half concatenated with the lower
    # made it 32 N
    window = generate(PRESETS[name], n)
    assert _peak_bytes(full_spectrum, window) < 28 * window.modulus


def test_half_spectrum_holds_its_buffer_and_one_scratch_block():
    # pow2 n = 21: the N//2 + B entry buffer is 8 N bytes; the tables, the
    # scratch block and one step's row roots add the rest (10.4 N measured)
    window = generate(PRESETS["pow2"], 21)
    assert _peak_bytes(half_spectrum, window) < 12 * window.modulus


def test_streaming_slem_holds_blocks_not_the_spectrum():
    # pow2 n = 23, N = 2^22: the dense half spectrum alone would take
    # 32 MiB; the stream holds the tables, a block and its scratch (4.41 MiB)
    window = generate(PRESETS["pow2"], 23)
    assert _peak_bytes(slem_streaming, window) < 16 * 2**20


def test_half_spectrum_builds_row_roots_a_block_at_a_time():
    # G_i = i at n = 8193, B = 128: past the tables (16 MiB), the buffer and
    # one tile's row roots (16 (n - 1) entries, 2 MiB) the engine holds only
    # a block's temporaries (2.7 MiB measured), whatever n is
    window = generate(RecurrenceSpec((2, -1), (1, 2)), 8193)
    n, N = window.n, window.modulus
    B = row_width(N)
    held = 16 * ((n - 1) * B + N // 2 + B + spectrum._TILE_ROWS * (n - 1))
    assert _peak_bytes(half_spectrum, window) - held < 56 * _CHUNK


def test_eigenvalues_match_per_term_exp_oracle():
    for window in _windows_up_to(11):
        N = window.modulus
        if N > 2**16:
            continue
        got = full_spectrum(window)
        gap = float(np.max(np.abs(got - per_term_exp_eigenvalues(window))))
        assert gap <= 1e-15, (window.n, N)


def test_streaming_slem_exact_for_uneven_chunks(monkeypatch):
    # chunks that split k = 1..N//2 with a short last block, or one short one
    windows = [window for window in _windows_up_to(7) if window.modulus >= 2]
    dense = [dense_slem(window) for window in windows]
    for chunk in (1, 3, 7, 100):
        monkeypatch.setattr(spectrum, "_CHUNK", chunk)
        assert [slem_streaming(window) for window in windows] == dense, chunk


def test_narrow_rows_match_oracle_and_stream_exactly(monkeypatch):
    # B = 4 puts k = 1..N//2 on many rows of the factored engine, the
    # first starting at k = 0 and the last one often short
    monkeypatch.setattr(spectrum, "_ROW_MAX", 4)
    short_last_row = many_rows = False
    for window in _windows_up_to(10):
        N = window.modulus
        short_last_row |= (N // 2 + 1) % 4 != 0 and N > 8
        many_rows |= N // 2 >= 4 * 100
        eig = full_spectrum(window)
        slem = float(np.abs(eig[: N // 2]).max(initial=0.0))
        gap = float(np.max(np.abs(eig - per_term_exp_eigenvalues(window))))
        assert gap <= 1e-15, (window.n, N)
        k = np.arange(1, N)
        off_middle = 2 * k != N
        assert np.array_equal(
            eig[N - 1 - k][off_middle], np.conj(eig[k - 1])[off_middle]
        ), N
        if N < 2:
            continue
        for chunk in (1, 3, 7, 100):
            monkeypatch.setattr(spectrum, "_CHUNK", chunk)
            assert slem_streaming(window) == slem, (window.n, chunk)
        monkeypatch.setattr(spectrum, "_CHUNK", _CHUNK)
    assert short_last_row and many_rows


def test_wide_rows_match_oracle_at_large_n():
    # N//2 >= 2^17 takes rows of _ROW_MAX; check k around every row start
    for name, n in [("pow2", 19), ("fib-odd", 14)]:
        window = generate(PRESETS[name], n)
        N = window.modulus
        assert N // 2 >= spectrum._WIDE_FROM
        starts = np.arange(0, N // 2 + 1, _ROW_MAX, dtype=np.int64)
        ks = np.concatenate((starts - 1, starts, starts + 1))
        ks = np.unique(np.concatenate((ks, N - ks)))  # and the upper half
        ks = ks[(ks >= 1) & (ks <= N)]
        got = full_spectrum(window)[ks - 1]
        gap = float(np.max(np.abs(got - per_term_exp_eigenvalues(window, ks))))
        assert gap <= 1e-15, (name, n)


# G_i = i: N = n and the steps are every residue of Z_N
_EVERY_RESIDUE = RecurrenceSpec((2, -1), (1, 2))


def test_engine_error_within_bound_where_every_eigenvalue_is_zero():
    # lambda_k = 0 exactly for k = 1..N-1, so |lambda_k| is the engine's
    # whole error: a sum of n unit terms, scaled by 1/n, within (n + 2) u
    n = 4096
    lam = half_spectrum(generate(_EVERY_RESIDUE, n))
    assert float(np.abs(lam[1:]).max()) <= (n + 2) * 2.0**-53


def _run_child(args, **env):
    src = str(Path(spectrum.__file__).parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


# The sha256 of half_spectrum's bytes on three windows, one hex line each.
_HASH_PROBE = """
import hashlib
from recwalk import PRESETS, RecurrenceSpec, generate, half_spectrum
for spec, n in ((PRESETS["pow2"], 21), (PRESETS["fib-odd"], 14),
                (RecurrenceSpec((2, -1), (1, 2)), 4096)):
    print(hashlib.sha256(half_spectrum(generate(spec, n)).tobytes()).hexdigest())
"""


def test_engine_bytes_do_not_depend_on_blas_threads():
    # BLAS splits a product's rows and columns among threads, never a sum
    one, two = (_run_child(["-c", _HASH_PROBE], OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert len(one.split()) == 3
    assert one == two


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("AVX2", False) and __cpu_features__.get("FMA3", False)


@pytest.mark.skipif(not _has_avx2(), reason="the Haswell kernel needs AVX2 and FMA")
def test_engine_streams_exactly_under_the_avx2_blas_kernel():
    # BLAS picks its kernel by CPU; on an AVX-512 host this covers the AVX2
    # one, under which products shaped by their block broke these checks
    tests = [f"{__file__}::{name}" for name in (
        "test_streaming_slem_is_exactly_dense",
        "test_streaming_slem_exact_for_uneven_chunks",
        "test_narrow_rows_match_oracle_and_stream_exactly",
    )]
    out = _run_child(["-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                     OPENBLAS_CORETYPE="Haswell")
    assert "3 passed" in out
