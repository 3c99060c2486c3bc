"""Eigenvalues of the walk's circulant transition matrix.

For the walk on Z_N with step set {G_1..G_n}, N = G_n, the transition
matrix is circulant and its eigenvalues are

    lambda_k = (1/n) * sum_i xi_N^(k*G_i),   xi_N = exp(2*pi*i/N),

indexed k = 1..N with lambda_N = 1.  The step law is real, so
lambda_{N-k} = conj(lambda_k), and only k = 1..N//2 are evaluated.
Exponents k*G_i are reduced mod N in exact integer arithmetic before
any float conversion; naive floating angles lose all precision once
k*G_i approaches 2^53.  The root
xi_N^r is then read from two phase tables of O(sqrt(N)) entries each
rather than evaluated with exp per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateStateSpace, NotFirstOrder, StateSpaceTooLarge
from .recurrence import RecurrenceSpec, SequenceWindow, generate

# Dense full-spectrum storage cap (entries). Larger N must stream.
DEFAULT_N_MAX = 2**24

# (N-1)^2 must stay below 2^63 for the vectorized int64 reduction.
_INT64_SAFE_N = 3_037_000_499

_CHUNK = 1 << 18


@dataclass(frozen=True)
class Spectrum:
    """All N eigenvalues of one walk, 1-based by k, plus the SLEM."""

    n: int
    modulus: int
    eigenvalues: np.ndarray  # index k-1 holds lambda_k
    slem: float  # max over k != N of |lambda_k|; 0.0 when N = 1


def _phase_tables(N: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Tables (s, hi, lo) with xi_N^r = hi[r >> s] * lo[r & (2^s - 1)], 0 <= r < N.

    2^s is about sqrt(N), so both tables hold O(sqrt(N)) entries and
    the same lookup serves the dense path and streaming past the cap.
    A lookup costs one complex product and differs from
    np.exp(2*pi*i*r/N) by about 1e-15 at most, as both round an angle
    below 2*pi.
    """
    s = ((N - 1).bit_length() + 1) // 2
    angle = 2j * np.pi / N
    lo = np.exp(angle * np.arange(1 << s))
    hi = np.exp(angle * (np.arange(((N - 1) >> s) + 1, dtype=np.int64) << s))
    return s, hi, lo


def _eigenvalue_block(
    ks: np.ndarray, steps: list[int], N: int, tables: tuple[int, np.ndarray, np.ndarray]
) -> np.ndarray:
    """lambda_k for one block of k values; fixed summation order over i.

    Every operation is elementwise over k, so lambda_k comes out the same
    whatever block it falls in.  A step g = 0 mod N (always G_n) adds
    exactly 1, as its lookup hi[0] * lo[0] would, so it is added without one.
    """
    s, hi, lo = tables
    acc = np.zeros(len(ks), dtype=np.complex128)
    r = np.empty_like(ks)
    top = np.empty_like(ks)
    term = np.empty_like(acc)
    low = np.empty_like(acc)
    for g in steps:
        if g == 0:
            acc += 1.0
            continue
        np.remainder(np.multiply(ks, g, out=r), N, out=r)
        np.right_shift(r, s, out=top)
        np.bitwise_and(r, (1 << s) - 1, out=r)
        # Indices are in range by construction; mode="clip" skips the
        # buffered bounds check that mode="raise" makes with out=.
        np.take(hi, top, out=term, mode="clip")
        term *= np.take(lo, r, out=low, mode="clip")
        acc += term
    acc /= len(steps)
    return acc


def _require_int64_safe(N: int) -> None:
    if N > _INT64_SAFE_N:
        raise StateSpaceTooLarge(f"N = {N} exceeds the exact int64 reduction range")


def iter_k_blocks(N: int, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
    """k = 1..N-1 as int64 blocks of at most chunk entries.

    (k * g) mod N for 0 <= g < N is exact in int64 up to N = _INT64_SAFE_N;
    past it this raises StateSpaceTooLarge at the call, before any block.
    """
    _require_int64_safe(N)
    return (
        np.arange(start, min(start + chunk, N), dtype=np.int64)
        for start in range(1, N, chunk)
    )


def iter_eigenvalue_chunks(
    window: SequenceWindow, chunk: int = _CHUNK
) -> Iterator[np.ndarray]:
    """Yield lambda_1..lambda_{N//2} in k order.

    The step law is real, so lambda_{N-k} = conj(lambda_k) and these
    determine every nontrivial eigenvalue; k = N/2 (N even) is its own
    mirror and is computed directly.
    Storage-free except for one chunk at a time and the O(sqrt(N)) phase
    tables, so it works beyond the dense cap; the dense spectrum, SLEM
    and one-pass bound sums are all built on this.
    """
    N = window.modulus
    _require_int64_safe(N)  # on N itself: every k * g is reduced mod N
    steps = [g % N for g in window.values]
    tables = _phase_tables(N)
    for ks in iter_k_blocks(N // 2 + 1, chunk):  # k = 1..N//2
        yield _eigenvalue_block(ks, steps, N, tables)


def compute_spectrum(
    window: SequenceWindow, n_max_states: int = DEFAULT_N_MAX
) -> Spectrum:
    """Materialize the full spectrum for N = G_n <= n_max_states.

    lambda_1..lambda_{N//2} come from the engine; the upper half is
    filled in place with their conjugates, lambda_{N-k} = conj(lambda_k).
    """
    N = window.modulus
    if N > n_max_states:
        raise StateSpaceTooLarge(f"N = {N} exceeds the dense cap {n_max_states}")
    eig = np.ones(N, dtype=np.complex128)  # slot N-1 is lambda_N = 1 exactly
    worst = 0.0
    pos = 0
    for block in iter_eigenvalue_chunks(window):
        eig[pos : pos + len(block)] = block
        m = float(np.max(np.abs(block)))
        if m > worst:
            worst = m
        pos += len(block)
    mirrored = N - 1 - pos  # k = pos+1..N-1 take conj(lambda_{N-k})
    np.conjugate(eig[:mirrored][::-1], out=eig[pos : N - 1])
    return Spectrum(n=window.n, modulus=N, eigenvalues=eig, slem=worst)


def slem_streaming(window: SequenceWindow, chunk: int = _CHUNK) -> float:
    """SLEM in one pass over k <= N/2 without storing the spectrum (any N)."""
    if window.modulus < 2:
        raise DegenerateStateSpace("N = 1 has no nontrivial eigenvalue")
    worst = 0.0
    for block in iter_eigenvalue_chunks(window, chunk):
        m = float(np.max(np.abs(block)))
        if m > worst:
            worst = m
    return worst


def unnormalized_values(c: int, n: int) -> np.ndarray:
    """lambda-tilde_{n,k} for all k = 1..c^(n-1): n times the pow-c spectrum."""
    if c < 2:
        raise NotFirstOrder(f"base must be an integer >= 2, got {c}")
    window = generate(RecurrenceSpec((c,), (1,)), n)
    return n * compute_spectrum(window).eigenvalues

