"""Eigenvalues of the walk's circulant transition matrix.

For the walk on Z_N whose steps are the multiset g_1..g_n of residues
mod N (a SequenceWindow's G_1..G_{n-1}, 0, or any Walk), the transition
matrix is circulant and its eigenvalues are

    lambda_k = (1/n) * sum_i xi_N^(k*g_i),   xi_N = exp(2*pi*i/N),

indexed by k mod N, with lambda_0 = lambda_N = 1.  Each hold g_i = 0
adds exactly 1.  The step law is real, so lambda_{N-k} = conj(lambda_k), and
lambda_0..lambda_{N//2} (half_spectrum) are the whole spectrum; only
k = 1..N//2 are evaluated, and full_spectrum mirrors them.
Exponents are reduced mod N in exact integer arithmetic before any
float conversion; naive floating angles lose all precision once k*g_i
approaches 2^53.  The index splits as k = q*B + j with 0 <= j < B, as
the four-step FFT splits its index, so that

    xi_N^(k*g) = xi_N^(q*(B*g mod N)) * xi_N^(j*g mod N),

and each tile of rows q is one complex matrix product (a BLAS zgemm): the
rows' roots xi_N^(q*(B*g_i mod N)) times one table of B roots
xi_N^(j*g_i mod N) per nonzero step, with no exp, remainder or gather per
term.
B is 2^12 once N//2 >= 2^17, and a power of two at least sqrt(N//2 + 1)
below that.  Each root is one exp of a signed angle in (-pi, pi]; the
eigenvalues stay within 3.0e-16 of a long-double sum of per-term cos and
sin on the presets with N <= 2^17, and 4.0e-16 at c = 5, n = 6; the
tests bound the gap by 1e-15.  A step repeated c times carries its
root's rounding c times, which does not average out: on 2000 random
walks with N <= 2^12 and one to four distinct steps, repeated up to 16
times, the gap reached 1.4e-15.  BLAS orders each product's sums by its
kernel, which it picks by CPU, so from n = 4 on the last digits can differ between CPUs and BLAS
builds; on one host every product has one fixed shape, so lambda_k does
not depend on the block that asks for it or on the BLAS thread count.
eigenvalue_bound is the paper's bound on every nontrivial |lambda_k|;
the mixing scan takes its s from a walk's steps.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DegenerateStateSpace, NotFirstOrder, StateSpaceTooLarge
from .recurrence import RecurrenceSpec, Walk, generate

# Dense full-spectrum storage cap (entries). Larger N must stream.
DEFAULT_N_MAX = 2**24

# (N-1)^2 must stay below 2^63 for the vectorized int64 reduction.
_INT64_SAFE_N = 3_037_000_499

# Entries per block, the streamed SLEM's unit of memory: 1 MiB, as is the
# engine's one scratch tile at B = _ROW_MAX.
_CHUNK = 1 << 16

# Row width B of the factored engine, k = q*B + j with 0 <= j < B.  Each
# step costs B + (N//2)/B roots, one complex exp apiece, so below
# N//2 = _WIDE_FROM B is a power of two near sqrt(N//2), at least
# sqrt(N//2 + 1).  From there on B = _ROW_MAX.  half_spectrum at fib-odd
# n = 16 took 7.6, 6.2, 6.2, 7.1 and 13.5 ms at B = 2^9..2^13 (one x86-64
# CPU, OpenBLAS 0.3.31): 2^12 keeps the tables at 64 KiB a step, within
# 1 ms of the fastest.
_ROW_MAX = 1 << 12
_WIDE_FROM = 1 << 17

# Rows q of each engine product, a tile, which starts at q = 0 mod
# _TILE_ROWS: 2^16 entries at B = _ROW_MAX.  Each tile is a constant
# number of numpy calls, however many steps the walk has.
_TILE_ROWS = 16


def _roots(N: int, r: np.ndarray) -> np.ndarray:
    """xi_N^r for integers 0 <= r < N, each from one exp of a signed angle.

    r is taken as r - N when 2r > N, so the angle 2*pi*r/N lies in
    (-pi, pi] and rounds to half an ulp of pi at most; xi_N^(N-r) comes
    out as the exact conjugate of xi_N^r.
    """
    return np.exp((2j * np.pi / N) * np.where(2 * r > N, r - N, r))


def eigenvalue_bound(n: int, s: int) -> float:
    """The paper's bound 1 - (2/n)(1 - |cos(pi/(s+1))|) on every nontrivial
    |lambda_k| of a walk of n steps, a 1 and a 0 among them, whose distinct
    nonzero steps and N each grow by a factor of at most s, as an n-term
    window's do where G_{j+1} <= s G_j for every j < n; walk._bound_last_step
    has the proof."""
    return 1.0 - (2.0 / n) * (1.0 - abs(math.cos(math.pi / (s + 1))))


def require_dense(N: int) -> None:
    """Refuse a dense N-entry array past the cap DEFAULT_N_MAX."""
    if N > DEFAULT_N_MAX:
        raise StateSpaceTooLarge(f"N = {N} exceeds the dense cap {DEFAULT_N_MAX}")


# The most window terms require_tables can admit.  Every window has
# G_n >= n and row_width never falls as N grows, so its n - 1 nonzero steps
# need at least (n - 1) * row_width(n) table entries: 65,536 tables of 256
# fill DEFAULT_N_MAX exactly, and every n past this is refused whatever N is.
TABLES_N_MAX = 65_537


def require_tables(tables: int, N: int) -> None:
    """Refuse an engine run whose root tables, one of row_width(N) entries
    per nonzero step, would hold more than DEFAULT_N_MAX entries in all,
    the dense cap's own count: they are built before the first block and
    grow with the steps, not N."""
    entries = tables * row_width(N)
    if entries > DEFAULT_N_MAX:
        raise StateSpaceTooLarge(
            f"{tables} nonzero steps: the engine's root tables of {row_width(N)} "
            f"entries would hold {entries}, past the dense cap {DEFAULT_N_MAX}"
        )


def require_int64_safe(N: int) -> None:
    """Refuse an N past the engine's exact int64 reductions."""
    if N > _INT64_SAFE_N:
        raise StateSpaceTooLarge(f"N = {N} exceeds the exact int64 reduction range")


def row_width(N: int) -> int:
    """Row width B of the factored index k = q*B + j, 0 <= j < B, that
    covers k = 1..N//2: a power of two at least sqrt(N//2 + 1) below
    N//2 = _WIDE_FROM, and _ROW_MAX from there on."""
    last = N // 2
    if last < _WIDE_FROM:
        return min(_ROW_MAX, 1 << (last.bit_length() + 1) // 2)
    return _ROW_MAX


def iter_k_rows(N: int, B: int) -> Iterator[tuple[np.ndarray, slice]]:
    """Rows q = 0..(N//2)//B of k = q*B + j, max(1, _CHUNK // B) rows a block.

    Yields (qs, keep): qs holds a block's q as int64, its k run row by
    row, and keep slices the flattened block to the k in 1..N//2.
    (q * (B*g mod N)) mod N and (j * g) mod N for 0 <= g < N are exact in
    int64 up to N = _INT64_SAFE_N; past it this raises StateSpaceTooLarge
    at the call, before any block.
    """
    require_int64_safe(N)
    last = N // 2
    rows = max(1, _CHUNK // B)
    q_end = last // B + 1 if last else 0
    return (
        (
            np.arange(q0, min(q0 + rows, q_end), dtype=np.int64),
            slice(max(1 - q0 * B, 0), last + 1 - q0 * B),
        )
        for q0 in range(0, q_end, rows)
    )


def iter_eigenvalue_chunks(
    walk: Walk, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Yield lambda_1..lambda_{N//2} in k order, max(1, _CHUNK // B) rows a block.

    The step law is real, so lambda_{N-k} = conj(lambda_k) and these
    determine every nontrivial eigenvalue; k = N/2 (N even) is its own
    mirror and is computed directly.  k = q*B + j with 0 <= j < B and
    B = row_width(N) splits the root of a nonzero step g as

        xi_N^(k*g) = xi_N^(q*(B*g mod N)) * xi_N^(j*g mod N),

    so rows q of lambda are one matrix product, row roots R[q, i] =
    xi_N^(q*(B*g_i mod N)) times the m x B tables T[i, j] =
    xi_N^(j*g_i mod N) of the m nonzero steps g_i, in the walk's order,
    and each of the n - m holds adds exactly 1 after it.  Every product
    has one shape, a tile of _TILE_ROWS rows starting at q = 0 mod
    _TILE_ROWS, the last tile padded, so BLAS sums lambda_k the same way
    whatever block asks for it; a block that covers a tile only in part
    copies its rows out of a scratch tile.  Storage-free except for one
    block at a time, the scratch tile, the tables and one array of a
    tile's row roots, filled a bounded number of steps a call, so it
    works beyond the dense cap; half_spectrum and the streaming SLEM are
    both built on this.  The tables hold m B entries, and
    require_tables refuses more than DEFAULT_N_MAX before they are built.

    out, when given, is a complex array of N//2 + B entries indexed by k:
    each block's rows are computed in place in out[q*B : (q + rows)*B],
    which the last row, q = (N//2)//B, never passes, and the yielded block
    is a view of out.  Row 0 also writes k = 0, and the last row k past
    N//2; those entries are left as the engine computes them.
    """
    N = walk.modulus
    B = row_width(N)
    blocks = iter_k_rows(N, B)  # the int64 guard on N: products stay below N^2
    # with no nonzero step the tables are empty and every product is 0
    gs = np.array([g for g in walk.steps if g], dtype=np.int64)
    require_tables(len(gs), N)
    holds = walk.n - len(gs)
    js = np.arange(B, dtype=np.int64)
    tables = np.empty((len(gs), B), dtype=np.complex128)
    per_call = max(1, _CHUNK // B)  # steps: a block's temporaries, not the tables'
    for i in range(0, len(gs), per_call):
        tables[i : i + per_call] = _roots(N, gs[i : i + per_call, None] * js % N)
    bgs = B * gs % N
    scale = 1.0 / walk.n  # numpy's acc /= n scales by 1/n too, 3x slower
    R = _TILE_ROWS
    tile = np.empty((R, B), dtype=np.complex128)
    row_roots = np.empty((R, len(gs)), dtype=np.complex128)
    per_root = max(1, _CHUNK // R)  # steps: the roots' temporaries stay a block's size
    for qs, keep in blocks:
        q0, q1 = int(qs[0]), int(qs[-1]) + 1
        if out is None:
            acc = np.empty((q1 - q0, B), dtype=np.complex128)
        else:
            acc = out[B * q0 : B * q1].reshape(q1 - q0, B)
        for t in range(q0 - q0 % R, q1, R):
            lo, hi = max(t, q0), min(t + R, q1)
            part = acc[lo - q0 : hi - q0]
            dst = part if hi - lo == R else tile
            q = np.arange(t, t + R, dtype=np.int64)[:, None]
            for i in range(0, len(gs), per_root):
                row_roots[:, i : i + per_root] = _roots(N, q * bgs[i : i + per_root] % N)
            np.matmul(row_roots, tables, out=dst)
            if dst is tile:
                part[...] = tile[lo - t : hi - t]
        acc += holds
        acc *= scale
        yield acc.ravel()[keep]


def half_spectrum(walk: Walk) -> np.ndarray:
    """lambda_0..lambda_{N//2} for N <= DEFAULT_N_MAX (StateSpaceTooLarge
    past it): index k holds lambda_k, and lambda_0 = 1 exactly.

    With lambda_{N-k} = conj(lambda_k) these are the whole spectrum.  The
    engine writes each block straight into its slots of one buffer of
    N//2 + row_width(N) entries, and the result is a view of it.
    """
    N = walk.modulus
    require_dense(N)
    half = N // 2
    by_k = np.empty(half + row_width(N), dtype=np.complex128)
    for _ in iter_eigenvalue_chunks(walk, out=by_k):
        pass
    by_k[0] = 1.0
    return by_k[: half + 1]


def full_spectrum(walk: Walk) -> np.ndarray:
    """lambda_1..lambda_N for N <= DEFAULT_N_MAX, as half_spectrum
    refuses past it: index k-1 holds lambda_k.  The upper half holds the
    exact conjugates lambda_{N-k} = conj(lambda_k) of half_spectrum, and
    lambda_N = 1."""
    lam = half_spectrum(walk)
    N, half = walk.modulus, walk.modulus // 2
    eig = np.empty(N, dtype=np.complex128)
    eig[:half] = lam[1:]
    np.conj(lam[N - half - 1 : 0 : -1], out=eig[half:-1])  # k = N//2+1..N-1
    eig[-1] = 1.0
    return eig


def slem_streaming(walk: Walk) -> float:
    """SLEM in one pass over k <= N/2 without storing the spectrum (any N)."""
    if walk.modulus < 2:
        raise DegenerateStateSpace("N = 1 has no nontrivial eigenvalue")
    return max(float(np.max(np.abs(block))) for block in iter_eigenvalue_chunks(walk))


def unnormalized_values(c: int, n: int) -> np.ndarray:
    """lambda-tilde_{n,k} for all k = 1..c^(n-1): n times the pow-c spectrum."""
    if c < 2:
        raise NotFirstOrder(f"base must be an integer >= 2, got {c}")
    window = generate(RecurrenceSpec((c,), (1,)), n)
    return n * full_spectrum(window)

