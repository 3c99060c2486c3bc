"""Exact distribution evolution, TV distance, and mixing times.

The walk is X_{t+1} = X_t + z_t mod N with z_t uniform on the step
multiset walk.steps of n residues mod N, repeats counted, started from
the point mass at 0.  Every function here takes a recurrence.Walk or a
SequenceWindow (whose steps are G_1, ..., G_{n-1}, 0) and reads only its
modulus, n and steps.  evolve returns a law as a dense float64 array
over Z_N: entry x is the mass at x.  The mixing scan works on path
counts instead: P^t(x) = c_x / n^t, where the integer c_x counts
the step sequences of length t that end at x.  It holds them in uint32
while n times the largest fits, then in int64 while n^t does, and then
in float64.  Every exact TV from integer counts, the scan's and the
simulator's, is _tv_excess of the two sums _above takes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InsideErrorBand, ScanTooLong
from .spectrum import eigenvalue_bound, half_spectrum, require_dense, slem_streaming

# Path counts, and sums of them, stay exact in int64 while their total n^t
# is below this.
_INT64_PATHS = 1 << 63

# The dense scan holds its path counts in this unsigned type, not int64,
# while n times the largest count is below the type's range (2^32, from
# np.iinfo): each new count is a sum of n old ones, so every add stays
# exact, and each shift-add moves half the bytes it moves in int64.
_NARROW = np.uint32

# Margin on a SLEM when it bounds the scan: ten times the 1e-15 the tests
# allow between the engine and a long-double sum per term, seven times the
# 1.4e-15 seen on walks that repeat a step.
_SLEM_ERROR = 1e-14

# Unit roundoff of float64.
_U = 2.0**-53

# Most rows an artifact may hold: a mixing-scan curve or a simulated curve
# of t = 0..t_max, and the CLI's spectrum listing.  Child peak RSS at 2^18
# rows: the pow2 listing 40 MiB as CSV or JSON; `simulate --seq pow3 --n 3
# --trajectories 1` 69 MiB as CSV or JSON (`import recwalk.cli` alone:
# 33 MiB).
MAX_ROWS = 1 << 18

# Margin by which |lambda_1| is rounded down before it bounds the scan
# from below.  The float |lambda_1| is within 33 u (each angle 2 pi G/N
# within 19 u, its cos and sin within 1 u more, then two correctly
# rounded sums, a division by n and a hypot), and the logarithms and the
# division in t_low add a relative error of at most about 3 u log2 q for a
# denominator q of epsilon.  Taking 2^-40 off |lambda_1| raises
# -log|lambda_1| by a relative 2^-40 / (|lambda_1| (-log|lambda_1|)) >=
# e 2^-40, far more than that while q < 2^1000.
_LAMBDA1_ERROR = 2.0**-40

# The float scan rescales its counts by 2^-_RESCALE_BITS once their total
# passes 2^_RESCALE_BITS, an exact operation that keeps them in range.
_RESCALE_BITS = 512

# The float scan sums its TV terms in rows of this many, whatever order
# numpy adds a row in, and adds the row sums with math.fsum.
_SUM_ROW = 256


class MixingResult(NamedTuple):
    n: int
    N: int
    t_mix: int
    tv_curve: tuple[tuple[int, float], ...]


# Output entries per tile of the shift-and-add of 8-byte counts: every
# shift is added into one tile, which stays in cache, before the next tile
# is touched.  2^16 float64 (512 KiB) measured best on a 2-vCPU Xeon (2 MiB
# L2 per core), ahead of 2^14, 2^15, 2^17 and 2^18.  Narrower counts keep
# the 512 KiB: 2^17 uint32 entries ran a narrow step at fib-odd n=16 and
# pow2 n=21 4-7% faster than 2^16, and 2^18 was slower than both.
_TILE = 1 << 16

# Entries between the scan's two count arrays, which share one block.  Two
# separate arrays landed 8 N + 4 KiB apart when glibc mmapped them, but
# 8 N + 16 apart on its heap, which it uses once the process has freed a
# larger block (bounds frees the 8 N-byte half spectrum first).  At that
# distance cur[i] and spare[i] share cache sets when N is a power of two:
# the pow2 n=21 scan took 0.23 s instead of 0.17 s (2-vCPU Xeon).
_GAP = 512


def _add_to(dst: np.ndarray, part: np.ndarray) -> None:
    dst += part


def _convolve_tiles(src: np.ndarray, out: np.ndarray, shifts):
    """Fill out with the sum over the steps x of src shifted by x, a tile
    at a time, and yield each tile as soon as it is complete, while it is
    still in cache.

    out[j] takes src[(j - x) mod N] for each step x in shifts, sorted, a
    repeated step once per repeat.  The first step is the tile's copy of
    src shifted by it, and each other step adds once; either is split at
    j = x where it falls inside the tile, since the source index wraps
    there.  A tile is 512 KiB: _TILE * 8 // src.itemsize entries.
    """
    N = len(src)
    width = _TILE * 8 // src.itemsize
    for lo in range(0, N, width):
        hi = min(lo + width, N)
        tile = out[lo:hi]
        put = np.copyto
        for x in shifts:
            if x <= lo:
                put(tile, src[lo - x : hi - x])
            elif x >= hi:
                put(tile, src[lo - x + N : hi - x + N])
            else:
                put(out[lo:x], src[lo - x + N : N])
                put(out[x:hi], src[: hi - x])
            put = _add_to
        yield tile


def evolve(walk, t: int) -> np.ndarray:
    """Law of X_t: the step law convolved t times with the point mass at 0.

    Powers half_spectrum's lambda_0..lambda_{N//2} and inverts with one
    irfft.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    N = walk.modulus
    if t == 0:
        law = np.zeros(N)
        law[0] = 1.0
        return law
    # lam[m] = lambda_m for m <= N//2 and lambda_{N-m} = conj(lambda_m), so
    # irfft of conj(lam)^t is (1/N) sum_m lambda_m^t xi_N^(-m x) = P(X_t = x).
    # Clamping the moduli at 1 keeps rounding from growing |lambda^t| with t.
    lam = half_spectrum(walk)
    lam /= np.maximum(np.abs(lam), 1.0)
    return np.fft.irfft(np.conj(lam) ** t, N)


def _tv_excess(N: int, M: int, above: int, count: int) -> int:
    """N M TV = N sum_A c_x - |A| M for integer counts c_x on Z_N totalling
    M, A = {x : c_x > M//N}, from above = sum max(c_x - M//N, 0), count = |A|."""
    return N * above - count * (M % N)


def _above(counts: np.ndarray, k: int, out: np.ndarray | None = None):
    """(sum max(c - k, 0), #{c > k}) over integer counts c, as Python ints.

    Exact for uint8 to uint32 counts (numpy sums them in uint64) and for
    int64 ones totalling below 2^63, which bounds the sum; k must fit the
    counts' type.  out, which may be counts itself, is left holding
    max(c - k, 0).
    """
    over = np.maximum(counts, k, out=out)
    over -= k
    return int(over.sum()), int(np.count_nonzero(over))


def _sparse_step(pos: np.ndarray, cnt: np.ndarray, steps: np.ndarray, N: int):
    """One step of the path counts held on the occupied residues only.

    pos is sorted; each step's shifted copy of it is sorted but for one
    wrap, so a stable sort merges n * 2 runs.  Equal positions are then
    summed with np.add.reduceat, and the result is sorted again.
    """
    nxt = (steps[:, None] + pos).ravel()
    nxt[nxt >= N] -= N
    order = np.argsort(nxt, kind="stable")
    nxt = nxt[order]
    counts = np.tile(cnt, len(steps))[order]
    starts = np.flatnonzero(np.concatenate(([True], nxt[1:] != nxt[:-1])))
    return nxt[starts], np.add.reduceat(counts, starts)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), Higham's bound on k float64 roundings."""
    return k * _U / (1.0 - k * _U)


def _band(n: int, float_steps: int) -> float:
    """Error band of the float TV after float_steps float shift-adds; see
    mixing_time."""
    m = (n - 1) * float_steps + 1
    rows = _gamma(_SUM_ROW + 2)
    return (_gamma(m + 3) + rows) * (1.0 + rows)


def _ubl_last_step(N: int, slem: float, eps: Fraction) -> int:
    """A t with TV(t) <= eps, from 4 TV(t)^2 <= (N - 1) slem^(2t).

    That is the upper-bound lemma (Diaconis, Group Representations in
    Probability and Statistics, 1988, Ch. 3) with every nontrivial
    |lambda_k| at most the SLEM, raised by _SLEM_ERROR; one step is added
    for the rounding of the logarithms.  A SLEM of 1 within _SLEM_ERROR
    bounds no t and is refused with InsideErrorBand.
    """
    lam = slem + _SLEM_ERROR
    if lam >= 1.0:
        raise InsideErrorBand(
            f"SLEM {slem!r} is 1 within the engine's error {_SLEM_ERROR}: "
            "no t is known at which the float64 error band of TV is below "
            "epsilon, so TV <= epsilon cannot be decided"
        )
    log_eps2 = math.log(2 * eps.numerator) - math.log(eps.denominator)
    t = (log_eps2 - 0.5 * math.log(N - 1)) / math.log(lam)
    return max(math.ceil(t), 0) + 1


def _bound_last_step(walk, eps: Fraction) -> int | None:
    """_ubl_last_step at the paper's bound eigenvalue_bound(n, s*), s* read
    off the steps; None where they hold no 1 or no 0, or where the bound
    is 1 within _SLEM_ERROR.

    Let 1 = h_1 < ... < h_m be the distinct nonzero steps and h_{m+1} = N,
    so that h_{j+1} <= s* h_j for s* = max ceil(h_{j+1} / h_j).  Take
    1 <= k <= N/2 (k and N - k share a modulus).  If k/N >= 1/(s*+1), the
    root xi_N^k of h_1 has k/N in [1/(s*+1), 1/2].  Otherwise take the
    first j with k h_j / N >= 1/(s*+1), which exists since k h_{m+1} / N =
    k >= 1.  Then j > 1, so k h_j / N <= s* k h_{j-1} / N < s*/(s*+1) < 1:
    j <= m, and xi_N^(k h_j) has k h_j / N in [1/(s*+1), s*/(s*+1)).
    Either way that root and one hold sum to at most 2 cos(pi/(s*+1)) in
    modulus, the other n - 2 terms to at most n - 2.  So the bound is at
    least the engine's SLEM, and this t is never below the engine's.  A
    window with G_{j+1} <= s G_j for every j has s* <= s."""
    steps = sorted(set(walk.steps))
    if steps[:2] != [0, 1]:
        return None
    rungs = steps[1:] + [walk.modulus]
    bound = eigenvalue_bound(walk.n, max(-(-b // a) for a, b in zip(rungs, rungs[1:])))
    if bound + _SLEM_ERROR >= 1.0:
        return None
    return _ubl_last_step(walk.modulus, bound, eps)


def scan_lower_bound(walk, epsilon: Fraction) -> int:
    """t_low = ceil(log(1/(2 eps)) / log(1/|lambda_1|)) <= t_mix(eps).

    One character bounds the TV from below (Diaconis, Group
    Representations in Probability and Statistics, 1988, Ch. 3): since
    |chi| = 1, 2 TV(t) >= |sum_x (P^t(x) - 1/N) chi(x)| = |lambda_1|^t,
    with lambda_1 = (1/n) sum_i xi_N^(g_i) over the steps g_i.  So
    TV(t) > eps for every t < t_low.  |lambda_1| is rounded down by
    _LAMBDA1_ERROR first.  For the steps {1, 0}, |lambda_1| = cos(pi/N)
    is the SLEM, so the bound is tight on the slowest walks.
    """
    N, n = walk.modulus, walk.n
    p, q = epsilon.numerator, epsilon.denominator
    if N == 1 or 2 * p >= q:
        return 0  # at N = 1, lambda_1 is the trivial eigenvalue 1
    angles = [math.tau * (g / N) for g in walk.steps]
    re = math.fsum(map(math.cos, angles)) / n
    im = math.fsum(map(math.sin, angles)) / n
    lam = math.hypot(re, im) - _LAMBDA1_ERROR
    if lam <= 0.0:
        return 0
    # log(q / 2p) as log1p(q/2p - 1) near eps = 1/2, where it is small
    if q <= 4 * p:
        log_inv_2eps = math.log1p((q - 2 * p) / (2 * p))
    else:
        log_inv_2eps = math.log(q) - math.log(2 * p)
    return math.ceil(log_inv_2eps / -math.log(lam))


def mixing_time(walk, epsilon: Fraction | float) -> MixingResult:
    """Smallest t with TV(P^t, uniform) <= epsilon, by forward scan from 0,
    for N <= DEFAULT_N_MAX (StateSpaceTooLarge past it).

    epsilon is taken exactly, as a Fraction (a float by its binary
    value).  A curve holds at most MAX_ROWS rows, t = 0..MAX_ROWS - 1:
    ScanTooLong is raised before any step when scan_lower_bound puts
    t_mix at MAX_ROWS or later, or when the walk never mixes, and at
    t = MAX_ROWS - 1 if the scan is still undecided there.  A walk never
    mixes when epsilon < 1 - 1/d, d = gcd(N, g - g_1 over the steps g):
    X_t lies in the coset t g_1 + dZ_N, which uniform weights 1/d, so
    TV(t) >= 1 - 1/d at every t (d = N when every step is the same).
    The scan advances the path counts c_x, whose total is M = n^t, in
    three phases:

    - Sparse start.  After t steps at most C(n+t-1, t) residues are
      occupied, so while s occupied residues give s * n <= N/4 candidates
      the counts live on those residues only (_sparse_step).
    - Dense, exact.  The counts are scattered once into a dense array
      and advanced by _convolve_tiles, with no weights, while M < 2^63.
      With k = M // N the residues above uniform are A = {x : c_x > k},
      and TV(t) = (N * sum_A c_x - |A| * M) / (N * M).  Each tile
      contributes sum max(c - k, 0) and its count above k (_above) while
      it is in cache, so TV(t) <= p/q is one comparison of Python
      integers, and the curve holds the correctly rounded TV(t).  The
      array is _NARROW (uint32) while n * big is below its range, where
      big is the largest count, taken per tile as k + max(max(c - k, 0)):
      that is max c, since k is at most the mean count.  Every count of
      the next step is then at most n * big, so each add is exact.  Once
      that fails the counts are widened to int64, once, into the spare
      buffer.  The uint32 arrays are the first halves of the two int64
      buffers, so the scan's block stays 16 N bytes; a narrow step
      touches half of it.  Besides it the scan holds one 512 KiB tile of
      scratch and the n steps, whose adds _convolve_tiles works out per
      tile as it walks: O(N + n) in all.
    - Past the int64 range the counts are converted to float64 once, from
      either width, at t0, and advanced unweighted, rescaled by exact
      powers of two.  The scan then decides only outside an a-priori band
      delta around the float TV, and raises InsideErrorBand when epsilon
      is inside it.
      The last t it may need comes from a bound on the SLEM:
      4 TV(t)^2 <= (N - 1) slem^(2t).  That t is taken from the paper's
      bound with s read off the steps (_bound_last_step), and from the
      engine's SLEM (slem_streaming) only where the steps hold no 1 or
      no 0, or the bound leaves epsilon inside the band at its t; the
      bound is at least the SLEM, so its t is never the smaller.  When
      d > 1 (|lambda_(N/d)| = 1), epsilon is below the band at the
      engine's t, or the SLEM is 1 within the engine's error,
      InsideErrorBand is raised before any float step, so a slow walk at
      a small epsilon is refused at once, not after millions of float
      steps.  Otherwise the band alone ends the scan, by that t: there
      TV <= epsilon, so the float TV is below epsilon - delta or within
      delta of it.

    The band (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Sec. 4.2; u = 2^-53 and gamma_k = k u / (1 - k u)).  Every
    count is a sum of nonnegative terms: the conversion rounds once and
    each float step adds n terms, so after t - t0 float steps each
    count f_x is within gamma_m of its exact value y_x = c_x 2^-e, with
    m = (n - 1)(t - t0) + 1.  The float TV is sum max(f_x - h, 0) / a,
    where a = M 2^-e = sum y_x and h = a/N are each correctly rounded.
    The errors of f_x move the clamped terms by sum |f_x - y_x| <=
    gamma_m a in all, h by u a, and the subtractions by u sum |f_x - h|
    <= 2u a to first order, so the clamped terms sum to TV a within
    gamma_{m+3} a.  Their sum, in rows of _SUM_ROW added in any order and
    then by math.fsum, and the division by a round that sum by a factor
    within gamma_{_SUM_ROW+2}.  Since TV <= 1,

        |TV^ - TV| <= delta = (gamma_{m+3} + g) (1 + g),
        g = gamma_{_SUM_ROW+2}.

    Residues whose share falls below 2^-1022 of the total may flush to
    zero; their mass is far inside delta.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    p, q = eps.numerator, eps.denominator
    N, n = walk.modulus, walk.n
    require_dense(N)
    d = int(np.gcd.reduce(np.subtract(walk.steps, walk.steps[0]), initial=N))
    if q * (d - 1) > p * d:  # also stops n = 1, where M = n^t never leaves int64
        raise ScanTooLong(
            f"every step is the first plus a multiple of d = {d}, a divisor of "
            f"N = {N}, so X_t stays in one coset of dZ_N and TV(t) >= 1 - 1/{d} "
            f"> epsilon = {eps} for every t"
        )
    t_low = scan_lower_bound(walk, eps)
    if t_low >= MAX_ROWS:
        raise ScanTooLong(
            f"t_mix({eps}) >= {t_low}, by TV(t) >= |lambda_1|^t / 2, but a "
            f"curve holds at most {MAX_ROWS} rows, t = 0..{MAX_ROWS - 1}"
        )
    curve: list[tuple[int, float]] = []

    def mixed(t: int, M: int, above: int, count: int) -> bool:
        """Record the exact TV(t) from above = sum max(c - M//N, 0) and
        count = #{c > M//N}; True when TV(t) <= eps."""
        excess = _tv_excess(N, M, above, count)
        curve.append((t, excess / (N * M)))  # int division rounds correctly
        return q * excess <= p * N * M

    def result(t: int) -> MixingResult:
        return MixingResult(n=n, N=N, t_mix=t, tv_curve=tuple(curve))

    steps = np.array(walk.steps, dtype=np.int64)
    pos = np.zeros(1, dtype=np.int64)
    cnt = np.ones(1, dtype=np.int64)
    t, M = 0, 1
    while True:
        if mixed(t, M, *_above(cnt, M // N)):
            return result(t)
        if len(pos) * n > N // 4 or M * n >= _INT64_PATHS:
            break
        pos, cnt = _sparse_step(pos, cnt, steps, N)
        t, M = t + 1, M * n

    both = np.zeros(2 * N + _GAP, dtype=np.int64)
    wide = both[:N], both[N + _GAP :]  # the int64 buffers under cur and spare
    big = int(cnt.max())  # at least the largest count
    narrow, bound = _NARROW, int(np.iinfo(_NARROW).max) + 1
    dtype = narrow if big * n < bound else np.int64
    cur, spare = (a.view(dtype)[:N] for a in wide)
    cur[pos] = cnt
    del pos, cnt, steps
    shifts = sorted(walk.steps)
    scratch = np.empty(min(N, _TILE), dtype=np.int64)  # one 512 KiB tile
    while M * n < _INT64_PATHS:
        if dtype is narrow and big * n >= bound:
            np.copyto(wide[1], cur)  # widen once, as the float phase converts
            cur, spare, wide = wide[1], wide[0], wide[::-1]
            dtype = np.int64
        t, M = t + 1, M * n
        k = M // N
        above = count = big = 0
        overs = scratch.view(dtype)
        for tile in _convolve_tiles(cur, spare, shifts):
            over = overs[: len(tile)]
            tile_above, tile_count = _above(tile, k, out=over)
            above, count = above + tile_above, count + tile_count
            if dtype is narrow:
                big = max(big, int(over.max()) + k)
        cur, spare, wide = spare, cur, wide[::-1]
        if mixed(t, M, above, count):
            return result(t)

    t0 = t
    if d > 1:  # every step is the first plus a multiple of d
        raise InsideErrorBand(
            f"|lambda_(N/d)| = 1 at d = {d}: no t is known at which the float64 error "
            f"band of TV is below epsilon = {eps}; path counts leave int64 after t = {t0}"
        )
    t_last = _bound_last_step(walk, eps)
    if t_last is None or eps <= _band(n, max(t_last - t0, 0)):
        t_last = _ubl_last_step(N, slem_streaming(walk), eps)
    floor = _band(n, max(t_last - t0, 0))
    if eps <= floor:
        raise InsideErrorBand(
            f"epsilon = {eps} is below the float64 error band {floor:.2e} of "
            f"TV at t = {t_last}, the step the SLEM bound needs, so TV <= "
            f"epsilon cannot be decided; path counts leave int64 after t = {t0}"
        )
    # converted from either width: cur lies in wide[0], counts in wide[1]
    counts, fspare = wide[1].view(np.float64), wide[0].view(np.float64)
    np.copyto(counts, cur)
    fscratch = scratch.view(np.float64)
    e = 0  # counts hold c_x 2^-e
    while True:
        t, M = t + 1, M * n
        scale = 1.0
        if M >> e > 1 << _RESCALE_BITS:
            scale, e = 2.0**-_RESCALE_BITS, e + _RESCALE_BITS
        h = M / (N << e)
        sums: list[float] = []
        for tile in _convolve_tiles(counts, fspare, shifts):
            if scale != 1.0:
                tile *= scale
            d = np.subtract(tile, h, out=fscratch[: len(tile)])
            np.maximum(d, 0.0, out=d)
            cut = len(d) - len(d) % _SUM_ROW
            sums += d[:cut].reshape(-1, _SUM_ROW).sum(axis=1).tolist()
            sums.append(float(d[cut:].sum()))
        counts, fspare = fspare, counts
        # TV(t) <= TV(t-1), and the band only widens with t, so the cap
        # keeps the curve nonincreasing and within the band
        tv = min(math.fsum(sums) / (M / (1 << e)), curve[-1][1])
        curve.append((t, tv))
        delta = _band(n, t - t0)
        gap = Fraction(tv) - eps
        if abs(gap) <= delta:
            raise InsideErrorBand(
                f"TV({t}) = {tv!r} within {delta:.2e} of epsilon = {eps}: "
                f"float64 cannot decide TV <= epsilon past t = {t0}, "
                "where path counts leave int64"
            )
        if gap < 0:
            return result(t)
        # the integer phases end by t = 62, where n^t passes 2^63
        if t == MAX_ROWS - 1:
            raise ScanTooLong(
                f"TV({t}) = {tv!r} > epsilon = {eps}: a curve holds at most "
                f"{MAX_ROWS} rows, so the scan stops undecided at t = {t}"
            )
