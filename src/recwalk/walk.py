"""Exact distribution evolution, TV distance, and mixing times.

The walk is X_{t+1} = X_t + z_t mod N with z_t uniform on the n
distinct steps window.steps = (G_1, ..., G_{n-1}, 0), started from the
point mass at 0.  Laws are dense float64 arrays over Z_N: entry x is
the mass at x, and N is the array's length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoMixing
from .recurrence import SequenceWindow
from .spectrum import DEFAULT_N_MAX, compute_spectrum, require_dense

# Hard stop for the mixing scan.  slem < 1 drives the exact TV to zero
# geometrically, but the float TV stalls at a floor of rounding dust, so
# an epsilon below that floor is never met and the scan runs to this cap:
# fib-odd n = 9 at epsilon = 1e-16 scans all 10^6 steps before NoMixing
# (60 s in ROADMAP item 1), and larger N take longer.
_SCAN_CAP = 1_000_000


@dataclass(frozen=True)
class MixingResult:
    n: int
    N: int
    t_mix: int
    tv_curve: tuple[tuple[int, float], ...]


def point_mass(N: int) -> np.ndarray:
    p = np.zeros(N)
    p[0] = 1.0
    return p


def step_distribution(
    window: SequenceWindow, n_max_states: int = DEFAULT_N_MAX
) -> np.ndarray:
    """Step law: p[x] = 1/n for each x in window.steps, 0 elsewhere."""
    N = window.modulus
    require_dense(N, n_max_states)
    p = np.zeros(N)
    p[list(window.steps)] = 1.0 / window.n
    return p


# Output entries per tile of the shift-and-add: every shift is added into
# one tile, which stays in cache, before the next tile is touched.
# 2^16 float64 (512 KiB) measured best on a 2-vCPU Xeon (2 MiB L2 per
# core), ahead of 2^14, 2^15, 2^17 and 2^18.
_TILE = 1 << 16


class _Convolver:
    """Cyclic convolution with the window's step law, in the time domain.

    The law puts the weight w = fl(1/n) on each of the n distinct steps,
    so a shift-and-add over them is O(N * n) and free of FFT rounding.
    Each call forms fl(w * probs) once, into a buffer owned here, and adds
    its shifted copies into the caller's out buffer with slices, one
    _TILE-entry tile of out at a time, shifts in increasing x within each
    tile.  Every output entry thus receives the same products in the same
    order as the sum over x of w * np.roll(probs, x), so results are
    bit-identical to that sum, without allocating per call.
    """

    def __init__(self, window: SequenceWindow):
        N = window.modulus
        self.weight = 1.0 / window.n
        self.product = product = np.empty(N)
        shifts = sorted(window.steps)
        # Per tile [lo, hi): the adds out[a:b] += source, where out[j] takes
        # product[(j - x) mod N]; a shift x inside the tile splits it at
        # j = x, where the source index wraps.
        self.plan = []
        for lo in range(0, N, _TILE):
            hi = min(lo + _TILE, N)
            adds = []
            for x in shifts:
                if x <= lo:
                    adds.append((lo, hi, product[lo - x : hi - x]))
                elif x >= hi:
                    adds.append((lo, hi, product[lo - x + N : hi - x + N]))
                else:
                    adds.append((lo, x, product[lo - x + N :]))
                    adds.append((x, hi, product[: hi - x]))
            self.plan.append((lo, hi, adds))

    def __call__(self, probs: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(probs, self.weight, out=self.product)
        for lo, hi, adds in self.plan:
            out[lo:hi] = 0.0
            for a, b, source in adds:
                out[a:b] += source
        return out


def _powers_clamped(lam: np.ndarray, t: int) -> np.ndarray:
    """lam**t by repeated squaring, clamping moduli at 1 after each multiply.

    Without the clamp, rounding can push |lam^t| above 1 and the drift
    compounds over large t.
    """

    def _clamp(z: np.ndarray) -> np.ndarray:
        m = np.abs(z)
        over = m > 1.0
        if np.any(over):
            z = z.copy()
            z[over] /= m[over]
        return z

    result = np.ones_like(lam)
    base = _clamp(lam.astype(np.complex128))
    e = t
    while e:
        if e & 1:
            result = _clamp(result * base)
        base = _clamp(base * base)
        e >>= 1
    return result


def evolve(window: SequenceWindow, t: int, method: str = "spectral") -> np.ndarray:
    """Law of X_t: the step law convolved t times with the point mass at 0.

    method "spectral" (the default) powers the eigenvalues from
    compute_spectrum and inverts with one FFT; "direct" repeats
    time-domain convolution and serves as the independent oracle for
    the spectral path.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if method not in ("spectral", "direct"):
        raise ValueError(f"unknown method {method!r}")
    N = window.modulus
    if t == 0:
        return point_mass(N)
    if method == "direct":
        require_dense(N, DEFAULT_N_MAX)
        convolve = _Convolver(window)
        probs, spare = point_mass(N), np.empty(N)
        for _ in range(t):
            probs, spare = convolve(probs, spare), probs
        return probs
    # Index m holds lambda_m, and lambda_0 = lambda_N = 1 exactly.  Then
    # fft gives sum_m lambda_m^t xi_N^(-m x) = N * P(X_t = x).
    lam = np.roll(compute_spectrum(window).eigenvalues, 1)
    return np.fft.fft(_powers_clamped(lam, t)).real / N


def tv_to_uniform(probs: np.ndarray, work: np.ndarray | None = None) -> float:
    """(1/2) sum_x |probs[x] - 1/N|, N = len(probs).

    work, when given, is an N-entry float64 buffer that is overwritten
    instead of allocating one.
    """
    dev = np.subtract(probs, 1.0 / len(probs), out=work)
    return 0.5 * float(np.abs(dev, out=dev).sum())


def mixing_time(
    window: SequenceWindow,
    epsilon: float,
    n_max_states: int = DEFAULT_N_MAX,
) -> MixingResult:
    """Smallest t with TV(P^t, uniform) <= epsilon, by forward scan from 0.

    The scan advances one time-domain convolution per step, so TV(t) is
    free of FFT rounding.  It allocates nothing per step: the buffer the
    next convolution overwrites doubles as the TV work buffer.  The
    threshold test is a float comparison: when TV(t) equals epsilon as
    a rational, the rounded TV can land just above float(epsilon) and
    the scan returns t + 1 (pow2 n = 5 at epsilon = 5/16 gives 3, where
    the exact answer is 2).
    """
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    eps = float(epsilon)
    N = window.modulus
    require_dense(N, n_max_states)
    convolve = _Convolver(window)
    probs, spare = point_mass(N), np.empty(N)
    curve: list[tuple[int, float]] = []
    for t in range(_SCAN_CAP + 1):
        tv = tv_to_uniform(probs, work=spare)
        curve.append((t, tv))
        if tv <= eps:
            return MixingResult(n=window.n, N=N, t_mix=t, tv_curve=tuple(curve))
        probs, spare = convolve(probs, spare), probs
    raise NoMixing(f"TV never reached {eps} within {_SCAN_CAP} steps")
