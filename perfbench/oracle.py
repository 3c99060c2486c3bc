"""Exact reference values for the benchmark, independent of recwalk.

Nothing here imports the package under test, and no value is taken from
its output.  The walk on Z_N, N = G_n, moves by a uniform draw from the
multiset {G_1 mod N, ..., G_n mod N}.  After t steps from 0 the number of
step paths ending at x is an integer c_x with sum n^t, so

    TV(t) = sum_x |N c_x - n^t| / (2 N n^t)

and TV(t) <= p/q is decided in integers as q * sum|N c_x - n^t| <= 2 p N n^t.
Counts are held in two int64 limbs (c = hi * 2^32 + lo), which keeps them
exact up to n^t < 2^94.

The spectrum comes from a different route than recwalk's: the FFT of the
step law.  Values derived from it (SLEM, the eigenvalue upper-bound scan,
the relaxation lower bound) are compared within SPECTRAL_RTOL.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

PRESETS = {
    "pow2": ((2,), (1,)),
    "pow3": ((3,), (1,)),
    "fib-odd": ((3, -1), (1, 3)),
}

# Relative tolerance for spectrum-derived values (FFT vs chunked exps).
SPECTRAL_RTOL = 1e-6

_LIMB = 1 << 32
_MAX_PATHS = 1 << 94


def sequence(name: str, n: int) -> list[int]:
    """G_1..G_n of a preset, in exact integers."""
    coeffs, init = PRESETS[name]
    vals = list(init[:n])
    while len(vals) < n:
        vals.append(sum(a * vals[-1 - j] for j, a in enumerate(coeffs)))
    return vals


def _weights(values: list[int]) -> dict[int, int]:
    N = values[-1]
    w: dict[int, int] = {}
    for g in values:
        w[g % N] = w.get(g % N, 0) + 1
    return w


def _shift_add(out: np.ndarray, src: np.ndarray, g: int, w: int) -> None:
    """out[x] += w * src[x - g mod N], in place."""
    N = len(src)
    if w != 1:
        src = src * w
    if g == 0:
        out += src
        return
    out[g:] += src[: N - g]
    out[:g] += src[N - g :]


def tv_curve_exact(values: list[int], epsilon: Fraction, t_stop: int | None = None):
    """Exact TV(t) for t = 0, 1, ... as Fractions.

    Stops at the first t with TV(t) <= epsilon, or after t_stop when it is
    given.  Returns (t_mix or None, [TV(0), TV(1), ...]).
    """
    N, n = values[-1], len(values)
    p, q = epsilon.numerator, epsilon.denominator
    weights = _weights(values)
    hi = np.zeros(N, dtype=np.int64)
    lo = np.zeros(N, dtype=np.int64)
    lo[0] = 1
    curve: list[Fraction] = []
    t = 0
    while True:
        total = n**t
        if total >= _MAX_PATHS:
            raise OverflowError(f"n^t = {n}^{t} exceeds the two-limb range")
        k_hi, k_lo = divmod(total // N, _LIMB)
        above = (hi > k_hi) | ((hi == k_hi) & (lo > k_lo))  # N c_x > n^t
        mass = int(hi[above].sum()) * _LIMB + int(lo[above].sum())
        excess = N * mass - int(np.count_nonzero(above)) * total  # sum|.| / 2
        curve.append(Fraction(excess, N * total))
        if t_stop is None and q * excess <= p * N * total:
            return t, curve
        if t_stop is not None and t >= t_stop:
            return None, curve
        new_hi = np.zeros_like(hi)
        new_lo = np.zeros_like(lo)
        for g, w in weights.items():
            _shift_add(new_hi, hi, g, w)
            _shift_add(new_lo, lo, g, w)
        new_hi += new_lo >> 32
        new_lo &= _LIMB - 1
        hi, lo = new_hi, new_lo
        t += 1


def t_mix(values: list[int], epsilon: Fraction) -> int:
    """Smallest t with TV(t) <= epsilon, decided exactly."""
    return tv_curve_exact(values, epsilon)[0]


def spectrum_moduli(values: list[int]) -> np.ndarray:
    """|lambda_k| for k = 0..N-1 from the FFT of the step law."""
    N, n = values[-1], len(values)
    law = np.zeros(N)
    for g, w in _weights(values).items():
        law[g] = w / n
    return np.abs(N * np.fft.ifft(law))


@functools.cache
def spectral_reference(name: str, n: int, epsilon: Fraction) -> "SpectralReference":
    return SpectralReference(sequence(name, n), epsilon)


class SpectralReference:
    """SLEM and the eigenvalue upper-bound scan for one walk."""

    def __init__(self, values: list[int], epsilon: Fraction):
        mods = spectrum_moduli(values)[1:]
        self.slem = float(mods.max())
        eps = float(epsilon)
        self.target = eps * eps
        sq = mods * mods
        powered = np.ones_like(sq)
        # sums[t] = (1/4) sum_{k != 0} |lambda_k|^(2t), up to the first t <= eps^2
        self.sums: list[float] = []
        while True:
            self.sums.append(0.25 * float(powered.sum()))
            if self.sums[-1] <= self.target:
                break
            powered *= sq
        self.relaxation_lower = (1.0 / (1.0 - self.slem) - 1.0) * math.log(
            1.0 / (2.0 * eps)
        )

    @property
    def ubl_implied_t(self) -> int:
        return len(self.sums) - 1

    def ubl_accepts(self, t: int) -> bool:
        """t is the first scan index with sum <= eps^2, within SPECTRAL_RTOL."""
        lo = self.target * (1 - SPECTRAL_RTOL)
        hi = self.target * (1 + SPECTRAL_RTOL)
        if t == len(self.sums):  # one past the oracle's answer: a near tie only
            return self.sums[-1] > lo
        if not 0 <= t < len(self.sums):
            return False
        return self.sums[t] <= hi and (t == 0 or self.sums[t - 1] > lo)

    def relaxation_matches(self, value: float) -> bool:
        ref = self.relaxation_lower
        return abs(value - ref) <= SPECTRAL_RTOL * abs(ref)


def support_bound(n: int, t: int) -> int:
    """At most C(n+t-1, t) residues are reachable in t steps."""
    return math.comb(n + t - 1, t)
