"""Reproducible Wiener increments and one-step maps for state-driven noise.

Every trajectory draws a single scalar Wiener process; one increment per time
step is shared by all cells.  Paths are generated at a fixed fine resolution
and coarsened by summation, so runs at different step sizes driven by the same
seed see the same underlying path (the coupling that makes strong-error
ladders meaningful).

Sampling convention (fixed for bit-reproducibility across runs and workers):
the Philox4x64-10 counter-based generator is keyed directly by the seed
(key words seed mod 2^64 and seed >> 64, so seeds lie in [0, 2^128)) and run
on counters 1, 2, ...; k is the top 53 bits of each 64-bit output word, taken
in order, uniforms are (k + 1/2) / 2^53, normals come from the inverse CDF,
and increment i is sqrt(dt_fine) * xi_i.  Aggregation of fine increments into
coarse ones is strict left-to-right summation, and `NoisePath.block_sums` is
the one place that sums them: `increment_over`, `total`, `coarsen` and every
step of `schemes.integrate` read their increments from it.
`step_counts` owns path alignment: the fine steps of every horizon and
step size (in `generate_path`, `schemes.integrate`, `RunConfig` and the
noise-free reference) are counted there, and whatever does not fit in whole
steps is a ConfigError.

Both the generator and the inverse CDF are in-package.  `_philox_draws` is
Philox4x64-10 (Salmon et al., SC 2011) on uint64 arrays; its k are bitwise
those of `numpy.random.Generator(numpy.random.Philox(key=seed)).integers(0,
2**53, dtype=numpy.uint64)`, whose Lemire reduction never rejects for a range
of exactly 2^53 and keeps the top 53 bits.  The inverse CDF is a port of the
Cephes `ndtri` that takes its logarithms from libm (`math.log`): each of
Cephes' three regions evaluates its own rational function, by Cephes' own
`polevl`/`p1evl` recurrences, on that region's entries only.  It is bitwise
equal to `scipy.special.ndtri`.  Drawing a path therefore loads
neither `numpy.random` nor any scipy module.

`check_path_steps` is the one cap on the fine increments of a path
(`MAX_PATH_STEPS`, read at call time): `generate_path` raises a
ResourceLimit past it, and a `RunConfig` whose paths would pass it is a
ConfigError.

`apply_increment` is the one formula of a noise increment,
base + amp dW [+ ((corr / 2) * slope) (dW^2 - dt)]: Euler-Maruyama without
`corr`, Milstein with it.  `stochastic_update` (and so `milstein_step`)
calls it in Milstein form with the amplitude sigma at a linearization
state, `em_step` without `corr`, and the variation-of-constants and
trapezoid iterates of `schemes` with their own amplitude and correction
fields, so every stochastic update of every scheme is one call of it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ResourceLimit, check_kind, check_number, check_positive,
                     check_whole, is_finite, is_non_negative)
from .grid import FieldState

_NOISE_KINDS = ("linear", "constant")

#: ceiling on fine increments per path: the stored path is ~80 MB of
#: float64, and drawing it peaks at ~68 B per increment (~0.7 GB)
MAX_PATH_STEPS = 10_000_000

#: seeds key Philox4x64's two 64-bit key words, so they lie below 2^128
SEED_LIMIT = 2**128


def _shaped_like(c, value: float):
    shape = np.shape(c)
    return np.full(shape, value) if shape else float(value)


@dataclass(frozen=True)
class NoiseAmplitude:
    """Noise amplitude sigma(c) and its derivative.

    linear:   sigma(c) = lam * c,  sigma'(c) = lam
    constant: sigma(c) = lam,      sigma'(c) = 0

    lam must be non-negative and finite.
    """

    kind: str = "linear"
    lam: float = 0.5

    def __post_init__(self) -> None:
        check_kind(self.kind, _NOISE_KINDS, "noise kind")
        check_number(self.lam, is_non_negative, "lam", "be non-negative and finite")

    def __call__(self, c, out=None):
        """sigma(c), broadcast to c's shape: the one place that forms the
        amplitude.  With `out` (numpy's buffer convention) it is computed
        into that array of c's shape, which may be c itself, bitwise the
        same as the allocating call."""
        if self.kind == "linear":
            return self.lam * c if out is None else np.multiply(c, self.lam, out=out)
        if out is None:
            return _shaped_like(c, self.lam)
        out[...] = self.lam
        return out

    @property
    def slope(self) -> float:
        """sigma'(c), the same for every c."""
        return self.lam if self.kind == "linear" else 0.0

    def deriv(self, c):
        return _shaped_like(c, self.slope)


# Cephes ndtri.  With y = min(u, 1 - u), the central region y > e^-2 uses
# the rational function P0/Q0 of (y - 1/2)^2; the tails use P1/Q1 (x < 8) or
# P2/Q2 (x >= 8) of z = 1/x, x = sqrt(-2 log y).  The Q tables leave out the
# leading coefficient 1 (Cephes' p1evl).
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # e^-2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)

def _libm_log(a: np.ndarray) -> np.ndarray:
    # numpy's SIMD log differs from libm in the last bit for some tail inputs
    return np.fromiter(map(math.log, a.tolist()), np.float64, a.size)


def _rational(t: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """t * P(t) / Q(t) by Cephes' recurrences: `polevl` over p and `p1evl`
    over q, whose leading coefficient 1 is left out."""
    num = p[0]
    for c in p[1:]:
        num = num * t + c
    den = t + q[0]
    for c in q[1:]:
        den = den * t + c
    return t * num / den


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of the uniforms `u`, bitwise equal to
    `scipy.special.ndtri`.

    Each of Cephes' three regions evaluates its own rational function on
    its own entries only: the central one of (y - 1/2)^2, and the two tails
    (x < 8 and x >= 8) of 1/x.  The domain is (0, 1] as `generate_path`
    draws it: the smallest uniform is 2^-54, and the largest draw
    k = 2^53 - 1 gives exactly 1 (k + 1/2 rounds up to 2^53), whose y is 0:
    it lies in no region and keeps its starting value +inf, as in Cephes.
    0 and NaN never occur.
    """
    flip = u > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - u, u)
    out = np.full(u.shape, np.inf)
    central = np.flatnonzero(y > _EXP_M2)
    yc = y[central] - 0.5
    out[central] = (yc + yc * _rational(yc * yc, _P0, _Q0)) * _S2PI
    tail = np.flatnonzero((0.0 < y) & (y <= _EXP_M2))
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    ratio = np.empty_like(x)
    for region, p, q in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
        ratio[region] = _rational(1.0 / x[region], p, q)
    xt = x - _libm_log(x) / x - ratio
    out[tail] = np.where(flip[tail], xt, -xt)
    return out


# Philox4x64-10: round multipliers, Weyl key bumps, and the (2, 1) columns
# that apply them to counter words 0 and 2 at once
_MASK64 = 2**64 - 1
_PHILOX_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _U32


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products of `a` with the round multipliers,
    built from 32-bit halves so that no partial sum passes 2^64."""
    a_lo, a_hi = a & _LO32, a >> _U32
    t = a_lo * _M_LO
    u = a_hi * _M_LO + (t >> _U32)
    v = a_lo * _M_HI + (u & _LO32)
    return a_hi * _M_HI + (u >> _U32) + (v >> _U32)


def _philox_draws(seed: int, n: int) -> np.ndarray:
    """The first `n` 53-bit draws (uint64) of the Philox4x64-10 stream keyed
    by `seed`, 0 <= seed < 2^128: block b (counter b + 1) gives draws
    4b .. 4b + 3, each the top 53 bits of one output word."""
    blocks = -(-n // 4)
    keys = np.array(
        [[[(seed + r * _PHILOX_BUMPS[0]) & _MASK64],
          [((seed >> 64) + r * _PHILOX_BUMPS[1]) & _MASK64]] for r in range(10)],
        np.uint64,
    )
    # rows: counter words 0 and 2 (multiplied), words 1 and 3 (xored in)
    mul = np.zeros((2, blocks), np.uint64)
    mul[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    xor = np.zeros((2, blocks), np.uint64)
    for key in keys:
        mul, xor = _mulhi(mul)[::-1] ^ xor ^ key, (mul * _PHILOX_M)[::-1]
    words = np.stack((mul[0], xor[0], mul[1], xor[1]), axis=1).reshape(-1)
    return words[:n] >> np.uint64(11)


def whole_steps(value: float, base: float) -> int | None:
    """How many whole steps of size `base` make up `value`; None when `value`
    is not an integer multiple of `base` up to rounding."""
    k = round(value / base)
    if abs(k * base - value) > 1e-9 * max(value, base):
        return None
    return k


def step_counts(t_end: float, dt_fine: float, dt: float | None = None,
                quantum: int = 1) -> tuple[int, int | None]:
    """Fine steps in [0, t_end] and in one step of size `dt` (None without
    a dt): the one owner of path alignment.

    dt_fine must be positive and finite; t_end finite and >= 0; dt finite
    and at least one fine step; t_end and dt whole multiples of
    `quantum * dt_fine`, and t_end a whole multiple of dt.  A ConfigError
    names the key that breaks a rule.
    """
    check_positive(dt_fine, "dt_fine")
    unit = f"{quantum} * dt_fine" if quantum > 1 else "dt_fine"
    counts = []
    for name, value in (("t_end", t_end), ("dt", dt)):
        if value is None and name == "dt":
            counts.append(None)
            continue
        check_number(value, is_finite, name, "be finite")
        n = whole_steps(value, dt_fine)
        if n is None or n % quantum:
            raise ConfigError(f"{name} {value} is not a whole multiple of "
                              f"{unit} ({quantum * dt_fine:g})")
        counts.append(n)
    n_total, m = counts
    if n_total < 0:
        raise ConfigError(f"t_end must be non-negative, got {t_end}")
    if m is None:
        return n_total, None
    if m < 1:
        raise ConfigError(f"dt must be at least one fine step of {dt_fine:g}, got {dt}")
    if n_total % m:
        raise ConfigError(f"t_end {t_end} is not a whole multiple of dt {dt}")
    return n_total, m


@dataclass(frozen=True)
class NoisePath:
    """Wiener increments of one path at the fine resolution, a
    one-dimensional float64 array, stored read-only.  Non-finite increments
    are kept: the largest draw gives +inf."""

    dt_fine: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        check_positive(self.dt_fine, "dt_fine")
        inc = np.array(self.increments, dtype=np.float64)
        if inc.ndim != 1:
            raise ConfigError(f"increments must be one-dimensional, got shape {inc.shape}")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return int(self.increments.size)

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt_fine

    def block_sums(self, start: int, width: int, count: int) -> np.ndarray:
        """Sums of `count` consecutive blocks of `width` fine increments from
        fine step `start`, each summed left to right: the one aggregation
        order of every coarse increment.  An empty block sums to 0.0."""
        stop = start + width * count
        if width < 0 or count < 0 or not (0 <= start <= stop <= self.n_steps):
            raise ValueError(f"fine-step range [{start}, {stop}) outside the path")
        if not width:
            return np.zeros(count)
        blocks = self.increments[start:stop].reshape(count, width)
        # accumulate is sequential, unlike the pairwise np.add.reduce
        return np.add.accumulate(blocks, axis=1)[:, -1]

    def increment_over(self, k_start: int, k_stop: int) -> float:
        """Increment over fine steps [k_start, k_stop), summed left to right."""
        return float(self.block_sums(k_start, k_stop - k_start, 1)[0])

    @property
    def total(self) -> float:
        """W(t_end), by the same aggregation order."""
        return self.increment_over(0, self.n_steps)


def check_seed(seed) -> int:
    """`seed` as an int; ConfigError unless it is a whole number in
    [0, 2**128) (`errors.check_whole`)."""
    return check_whole(seed, 0, SEED_LIMIT,
                       "seeds must be non-negative integers below 2**128")


def check_path_steps(n: int, error: type = ResourceLimit) -> None:
    """Raise `error` when a path of n fine increments exceeds
    `MAX_PATH_STEPS`: the one cap check, a ResourceLimit when a path is
    drawn and a ConfigError (`RunConfig`) when a study asks for one it could
    not draw."""
    if n > MAX_PATH_STEPS:
        raise error(f"path of {n} increments exceeds the cap of {MAX_PATH_STEPS}")


def generate_path(seed: int, t_end: float, dt_fine: float) -> NoisePath:
    """Draw the fine-resolution increments of stream `seed` over [0, t_end].

    The path depends only on (seed, t_end, dt_fine); the noise amplitude never
    enters.  Distinct seeds key distinct Philox streams, so there is no
    cross-stream reuse between workers.
    """
    seed = check_seed(seed)
    n = step_counts(t_end, dt_fine)[0]
    check_path_steps(n)
    draws = _philox_draws(seed, n)
    uniforms = (draws.astype(np.float64) + 0.5) / 2**53
    xi = _ndtri(uniforms)
    return NoisePath(float(dt_fine), np.sqrt(dt_fine) * xi)


def coarsen(path: NoisePath, factor: int) -> np.ndarray:
    """Increments at resolution factor * dt_fine, each the left-to-right sum
    of the fine increments it covers.  An integral float is taken as that
    integer (`errors.check_whole`)."""
    factor = check_whole(factor, 1, math.inf,
                         "coarsening factor must be a positive integer")
    n = path.n_steps
    if n % factor != 0:
        raise ConfigError(f"factor {factor} does not divide path length {n}")
    return path.block_sums(0, factor, n // factor)


def apply_increment(base: np.ndarray, amp: np.ndarray, dw: float, dt: float = 0.0,
                    corr: np.ndarray | None = None, slope: float = 1.0) -> np.ndarray:
    """base + amp dW [+ ((corr * 1/2) * slope) (dW^2 - dt)] as a new array:
    the one formula of a noise increment.  Without `corr` it is the
    Euler-Maruyama increment, with it the Milstein one, `corr` standing for
    sigma (with `slope` sigma') or for a transported sigma sigma' (slope 1).

    The result is bitwise that expression's: the same operations in the
    same order, operands at most commuted, never reassociated or folded.
    `amp` and `corr` are temporaries the caller hands over; `corr` is
    overwritten, and may be `amp` itself, since it is written only after
    `amp` is read.  `base` is never written.
    """
    new = amp * dw
    np.add(base, new, out=new)
    if corr is None:
        return new
    corr *= 0.5
    corr *= slope
    corr *= dw * dw - dt
    new += corr
    return new


def stochastic_update(base: np.ndarray, lin: np.ndarray, sigma: NoiseAmplitude,
                      dw: float, dt: float) -> np.ndarray:
    """Milstein update of the float64 array `base`, linearized at `lin`:
    base + sigma(lin) dW + (1/2) sigma(lin) sigma'(lin) (dW^2 - dt),
    by `apply_increment` on the amplitude `sigma(lin)`, which forms one
    value per cell for either noise kind.  It writes only arrays it
    allocates, the result and the amplitude; `base` and `lin` are never
    written.
    """
    amp = sigma(lin)
    return apply_increment(base, amp, dw, dt, amp, sigma.slope)


def _at_itself(c, update: Callable[[np.ndarray], np.ndarray]):
    """`update` of scalar, list, array or FieldState values c, handed them
    as a float64 array of at least one dimension: the one normalizer of the
    noise steps' input.  A scalar gives a scalar, and a FieldState a state
    that keeps its time stamp, since time bookkeeping belongs to the
    caller."""
    if isinstance(c, FieldState):
        return c.with_values(update(c.values))
    u = np.asarray(c, dtype=np.float64)
    if u.ndim:
        return update(u)
    return update(u[None])[0]


def em_step(c, sigma: NoiseAmplitude, dw: float):
    """Euler-Maruyama update c + sigma(c) dW of scalars, lists, arrays or a
    FieldState (`_at_itself`)."""
    return _at_itself(c, lambda u: apply_increment(u, sigma(u), dw))


def milstein_step(c, sigma: NoiseAmplitude, dw: float, dt: float):
    """Milstein update c + sigma(c) dW + (1/2) sigma(c) sigma'(c) (dW^2 - dt)
    of scalars, lists, arrays or a FieldState (`_at_itself`)."""
    return _at_itself(c, lambda u: stochastic_update(u, u, sigma, dw, dt))


def exact_linear_sde(c0, lam: float, w_t: float, t: float):
    """Closed-form solution of dX = lam * X dW:  c0 * exp(lam W_t - lam^2 t / 2).

    `NoiseAmplitude("linear", lam)` gates lam, so it is non-negative and
    finite; t must be non-negative and finite too.
    """
    lam = NoiseAmplitude("linear", lam).lam
    check_number(t, is_non_negative, "t", "be non-negative and finite")
    return c0 * np.exp(lam * w_t - 0.5 * lam * lam * t)
