"""Seed-ensemble accuracy and spread estimators.

Both error notions reduce trajectory endpoints against a reference with the
same spatial L1 convention (mean |.| over cells):

    weak    L1 of the seed-averaged field minus the reference
            (averaging before the absolute value lets noise cancel)
    strong  seed average of the per-sample L1 distances
            (absolute value inside, so noise never cancels)

Jensen's inequality makes weak <= strong for every ensemble; summaries verify
it.  Blown-up samples are excluded from the estimators but always counted and
reported; silent exclusion is not an option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grid import FieldState, l1_distance


@dataclass(frozen=True)
class EnsembleSample:
    """One seed's contribution: the endpoint state, or the blow-up time."""

    seed: int
    scheme: str
    iterations: int
    dt: float
    endpoint: FieldState | None
    blowup_time: float | None = None

    def __post_init__(self) -> None:
        if (self.endpoint is None) == (self.blowup_time is None):
            raise ValueError("a sample carries exactly one of endpoint, blowup_time")


def _usable(samples: Sequence[EnsembleSample]) -> list[EnsembleSample]:
    if not samples:
        raise ValueError("empty ensemble")
    good = [s for s in samples if s.endpoint is not None]
    if not good:
        raise ValueError("no usable samples: every trajectory blew up")
    return good


def _stack(samples: Sequence[EnsembleSample]) -> np.ndarray:
    grid = samples[0].endpoint.grid
    for s in samples[1:]:
        if not s.endpoint.grid.compatible_with(grid):
            raise ValueError("ensemble mixes grids")
    return np.stack([s.endpoint.values for s in samples])


def weak_error(samples: Sequence[EnsembleSample], reference: FieldState) -> float:
    """L1 distance of the seed-averaged endpoint field from the reference."""
    good = _usable(samples)
    mean_field = _stack(good).mean(axis=0)
    return l1_distance(good[0].endpoint.with_values(mean_field), reference)


def strong_error(
    samples: Sequence[EnsembleSample],
    reference: FieldState | Mapping[int, FieldState],
) -> float:
    """Seed average of per-sample L1 distances from the reference.

    The reference is either one state (shared, e.g. the noise-free solution)
    or a per-seed mapping for coupled comparisons; a missing seed in the
    mapping is a pairing error.
    """
    good = _usable(samples)
    total = 0.0
    for s in good:
        if isinstance(reference, FieldState):
            ref = reference
        else:
            try:
                ref = reference[s.seed]
            except KeyError:
                raise ValueError(
                    f"coupled reference has no entry for seed {s.seed}"
                ) from None
        total += l1_distance(s.endpoint, ref)
    return total / len(good)


def ensemble_variance(
    samples: Sequence[EnsembleSample], ddof: int = 0
) -> tuple[np.ndarray, float]:
    """Per-cell variance over seeds and its mean over cells.

    Two-pass form (mean first, then squared deviations), clamped at zero, so
    the population identity mean(x^2) - mean(x)^2 is evaluated stably.
    ddof=1 gives the sample variance.
    """
    good = _usable(samples)
    if len(good) < 2:
        raise ValueError(f"variance needs >= 2 usable samples, got {len(good)}")
    if ddof not in (0, 1):
        raise ValueError(f"ddof must be 0 or 1, got {ddof}")
    vals = _stack(good)
    mean = vals.mean(axis=0)
    per_cell = np.square(vals - mean).sum(axis=0) / (len(good) - ddof)
    per_cell = np.maximum(per_cell, 0.0)
    return per_cell, float(per_cell.mean())


#: two-sided 95% Student t quantiles t(0.975, df) for df = 1 .. 30
_T975 = (
    12.7062047361747, 4.30265272974946, 3.18244630528371, 2.77644510519779,
    2.57058183563631, 2.44691185114498, 2.36462425159278, 2.30600413520417,
    2.2621571627982, 2.22813885198627, 2.20098516009164, 2.17881282966723,
    2.16036865646279, 2.1447866879178, 2.13144954555978, 2.11990529922125,
    2.10981557783332, 2.10092204024104, 2.09302405440831, 2.08596344726586,
    2.07961384472768, 2.07387306790403, 2.06865761041905, 2.06389856162802,
    2.0595385527533, 2.05552943864287, 2.05183051648028, 2.04840714179525,
    2.0452296421327, 2.04227245630124,
)


def _t975(df: int) -> float:
    """t(0.975, df): the table up to 30, then the Cornish-Fisher expansion
    in 1/df (Abramowitz & Stegun 26.7.5), within 2e-8 relative there."""
    if df <= len(_T975):
        return _T975[df - 1]
    z = 1.959963984540054  # the normal quantile, the limit as df grows
    g = ((z**3 + z) / 4,
         (5 * z**5 + 16 * z**3 + 3 * z) / 96,
         (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
         (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160)
    return z + sum(gk / df ** (k + 1) for k, gk in enumerate(g))


@dataclass(frozen=True)
class FitResult:
    """Log-log least-squares slope with its 95% half-width: the Student t
    quantile t(0.975, n_used - 2) times the standard error of the slope."""

    slope: float
    half_width: float
    n_used: int
    excluded: tuple[int, ...] = ()


def fit_order(pairs: Sequence[tuple[float, float]]) -> FitResult:
    """Fit error ~ C * dt^p over (dt, error) pairs; returns p.

    dt values must be finite and strictly decreasing.  Non-positive and
    non-finite errors are excluded (flagged by index); fewer than 3
    surviving points is a fit failure.
    """
    if len(pairs) < 3:
        raise ValueError(f"order fit needs >= 3 (dt, error) pairs, got {len(pairs)}")
    dts = np.asarray([p[0] for p in pairs], dtype=np.float64)
    errs = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not np.all(np.isfinite(dts)):
        raise ValueError("dt values must be finite")
    if np.any(dts <= 0.0):
        raise ValueError("dt values must be positive")
    if np.any(np.diff(dts) >= 0.0):
        raise ValueError("dt values must be strictly decreasing")
    keep = (errs > 0.0) & np.isfinite(errs)
    excluded = tuple(int(i) for i in np.nonzero(~keep)[0])
    if keep.sum() < 3:
        raise ValueError(
            f"order fit failed: only {int(keep.sum())} usable points after "
            f"excluding non-positive or non-finite errors at indices {excluded}"
        )
    x = np.log(dts[keep])
    y = np.log(errs[keep])
    n = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    stderr = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    return FitResult(slope, _t975(n - 2) * stderr, n, excluded)


@dataclass(frozen=True)
class EnsembleReport:
    """Estimators of one (scheme, iterations, dt) cell."""

    weak: float
    strong: float
    variance: np.ndarray
    variance_mean: float
    n_seeds_used: int
    blowup_count: int


def summarize(
    samples: Sequence[EnsembleSample], reference: FieldState, ddof: int = 0
) -> EnsembleReport:
    """Evaluate all estimators of a cell and verify the weak <= strong bound."""
    good = _usable(samples)
    weak = weak_error(samples, reference)
    strong = strong_error(samples, reference)
    if weak > strong + 1e-12 * (1.0 + strong):
        raise RuntimeError(
            f"estimator inconsistency: weak {weak} exceeds strong {strong}"
        )
    if len(good) >= 2:
        per_cell, mean_var = ensemble_variance(samples)
    else:
        per_cell = np.zeros_like(good[0].endpoint.values)
        mean_var = 0.0
    return EnsembleReport(
        weak=weak,
        strong=strong,
        variance=per_cell,
        variance_mean=mean_var,
        n_seeds_used=len(good),
        blowup_count=len(samples) - len(good),
    )
