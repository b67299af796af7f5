"""Temperature estimators operating on energy-measurement counts.

Energy outcomes are exchangeable, so per-level counts are a sufficient
statistic for the multinomial likelihood; raw outcome sequences are
collapsed on ingestion. The likelihood is maximized by moment matching:
the stationarity condition is <H>_T = (sample mean energy), and <H>_T is
strictly increasing in T, so a bracketed bisection always converges.
Samples whose mean energy falls at or below the ground energy, or at or
above the infinite-temperature mean, admit no positive-T maximizer and
are surfaced as explicit statuses instead of being clamped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .thermal import Spectrum, gibbs_log_probs, gibbs_state, mean_energy

__all__ = [
    "INTERIOR",
    "AT_LOWER_BOUND",
    "AT_UPPER_BOUND",
    "NON_INVERTIBLE",
    "SampleSet",
    "EstimateResult",
    "Posterior",
    "default_bracket",
    "mle_temperature",
    "bayes_posterior",
    "sample_to_dict",
    "sample_from_dict",
]

INTERIOR = "interior"
AT_LOWER_BOUND = "at_lower_bound"
AT_UPPER_BOUND = "at_upper_bound"
NON_INVERTIBLE = "non_invertible"

# Default search bracket relative to the spectrum spread E_max - E_0.
BRACKET_SPAN = (1e-4, 1e4)
# Bisection stops when the bracket width falls below this fraction of T.
BISECT_RTOL = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Outcome counts of repeated energy measurements, one entry per level."""

    spectrum: Spectrum
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.spectrum.n_levels:
            raise ValueError(
                f"counts length {len(self.counts)} does not match "
                f"{self.spectrum.n_levels} spectrum levels"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative, got {self.counts}")
        if self.total < 1:
            raise ValueError("sample must contain at least one outcome")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def mean_energy(self) -> float:
        e = np.asarray(self.spectrum.energies)
        k = np.asarray(self.counts, dtype=float)
        return float((k @ e) / self.total)


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its domain status.

    ``estimate`` is set only for INTERIOR results; boundary and
    non-invertible samples are reported, not clamped.
    """

    status: str
    estimate: float | None = None
    posterior_mean: float | None = None
    posterior_sd: float | None = None


def _uniform_limit_mean(spectrum: Spectrum) -> float:
    """Mean energy in the T -> infinity limit, sum(m_n E_n)/sum(m_n)."""
    e = np.asarray(spectrum.energies)
    m = np.asarray(spectrum.multiplicities, dtype=float)
    return float((m @ e) / m.sum())


def default_bracket(spectrum: Spectrum) -> tuple[float, float]:
    """MLE search bracket: ``BRACKET_SPAN`` times the spectrum spread E_max - E_0."""
    span = spectrum.spread
    if span <= 0.0:
        raise ValueError(
            "default bracket undefined for a single-level spectrum; pass an explicit bracket"
        )
    return (BRACKET_SPAN[0] * span, BRACKET_SPAN[1] * span)


def mle_temperature(
    sample: SampleSet,
    bracket: tuple[float, float] | None = None,
) -> EstimateResult:
    """Maximum-likelihood temperature from outcome counts.

    Solves <H>_T = Ebar by bisection on the monotone moment-matching
    equation; the default bracket is :func:`default_bracket`. Returns
    AT_LOWER_BOUND / AT_UPPER_BOUND when the solution falls outside the
    bracket and NON_INVERTIBLE when the sample mean reaches the
    infinite-temperature mean (no positive-T solution).
    """
    spectrum = sample.spectrum
    if bracket is None:
        bracket = default_bracket(spectrum)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or lo >= hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")

    ebar = sample.mean_energy
    if ebar <= spectrum.ground_energy:
        return EstimateResult(status=AT_LOWER_BOUND)
    if ebar >= _uniform_limit_mean(spectrum):
        return EstimateResult(status=NON_INVERTIBLE)

    def moment_gap(T: float) -> float:
        return mean_energy(gibbs_state(spectrum, T)) - ebar

    if moment_gap(lo) >= 0.0:
        return EstimateResult(status=AT_LOWER_BOUND)
    if moment_gap(hi) <= 0.0:
        return EstimateResult(status=AT_UPPER_BOUND)
    while (hi - lo) > BISECT_RTOL * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if moment_gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return EstimateResult(status=INTERIOR, estimate=0.5 * (lo + hi))


def log_likelihood(sample: SampleSet, T: float) -> float:
    """Multinomial log-likelihood sum_n counts_n log p_n(T) (up to a constant)."""
    logp = gibbs_log_probs(sample.spectrum, T)
    return float(np.asarray(sample.counts, dtype=float) @ logp)


@dataclass(frozen=True)
class Posterior:
    """Flat-prior posterior over temperature on a quadrature grid."""

    mean: float
    sd: float
    temperatures: np.ndarray
    density: np.ndarray


def bayes_posterior(
    sample: SampleSet,
    prior: tuple[float, float],
    grid_size: int = 2048,
) -> Posterior:
    """Posterior mean/sd under a flat prior on ``prior``.

    The unnormalized log posterior is shifted by its maximum before
    exponentiation; the density is normalized by trapezoid quadrature on
    a uniform grid (``grid_size`` >= 64 points).
    """
    lo, hi = float(prior[0]), float(prior[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or lo >= hi:
        raise ValueError(f"prior interval must satisfy 0 < lo < hi, got {prior!r}")
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")

    spectrum = sample.spectrum
    counts = np.asarray(sample.counts, dtype=float)
    temps = np.linspace(lo, hi, grid_size)
    de = np.asarray(spectrum.gaps)
    logm = np.log(np.asarray(spectrum.multiplicities, dtype=float))
    # log p_n(T) on the grid: shape (grid, levels)
    logw = -np.outer(1.0 / temps, de) + logm
    top = logw.max(axis=1, keepdims=True)
    logz = top[:, 0] + np.log(np.exp(logw - top).sum(axis=1))
    loglik = logw @ counts - sample.total * logz

    loglik -= loglik.max()
    density = np.exp(loglik)
    density /= np.trapezoid(density, temps)
    mean = float(np.trapezoid(temps * density, temps))
    sd = math.sqrt(max(float(np.trapezoid((temps - mean) ** 2 * density, temps)), 0.0))
    density.flags.writeable = False
    temps.flags.writeable = False
    return Posterior(mean=mean, sd=sd, temperatures=temps, density=density)


# ---------------------------------------------------------------------------
# Sample interchange format: {"spectrum_label": .., "counts": [..], "M": ..}
# ---------------------------------------------------------------------------

def sample_to_dict(sample: SampleSet) -> dict:
    return {
        "spectrum_label": sample.spectrum.label,
        "counts": list(sample.counts),
        "M": sample.total,
    }


def sample_from_dict(data: dict, spectrum: Spectrum) -> SampleSet:
    """Rebuild a sample against ``spectrum``, cross-checking label, length and M."""
    if not isinstance(data, dict):
        raise InputFormatError("sample must be an object with a 'counts' array")
    counts = data.get("counts")
    if not isinstance(counts, list) or not counts:
        raise InputFormatError("sample is missing a non-empty 'counts' array")
    for i, c in enumerate(counts):
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise InputFormatError(f"counts[{i}] must be an integer, got {c!r}")
    label = data.get("spectrum_label")
    if label is not None and label != spectrum.label:
        raise InputFormatError(
            f"sample spectrum_label {label!r} does not match spectrum label "
            f"{spectrum.label!r}"
        )
    try:
        sample = SampleSet(spectrum=spectrum, counts=tuple(int(c) for c in counts))
    except ValueError as exc:
        raise InputFormatError(f"invalid sample: {exc}") from exc
    declared = data.get("M")
    if declared is not None and declared != sample.total:
        raise InputFormatError(
            f"declared M={declared!r} does not match the sum of counts {sample.total}"
        )
    return sample
