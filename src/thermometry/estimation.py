"""Temperature estimators operating on energy-measurement counts.

Energy outcomes are exchangeable, so per-level counts are a sufficient
statistic for the multinomial likelihood; raw outcome sequences are
collapsed on ingestion. The likelihood is maximized by moment matching:
the stationarity condition is <H>_T = (sample mean energy), and <H>_T is
strictly increasing in T, so a bracketed bisection always converges.
Samples whose mean energy falls at or below the ground energy, or at or
above the infinite-temperature mean, admit no positive-T maximizer and
are surfaced as explicit statuses instead of being clamped.

Both estimators work on a batch: a (trials, levels) array of counts.
:func:`mle_batch` runs one bisection over every row at once and
:func:`bayes_batch` builds the posterior grid once for all rows; the
single-sample functions :func:`mle_temperature` and :func:`bayes_posterior`
are batches of one. Energies enter only through E - E_0, so shifting the
whole spectrum by a constant leaves every estimate unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, at_least, integer, positive_interval, temperature_power
from .thermal import Spectrum, gibbs_log_weights, shifted_means

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
        """Sample mean energy, E_0 plus the mean of E - E_0 (exact under a shift)."""
        k = np.asarray(self.counts, dtype=float)
        return self.spectrum.ground_energy + float((k @ self.spectrum._shifted) / self.total)


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its domain status.

    ``estimate`` is set only for INTERIOR results; boundary and
    non-invertible samples are reported, not clamped.
    """

    status: str
    estimate: float | None = None


def default_bracket(spectrum: Spectrum) -> tuple[float, float]:
    """MLE search bracket: ``BRACKET_SPAN`` times the spectrum spread E_max - E_0."""
    span = spectrum.spread
    if span <= 0.0:
        raise ValueError(
            "default bracket undefined for a single-level spectrum; pass an explicit bracket"
        )
    return (BRACKET_SPAN[0] * span, BRACKET_SPAN[1] * span)


def _counts_matrix(spectrum: Spectrum, counts) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != spectrum.n_levels:
        raise ValueError(
            f"counts must have shape (trials, {spectrum.n_levels}), got {counts.shape}"
        )
    return counts


def _moment_problem(spectrum: Spectrum, counts, bracket):
    """Bracket, shifted sample means and each row's status before any bisection.

    Bisection never changes a status, so this is also the final status.
    """
    if bracket is None:
        bracket = default_bracket(spectrum)
    bracket = positive_interval(bracket, "bracket")
    counts = _counts_matrix(spectrum, counts)
    de = spectrum._shifted
    m = spectrum._weights
    ebar = np.vecdot(counts.astype(float), de) / counts.sum(axis=1)
    edges = shifted_means(spectrum, np.array(bracket))
    # later masks win: all-ground, then non-invertible, then the bracket ends
    status = np.full(len(ebar), INTERIOR, dtype=object)
    status[edges[1] <= ebar] = AT_UPPER_BOUND
    status[edges[0] >= ebar] = AT_LOWER_BOUND
    status[ebar >= (m @ de) / m.sum()] = NON_INVERTIBLE
    status[ebar <= 0.0] = AT_LOWER_BOUND
    return bracket, ebar, status


def mle_status(
    spectrum: Spectrum,
    counts,
    bracket: tuple[float, float] | None = None,
) -> np.ndarray:
    """Status of every row's MLE (see :func:`mle_batch`), found without bisecting."""
    return _moment_problem(spectrum, counts, bracket)[2]


def mle_batch(
    spectrum: Spectrum,
    counts,
    bracket: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood temperatures for every row of a (trials, levels) count array.

    Solves <H - E_0>_T = (shifted sample mean) by one bisection over all rows
    on the monotone moment-matching equation; the default bracket is
    :func:`default_bracket`. Each row stops when its bracket is narrower
    than ``BISECT_RTOL`` times its midpoint or the midpoint stops moving.
    Returns ``(status, estimate)``: status per row (object array of
    INTERIOR / AT_LOWER_BOUND / AT_UPPER_BOUND / NON_INVERTIBLE) and the
    estimate, NaN wherever the status is not INTERIOR.
    """
    (lo0, hi0), ebar, status = _moment_problem(spectrum, counts, bracket)
    estimate = np.full(len(ebar), np.nan)
    rows = np.flatnonzero(status == INTERIOR)
    target = ebar[rows]
    lo = np.full(len(rows), lo0)
    hi = np.full(len(rows), hi0)
    while len(rows):
        total = lo + hi
        mid = 0.5 * total
        active = (hi - lo > BISECT_RTOL * 0.5 * total) & (mid > lo) & (mid < hi)
        if np.count_nonzero(active) < len(rows):
            estimate[rows[~active]] = mid[~active]
            rows, target, lo, hi, mid = (a[active] for a in (rows, target, lo, hi, mid))
        above = shifted_means(spectrum, mid) > target
        np.copyto(hi, mid, where=above)
        np.copyto(lo, mid, where=~above)
    return status, estimate


def mle_temperature(
    sample: SampleSet,
    bracket: tuple[float, float] | None = None,
) -> EstimateResult:
    """Maximum-likelihood temperature from outcome counts: :func:`mle_batch` of one.

    Returns AT_LOWER_BOUND / AT_UPPER_BOUND when the solution falls outside
    the bracket and NON_INVERTIBLE when the sample mean reaches the
    infinite-temperature mean (no positive-T solution).
    """
    status, estimate = mle_batch(sample.spectrum, [sample.counts], bracket)
    if status[0] != INTERIOR:
        return EstimateResult(status=status[0])
    return EstimateResult(status=INTERIOR, estimate=float(estimate[0]))


@dataclass(frozen=True)
class Posterior:
    """Flat-prior posterior over temperature on a quadrature grid."""

    mean: float
    sd: float
    temperatures: np.ndarray
    density: np.ndarray


def _bayes_grid(spectrum: Spectrum, prior: tuple[float, float], grid_size: int):
    """Uniform temperature grid, log weights log(m_n) - (E_n - E_0)/T on it, and log Z'."""
    lo, hi = positive_interval(prior, "prior interval")
    temperature_power(lo, -1, "prior interval lower end")
    at_least(grid_size, 64, "grid_size")
    temps = np.linspace(lo, hi, grid_size)
    temps.flags.writeable = False
    return (temps, *gibbs_log_weights(spectrum, temps))


def _posterior_row(grid, counts: np.ndarray, total: int):
    """(mean, sd, density) for one float count vector on a prebuilt grid."""
    temps, logw, logz = grid
    loglik = logw @ counts - total * logz
    top = loglik.max()
    if not math.isfinite(top):
        raise ValueError(f"prior interval {temps[[0, -1]].tolist()}: the sample's"
                         " log-likelihood has no finite maximum on the grid")
    loglik -= top
    density = np.exp(loglik)
    density /= np.trapezoid(density, temps)
    mean = float(np.trapezoid(temps * density, temps))
    sd = math.sqrt(max(float(np.trapezoid((temps - mean) ** 2 * density, temps)), 0.0))
    return mean, sd, density


def bayes_batch(
    spectrum: Spectrum,
    counts,
    prior: tuple[float, float],
    grid_size: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-prior posterior (mean, sd) for every row of a (trials, levels) count array.

    The grid is built once; each row's unnormalized log posterior is shifted
    by its maximum before exponentiation and normalized by trapezoid
    quadrature on the uniform grid (``grid_size`` >= 64 points). Only one
    grid-sized density is alive at a time. A row whose log-likelihood has no
    finite maximum on the grid raises ValueError.
    """
    grid = _bayes_grid(spectrum, prior, grid_size)
    counts = _counts_matrix(spectrum, counts)
    totals = counts.sum(axis=1).tolist()
    rows = counts.astype(float)
    means = np.empty(len(rows))
    sds = np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):  # each row checks its maximum
        for i, total in enumerate(totals):
            means[i], sds[i], _ = _posterior_row(grid, rows[i], total)
    return means, sds


def bayes_posterior(
    sample: SampleSet,
    prior: tuple[float, float],
    grid_size: int = 2048,
) -> Posterior:
    """Posterior mean/sd and density under a flat prior on ``prior``.

    The posterior of one sample on the grid of :func:`bayes_batch`.
    """
    grid = _bayes_grid(sample.spectrum, prior, grid_size)
    counts = np.asarray(sample.counts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd, density = _posterior_row(grid, counts, sample.total)
    density.flags.writeable = False
    return Posterior(mean=mean, sd=sd, temperatures=grid[0], density=density)


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
    counts = [integer(c, f"counts[{i}]") for i, c in enumerate(counts)]
    label = data.get("spectrum_label")
    if label is not None and label != spectrum.label:
        raise InputFormatError(
            f"sample spectrum_label {label!r} does not match spectrum label "
            f"{spectrum.label!r}"
        )
    try:
        sample = SampleSet(spectrum=spectrum, counts=tuple(counts))
    except ValueError as exc:
        raise InputFormatError(f"invalid sample: {exc}") from exc
    declared = data.get("M")
    if declared is not None and declared != sample.total:
        raise InputFormatError(
            f"declared M={declared!r} does not match the sum of counts {sample.total}"
        )
    return sample
