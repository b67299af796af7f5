"""Temperature estimators operating on energy-measurement counts.

Energy outcomes are exchangeable, so per-level counts are a sufficient statistic for the
multinomial likelihood, and each estimator reads a sample only through a smaller one: the
MLE through the sample mean of E - E_0, Bayes through S = sum_n k_n (E_n - E_0) and the
shot count M. :func:`mle_of_means` and :func:`bayes_of_statistics` take those statistics.
:func:`mle_batch` and :func:`bayes_batch` are adapters over the same kernels: they take a
(trials, levels) array of counts, form each row's statistic in one checked step (a row with
a negative or non-finite count, or with no outcome, raises ValueError) and estimate each
distinct one once. :func:`mle_temperature` and :func:`bayes_posterior` are batches of one.

The likelihood is maximized by moment matching: the stationarity condition is <H>_T =
(sample mean energy), and <H>_T is strictly increasing in T, so a bracketed bisection
always converges. Means at or below the ground energy, or at or above the
infinite-temperature mean, admit no positive-T maximizer and are surfaced as explicit
statuses instead of being clamped. A batch of at most ``SCALAR_ROWS`` means walks each in
turn, in Python floats, with decisions guessed from a root guess (a closed form for two
levels, a table otherwise, then Newton steps); once the walked rows hold a block of
midpoints, every guessed decision among them is checked, one mean evaluation per block. A
row whose guesses all hold has the bits of the plain bisection, and any other row is
bisected again with the real decision. Larger batches, and batches too large for 8 steps
of every row in a check block, are bisected plainly, one mean evaluation per step. On two
levels every mean, the checked midpoints, the bisection steps, the bracket edges and the
Newton steps of the guess, takes the closed form of :func:`shifted_means`, about 5 ns a
midpoint where the Gibbs rows took about 50; more levels take the Gibbs rows. The walk
and the plain bisection cost the same at 77-82 rows of 2 or of 5 levels.
The Bayes grid is built once for all pairs (S, M), which take their posteriors in blocks
of at most 2^14 floats, so memory does not grow with their number; no step mixes
samples, so a pair has the bits of its posterior alone wherever it sits in a block, and
each posterior mean lies in its prior. Energies enter only through E - E_0, so shifting
the whole spectrum by a constant leaves every estimate unchanged.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InputFormatError,
    at_least,
    integer,
    number,
    positive_interval,
    temperature_power,
)
from .thermal import Spectrum, _variances, gibbs_log_weights, gibbs_probs, shifted_means

__all__ = [
    "INTERIOR",
    "AT_LOWER_BOUND",
    "AT_UPPER_BOUND",
    "NON_INVERTIBLE",
    "MIN_GRID_SIZE",
    "SampleSet",
    "EstimateResult",
    "Posterior",
    "default_bracket",
    "mle_of_means",
    "bayes_of_statistics",
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
# MLE root guess: log-spaced table temperatures (more than two levels), then at most
# GUESS_NEWTON Newton steps in ln T, fewer once every step is below GUESS_STEP.
GUESS_TABLE = 128
GUESS_NEWTON = 12
GUESS_STEP = 1e-13
# Batches of at most this many rows walk the guessed bisection in Python floats, larger
# ones are bisected plainly: the two cost the same at 77-82 rows of 2 or of 5 levels.
SCALAR_ROWS = 80
# Fewest points of a Bayes posterior grid.
MIN_GRID_SIZE = 64
# Most floats in one block of Bayes log-likelihoods (BLOCK // grid_size rows, at least one)
# and of MLE check occupations (BLOCK // levels midpoints).
BLOCK = 2**14


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
        if not all(c < math.inf for c in self.counts):  # NaN compares False
            raise ValueError(f"counts must be finite, got {self.counts}")
        if self.total < 1:
            raise ValueError("sample must contain at least one outcome")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def mean_energy(self) -> float:
        """Sample mean energy, E_0 plus the mean of E - E_0 (exact under a shift)."""
        return self.spectrum.ground_energy + float(_sample_means(self.spectrum, [self.counts])[0])


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


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a float vector, else ValueError naming ``name`` if one is not finite."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ValueError(f"{name} must be a vector of finite numbers")
    return values


def _power_of_two_below(x: float) -> float:
    """The power of two at or below ``x`` > 0 (1/2 for 0)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _statistics(spectrum: Spectrum, counts, scale: float) -> tuple[np.ndarray, ...]:
    """The float counts of a (trials, levels) count array, each row's S = sum_n k_n (E_n - E_0)
    in units of ``scale`` (inf past the float range) and its M, exact below 2^53. Any other
    shape, or a row with a negative or non-finite count or with M < 1, raises ValueError.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != spectrum.n_levels:
        raise ValueError(f"counts must have shape (trials, {spectrum.n_levels}),"
                         f" got {counts.shape}")
    least, most = np.minimum.reduce, np.maximum.reduce  # past ndarray.min's Python wrapper
    with np.errstate(over="ignore"):
        M = counts.sum(axis=1)
        # NaN fails every comparison; checked before S, where inf x 0 would warn
        if len(M) and not (least(counts, None) >= 0.0 and least(M) >= 1.0 and most(M) < math.inf):
            raise ValueError("counts must be finite and non-negative, each row with M >= 1")
        return counts, np.vecdot(counts, spectrum._shifted / scale), M


def _sample_means(spectrum: Spectrum, counts) -> np.ndarray:
    """Sample mean of E - E_0 of each row of a (trials, levels) count array, checked and
    summed by :func:`_statistics`.

    Above a spread of 1 the energies are summed in units of the power of two at or below it,
    as Bayes sums S, so the sum stays below 2 M. Levels within ``MERGE_RTOL`` spreads are
    merged, so below M = 4e295 every step is normal and the bits are the unscaled sum's
    wherever that is finite. A unit below 1 would round a subnormal mean twice. A row whose
    sum passes the float range (M above half of it) is summed again in units of twice that
    power of two, below M; every finite sum keeps its bits.
    """
    scale = max(1.0, _power_of_two_below(spectrum.spread))
    counts, sums, totals = _statistics(spectrum, counts, scale)
    means = sums / totals * scale
    over = np.isinf(sums)
    if over.any():
        halves = np.vecdot(counts[over], spectrum._shifted / scale / 2.0)
        means[over] = halves / totals[over] * 2.0 * scale
    return means


def _distinct(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct tuple of ``keys`` (equal-length vectors) and each row's
    index among those first rows.

    Rows are ordered by ``np.lexsort`` (stable, so the first of equal rows comes first) and a
    new tuple starts wherever a key changes; past the keys, memory is three index vectors
    and one sorted key at a time.
    """
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    group = np.cumsum(new)
    group -= 1
    inverse = np.empty_like(order)
    inverse[order] = group
    return order[new], inverse


def _bisect(spectrum: Spectrum, target: np.ndarray, lo0: float, hi0: float) -> np.ndarray:
    """The plain bisection for each root T of <H - E_0>_T = ``target`` on (lo0, hi0); returns
    each row's stopping midpoint.

    Each step takes one :func:`shifted_means` call for all active rows and decides that a
    root lies below its midpoint where the mean there exceeds the target. A row stops when
    its bracket is narrower than ``BISECT_RTOL`` times its midpoint or the midpoint stops
    moving. A row's steps depend only on the bracket and on its own decisions.
    """
    n = len(target)
    rows = np.arange(n)
    lo = np.full(n, lo0)
    hi = np.full(n, hi0)
    estimate = np.empty(n)
    while len(rows):
        total = lo + hi
        mid = 0.5 * total
        active = (hi - lo > BISECT_RTOL * 0.5 * total) & (mid > lo) & (mid < hi)
        if np.count_nonzero(active) < len(rows):
            estimate[rows[~active]] = mid[~active]
            rows, target, lo, hi, mid = (a[active] for a in (rows, target, lo, hi, mid))
        up = shifted_means(spectrum, mid) > target
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=~up)
    return estimate


def _scalar_walk(
    spectrum: Spectrum, target: np.ndarray, guess: np.ndarray, lo0: float, hi0: float
) -> tuple[np.ndarray, np.ndarray]:
    """The bisection of each row in turn, in Python floats, on the decision "midpoint above
    ``guess``"; returns each row's stopping midpoint and whether a real decision differs.

    Every step has the float operations of a :func:`_bisect` step, stopping test included,
    so a row visits the midpoints that :func:`_bisect` gives it under the same decisions.
    Once the rows walked since the last check hold at least ``BLOCK`` // levels midpoints,
    and after the last row, the real decision at each of them is taken by
    :func:`shifted_means` on at most that many midpoints a call, so the record holds at most
    one block plus one row of midpoints.
    """
    chunk = max(1, BLOCK // spectrum.n_levels)
    rtol = BISECT_RTOL * 0.5
    found = []
    wrong = np.zeros(len(target), dtype=bool)
    mids = array("d")  # the unchecked midpoints, 8 B each
    record = mids.append
    ends = []  # where each unchecked row's midpoints end in ``mids``
    for row, g in enumerate(guess.tolist()):
        lo, hi = lo0, hi0
        while True:
            total = lo + hi
            mid = 0.5 * total
            if not (hi - lo > rtol * total and lo < mid < hi):
                break
            record(mid)
            if mid > g:
                hi = mid
            else:
                lo = mid
        found.append(mid)
        ends.append(len(mids))
        if len(mids) >= chunk or row == len(target) - 1:
            rows = np.repeat(np.arange(row + 1 - len(ends), row + 1), np.diff(ends, prepend=0))
            checked = np.array(mids)
            for start in range(0, len(checked), chunk):
                r, m = rows[start:start + chunk], checked[start:start + chunk]
                wrong[r[(shifted_means(spectrum, m) > target[r]) != (m > guess[r])]] = True
            del mids[:]
            ends.clear()
    return np.array(found), wrong


def _root_guess(spectrum: Spectrum, target: np.ndarray, lo0: float, hi0: float) -> np.ndarray:
    """A guess at each root T of <H - E_0>_T = ``target`` in [lo0, hi0].

    1/T follows from the logit y = ln(<H - E_0>) - ln(spread - <H - E_0>) of the target. For
    two levels y = ln(m_1/m_0) - spread/T, so 1/T has a closed form, taken where the exact
    <H> passes the target by half its ulp: the bisection's decision "<H> above the target"
    turns there. For more levels 1/T is interpolated against y on a table of
    ``GUESS_TABLE`` log-spaced temperatures. Newton steps in ln T, d<H>/d ln T = Var(H)/T,
    with Var(H) = <H - E_0> (spread - <H - E_0>) on two levels, follow until every step is
    below ``GUESS_STEP`` or ``GUESS_NEWTON`` were taken, each clipped to the bracket; where
    the variance is 0 or a step is not finite, the guess stays where it was. They take the
    guess to the root of the computed <H>, which a formula can miss by rounding. Its accuracy
    sets how many rows are bisected again, never the bits of an estimate.
    """
    de = spectrum._shifted
    top = spectrum.spread
    lnlo, lnhi = math.log(lo0), math.log(hi0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logit = np.log(target) - np.log(top - target)
        if spectrum.n_levels == 2:
            # y half an ulp of <H> above the target, by dy/d<H> = spread / (<H> (spread - <H>))
            logit += np.spacing(target) / 2.0 * top / (target * (top - target))
            m0, m1 = spectrum.multiplicities
            beta = (math.log(m1 / m0) - logit) / top
        else:
            # below E_1/1000 every excited occupation is exp(-1000) = 0, so no root lies
            # there; a root above 1e18 times the spread needs a target within 1e-18 spreads
            # of the T -> inf mean
            a, b = max(lo0, de[1] / 1e3), min(hi0, 1e18 * top)
            if a >= b:
                a, b = lo0, hi0
            table = np.exp(np.linspace(math.log(a), math.log(b), GUESS_TABLE))
            table[[0, -1]] = a, b  # exp(ln T) need not round back to T
            means = shifted_means(spectrum, table)
            y = np.log(means) - np.log(top - means)
            finite = np.isfinite(y)  # a table mean of 0 has y = -inf
            beta = np.interp(logit, y[finite], 1.0 / table[finite])
        x = np.clip(-np.log(beta), lnlo, lnhi)
        for _ in range(GUESS_NEWTON):
            t = np.exp(x)
            if spectrum.n_levels == 2:  # p_0 p_1 d_1^2 = <H - E_0> (d_1 - <H - E_0>)
                mean = shifted_means(spectrum, t)
                var = mean * (top - mean)
            else:
                probs = gibbs_probs(spectrum, t)[0]
                mean = np.vecdot(probs, de)
                var = _variances(probs, mean, de)
            step = (mean - target) * t / var
            x = np.where(np.isfinite(step) & (var > 0.0), np.clip(x - step, lnlo, lnhi), x)
            if not (abs(step) > GUESS_STEP).any():
                break
        return np.clip(np.exp(x), lo0, hi0)


def _solve(spectrum: Spectrum, target: np.ndarray, lo0: float, hi0: float) -> np.ndarray:
    """Each root T of <H - E_0>_T = ``target`` where the bisection on (lo0, hi0) stops.

    The bisection is guessed, then checked: each row walks with the decision "midpoint
    above :func:`_root_guess`" (:func:`_scalar_walk`), which also takes the real decision at
    every midpoint it visits. A row whose decisions all agree visited the midpoints of the
    plain bisection and stopped at the same one, so its estimate has the same bits; the
    other rows go through the plain bisection, :func:`_bisect`, again. Batches of more than
    ``SCALAR_ROWS`` rows, or where a block holds fewer than 8 steps of all rows, go through
    :func:`_bisect` from the start.
    """
    n = len(target)
    # with fewer than 8 steps to a check block, the calls saved do not pay for the guessed walk
    if not 0 < n <= min(SCALAR_ROWS, BLOCK // spectrum.n_levels // 8):
        return _bisect(spectrum, target, lo0, hi0)
    guess = _root_guess(spectrum, target, lo0, hi0)
    found, wrong = _scalar_walk(spectrum, target, guess, lo0, hi0)
    if wrong.any():
        again = np.flatnonzero(wrong)
        found[again] = _bisect(spectrum, target[again], lo0, hi0)
    return found


def _mle_of_means(spectrum: Spectrum, ebar: np.ndarray, bracket) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mle_of_means` of the finite means ``ebar``, past the check on them."""
    bracket = default_bracket(spectrum) if bracket is None else bracket
    lo0, hi0 = positive_interval(bracket, "bracket")
    de = spectrum._shifted
    m = spectrum._weights
    # -(E_n - E_0)/T past the float range at a tiny T is an occupation of exactly 0
    with np.errstate(over="ignore"):
        edges = shifted_means(spectrum, np.array((lo0, hi0)))
        # later masks win: all-ground, then non-invertible, then the bracket ends
        status = np.full(len(ebar), INTERIOR, dtype=object)
        status[edges[1] <= ebar] = AT_UPPER_BOUND
        status[edges[0] >= ebar] = AT_LOWER_BOUND
        status[ebar >= (m @ de) / m.sum()] = NON_INVERTIBLE
        status[ebar <= 0.0] = AT_LOWER_BOUND
        estimate = np.full(len(ebar), np.nan)
        interior = status == INTERIOR
        estimate[interior] = _solve(spectrum, ebar[interior], lo0, hi0)
    return status, estimate


def mle_of_means(
    spectrum: Spectrum, means, bracket: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Status and maximum-likelihood temperature for each sample mean of E - E_0.

    Solves <H - E_0>_T = mean on the bracket, :func:`default_bracket` by default. A mean at or
    below 0 is AT_LOWER_BOUND; else one at or above the infinite-temperature mean is
    NON_INVERTIBLE; else one at or past <H - E_0> at a bracket end is AT_LOWER_BOUND or
    AT_UPPER_BOUND. Returns ``(status, estimate)``: the status of each mean (object array of
    INTERIOR / AT_LOWER_BOUND / AT_UPPER_BOUND / NON_INVERTIBLE) and its estimate, NaN
    wherever the status is not INTERIOR. Every mean is solved, equal ones too, and an
    estimate depends on nothing but its mean and the bracket.

    The bisection is guessed, then checked (:func:`_solve`); every estimate has the bits of
    the plain bisection that calls :func:`shifted_means` once per step and stops where the
    bracket is narrower than ``BISECT_RTOL`` times its midpoint or the midpoint stops moving.
    Memory past the per-mean vectors is one step's Gibbs occupations (means x levels floats)
    or the walk's unchecked midpoints: at most one block (``BLOCK`` // levels) plus one
    mean's steps, each with its index and decision, and the occupations of at most a block
    of them. It grows with the step count (about 57 on the default bracket, over 1000 on
    (5e-324, 1e300)) only by one mean's, never by steps x means. A mean that is not finite,
    or a bracket that is not 0 < lo < hi, raises ValueError.
    """
    return _mle_of_means(spectrum, _finite(means, "sample means"), bracket)


def mle_batch(
    spectrum: Spectrum, counts, bracket: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mle_of_means` of every row of a (trials, levels) count array.

    Each distinct sample mean (:func:`_sample_means`, :func:`_distinct`) is solved once, and
    its result goes to every row with it. Past the float counts, the means and the index
    vectors, memory is that of :func:`mle_of_means`.
    """
    means = _sample_means(spectrum, counts)
    first, inverse = _distinct(means)
    status, estimate = _mle_of_means(spectrum, means[first], bracket)
    return status[inverse], estimate[inverse]


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


class _Grid(NamedTuple):
    """A Bayes posterior grid (:func:`_bayes_grid`); :func:`_statistics` takes S in ``scale``."""

    temps: np.ndarray  # uniform temperatures on the prior
    t: np.ndarray  # the same grid in units of ``unit``
    unit: float  # the power of two at or below the prior's upper end
    scale: float  # the power of two S and the energies are taken in
    basis: np.ndarray  # -``scale``/T on the grid
    logz: np.ndarray  # log Z' on the grid
    w: np.ndarray  # trapezoid weights of t: dt/2 at the two ends, (dt_(i-1) + dt_i)/2 inside
    wt: np.ndarray  # w t


def _bayes_grid(spectrum: Spectrum, prior: tuple[float, float], grid_size: int) -> _Grid:
    """The posterior grid of ``grid_size`` points on ``prior``.

    ``scale`` is the power of two at or below the spectrum spread, or below lo * max / 2
    where that is smaller, so the basis is finite on the whole grid; S / ``scale`` is below
    2 M, or below 4 M spread / (lo max) in the second case, finite unless lo is within a
    factor 4 M of 1/max. Scaling by a power of two is exact, so S/T = (S / ``scale``)
    (``scale``/T) has the same bits for any such ``scale`` wherever both factors are normal
    floats, and the posterior moments stay finite and nonzero where T^2 would not.
    """
    lo, hi = positive_interval(prior, "prior interval")
    temperature_power(lo, -1, "prior interval lower end")
    at_least(grid_size, MIN_GRID_SIZE, "grid_size")
    temps = np.linspace(lo, hi, grid_size)
    temps.flags.writeable = False
    unit = _power_of_two_below(hi)
    scale = _power_of_two_below(min(spectrum.spread, lo * sys.float_info.max / 2.0))
    t = temps / unit
    dt = np.diff(t)
    w = np.append(dt, 0.0)
    w[1:] += dt
    w /= 2.0
    logz = gibbs_log_weights(spectrum, temps)[1]
    return _Grid(temps, t, unit, scale, -scale / temps, logz, w, w * t)


def _posterior_means(
    grid: _Grid, S: np.ndarray, M: np.ndarray, density: np.ndarray | None = None
) -> np.ndarray:
    """Posterior mean per ``unit`` of every sample given by its statistics S (in units of
    ``scale``) and M, on a prebuilt grid; with ``density``, of shape (samples, grid size),
    each sample's normalised density per ``unit`` goes there too.

    A sample enters the likelihood only through S and M: the log-likelihood is
    -S/T - M ln Z'(T) up to the T-independent sum_n k_n ln m_n, which the maximum shift
    removes. Samples go through in runs of equal M (one run per shot count where they come
    sorted by M), and each run in blocks of at most ``BLOCK`` floats, in one buffer and one
    row, so the buffers do not grow with their number. A run forms its row M x log Z' once;
    a block's log-likelihood is the broadcast product S x basis less that row, each element
    the rounded product that a per-sample product would give. The norm and first moment are
    one dot product per sample with the trapezoid weights w and w t: no operation mixes
    samples, so each gets the bits of its posterior alone, wherever it sits in a block. Only
    rounding takes a mean, an average over t, past an end of t: it is clipped to t's ends.
    """
    temps, basis, logz, w, wt = grid.temps, grid.basis, grid.logz, grid.w, grid.wt
    step = max(1, BLOCK // len(temps))
    loglik = np.empty((min(step, len(S)), len(temps)))
    shared = np.empty(len(temps))  # M x log Z' of the current run
    runs = (np.flatnonzero(M[1:] != M[:-1]) + 1).tolist()
    bounds = [0, *runs, len(S)] if len(S) else []
    means = np.empty(len(S))
    with np.errstate(over="ignore"):  # each sample checks its maximum
        for run, end in zip(bounds, bounds[1:]):
            np.multiply(M[run], logz, out=shared)
            for start in range(run, end, step):
                stop = min(start + step, end)
                block = loglik[:stop - start]
                np.multiply(S[start:stop, None], basis, out=block)
                block -= shared
                top = block.max(axis=1)
                if not np.isfinite(top).all():  # a sample impossible (likelihood 0) everywhere
                    raise ValueError(f"prior interval {temps[[0, -1]].tolist()}: the sample's"
                                     " log-likelihood has no finite maximum on the grid")
                block -= top[:, None]
                np.exp(block, out=block)
                norm = np.vecdot(block, w)
                np.divide(np.vecdot(block, wt), norm, out=means[start:stop])
                if density is not None:
                    np.divide(block, norm[:, None], out=density[start:stop])
    return np.clip(means, grid.t[0], grid.t[-1], out=means)


def bayes_of_statistics(
    spectrum: Spectrum, S, M, prior: tuple[float, float], grid_size: int
) -> np.ndarray:
    """Flat-prior posterior mean for each pair (S, M): S = sum_n k_n (E_n - E_0) in energy
    units and M the shot count of a sample.

    A sample's log-likelihood is -S/T - M ln Z'(T), less a constant, on the uniform grid of
    ``grid_size`` >= ``MIN_GRID_SIZE`` points on ``prior``. It is shifted by its maximum
    before exponentiation, and normalised and averaged with trapezoid weights
    (:func:`_posterior_means`). Every pair takes its own posterior, equal ones too, and its
    mean lies in the prior. S is divided by a power of two, the grid's ``scale``, which is
    exact wherever the quotient is normal. Pairs sorted by M share one row M ln Z'(T) per
    shot count. A statistic that is not finite, an M below 1, a bad prior or grid size, or
    a pair whose log-likelihood has no finite maximum on the grid raises ValueError.

    Equal S give equal means, but S formed from counts need not be equal where the exact
    sums are: on levels E_n - E_0 = j_n u of an integer lattice whose unit u is not a power
    of two, counts with one integer sum sum_n k_n j_n can round to S a few ulps apart. Exact
    code forms S as that integer lattice sum times the unit u, one rounding, so each lattice
    point has one S and one mean.
    """
    grid = _bayes_grid(spectrum, prior, grid_size)
    S, M = _finite(S, "S"), _finite(M, "M")
    if len(S) != len(M) or not (M >= 1.0).all():
        raise ValueError("S and M must have one length, and every M must be >= 1")
    return _posterior_means(grid, S / grid.scale, M) * grid.unit


def bayes_batch(
    spectrum: Spectrum, counts, prior: tuple[float, float], grid_size: int
) -> np.ndarray:
    """:func:`bayes_of_statistics` of every row of a (trials, levels) count array.

    Each row's S, in units of the grid's ``scale``, and M are checked and taken by
    :func:`_statistics`, and the float counts released; each distinct pair
    (:func:`_distinct`, sorted by M first) takes one posterior, whose mean goes to every row
    with it.
    """
    grid = _bayes_grid(spectrum, prior, grid_size)
    S, M = _statistics(spectrum, counts, grid.scale)[1:]
    first, inverse = _distinct(S, M)
    means = _posterior_means(grid, S[first], M[first])
    means *= grid.unit
    return means[inverse]


def bayes_posterior(
    sample: SampleSet,
    prior: tuple[float, float],
    grid_size: int,
) -> Posterior:
    """Posterior mean/sd and density under a flat prior on ``prior``.

    The posterior of one sample on the grid of :func:`bayes_of_statistics`, a batch of one.
    """
    grid = _bayes_grid(sample.spectrum, prior, grid_size)
    density = np.empty((1, grid_size))
    S, M = _statistics(sample.spectrum, [sample.counts], grid.scale)[1:]
    mean = float(_posterior_means(grid, S, M, density)[0])
    density = density[0]
    t, unit = grid.t, grid.unit
    with np.errstate(over="ignore"):  # a density beyond the float range is inf
        sd = math.sqrt(max(float(np.trapezoid((t - mean) ** 2 * density, t)), 0.0))
        density /= unit  # per unit temperature, not per ``unit``
    density.flags.writeable = False
    return Posterior(mean=mean * unit, sd=sd * unit, temperatures=grid.temps, density=density)


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
    for i, c in enumerate(counts):
        number(c, f"counts[{i}]")  # estimators take counts as floats
    number(sum(counts), "M")  # and sum them as floats
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
    if declared is not None and integer(declared, "M") != sample.total:
        raise InputFormatError(
            f"declared M={declared!r} does not match the sum of counts {sample.total}"
        )
    return sample
