"""Finite energy spectra and canonical Gibbs states.

Units: k_B = 1, so temperature carries energy units. All Boltzmann
weights are evaluated after subtracting the ground energy, which keeps
every exponent non-positive; the stored partition function is the log of
the shifted sum (never the raw Z), so states remain well defined down to
temperatures far below the smallest gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat, zip_longest
from operator import countOf
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InputFormatError,
    at_least,
    integer,
    number,
    positive,
    require,
    temperature_power,
)

__all__ = [
    "MERGE_RTOL",
    "Spectrum",
    "ThermalState",
    "make_spectrum",
    "gibbs_state",
    "gibbs_log_probs",
    "mean_energy",
    "energy_variance",
    "specific_heat",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "load_json",
    "load_spectrum",
    "save_spectrum",
]

# Energies closer than this fraction of the spectrum's spread (max - min) are
# treated as one degenerate level; avoids spurious near-zero gaps from noisy
# input. The spread, unlike |E|, does not change when every energy is shifted.
MERGE_RTOL = 1e-12
# Spectra with at least this many levels are sorted and merged on arrays (_merged_arrays),
# smaller ones, every Monte Carlo spectrum among them, by a loop over the levels. Measured
# with spectrum_from_dict on spectra of the bounds_scan shape (minimum of 9 repeats, three
# rounds, 2 vCPUs, Python 3.11, numpy 2.4), the loop took 7-9 / 72 / 90-92 / 364-401 us at
# 2-5 / 200 / 256 / 1024 levels, and the arrays 32-35 / 77-84 / 84-88 / 250-280 us: the
# crossover lies between 200 and 256 levels.
ARRAY_LEVELS = 256
# The smallest int that float() refuses: 2^1024 - 2^970 rounds to 2^1024.
_FLOAT_INT_LIMIT = 2**1024 - 2**970


@dataclass(frozen=True)
class Spectrum:
    """Ordered energy levels of a finite system.

    ``energies`` are strictly increasing; duplicates are merged into
    ``multiplicities`` at construction time (use :func:`make_spectrum`).
    """

    energies: tuple[float, ...]
    multiplicities: tuple[int, ...]
    label: str = ""

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def ground_energy(self) -> float:
        return self.energies[0]

    @property
    def gap(self) -> float:
        """First excitation gap E_1 - E_0 (0 for a single-level spectrum)."""
        if len(self.energies) < 2:
            return 0.0
        return self.energies[1] - self.energies[0]

    @property
    def gaps(self) -> tuple[float, ...]:
        """Excitation energies E_k - E_0, one per level (first entry 0)."""
        e0 = self.energies[0]
        return tuple(e - e0 for e in self.energies)

    @property
    def spread(self) -> float:
        """Total width E_max - E_0 of the spectrum."""
        return self.energies[-1] - self.energies[0]

    @cached_property
    def _shifted(self) -> np.ndarray:
        de = np.asarray(self.energies, dtype=float) - self.energies[0]  # == gaps, bit for bit
        de.flags.writeable = False
        return de

    @cached_property
    def _weights(self) -> np.ndarray:
        m = np.asarray(self.multiplicities, dtype=float)
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class ThermalState:
    """Gibbs occupation probabilities of a :class:`Spectrum` at temperature T.

    ``log_partition`` is log of the ground-shifted partition sum
    sum_k m_k exp(-(E_k - E_0)/T); ``energy_shift`` records the subtracted
    ground energy, so the unshifted log Z is
    ``log_partition - energy_shift / temperature``.
    """

    spectrum: Spectrum
    temperature: float
    probs: np.ndarray = field(repr=False)
    log_partition: float = 0.0
    energy_shift: float = 0.0


def make_spectrum(
    levels: Iterable[tuple[float, int]] | Iterable[Sequence],
    label: str = "",
) -> Spectrum:
    """Build a normalized :class:`Spectrum` from (energy, multiplicity) pairs.

    Levels are sorted by energy and merged as :func:`_normalized` describes: a level joins
    the cluster whose lowest energy lies within ``MERGE_RTOL`` times the spread
    (max - min energy) of it, and the merged level keeps that lowest energy and the sum of
    the multiplicities.

    Raises
    ------
    ValueError
        On an empty sequence, a non-finite energy or spread, or a multiplicity < 1.
    OverflowError
        On a multiplicity, or a sum of merged multiplicities, past the float range.
    """
    energies: list[float] = []
    mults: list[int] = []
    for item in levels:
        try:
            energy, mult = item
        except (TypeError, ValueError):
            energy, mult = item, 1  # bare energy, multiplicity defaults to 1
        try:
            energies.append(float(energy))
            mults.append(integer(mult, "multiplicity"))
        except (TypeError, ValueError, OverflowError):
            _check_levels(energies, mults)  # an earlier level's problem is reported first
            raise
    return _normalized(energies, mults, label)


def _check_levels(energies: list[float], mults: list[int]) -> None:
    """ValueError naming the first level with a non-finite energy or a multiplicity < 1.

    Within a level the energy is checked first; ``mults`` may be one entry short.
    """
    if all(map(math.isfinite, energies)) and min(mults, default=1) >= 1:
        return
    for energy, mult in zip_longest(energies, mults, fillvalue=1):
        if not math.isfinite(energy):
            raise ValueError(f"energy must be finite, got {energy!r}")
        at_least(mult, 1, "multiplicity")


def _check_merged(energies: list[float], mults: list[int]) -> None:
    """OverflowError naming the first merged multiplicity past the float range: the weights
    are its floats."""
    for energy, mult in zip(energies, mults):
        if mult >= _FLOAT_INT_LIMIT:
            raise OverflowError(f"the multiplicity at energy {energy!r} is beyond the float range")


def _normalized(energies: list[float], mults: list[int], label: str) -> Spectrum:
    """The checked, sorted and merged :class:`Spectrum` of parallel level lists.

    The levels are sorted by energy, ties in their input order. A level joins the cluster
    whose lowest energy E_c it lies within tol = ``MERGE_RTOL`` * spread of
    (fl(E - E_c) <= tol), and otherwise starts a cluster of its own; so a chain of near-ties
    wider than tol splits. Checks come in this order: each level's energy is finite and its
    multiplicity >= 1, the spread is finite, each merged multiplicity fits a float.

    Below ``ARRAY_LEVELS`` levels a loop walks the sorted levels; from there on arrays do
    the same, with the same bits (:func:`_merged_arrays`).
    """
    if len(energies) >= ARRAY_LEVELS:
        return _merged_arrays(energies, mults, label)
    _check_levels(energies, mults)
    if not energies:
        raise ValueError("spectrum needs at least one level")
    e = np.array(energies, dtype=float)
    order = np.argsort(e, kind="stable")  # ties keep their input order, as sorted() does
    sorted_e = e[order].tolist()
    spread = sorted_e[-1] - sorted_e[0]
    if not math.isfinite(spread):
        raise ValueError(f"energies must span a finite range, got spread {spread!r}")
    tol = MERGE_RTOL * spread
    sorted_m = map(mults.__getitem__, order.tolist())  # Python ints: sums cannot wrap
    merged_e = [sorted_e[0]]
    merged_m = [next(sorted_m)]
    for energy, mult in zip(islice(sorted_e, 1, None), sorted_m):
        if energy - merged_e[-1] <= tol:
            merged_m[-1] += mult
        else:
            merged_e.append(energy)
            merged_m.append(mult)
    if sum(merged_m) >= _FLOAT_INT_LIMIT:  # all are >= 1, so a lower total bounds each
        _check_merged(merged_e, merged_m)
    return Spectrum(tuple(merged_e), tuple(merged_m), label=label)


def _merged_arrays(energies: list[float], mults: list[int], label: str) -> Spectrum:
    """:func:`_normalized` on arrays, bit for bit, for many levels.

    - The checks run on arrays; the per-level check runs only to name the first bad level.
    - One unstable sort: equal energies still land next to each other, and integer
      multiplicities add the same in any order. Only 0.0 against -0.0 can tell the input
      order apart (the first one is kept), so the stable sort runs only when a zero of each
      sign is present.
    - A step above tol from the level sorted before starts a cluster: rounding is
      monotone, so that level is more than tol from every earlier cluster's lowest energy.
      A run of steps <= tol whose whole span is within tol is one cluster; a wider run (a
      chain of near-ties) is walked as the loop walks it.
    - Multiplicities add in int64 when max * n < 2^62, else as Python ints.
    - The Spectrum keeps the sorted level array and its weights as its ``_shifted`` and
      ``_weights``: levels - levels[0] and the int-to-float cast are the bits the lazy
      builds from the tuples give.
    """
    n = len(energies)
    e = np.array(energies, dtype=float)
    try:
        m = np.array(mults, dtype=np.int64)
    except OverflowError:  # a multiplicity of 2^63 or more: added as Python ints below
        m = None
    if m is None or not (np.isfinite(e).all() and m.min() >= 1):
        _check_levels(energies, mults)
    order = np.argsort(e)
    se = e[order]
    if _mixed_zeros(se):
        order = np.argsort(e, kind="stable")
        se = e[order]
    spread = float(se[-1]) - float(se[0])  # in Python floats: an inf spread raises below
    if not math.isfinite(spread):
        raise ValueError(f"energies must span a finite range, got spread {spread!r}")
    tol = MERGE_RTOL * spread
    starts = np.flatnonzero(np.diff(se, prepend=-np.inf) > tol)
    chains = np.flatnonzero(np.maximum.reduceat(se, starts) - se[starts] > tol).tolist()
    if chains:  # runs of steps <= tol wider than tol
        ends = np.append(starts[1:], n) - 1
        splits = [i for k in chains for i in _chain_starts(se, starts[k], ends[k], tol)]
        starts = np.union1d(starts, splits)
    levels = se[starts]
    if m is not None and int(m.max()) * n < 1 << 62:  # no sum can wrap
        merged = np.add.reduceat(m[order], starts)
        weights = merged.astype(float)
        merged_m = merged.tolist()
    else:
        sorted_m = [mults[i] for i in order.tolist()]
        bounds = starts.tolist() + [n]
        merged_m = [sum(sorted_m[a:b]) for a, b in zip(bounds, bounds[1:])]
        if sum(merged_m) >= _FLOAT_INT_LIMIT:
            _check_merged(levels.tolist(), merged_m)
        weights = np.array(merged_m, dtype=float)
    weights.flags.writeable = False
    shifted = levels - levels[0]
    shifted.flags.writeable = False
    spectrum = Spectrum(tuple(levels.tolist()), tuple(merged_m), label=label)
    spectrum.__dict__.update(_shifted=shifted, _weights=weights)  # the cached_property slots
    return spectrum


def _mixed_zeros(se: np.ndarray) -> bool:
    """Whether sorted ``se`` holds both 0.0 and -0.0."""
    lo = se.searchsorted(0.0)
    if lo == len(se) or se[lo] != 0.0:
        return False
    signs = np.signbit(se[lo:se.searchsorted(0.0, "right")])
    return bool(signs.any()) and not signs.all()


def _chain_starts(se: np.ndarray, first: int, last: int, tol: float) -> list[int]:
    """Indices in (first, last] at which the loop starts a cluster in a chain of near-ties."""
    starts = []
    start = float(se[first])
    for i, energy in enumerate(se[first + 1:last + 1].tolist(), first + 1):
        if energy - start > tol:
            starts.append(i)
            start = energy
    return starts


def gibbs_probs(spectrum: Spectrum, temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs occupations at each of ``temps`` (one row per temperature) and each Z'.

    Occupations are m_n exp(-(E_n - E_0)/T) / Z' with
    Z' = sum_k m_k exp(-(E_k - E_0)/T); the ground shift leaves the
    probabilities identical to the unshifted definition while keeping
    every exponent <= 0. Each row is computed alone, so its bits do not
    depend on the other temperatures. ``temps`` must be positive and finite.
    """
    w = spectrum._weights * np.exp(-spectrum._shifted / temps[:, None])
    z = w.sum(axis=1, keepdims=True)  # >= m_0 >= 1, so the log is always safe
    return w / z, z[:, 0]


def gibbs_log_weights(spectrum: Spectrum, temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log m_n - (E_n - E_0)/T at each of ``temps`` (one row per temperature) and each log Z'.

    Finite where an occupation underflows; each 1/T must be finite. Each row's maximum is
    one segment of ``np.maximum.reduceat`` over the flat array, which numpy runs faster than
    ``max(axis=1)`` on short rows; a maximum is exact in any order, and the sign of a zero
    maximum cannot reach log Z'. The sum keeps ``sum(axis=1)``: ``np.add.reduceat`` adds in
    another order and changes its bits from 3 levels up.
    """
    with np.errstate(over="ignore"):  # a log weight of -inf is an occupation of exactly 0
        logw = -np.outer(1.0 / temps, spectrum._shifted) + np.log(spectrum._weights)
    # shift each row by its largest entry for the sum (not always the ground level's log m_0:
    # with m = (1, 3), gaps (0, 1) and T = 10 the excited entry is log 3 - 0.1 > 0)
    top = np.maximum.reduceat(logw.ravel(), np.arange(0, logw.size, logw.shape[1]))
    return logw, top + np.log(np.exp(logw - top[:, None]).sum(axis=1))


def shifted_means(spectrum: Spectrum, temps: np.ndarray) -> np.ndarray:
    """<H - E_0> at each of ``temps``; row for row equal to :func:`mean_energy` - E_0.

    Two levels take the closed form w_1 = m_1 exp(-d_1/T), p_1 = w_1/(m_0 + w_1),
    <H - E_0> = p_1 d_1 on whole vectors, with the bits of the row-major
    ``vecdot(gibbs_probs(...)[0], d)``: the ground weight there is m_0 exp(-0/T) = m_0, a row
    of two sums as w_0 + w_1, and the dot product of a short row is a chain of fused
    multiply-adds from 0, so with p_0 * 0 = 0 it is the one rounded product p_1 d_1. More
    levels take the row-major path: numpy has no fused multiply-add to repeat that chain.
    """
    de = spectrum._shifted
    if len(de) == 2:
        m0, m1 = spectrum._weights.tolist()
        d1 = float(de[1])
        w1 = np.exp(-d1 / temps)
        w1 *= m1
        p1 = w1 / (m0 + w1)
        p1 *= d1
        return p1
    return np.vecdot(gibbs_probs(spectrum, temps)[0], de)


def gibbs_state(spectrum: Spectrum, T: float) -> ThermalState:
    """Canonical Gibbs state of ``spectrum`` at ``T > 0``: one row of :func:`gibbs_probs`."""
    T = positive(T, "temperature")
    with np.errstate(over="ignore"):  # an exponent of -inf is an occupation of exactly 0
        probs, z = gibbs_probs(spectrum, np.array([T]))
    probs = probs[0]
    probs.flags.writeable = False
    return ThermalState(
        spectrum=spectrum,
        temperature=T,
        probs=probs,
        log_partition=float(np.log(z[0])),
        energy_shift=spectrum.ground_energy,
    )


def gibbs_log_probs(spectrum: Spectrum, T: float) -> np.ndarray:
    """Log occupation probabilities, finite where they underflow: :func:`gibbs_log_weights`."""
    T = positive(T, "temperature")
    temperature_power(T, -1)
    logw, logz = gibbs_log_weights(spectrum, np.array([T]))
    return logw[0] - logz[0]


def _shifted_mean(state: ThermalState) -> float:
    """Mean of E - E_0 under the state (no cancellation: all terms >= 0)."""
    return float(np.vecdot(state.probs, state.spectrum._shifted))


def mean_energy(state: ThermalState) -> float:
    """Average energy sum_n p_n E_n."""
    return _shifted_mean(state) + state.energy_shift


def _variances(probs: np.ndarray, mean: np.ndarray, de: np.ndarray) -> np.ndarray:
    """sum_n p_n (E_n - <H>)^2 of each row of ``probs``, from its mean of ``de`` = E - E_0."""
    with np.errstate(over="ignore"):  # an empty level adds 0, even where its square is inf
        sq = (de - mean[..., None]) ** 2
    return np.vecdot(probs, np.where(probs > 0.0, sq, 0.0))


def energy_variance(state: ThermalState) -> float:
    """Energy variance sum_n p_n (E_n - <H>)^2, computed in shifted coordinates."""
    de = state.spectrum._shifted
    return float(_variances(state.probs, np.vecdot(state.probs, de), de))


def specific_heat(spectrum: Spectrum, T: float) -> float:
    """Specific heat c_V = <dH^2>/T^2 (canonical-ensemble identity, k_B = 1)."""
    state = gibbs_state(spectrum, T)
    return energy_variance(state) / temperature_power(state.temperature, 2)


# ---------------------------------------------------------------------------
# Spectrum file format: {"label": str, "levels": [{"energy": x, "degeneracy": n}]}
# ---------------------------------------------------------------------------

def spectrum_to_dict(spectrum: Spectrum) -> dict:
    return {
        "label": spectrum.label,
        "levels": [
            {"energy": e, "degeneracy": m}
            for e, m in zip(spectrum.energies, spectrum.multiplicities)
        ],
    }


def spectrum_from_dict(data: dict) -> Spectrum:
    """Parse the spectrum object notation; ``degeneracy`` defaults to 1."""
    if not isinstance(data, dict):
        raise InputFormatError("spectrum must be an object with a 'levels' array")
    raw_levels = require(data, "levels", "spectrum object")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise InputFormatError("'levels' must be a non-empty array")
    n = len(raw_levels)
    try:  # one pass over each field, kept if every energy is a float and every degeneracy an int
        energies = list(map(dict.get, raw_levels, repeat("energy")))
        mults = list(map(dict.get, raw_levels, repeat("degeneracy"), repeat(1)))
        bulk = countOf(map(type, energies), float) == n and countOf(map(type, mults), int) == n
    except TypeError:  # a level that is not an object
        bulk = False
    label = data.get("label", "")
    if not isinstance(label, str):
        _read_levels(raw_levels)  # a fault in a level comes first
        raise InputFormatError(f"'label' must be a string, got {label!r}")
    if not bulk:
        energies, mults = _read_levels(raw_levels)
    try:
        return _normalized(energies, mults, label)
    except (ValueError, OverflowError) as exc:
        if bulk:  # a format fault comes first, as it does when read one level at a time
            _read_levels(raw_levels)
        if isinstance(exc, OverflowError):
            raise
        raise InputFormatError(f"invalid spectrum: {exc}") from exc


def _read_levels(raw_levels: list) -> tuple[list[float], list[int]]:
    """Each level's energy and degeneracy, converted one level at a time; the first level at
    fault is named. A degeneracy, like an energy, must fit a float: the weights are floats."""
    energies, mults = [], []
    for i, entry in enumerate(raw_levels):
        if not isinstance(entry, dict) or "energy" not in entry:
            raise InputFormatError(f"levels[{i}] must be an object with an 'energy' field")
        try:  # the level is named only on failure: this loop runs once per level
            energies.append(number(entry["energy"], "energy"))
            mults.append(integer(entry.get("degeneracy", 1), "degeneracy"))
            number(mults[-1], "degeneracy")
        except (InputFormatError, OverflowError) as exc:
            raise type(exc)(f"levels[{i}].{exc}") from None
    return energies, mults


def load_json(path):
    """Parse a JSON input file; unreadable or invalid files raise InputFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def load_spectrum(path) -> Spectrum:
    return spectrum_from_dict(load_json(path))


def save_spectrum(spectrum: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_dict(spectrum), fh, indent=2)
        fh.write("\n")
