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

    Levels are sorted by energy; energies within ``MERGE_RTOL`` times the spread
    (max - min energy) of a cluster's lowest energy are merged and their
    multiplicities added; the merged level keeps that lowest energy.

    Raises
    ------
    ValueError
        On an empty sequence, a non-finite energy or spread, or a multiplicity < 1.
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


def _normalized(energies: list[float], mults: list[int], label: str) -> Spectrum:
    """The checked, sorted and merged :class:`Spectrum` of parallel level lists."""
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
    return Spectrum(tuple(merged_e), tuple(merged_m), label=label)


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
    if not bulk:  # one level at a time: convert each, or name the first at fault
        energies, mults = [], []
        for i, entry in enumerate(raw_levels):
            if not isinstance(entry, dict) or "energy" not in entry:
                raise InputFormatError(f"levels[{i}] must be an object with an 'energy' field")
            try:  # the level is named only on failure: this loop runs once per level
                energies.append(number(entry["energy"], "energy"))
                mults.append(integer(entry.get("degeneracy", 1), "degeneracy"))
            except (InputFormatError, OverflowError) as exc:
                raise type(exc)(f"levels[{i}].{exc}") from None
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InputFormatError(f"'label' must be a string, got {label!r}")
    try:
        return _normalized(energies, mults, label)
    except ValueError as exc:
        raise InputFormatError(f"invalid spectrum: {exc}") from exc


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
