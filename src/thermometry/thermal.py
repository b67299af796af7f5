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
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputFormatError

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

# Energies closer than this (relatively) are treated as one degenerate level;
# avoids spurious near-zero gaps from noisy input.
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
        de = np.asarray(self.gaps, dtype=float)
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


def _validate_temperature(T: float) -> float:
    T = float(T)
    if not math.isfinite(T) or T <= 0.0:
        raise ValueError(f"temperature must be finite and > 0, got {T!r}")
    return T


def make_spectrum(
    levels: Iterable[tuple[float, int]] | Iterable[Sequence],
    label: str = "",
) -> Spectrum:
    """Build a normalized :class:`Spectrum` from (energy, multiplicity) pairs.

    Levels are sorted by energy; energies equal within ``MERGE_RTOL``
    (relative) are merged and their multiplicities added. The merged level
    keeps the smallest energy of its cluster.

    Raises
    ------
    ValueError
        On an empty sequence, a non-finite energy, or a multiplicity < 1.
    """
    entries = []
    for item in levels:
        try:
            energy, mult = item
        except (TypeError, ValueError):
            energy, mult = item, 1  # bare energy, multiplicity defaults to 1
        energy = float(energy)
        if not math.isfinite(energy):
            raise ValueError(f"energy must be finite, got {energy!r}")
        if not isinstance(mult, numbers.Integral):
            raise ValueError(f"multiplicity must be an integer, got {mult!r}")
        mult = int(mult)
        if mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {mult}")
        entries.append((energy, mult))
    if not entries:
        raise ValueError("spectrum needs at least one level")

    entries.sort(key=lambda em: em[0])
    merged_e = [entries[0][0]]
    merged_m = [entries[0][1]]
    for energy, mult in entries[1:]:
        if abs(energy - merged_e[-1]) <= MERGE_RTOL * max(abs(energy), abs(merged_e[-1])):
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


def shifted_means(spectrum: Spectrum, temps: np.ndarray) -> np.ndarray:
    """<H - E_0> at each of ``temps``; row for row equal to :func:`mean_energy` - E_0."""
    return np.vecdot(gibbs_probs(spectrum, temps)[0], spectrum._shifted)


def gibbs_state(spectrum: Spectrum, T: float) -> ThermalState:
    """Canonical Gibbs state of ``spectrum`` at ``T > 0``: one row of :func:`gibbs_probs`."""
    T = _validate_temperature(T)
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
    """Log occupation probabilities, finite even where the probability underflows."""
    T = _validate_temperature(T)
    de = spectrum._shifted
    logw = -de / T + np.log(spectrum._weights)
    # max exponent is log(m_0) at the ground level; shift for the sum only
    top = logw.max()
    return logw - (top + math.log(np.exp(logw - top).sum()))


def _shifted_mean(state: ThermalState) -> float:
    """Mean of E - E_0 under the state (no cancellation: all terms >= 0)."""
    return float(np.vecdot(state.probs, state.spectrum._shifted))


def mean_energy(state: ThermalState) -> float:
    """Average energy sum_n p_n E_n."""
    return _shifted_mean(state) + state.energy_shift


def energy_variance(state: ThermalState) -> float:
    """Energy variance sum_n p_n (E_n - <H>)^2, computed in shifted coordinates."""
    de = state.spectrum._shifted
    mu = _shifted_mean(state)
    return float(state.probs @ (de - mu) ** 2)


def specific_heat(spectrum: Spectrum, T: float) -> float:
    """Specific heat c_V = <dH^2>/T^2 (canonical-ensemble identity, k_B = 1)."""
    T = _validate_temperature(T)
    return energy_variance(gibbs_state(spectrum, T)) / (T * T)


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
    if "levels" not in data:
        raise InputFormatError("spectrum object is missing the 'levels' field")
    raw_levels = data["levels"]
    if not isinstance(raw_levels, list) or not raw_levels:
        raise InputFormatError("'levels' must be a non-empty array")
    levels = []
    for i, entry in enumerate(raw_levels):
        if not isinstance(entry, dict) or "energy" not in entry:
            raise InputFormatError(f"levels[{i}] must be an object with an 'energy' field")
        energy = entry["energy"]
        if not isinstance(energy, numbers.Real) or isinstance(energy, bool):
            raise InputFormatError(f"levels[{i}].energy must be a number, got {energy!r}")
        degeneracy = entry.get("degeneracy", 1)
        if not isinstance(degeneracy, numbers.Integral) or isinstance(degeneracy, bool):
            raise InputFormatError(f"levels[{i}].degeneracy must be an integer, got {degeneracy!r}")
        levels.append((float(energy), int(degeneracy)))
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InputFormatError(f"'label' must be a string, got {label!r}")
    try:
        return make_spectrum(levels, label=label)
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


def load_spectrum(path) -> Spectrum:
    return spectrum_from_dict(load_json(path))


def save_spectrum(spectrum: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_dict(spectrum), fh, indent=2)
        fh.write("\n")
