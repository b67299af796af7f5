"""Fisher information of energy measurement and the Cramér-Rao floor.

For a canonical state the symmetric logarithmic derivative is diagonal in
the energy basis with eigenvalues (E_n - <H>)/T^2, so the optimal
measurement is energy and its Fisher information reduces to
F(T) = <dH^2>/T^4 = c_V(T)/T^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import at_least, temperature_power
from .thermal import Spectrum, ThermalState, _shifted_mean, energy_variance, gibbs_state

__all__ = [
    "UNBOUNDED",
    "FisherReport",
    "sld_eigenvalues",
    "fisher_information",
    "fisher_report",
]


class _Unbounded:
    """Marker for a variance floor that does not exist (zero Fisher information).

    A deliberate sentinel rather than ``inf`` so callers must handle the
    zero-information case explicitly. Serializes as the string "unbounded".
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


def _sld(state: ThermalState) -> np.ndarray:
    """(E_n - <H>)/T^2 under ``state``, in shifted coordinates; inf past the float range."""
    t2 = temperature_power(state.temperature, 2)
    with np.errstate(over="ignore"):
        return (state.spectrum._shifted - _shifted_mean(state)) / t2


def sld_eigenvalues(spectrum: Spectrum, T: float) -> np.ndarray:
    """Eigenvalues (E_n - <H>)/T^2 of the logarithmic derivative, in level order."""
    return _sld(gibbs_state(spectrum, T))


def _variance_and_fisher(state: ThermalState) -> tuple[float, float]:
    """Energy variance <dH^2> under ``state`` and the Fisher information <dH^2>/T^4."""
    var = energy_variance(state)
    return var, var / temperature_power(state.temperature, 4)


def fisher_information(spectrum: Spectrum, T: float) -> float:
    """Fisher information of energy measurement, F = <dH^2>/T^4: the ``fisher`` of
    :func:`fisher_report`, from the Gibbs state alone, without the SLD spectrum."""
    return _variance_and_fisher(gibbs_state(spectrum, T))[1]


@dataclass(frozen=True)
class FisherReport:
    """Fisher information, specific heat, SLD spectrum and variance floor at one T.

    ``crb_single_shot`` is 1/F (units T^2) or :data:`UNBOUNDED` when F = 0.
    """

    temperature: float
    fisher: float
    specific_heat: float
    sld_eigenvalues: np.ndarray = field(repr=False)
    crb_single_shot: float | _Unbounded

    def crb_m_shots(self, shots: int) -> float | _Unbounded:
        """Variance floor after ``shots`` independent measurements (1/(M F))."""
        at_least(shots, 1, "shots")
        if self.crb_single_shot is UNBOUNDED:
            return UNBOUNDED
        return self.crb_single_shot / shots


def fisher_report(spectrum: Spectrum, T: float) -> FisherReport:
    """Evaluate the full estimation-precision report for ``spectrum`` at ``T``."""
    state = gibbs_state(spectrum, T)
    T = state.temperature
    var, fisher = _variance_and_fisher(state)
    sld = _sld(state)
    sld.flags.writeable = False
    crb = 1.0 / fisher if fisher > 0.0 else UNBOUNDED
    return FisherReport(
        temperature=T,
        fisher=fisher,
        specific_heat=var / (T * T),
        sld_eigenvalues=sld,
        crb_single_shot=crb,
    )
