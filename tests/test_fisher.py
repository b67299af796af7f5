import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _strategies import spectra, temperatures
from thermometry import (
    UNBOUNDED,
    fisher_information,
    fisher_report,
    gibbs_log_probs,
    gibbs_state,
    make_spectrum,
    sld_eigenvalues,
    specific_heat,
    two_level_factor,
)

TWO_LEVEL = make_spectrum([(0.0, 1), (1.0, 1)])
THREE_LEVEL = make_spectrum([(0.0, 1), (1.0, 1), (2.0, 1)])


def fd_fisher(s, T, eps_rel=1e-5):
    """Discrete Fisher sum via central differences of the log-likelihood."""
    eps = eps_rel * T
    dlogp = (gibbs_log_probs(s, T + eps) - gibbs_log_probs(s, T - eps)) / (2 * eps)
    return float(gibbs_state(s, T).probs @ dlogp**2)


# ---------------------------------------------------------------------------
# SLD eigenvalues
# ---------------------------------------------------------------------------

def test_single_level_sld_is_zero():
    assert sld_eigenvalues(make_spectrum([(3.0, 2)]), 1.5) == pytest.approx([0.0])


def test_two_level_sld_zero_mean():
    for T in (0.3, 1.0, 5.0):
        st = gibbs_state(TWO_LEVEL, T)
        sld = sld_eigenvalues(TWO_LEVEL, T)
        mu = float(st.probs @ np.array([0.0, 1.0]))
        assert sld == pytest.approx([-mu / T**2, (1.0 - mu) / T**2], rel=1e-13)
        assert float(st.probs @ sld) == pytest.approx(0.0, abs=1e-14)


def test_three_level_sld_compositional():
    # direct evaluation of (E_n - <H>)/T^2 with the mean from the state
    w = [math.exp(-e) for e in (0.0, 1.0, 2.0)]
    z = sum(w)
    mu = sum(wi * e for wi, e in zip(w, (0.0, 1.0, 2.0))) / z
    expected = [(e - mu) for e in (0.0, 1.0, 2.0)]
    assert sld_eigenvalues(THREE_LEVEL, 1.0) == pytest.approx(expected, rel=1e-13)


def test_sld_rejects_bad_temperature():
    with pytest.raises(ValueError):
        sld_eigenvalues(TWO_LEVEL, -1.0)


@pytest.mark.parametrize("T", [1e-200, 1e200])
def test_sld_rejects_temperature_whose_square_leaves_float_range(T):
    with pytest.raises(ValueError, match=r"temperature .* T\^2 under- or overflows"):
        sld_eigenvalues(TWO_LEVEL, T)


@pytest.mark.parametrize("T", [1e-100, 1e100])
def test_fisher_rejects_temperature_whose_fourth_power_leaves_float_range(T):
    with pytest.raises(ValueError, match=r"temperature .* T\^4 under- or overflows") as alone:
        fisher_information(TWO_LEVEL, T)
    with pytest.raises(ValueError) as report:
        fisher_report(TWO_LEVEL, T)
    assert str(alone.value) == str(report.value)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(spectra(min_levels=1), temperatures(0.01, 100.0))
def test_fisher_information_is_the_report_fisher(s, T):
    # the same formula on the same Gibbs state, without the SLD spectrum
    assert fisher_information(s, T) == fisher_report(s, T).fisher


def test_single_level_has_no_information():
    assert fisher_information(make_spectrum([(0.0, 1)]), 1.0) == 0.0


@pytest.mark.parametrize("gap,T", [(1.0, 1.0), (2.4, 1.0), (1.0, 0.25), (5.0, 2.0)])
def test_two_level_matches_bound_factor(gap, T):
    # algebraic identity: 1/F = T^2 * f2(gap/T)
    s = make_spectrum([(0.0, 1), (gap, 1)])
    f = fisher_information(s, T)
    assert 1.0 / f == pytest.approx(T * T * two_level_factor(gap / T), rel=1e-12)


@pytest.mark.parametrize(
    "levels,T",
    [
        ([(0.0, 1), (1.0, 1)], 1.0),
        ([(0.0, 1), (1.0, 1), (2.0, 1)], 0.7),
        ([(-1.0, 2), (0.5, 1), (2.0, 3)], 3.0),
        ([(0.0, 1), (0.05, 1)], 0.02),
    ],
)
def test_fisher_matches_finite_difference(levels, T):
    s = make_spectrum(levels)
    assert fisher_information(s, T) == pytest.approx(fd_fisher(s, T), rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(spectra(min_levels=2), temperatures(0.01, 100.0))
def test_fisher_finite_difference_randomized(s, T):
    f = fisher_information(s, T)
    fd = fd_fisher(s, T)
    if f > 1e-280:  # below this the quotient itself underflows
        assert f == pytest.approx(fd, rel=1e-6)


def test_fisher_equals_specific_heat_over_T2():
    for T in (0.1, 1.0, 10.0):
        f = fisher_information(THREE_LEVEL, T)
        assert f == pytest.approx(specific_heat(THREE_LEVEL, T) / T**2, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(spectra(min_levels=1), temperatures(0.01, 100.0))
def test_fisher_shift_invariance(s, T):
    shifted = make_spectrum([(e + 7.25, m) for e, m in zip(s.energies, s.multiplicities)])
    assert fisher_information(shifted, T) == pytest.approx(
        fisher_information(s, T), rel=1e-12, abs=1e-300
    )


@settings(max_examples=100, deadline=None)
@given(spectra(min_levels=1), temperatures(0.01, 100.0), st.floats(-1e8, 1e8))
@example(make_spectrum([(-8.09, 4), (0.37, 1), (10.0, 2)]), 0.05, 1e8)
def test_fisher_report_of_a_shifted_spectrum_is_that_of_its_gaps(s, T, c):
    # energies enter only through E - E_0, stored bit for bit as the gaps, so a shift
    # by c changes no bit of the report against the spectrum of the shifted gaps
    shifted = make_spectrum([(e + c, m) for e, m in zip(s.energies, s.multiplicities)])
    gaps = make_spectrum(zip(shifted.gaps, shifted.multiplicities))
    assume(gaps.energies == shifted.gaps)  # the merge may group rounded gaps differently
    a, b = fisher_report(shifted, T), fisher_report(gaps, T)
    assert a.fisher == b.fisher
    assert a.specific_heat == b.specific_heat
    assert np.array_equal(a.sld_eigenvalues, b.sld_eigenvalues)


@pytest.mark.parametrize("a", [0.5, 2.0, 17.0])
def test_fisher_scale_covariance(a):
    s = make_spectrum([(0.0, 1), (0.8, 2), (2.0, 1)])
    scaled = make_spectrum([(a * e, m) for e, m in zip(s.energies, s.multiplicities)])
    T = 0.9
    assert fisher_information(scaled, a * T) == pytest.approx(
        fisher_information(s, T) / a**2, rel=1e-12
    )
    crb = fisher_report(s, T).crb_single_shot
    crb_scaled = fisher_report(scaled, a * T).crb_single_shot
    assert crb_scaled == pytest.approx(a**2 * crb, rel=1e-12)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_single_level_unbounded():
    rep = fisher_report(make_spectrum([(0.0, 4)]), 2.0)
    assert rep.fisher == 0.0
    assert rep.crb_single_shot is UNBOUNDED
    assert rep.crb_m_shots(100) is UNBOUNDED


def test_report_floor_at_optimal_ratio():
    T = 1.0 / 2.4
    rep = fisher_report(TWO_LEVEL, T)
    # dimensionless floor at gap/T = 2.4; the factor's minimum is ~2.27
    assert rep.crb_single_shot / T**2 == pytest.approx(2.2767177663074674, rel=1e-12)


def test_report_m_shot_scaling():
    rep = fisher_report(TWO_LEVEL, 1.0)
    assert rep.crb_m_shots(100) == pytest.approx(rep.crb_single_shot / 100.0, rel=1e-15)
    with pytest.raises(ValueError):
        rep.crb_m_shots(0)


@settings(max_examples=150, deadline=None)
@given(spectra(min_levels=1), temperatures(0.01, 100.0))
def test_report_identities_randomized(s, T):
    rep = fisher_report(s, T)
    probs = gibbs_state(s, T).probs
    sld = rep.sld_eigenvalues
    # Tr[rho L] = 0 and Tr[rho L^2] = F
    assert float(probs @ sld) == pytest.approx(0.0, abs=1e-12)
    assert float(probs @ sld**2) == pytest.approx(rep.fisher, rel=1e-12, abs=1e-300)
    assert rep.fisher == pytest.approx(rep.specific_heat / T**2, rel=1e-12, abs=1e-300)
    if rep.fisher > 0.0:
        assert rep.crb_single_shot == pytest.approx(1.0 / rep.fisher, rel=1e-15)
    else:
        assert rep.crb_single_shot is UNBOUNDED


def test_unbounded_marker_is_singleton():
    assert repr(UNBOUNDED) == "UNBOUNDED"
    assert type(UNBOUNDED)() is UNBOUNDED
