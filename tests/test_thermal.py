import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _strategies import multi_level_spectra, spectra, temperatures
from thermometry import (
    InputFormatError,
    energy_variance,
    gibbs_log_probs,
    gibbs_state,
    load_spectrum,
    make_spectrum,
    mean_energy,
    save_spectrum,
    specific_heat,
    spectrum_from_dict,
    spectrum_to_dict,
)
from thermometry.errors import temperature_power
from thermometry.thermal import (
    ARRAY_LEVELS,
    MERGE_RTOL,
    Spectrum,
    _shifted_mean,
    gibbs_log_weights,
    gibbs_probs,
    shifted_means,
)

# e^-1 / (1 + e^-1): excited-state occupation of a unit-gap system at T = 1
P1_UNIT = 0.2689414213699951


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_two_level_construction():
    s = make_spectrum([(0.0, 1), (1.0, 1)], label="qubit")
    assert s.energies == (0.0, 1.0)
    assert s.multiplicities == (1, 1)
    assert s.gap == 1.0
    assert s.spread == 1.0
    assert s.label == "qubit"


def test_levels_are_sorted():
    assert make_spectrum([(1.0, 1), (0.0, 1)]) == make_spectrum([(0.0, 1), (1.0, 1)])


def test_duplicate_energies_merge():
    s = make_spectrum([(0.0, 1), (0.0, 1), (2.0, 1)])
    assert s.energies == (0.0, 2.0)
    assert s.multiplicities == (2, 1)


def test_bare_energies_have_multiplicity_one():
    assert make_spectrum([0.0, 1.0, 1.0]) == make_spectrum([(0.0, 1), (1.0, 2)])


def test_merge_uses_relative_tolerance():
    s = make_spectrum([(1.0, 1), (1.0 + 1e-13, 2), (2.0, 1)])
    assert s.n_levels == 2
    assert s.multiplicities == (3, 1)
    # a 1e-9 relative separation is a genuine level
    assert make_spectrum([(1.0, 1), (1.0 + 1e-9, 1)]).n_levels == 2


def test_merge_tolerance_ignores_offset():
    # the tolerance scales with the spread, not |E|: a 1e-3 gap at 1e12 stays
    s = make_spectrum([(1e12, 1), (1e12 + 1e-3, 1)])
    assert s.n_levels == 2
    assert s.gap == pytest.approx(1e-3, rel=0.05)  # 1e-3 up to the float spacing at 1e12
    assert make_spectrum([(1e12, 1), (1e12, 2), (1e12 + 1e-3, 1)]).multiplicities == (3, 1)


def test_gap_accessors():
    s = make_spectrum([(0.5, 1), (1.5, 2), (4.0, 1)])
    assert s.gap == 1.0
    assert s.gaps == (0.0, 1.0, 3.5)
    assert s.spread == 3.5
    assert make_spectrum([(3.0, 2)]).gap == 0.0


@pytest.mark.parametrize(
    "levels",
    [
        [],
        [(math.nan, 1)],
        [(math.inf, 1)],
        [(0.0, 0)],
        [(0.0, -2)],
        [(0.0, 1.5)],
        [(-1e308, 1), (1e308, 1)],  # the spread overflows
    ],
)
def test_construction_errors(levels):
    with pytest.raises(ValueError):
        make_spectrum(levels)


# ---------------------------------------------------------------------------
# the array merge of many levels against the per-level loop
# ---------------------------------------------------------------------------

def _loop_merge(levels):
    """The per-level merge: sort (stable, so ties keep their input order), then each level
    joins the current cluster if it lies within tol of that cluster's lowest energy."""
    ordered = sorted(levels, key=lambda level: level[0])
    tol = MERGE_RTOL * (ordered[-1][0] - ordered[0][0])
    energies, mults = [ordered[0][0]], [ordered[0][1]]
    for energy, mult in ordered[1:]:
        if energy - energies[-1] <= tol:
            mults[-1] += mult
        else:
            energies.append(energy)
            mults.append(mult)
    return energies, mults


# the first two add in int64 to sums that the float cast rounds; the others take Python ints
_HUGE_MULTIPLICITIES = (2**53 - 1, 2**53 + 1, 2**62 + 1, 2**63 + 7, 3 * 2**64 + 1)


@st.composite
def _many_levels(draw):
    """At least ARRAY_LEVELS levels on a grid, with drawn exact repeats, near-ties (within
    tol or just past it), chains of sub-tol steps wider than tol, 0.0 and -0.0 together at
    a cluster start in either input order, and repeated levels whose multiplicities pass
    2^53, 2^62 or 2^63."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    unit = 2.0 ** draw(st.integers(-30, 30))
    low = draw(st.sampled_from([0, -(2**19), 2**20]))  # a ground at, below or above zero
    energies = [unit * (low + rng.randrange(2**20)) for _ in range(ARRAY_LEVELS)]
    energies += [energies[rng.randrange(len(energies))] for _ in range(draw(st.integers(0, 20)))]
    tol = MERGE_RTOL * (max(energies) - min(energies))
    for _ in range(draw(st.integers(0, 6))):  # near-ties
        offset = draw(st.sampled_from([0.3, 0.99, 1.0, 1.01, 3.0])) * tol
        energies.append(rng.choice(energies) + offset)
    for _ in range(draw(st.integers(0, 3))):  # chains
        step = draw(st.sampled_from([0.4, 0.6, 0.9])) * tol
        start = rng.choice(energies)
        energies += [start + j * step for j in range(1, draw(st.integers(2, 8)))]
    if draw(st.booleans()):
        energies += draw(st.sampled_from([[0.0, -0.0], [-0.0, 0.0], [-0.0, 0.0, -0.0]]))
    rng.shuffle(energies)
    levels = [(energy, rng.randint(1, 3)) for energy in energies]
    for _ in range(draw(st.integers(0, 3))):  # a huge multiplicity, and one more at its energy
        big = draw(st.sampled_from(_HUGE_MULTIPLICITIES))
        i = rng.randrange(len(levels))
        levels[i] = (levels[i][0], big)
        levels.insert(rng.randrange(len(levels) + 1), (levels[i][0], big + 1))
    return levels


@settings(max_examples=150, deadline=None)
@given(_many_levels())
# 2^62 + 2^62 wraps in int64, though each multiplicity fits one
@example([(0.0, 2**62), (0.0, 2**62)] + [(float(k), 1) for k in range(1, ARRAY_LEVELS)])
def test_array_merge_is_the_loop_merge_bit_for_bit(levels):
    want_e, want_m = _loop_merge(levels)
    loaded = spectrum_from_dict({"levels": [{"energy": e, "degeneracy": m} for e, m in levels]})
    for spectrum in (make_spectrum(levels), loaded):
        assert [e.hex() for e in spectrum.energies] == [e.hex() for e in want_e]
        assert all(type(m) is int for m in spectrum.multiplicities)
        assert list(spectrum.multiplicities) == want_m
        # the arrays kept from the merge are the ones the tuples give
        assert {"_shifted", "_weights"} <= vars(spectrum).keys()
        lazy = Spectrum(spectrum.energies, spectrum.multiplicities)
        for name in ("_shifted", "_weights"):
            kept, built = getattr(spectrum, name), getattr(lazy, name)
            assert kept.dtype == built.dtype and kept.tobytes() == built.tobytes()
            assert not kept.flags.writeable


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_the_first_zero_in_the_input_is_kept(first):
    zeros = [(first, 1), (-first, 2)]
    for n in (1, ARRAY_LEVELS):  # the loop, then the arrays
        grid = [(float(k), 1) for k in range(1, n + 1)]
        for levels in (zeros + grid, grid + zeros):
            s = make_spectrum(levels)
            assert (s.energies[0].hex(), s.multiplicities[0]) == (first.hex(), 3)


def test_a_chain_of_near_ties_splits_where_the_loop_splits():
    # steps of 0.6 tol: each level is within tol of the one before, not of its cluster's lowest
    tol = MERGE_RTOL * ARRAY_LEVELS
    chain = [(j * 0.6 * tol, 1) for j in range(5)]
    for top in (ARRAY_LEVELS, 1):  # the arrays, then the loop; the spread is the same
        levels = chain + [(float(k), 1) for k in range(ARRAY_LEVELS, 0, -top)]
        s = make_spectrum(levels)
        assert s.energies[:3] == (0.0, 2 * 0.6 * tol, 4 * 0.6 * tol)
        assert s.multiplicities[:3] == (2, 2, 1)


# ---------------------------------------------------------------------------
# Gibbs state
# ---------------------------------------------------------------------------

def test_infinite_temperature_limit():
    s = make_spectrum([(0.0, 1), (1.0, 1)])
    st_ = gibbs_state(s, 1e9)
    assert st_.probs == pytest.approx([0.5, 0.5], abs=1e-8)


def test_unit_gap_occupation():
    st_ = gibbs_state(make_spectrum([(0.0, 1), (1.0, 1)]), 1.0)
    assert st_.probs[1] == pytest.approx(P1_UNIT, abs=1e-15)
    assert st_.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_ground_state_limit_no_overflow():
    st_ = gibbs_state(make_spectrum([(0.0, 1), (1.0, 1)]), 0.01)
    assert st_.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(st_.probs))


def test_log_partition_and_shift():
    s = make_spectrum([(5.0, 1), (6.0, 1)])
    st_ = gibbs_state(s, 1.0)
    assert st_.energy_shift == 5.0
    assert st_.log_partition == pytest.approx(math.log(1 + math.exp(-1.0)), rel=1e-14)


def test_multiplicity_weighting():
    # doubly degenerate excited level carries twice the weight
    s = make_spectrum([(0.0, 1), (1.0, 2)])
    st_ = gibbs_state(s, 1.0)
    w = 2 * math.exp(-1.0)
    assert st_.probs[1] == pytest.approx(w / (1 + w), rel=1e-14)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_temperature_validation(T):
    s = make_spectrum([(0.0, 1), (1.0, 1)])
    with pytest.raises(ValueError):
        gibbs_state(s, T)


def test_log_probs_match_probs():
    s = make_spectrum([(0.0, 1), (0.7, 3), (2.0, 1)])
    st_ = gibbs_state(s, 0.9)
    assert np.exp(gibbs_log_probs(s, 0.9)) == pytest.approx(st_.probs, rel=1e-13)


def test_log_probs_finite_where_probs_underflow():
    s = make_spectrum([(0.0, 1), (1000.0, 1)])
    logp = gibbs_log_probs(s, 1e-3)
    assert np.all(np.isfinite(logp))
    assert logp[1] == pytest.approx(-1e6, rel=1e-10)


@pytest.mark.parametrize("T", [1e-310, 5e-324])
def test_log_probs_reject_temperature_whose_reciprocal_overflows(T):
    s = make_spectrum([(0.0, 1), (1.0, 1)])
    with pytest.raises(ValueError, match=r"temperature .* T\^-1 under- or overflows"):
        gibbs_log_probs(s, T)


def test_temperature_reciprocal_range():
    assert temperature_power(2.0**-1000, -1) == 2.0**1000
    assert temperature_power(4.0, -1, "prior") == 0.25
    with pytest.raises(ValueError, match=r"^prior 1e-310 is out of range: T\^-1"):
        temperature_power(1e-310, -1, "prior")


def test_log_probs_at_tiny_temperature():
    s = make_spectrum([(0.0, 2), (1e-300, 1)])
    logz = math.log(2 + math.exp(-1))
    assert gibbs_log_probs(s, 1e-300) == pytest.approx([math.log(2) - logz, -1 - logz])


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_mean_energy_examples():
    s = make_spectrum([(0.0, 1), (1.0, 1)])
    assert mean_energy(gibbs_state(s, 1.0)) == pytest.approx(P1_UNIT, abs=1e-15)
    assert mean_energy(gibbs_state(s, 1e-6)) == pytest.approx(0.0, abs=1e-12)
    assert mean_energy(gibbs_state(s, 1e9)) == pytest.approx(0.5, abs=1e-8)


def test_variance_single_level_vanishes():
    for T in (0.1, 1.0, 100.0):
        assert energy_variance(gibbs_state(make_spectrum([(2.0, 3)]), T)) == 0.0


@pytest.mark.parametrize("gap,T", [(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)])
def test_two_level_variance_closed_form(gap, T):
    # two-point distribution: var = gap^2 p0 p1
    st_ = gibbs_state(make_spectrum([(0.0, 1), (gap, 1)]), T)
    p0, p1 = st_.probs
    assert energy_variance(st_) == pytest.approx(gap**2 * p0 * p1, rel=1e-13)


def test_three_level_variance_brute_force():
    # independent 3-term summation oracle
    energies = (0.0, 1.0, 2.0)
    w = [math.exp(-e) for e in energies]
    z = sum(w)
    p = [x / z for x in w]
    mu = sum(pi * e for pi, e in zip(p, energies))
    var = sum(pi * (e - mu) ** 2 for pi, e in zip(p, energies))
    st_ = gibbs_state(make_spectrum([(e, 1) for e in energies]), 1.0)
    assert mean_energy(st_) == pytest.approx(mu, rel=1e-14)
    assert energy_variance(st_) == pytest.approx(var, rel=1e-13)


def test_specific_heat_single_level():
    for T in (0.05, 1.0, 50.0):
        assert specific_heat(make_spectrum([(1.0, 2)]), T) == 0.0


@pytest.mark.parametrize("T", [1e-200, 1e200])
def test_specific_heat_rejects_temperature_whose_square_leaves_float_range(T):
    with pytest.raises(ValueError, match=r"temperature .* T\^2 under- or overflows"):
        specific_heat(make_spectrum([(0.0, 1), (1.0, 1)]), T)


def test_specific_heat_two_level_closed_form():
    T = 1.0 / 2.4  # gap/T = 2.4
    st_ = gibbs_state(make_spectrum([(0.0, 1), (1.0, 1)]), T)
    p0, p1 = st_.probs
    assert specific_heat(st_.spectrum, T) == pytest.approx(p0 * p1 / T**2, rel=1e-13)


@pytest.mark.parametrize(
    "levels,T",
    [
        ([(0.0, 1), (1.0, 1)], 0.5),
        ([(0.0, 1), (1.0, 1)], 3.0),
        ([(0.0, 1), (0.5, 2), (3.0, 1)], 0.9),
        ([(-2.0, 1), (0.0, 3), (1.5, 1), (4.0, 2)], 7.0),
    ],
)
def test_specific_heat_matches_energy_derivative(levels, T):
    # central finite difference of the mean energy is the defining derivative
    s = make_spectrum(levels)
    eps = 1e-5 * T
    dmean = (
        mean_energy(gibbs_state(s, T + eps)) - mean_energy(gibbs_state(s, T - eps))
    ) / (2 * eps)
    assert specific_heat(s, T) == pytest.approx(dmean, rel=1e-6)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(spectra(), temperatures(0.1, 100.0))
def test_probability_invariants(s, T):
    probs = gibbs_state(s, T).probs
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0.0)
    assert np.all(probs <= 1.0)
    # Boltzmann ordering holds per microstate; a more degenerate excited
    # level may legitimately carry more aggregate weight.
    per_state = probs / np.asarray(s.multiplicities)
    assert np.all(np.diff(per_state) <= 1e-15 * per_state[:-1])


@settings(max_examples=80, deadline=None)
@given(spectra(), temperatures(0.1, 100.0))
def test_nondegenerate_levels_are_boltzmann_ordered(s, T):
    flat = make_spectrum([(e, 1) for e in s.energies])
    probs = gibbs_state(flat, T).probs
    assert np.all(np.diff(probs) <= 0.0)


@settings(max_examples=60, deadline=None)
@given(spectra(), st.lists(temperatures(), min_size=1, max_size=6))
def test_batched_gibbs_rows_equal_gibbs_state(s, temps):
    # one arithmetic for every Gibbs state: each batched row is bitwise the
    # single-temperature state, whatever the other temperatures in the batch
    probs, z = gibbs_probs(s, np.array(temps))
    means = shifted_means(s, np.array(temps))
    logw, logz = gibbs_log_weights(s, np.array(temps))
    for i, T in enumerate(temps):
        state = gibbs_state(s, T)
        assert np.array_equal(probs[i], state.probs)
        assert float(np.log(z[i])) == state.log_partition
        assert means[i] == _shifted_mean(state)
        logp = logw[i] - logz[i]
        assert np.array_equal(logp, gibbs_log_probs(s, T))
        # 1e-13 relative, wider where |log p| > 100: the exponent's rounding (up to about
        # 3 ulp of |log p|) becomes relative error in exp; subnormal occupations carry fewer bits
        normal = probs[i] >= np.finfo(float).tiny
        p, lp = probs[i][normal], logp[normal]
        assert np.all(abs(np.exp(lp) - p) <= 1e-13 * np.maximum(1.0, abs(lp) / 100.0) * p)


def _log_uniform_temperatures(args):
    n, lo, span, seed = args
    exponents = np.random.default_rng(seed).uniform(lo, min(lo + span, 300.0), n)
    return 10.0 ** exponents


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from([1, 2, 3, 10**12])),
             min_size=1, max_size=300),
    st.sampled_from([0.01, 1.0, 2.0**-20, 1e290]),
    st.tuples(st.integers(1, 2048), st.floats(-300.0, 300.0), st.floats(0.0, 600.0),
              st.integers(0, 2**32 - 1)).map(_log_uniform_temperatures),
)
# the excited entry above the ground's (log 3 - 0.1 > 0 = log m_0), and log weights of -inf
@example(levels=[(0, 1), (1, 3)], unit=1.0, temps=np.array([10.0]))
@example(levels=[(0, 1), (1, 2), (10**4, 1)], unit=1e290, temps=np.array([1e-300, 1.0, 1e300]))
def test_log_weights_equal_the_short_axis_maximum_reference(levels, unit, temps):
    # each row's maximum over the flat array's segments, against max(axis=1); energies up to
    # 1e294 at T down to 1e-300 give levels whose log weight is -inf
    s = make_spectrum([(k * unit, m) for k, m in levels])
    with np.errstate(over="ignore"):
        logw = -np.outer(1.0 / temps, s._shifted) + np.log(s._weights)
    top = logw.max(axis=1, keepdims=True)
    logz = top[:, 0] + np.log(np.exp(logw - top).sum(axis=1))
    got = gibbs_log_weights(s, temps)
    assert got[0].tobytes() == logw.tobytes()
    assert got[1].tobytes() == logz.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.0, -3.7, 1e8, -2.0**40]),
    st.floats(min_value=1e-6, max_value=1e6),
    st.tuples(*[st.sampled_from([1, 2, 3, 4, 10**12])] * 2),
    st.lists(st.floats(min_value=-300.0, max_value=312.0), min_size=1, max_size=12),
)
@example(0.0, 1.0, (1, 1), [310.0, 308.5, 1.0, -300.0])  # d/T past the float range: p_1 = 0
@example(-3.7, 2.4, (4, 10**12), [0.38, 0.0])
def test_two_level_means_are_the_row_major_means(ground, gap, m, log_x):
    # the closed form on two levels has the bits of the row-major dot product of every row,
    # from gap/T past the float range (exponent -inf, occupation 0) to gap/T = 1e-300
    s = make_spectrum([(ground, m[0]), (ground + gap, m[1])])
    assume(s.n_levels == 2)  # a gap below the ulp of the ground energy merges the levels
    with np.errstate(over="ignore"):  # as the callers take it: 10^312 is inf, -d/T can be -inf
        temps = s.gap / 10.0 ** np.array(log_x)
        temps = temps[(temps > 0.0) & np.isfinite(temps)]
        assume(len(temps))
        want = np.vecdot(gibbs_probs(s, temps)[0], s._shifted)
        assert shifted_means(s, temps).tobytes() == want.tobytes()
        for i in range(len(temps)):
            assert shifted_means(s, temps[i:i + 1]).tobytes() == want[i:i + 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(multi_level_spectra())
@example(make_spectrum([(-8.09, 4), (10.0, 1)]))
def test_mean_energy_increases_with_temperature(s):
    grid = [0.2, 0.5, 1.0, 2.0, 5.0, 20.0]
    # Measured from the ground level the mean rises strictly. Added to a
    # nonzero E_0 the excess can fall below the float spacing of E_0 (about
    # 1e-39 at T = 0.2 for the example), so there it need only not fall.
    ground = make_spectrum([(e - s.ground_energy, m) for e, m in zip(s.energies, s.multiplicities)])
    excess = [mean_energy(gibbs_state(ground, T)) for T in grid]
    assert all(a < b for a, b in zip(excess, excess[1:]))
    means = [mean_energy(gibbs_state(s, T)) for T in grid]
    assert all(a <= b for a, b in zip(means, means[1:]))


@settings(max_examples=100, deadline=None)
@given(spectra(), temperatures(0.1, 100.0), st.floats(-50.0, 50.0))
@example(make_spectrum([(0.01, 1), (0.02, 1)]), 1.0, 32.0)
def test_ground_shift_invariance(s, T, c):
    # the shift itself rounds (32.02 - 32.01 is 0.00999999999999801, so the variance
    # moves by 1e-12), so the shifted spectrum is compared with the spectrum of its own
    # float gaps, as test_fisher_report_of_a_shifted_spectrum_is_that_of_its_gaps does
    shifted = make_spectrum(
        [(e + c, m) for e, m in zip(s.energies, s.multiplicities)]
    )
    gaps = make_spectrum(zip(shifted.gaps, shifted.multiplicities))
    assume(gaps.energies == shifted.gaps)  # the merge may group rounded gaps differently
    st_a, st_b = gibbs_state(gaps, T), gibbs_state(shifted, T)
    assert st_b.probs == pytest.approx(st_a.probs, rel=1e-12)
    assert energy_variance(st_b) == pytest.approx(energy_variance(st_a), rel=1e-12, abs=1e-300)
    assert specific_heat(shifted, T) == pytest.approx(
        specific_heat(gaps, T), rel=1e-12, abs=1e-300
    )
    assert mean_energy(st_b) - mean_energy(st_a) == pytest.approx(
        shifted.ground_energy, abs=1e-12 * max(1.0, abs(c))
    )
    assert mean_energy(st_b) - mean_energy(gibbs_state(s, T)) == pytest.approx(
        c, abs=1e-12 * max(1.0, abs(c))
    )


@pytest.mark.parametrize("T", [1e-6, 1.0, 1e9])
@pytest.mark.parametrize("lift", [-1e3, 0.0, 1e3])
def test_extreme_arguments_do_not_panic(T, lift):
    s = make_spectrum([(lift, 1), (lift + 500.0, 2), (lift + 1000.0, 1)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        st_ = gibbs_state(s, T)
    assert np.all(np.isfinite(st_.probs))
    assert st_.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert math.isfinite(mean_energy(st_)) and math.isfinite(energy_variance(st_))


def test_variance_zero_iff_single_distinct_level():
    assert energy_variance(gibbs_state(make_spectrum([(1.0, 5)]), 2.0)) == 0.0
    assert energy_variance(gibbs_state(make_spectrum([(0.0, 1), (1e-3, 1)]), 2.0)) > 0.0


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_dict_round_trip_preserves_values():
    s = make_spectrum([(0.1234567890123456, 1), (math.pi, 3)], label="demo")
    again = spectrum_from_dict(spectrum_to_dict(s))
    assert again.energies == s.energies  # repr round-trip is exact
    assert again.multiplicities == s.multiplicities
    assert again.label == "demo"


def test_file_round_trip(tmp_path):
    s = make_spectrum([(0.0, 1), (1.0 / 3.0, 2)], label="third")
    path = tmp_path / "spectrum.json"
    save_spectrum(s, path)
    assert load_spectrum(path) == s


def test_degeneracy_defaults_to_one():
    s = spectrum_from_dict({"label": "x", "levels": [{"energy": 0.0}, {"energy": 2.0}]})
    assert s.multiplicities == (1, 1)


@pytest.mark.parametrize(
    "data",
    [
        "not a dict",
        {},
        {"levels": []},
        {"levels": [{"energy": "zero"}]},
        {"levels": [{"nrg": 1.0}]},
        {"levels": [{"energy": 0.0, "degeneracy": 1.5}]},
        {"levels": [{"energy": 0.0, "degeneracy": 0}]},
        {"levels": [{"energy": 0.0}], "label": 7},
        {"levels": [{"energy": math.nan}]},
    ],
)
def test_malformed_spectrum_dicts(data):
    with pytest.raises(InputFormatError):
        spectrum_from_dict(data)


def test_energy_beyond_float_range_names_the_field():
    with pytest.raises(OverflowError, match=r"levels\[1\]\.energy"):
        spectrum_from_dict({"levels": [{"energy": 0.0}, {"energy": 10**400}]})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_spectrum(path)


# ---------------------------------------------------------------------------
# error messages on large spectra and non-float numbers
# ---------------------------------------------------------------------------

def _large_levels(n=20001):
    return [{"energy": (i * 37 % 9973) / 64.0, "degeneracy": 1 + i % 3} for i in range(n)]


def _with_levels(replacements, label="large"):
    levels = _large_levels()
    for i, level in replacements.items():
        levels[i] = level
    return {"label": label, "levels": levels}


@pytest.mark.parametrize(
    "replacements,label,error,message",
    [
        ({20000: {"energy": "x"}}, "large", InputFormatError,
         "levels[20000].energy must be a number, got 'x'"),
        ({20000: {"energy": True}}, "large", InputFormatError,
         "levels[20000].energy must be a number, got True"),
        ({20000: {"energy": 10**400}}, "large", OverflowError,
         "levels[20000].energy is beyond the float range"),
        ({20000: {"energy": 1.0, "degeneracy": 2.0}}, "large", InputFormatError,
         "levels[20000].degeneracy must be an integer, got 2.0"),
        ({20000: {"energy": 1.0, "degeneracy": 10**400}}, "large", OverflowError,
         "levels[20000].degeneracy is beyond the float range"),
        # each degeneracy fits a float, their sum at energy 0.0 does not
        ({0: {"energy": 0.0, "degeneracy": 10**308}, 1: {"energy": 0.0, "degeneracy": 10**308}},
         "large", OverflowError, "the multiplicity at energy 0.0 is beyond the float range"),
        ({20000: {"degeneracy": 1}}, "large", InputFormatError,
         "levels[20000] must be an object with an 'energy' field"),
        ({20000: [1.0]}, "large", InputFormatError,
         "levels[20000] must be an object with an 'energy' field"),
        ({20000: {"energy": math.inf}}, "large", InputFormatError,
         "invalid spectrum: energy must be finite, got inf"),
        ({20000: {"energy": 1.0, "degeneracy": 0}}, "large", InputFormatError,
         "invalid spectrum: multiplicity must be >= 1, got 0"),
        # format problems anywhere come before value problems, then the label
        ({5: {"energy": math.inf}, 20000: {"energy": "x"}}, "large", InputFormatError,
         "levels[20000].energy must be a number, got 'x'"),
        ({5: {"energy": math.inf}}, 7, InputFormatError, "'label' must be a string, got 7"),
        # a degeneracy past the float range is a format problem, as an energy's is
        ({5: {"energy": math.nan}, 20000: {"energy": 1.0, "degeneracy": 10**400}}, 7,
         OverflowError, "levels[20000].degeneracy is beyond the float range"),
        # value problems: the first failing level, energy before multiplicity
        ({5: {"energy": 1.0, "degeneracy": 0}, 20000: {"energy": math.nan}}, "large",
         InputFormatError, "invalid spectrum: multiplicity must be >= 1, got 0"),
        ({5: {"energy": math.nan, "degeneracy": -1}}, "large", InputFormatError,
         "invalid spectrum: energy must be finite, got nan"),
    ],
    ids=["string", "bool", "huge-int", "float-degeneracy", "huge-degeneracy",
         "huge-merged-degeneracy", "no-energy", "not-object", "infinite", "zero-degeneracy", "format-first", "label",
         "degeneracy-range-first", "first-level", "energy-first"],
)
def test_large_spectrum_error_messages(replacements, label, error, message):
    with pytest.raises(error) as info:
        spectrum_from_dict(_with_levels(replacements, label))
    assert str(info.value) == message


def test_non_float_numbers_load_like_floats():
    # numpy scalars and fractions take the general number path of the checks
    plain = make_spectrum([(0.5, 2), (0.25, 1), (0.5, 1)], label="mixed")
    mixed = make_spectrum(
        [(np.float64(0.5), np.int64(2)), (Fraction(1, 4), 1), (0.5, 1)], label="mixed"
    )
    assert mixed == plain
    assert all(type(e) is float for e in mixed.energies)
    loaded = spectrum_from_dict({"label": "mixed", "levels": [
        {"energy": np.float64(0.5), "degeneracy": np.int64(2)},
        {"energy": Fraction(1, 4)},
        {"energy": 0.5},
    ]})
    assert loaded == plain
    assert all(type(m) is int for m in loaded.multiplicities)


_ENERGY_KINDS = {"float": lambda k: k / 4, "int": int, "np.float64": lambda k: np.float64(k / 4)}
_DEGENERACY_KINDS = {"int": int, "np.int64": np.int64, "missing": None}


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-40, 40), st.sampled_from(sorted(_ENERGY_KINDS)),
              st.integers(1, 3), st.sampled_from(sorted(_DEGENERACY_KINDS))),
    min_size=1, max_size=30,
))
def test_mixed_valid_levels_give_the_spectrum_of_their_values(draws):
    # a level read in one pass or one at a time is the same level
    levels, pairs = [], []
    for k, energy_kind, m, degeneracy_kind in draws:
        energy = _ENERGY_KINDS[energy_kind](k)
        level = {"energy": energy}
        if degeneracy_kind == "missing":
            m = 1
        else:
            level["degeneracy"] = _DEGENERACY_KINDS[degeneracy_kind](m)
        levels.append(level)
        pairs.append((float(energy), m))
    expected = make_spectrum(pairs, label="mixed")
    plain = [{"energy": e, "degeneracy": m} for e, m in pairs]
    for spectrum in (spectrum_from_dict({"label": "mixed", "levels": levels}),
                     spectrum_from_dict({"label": "mixed", "levels": plain})):
        assert spectrum == expected
        assert [e.hex() for e in spectrum.energies] == [e.hex() for e in expected.energies]
        assert all(type(e) is float for e in spectrum.energies)
        assert all(type(m) is int for m in spectrum.multiplicities)


@pytest.mark.parametrize(
    "level,error,message",
    [
        ({"energy": np.float64("nan")}, InputFormatError,
         "invalid spectrum: energy must be finite, got nan"),
        ({"energy": Fraction(10**400)}, OverflowError,
         "levels[1].energy is beyond the float range"),
        ({"energy": 1.0, "degeneracy": np.int64(0)}, InputFormatError,
         "invalid spectrum: multiplicity must be >= 1, got 0"),
        ({"energy": np.bool_(True)}, InputFormatError,
         "levels[1].energy must be a number, got np.True_"),
        ({"energy": 1.0, "degeneracy": np.float64(2.0)}, InputFormatError,
         "levels[1].degeneracy must be an integer, got np.float64(2.0)"),
    ],
    ids=["nan", "huge-fraction", "zero-degeneracy", "bool", "float-degeneracy"],
)
def test_non_float_number_error_messages(level, error, message):
    with pytest.raises(error) as info:
        spectrum_from_dict({"levels": [{"energy": 0.0}, level]})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "levels,error,message",
    [
        ([], ValueError, "spectrum needs at least one level"),
        ([(0.0, 1), (math.inf, 1)], ValueError, "energy must be finite, got inf"),
        ([(0.0, 1.5)], InputFormatError, "multiplicity must be an integer, got 1.5"),
        ([(0.0, 0)], ValueError, "multiplicity must be >= 1, got 0"),
        # the first failing level wins, whatever its kind of problem
        ([(math.nan, 1), (0.0, 1.5)], ValueError, "energy must be finite, got nan"),
        ([(0.0, 0), (math.inf, 1)], ValueError, "multiplicity must be >= 1, got 0"),
        ([(0.0, 1.5), (math.inf, 1)], InputFormatError,
         "multiplicity must be an integer, got 1.5"),
        ([(-1e308, 1), (1e308, 1)], ValueError,
         "energies must span a finite range, got spread inf"),
        # multiplicities past the float range, alone or merged, on a loop and on arrays
        ([(0.0, 1), (1.0, 10**400)], OverflowError,
         "the multiplicity at energy 1.0 is beyond the float range"),
        ([(1.0, 10**308), (0.0, 1), (1.0, 10**308)], OverflowError,
         "the multiplicity at energy 1.0 is beyond the float range"),
        ([(0.0, 1), (1.0, 10**400)] + [(k + 1.0, 1) for k in range(1, ARRAY_LEVELS)],
         OverflowError, "the multiplicity at energy 1.0 is beyond the float range"),
        ([(-1e308, 1), (1e308, 1)] + [(float(k), 1) for k in range(ARRAY_LEVELS)], ValueError,
         "energies must span a finite range, got spread inf"),
    ],
    ids=["empty", "infinite", "float-multiplicity", "zero-multiplicity", "energy-first",
         "multiplicity-first", "format-first", "spread", "huge-multiplicity",
         "huge-merged-multiplicity", "huge-multiplicity-arrays", "spread-arrays"],
)
def test_make_spectrum_error_messages(levels, error, message):
    with pytest.raises(error) as info:
        make_spectrum(levels)
    assert type(info.value) is error
    assert str(info.value) == message
