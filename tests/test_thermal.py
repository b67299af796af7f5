import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from thermometry.thermal import _shifted_mean, gibbs_log_weights, gibbs_probs, shifted_means

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
def test_ground_shift_invariance(s, T, c):
    shifted = make_spectrum(
        [(e + c, m) for e, m in zip(s.energies, s.multiplicities)]
    )
    st_a, st_b = gibbs_state(s, T), gibbs_state(shifted, T)
    assert st_b.probs == pytest.approx(st_a.probs, rel=1e-12)
    assert energy_variance(st_b) == pytest.approx(energy_variance(st_a), rel=1e-12, abs=1e-300)
    assert specific_heat(shifted, T) == pytest.approx(specific_heat(s, T), rel=1e-12, abs=1e-300)
    assert mean_energy(st_b) - mean_energy(st_a) == pytest.approx(c, abs=1e-12 * max(1.0, abs(c)))


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
        # value problems: the first failing level, energy before multiplicity
        ({5: {"energy": 1.0, "degeneracy": 0}, 20000: {"energy": math.nan}}, "large",
         InputFormatError, "invalid spectrum: multiplicity must be >= 1, got 0"),
        ({5: {"energy": math.nan, "degeneracy": -1}}, "large", InputFormatError,
         "invalid spectrum: energy must be finite, got nan"),
    ],
    ids=["string", "bool", "huge-int", "float-degeneracy", "no-energy", "not-object",
         "infinite", "zero-degeneracy", "format-first", "label", "first-level",
         "energy-first"],
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
    ],
    ids=["empty", "infinite", "float-multiplicity", "zero-multiplicity", "energy-first",
         "multiplicity-first", "format-first", "spread"],
)
def test_make_spectrum_error_messages(levels, error, message):
    with pytest.raises(error) as info:
        make_spectrum(levels)
    assert type(info.value) is error
    assert str(info.value) == message
