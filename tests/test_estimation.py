import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermometry import (
    AT_LOWER_BOUND,
    AT_UPPER_BOUND,
    INTERIOR,
    NON_INVERTIBLE,
    InputFormatError,
    SampleSet,
    bayes_posterior,
    make_spectrum,
    mle_temperature,
    sample_from_dict,
    sample_to_dict,
    trial_rng,
    two_level_factor,
)
from thermometry.estimation import bayes_batch, mle_batch, mle_status
from thermometry.montecarlo import draw_counts
from thermometry.thermal import gibbs_log_weights

QUBIT = make_spectrum([(0.0, 1), (1.0, 1)], label="qubit")


def closed_form_two_level(k0: int, k1: int, gap: float = 1.0) -> float:
    return gap / math.log(k0 / k1)


# ---------------------------------------------------------------------------
# SampleSet
# ---------------------------------------------------------------------------

def test_sample_validation():
    with pytest.raises(ValueError):
        SampleSet(spectrum=QUBIT, counts=(1, 2, 3))
    with pytest.raises(ValueError):
        SampleSet(spectrum=QUBIT, counts=(-1, 2))
    with pytest.raises(ValueError):
        SampleSet(spectrum=QUBIT, counts=(0, 0))


def test_sample_statistics():
    sample = SampleSet(spectrum=QUBIT, counts=(3, 1))
    assert sample.total == 4
    assert sample.mean_energy == pytest.approx(0.25)


def test_sample_dict_round_trip():
    sample = SampleSet(spectrum=QUBIT, counts=(731, 269))
    data = sample_to_dict(sample)
    assert data == {"spectrum_label": "qubit", "counts": [731, 269], "M": 1000}
    assert sample_from_dict(data, QUBIT) == sample


@pytest.mark.parametrize(
    "data",
    [
        "nope",
        {},
        {"counts": []},
        {"counts": [1.5, 2]},
        {"counts": [1, 2], "spectrum_label": "other"},
        {"counts": [1, 2], "M": 17},
        {"counts": [1, 2, 3]},
    ],
)
def test_sample_from_dict_rejects(data):
    with pytest.raises(InputFormatError):
        sample_from_dict(data, QUBIT)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def test_mle_matches_closed_form_inversion():
    result = mle_temperature(SampleSet(spectrum=QUBIT, counts=(731, 269)))
    assert result.status == INTERIOR
    assert result.estimate == pytest.approx(closed_form_two_level(731, 269), rel=1e-10)
    assert result.estimate == pytest.approx(1.0003, abs=1e-4)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
def test_mle_two_level_inversion_randomized(k0, k1):
    assume(k0 > k1)
    assume(math.log(k0 / k1) >= 1e-3)  # keeps the root inside the default bracket
    result = mle_temperature(SampleSet(spectrum=QUBIT, counts=(k0, k1)))
    assert result.status == INTERIOR
    assert result.estimate == pytest.approx(closed_form_two_level(k0, k1), rel=1e-10)


def test_all_ground_sample_is_lower_bound():
    result = mle_temperature(SampleSet(spectrum=QUBIT, counts=(1000, 0)))
    assert result.status == AT_LOWER_BOUND
    assert result.estimate is None


def test_balanced_sample_is_non_invertible():
    result = mle_temperature(SampleSet(spectrum=QUBIT, counts=(500, 500)))
    assert result.status == NON_INVERTIBLE
    assert result.estimate is None


def test_population_inversion_is_non_invertible():
    result = mle_temperature(SampleSet(spectrum=QUBIT, counts=(200, 800)))
    assert result.status == NON_INVERTIBLE


def test_multiplicity_weighted_uniform_limit():
    # uniform-limit mean is sum(m E)/sum(m) = 2/3 for {0, (1, x2)}
    s = make_spectrum([(0.0, 1), (1.0, 2)])
    assert mle_temperature(SampleSet(spectrum=s, counts=(1, 2))).status == NON_INVERTIBLE
    assert mle_temperature(SampleSet(spectrum=s, counts=(2, 1))).status == INTERIOR


def test_narrow_bracket_boundary_statuses():
    sample = SampleSet(spectrum=QUBIT, counts=(731, 269))  # true root near 1.0003
    assert mle_temperature(sample, bracket=(0.1, 0.9)).status == AT_UPPER_BOUND
    assert mle_temperature(sample, bracket=(1.1, 5.0)).status == AT_LOWER_BOUND


def test_mle_bracket_validation():
    sample = SampleSet(spectrum=QUBIT, counts=(7, 3))
    with pytest.raises(ValueError):
        mle_temperature(sample, bracket=(0.0, 1.0))
    with pytest.raises(ValueError):
        mle_temperature(sample, bracket=(2.0, 1.0))
    single = make_spectrum([(0.0, 1)])
    with pytest.raises(ValueError):
        mle_temperature(SampleSet(spectrum=single, counts=(5,)))


def test_three_level_moment_matching():
    s = make_spectrum([(0.0, 1), (1.0, 1), (3.0, 1)])
    sample = SampleSet(spectrum=s, counts=(70, 25, 5))
    result = mle_temperature(sample)
    assert result.status == INTERIOR
    # at the estimate, the model mean matches the sample mean
    from thermometry import gibbs_state, mean_energy

    assert mean_energy(gibbs_state(s, result.estimate)) == pytest.approx(
        sample.mean_energy, rel=1e-10
    )


@pytest.mark.parametrize("a", [0.25, 3.0, 40.0])
def test_mle_scale_equivariance(a):
    counts = (811, 189)
    base = mle_temperature(SampleSet(spectrum=QUBIT, counts=counts))
    scaled_spectrum = make_spectrum([(0.0, 1), (a, 1)])
    scaled = mle_temperature(SampleSet(spectrum=scaled_spectrum, counts=counts))
    assert scaled.status == INTERIOR
    assert scaled.estimate == pytest.approx(a * base.estimate, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=1, max_value=5000))
def test_mle_likelihood_certificate(k0, k1):
    assume(k0 > k1)
    assume(math.log(k0 / k1) >= 1e-3)
    sample = SampleSet(spectrum=QUBIT, counts=(k0, k1))
    result = mle_temperature(sample)
    assert result.status == INTERIOR
    that = result.estimate
    # multinomial log-likelihood sum_n k_n log p_n(T), up to a constant, at three T
    logw, logz = gibbs_log_weights(QUBIT, that * np.array([1.0, 1 + 1e-4, 1 - 1e-4]))
    peak, above, below = logw @ np.array([k0, k1], dtype=float) - (k0 + k1) * logz
    assert peak >= above
    assert peak >= below


def test_mle_batch_exact_two_level_oracle():
    # m0 = m1 = 1: the moment equation inverts to T(k) = gap / ln((M - k)/k)
    gap, shots = 0.7, 1000
    spectrum = make_spectrum([(0.0, 1), (gap, 1)])
    k = np.arange(shots + 1)
    status, estimate = mle_batch(spectrum, np.column_stack([shots - k, k]))
    assert status[0] == AT_LOWER_BOUND and math.isnan(estimate[0])
    for j in range(1, shots // 2):
        assert status[j] == INTERIOR
        assert estimate[j] == pytest.approx(gap / math.log((shots - j) / j), rel=1e-11)
    assert all(s == NON_INVERTIBLE for s in status[shots // 2:])
    assert np.isnan(estimate[shots // 2:]).all()


def test_batch_rows_equal_single_sample_calls():
    # a row's result must not depend on the rows batched with it
    s = make_spectrum([(0.0, 1), (0.3, 2), (0.5, 1), (0.9, 3), (1.4, 1), (2.0, 2),
                       (2.2, 1), (3.1, 1), (4.0, 2)])
    rng = np.random.default_rng(5)
    probs = np.array([0.3, 0.2, 0.1, 0.15, 0.05, 0.1, 0.04, 0.03, 0.03])
    counts = rng.multinomial(40, probs, size=120)
    status, estimate = mle_batch(s, counts)
    assert list(mle_status(s, counts)) == list(status)
    means, sds = bayes_batch(s, counts[:20], (0.05, 20.0), 256)
    for i, row in enumerate(counts):
        single = mle_temperature(SampleSet(spectrum=s, counts=tuple(row.tolist())))
        assert single.status == status[i]
        if single.status == INTERIOR:
            assert single.estimate == estimate[i]
    for i, row in enumerate(counts[:20]):
        post = bayes_posterior(SampleSet(spectrum=s, counts=tuple(row.tolist())),
                               (0.05, 20.0), 256)
        assert (post.mean, post.sd) == (means[i], sds[i])


def test_counts_at_multiplicities_are_non_invertible_in_a_batch():
    # counts = m put the sample mean exactly at the T -> infinity mean, in every row
    s = make_spectrum([(k * 0.01, m) for k, m in
                       [(0, 3), (639, 3), (691, 1), (844, 1)]])
    status, _ = mle_batch(s, np.tile(s.multiplicities, (7, 1)))
    assert all(st_ == NON_INVERTIBLE for st_ in status)


def test_mle_batch_rejects_wrong_shape():
    with pytest.raises(ValueError):
        mle_batch(QUBIT, np.array([1, 2]))
    with pytest.raises(ValueError):
        mle_batch(QUBIT, np.array([[1, 2, 3]]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-4096, max_value=4096), min_size=2, max_size=5, unique=True),
    st.integers(min_value=-10**8, max_value=10**8),
    st.data(),
)
def test_estimates_invariant_under_energy_shift(levels, shift, data):
    # dyadic energies k/2^10 plus an integer shift keep E + c - c exact
    energies = [k / 1024.0 for k in levels]
    base = make_spectrum([(e, 1) for e in energies])
    shifted = make_spectrum([(e + shift, 1) for e in energies])
    assert shifted.gaps == base.gaps
    counts = tuple(
        data.draw(st.lists(st.integers(min_value=0, max_value=500),
                           min_size=base.n_levels, max_size=base.n_levels)
                  .filter(lambda c: sum(c) > 0))
    )
    a = mle_temperature(SampleSet(spectrum=base, counts=counts))
    b = mle_temperature(SampleSet(spectrum=shifted, counts=counts))
    assert (a.status, a.estimate) == (b.status, b.estimate)
    prior = (0.05 * base.spread, 5.0 * base.spread)
    pa = bayes_posterior(SampleSet(spectrum=base, counts=counts), prior, 256)
    pb = bayes_posterior(SampleSet(spectrum=shifted, counts=counts), prior, 256)
    assert (pa.mean, pa.sd) == (pb.mean, pb.sd)


def test_mle_shift_example():
    # a 1e-3 gap lifted by 1e8: the unshifted sample mean used to move this estimate
    counts = (700, 300)
    base = mle_temperature(SampleSet(spectrum=make_spectrum([(0.0, 1), (1e-3, 1)]), counts=counts))
    lifted = make_spectrum([(1e8, 1), (1e8 + 1e-3, 1)])
    moved = mle_temperature(SampleSet(spectrum=lifted, counts=counts))
    assert base.estimate == pytest.approx(0.0011802225011441885, rel=1e-12)
    # the lifted gap is 1e-3 only to the float spacing at 1e8; T scales with it
    assert moved.estimate == pytest.approx(base.estimate * lifted.gap / 1e-3, rel=1e-10)


@pytest.mark.parametrize("shots,tolerance", [(100, 0.03), (1000, 0.01)])
def test_mle_consistency(shots, tolerance):
    # median over 10^4 simulated samples at gap/T = 2.4 approaches the truth
    true_T = 1.0 / 2.4
    counts = draw_counts(QUBIT, true_T, shots, (trial_rng(987, t) for t in range(10_000)))
    status, estimate = mle_batch(QUBIT, counts)
    estimates = estimate[status == INTERIOR].tolist()
    assert len(estimates) >= 9990
    median = statistics.median(estimates)
    assert abs(median - true_T) / true_T <= tolerance


# ---------------------------------------------------------------------------
# Bayesian posterior
# ---------------------------------------------------------------------------

def test_posterior_against_floor_width():
    sample = SampleSet(spectrum=QUBIT, counts=(731, 269))
    post = bayes_posterior(sample, (0.2, 5.0), 4096)
    assert abs(post.mean - 1.0) <= 3.0 * post.sd
    floor_sd = math.sqrt(two_level_factor(1.0) / 1000.0)
    assert post.sd == pytest.approx(floor_sd, rel=0.15)


def test_posterior_quadrature_convergence():
    sample = SampleSet(spectrum=QUBIT, counts=(731, 269))
    coarse = bayes_posterior(sample, (0.2, 5.0), 2048)
    fine = bayes_posterior(sample, (0.2, 5.0), 4096)
    dense = bayes_posterior(sample, (0.2, 5.0), 1_000_000)
    assert abs(fine.mean - coarse.mean) / coarse.mean < 1e-6
    assert fine.mean == pytest.approx(dense.mean, rel=1e-6)
    assert fine.sd == pytest.approx(dense.sd, rel=1e-6)


def test_posterior_mass_normalized():
    sample = SampleSet(spectrum=QUBIT, counts=(92, 8))
    post = bayes_posterior(sample, (0.1, 3.0), 512)
    assert np.trapezoid(post.density, post.temperatures) == pytest.approx(1.0, abs=1e-9)


def test_posterior_concentrates_at_lower_edge_for_cold_sample():
    post = bayes_posterior(SampleSet(spectrum=QUBIT, counts=(1000, 0)), (0.2, 5.0), 2048)
    assert post.mean < 0.5 * (0.2 + 5.0)
    assert post.mean < 0.3


def test_posterior_handles_heavy_underflow():
    # M log p spans thousands of nats across the prior; the max-shift keeps it finite
    sample = SampleSet(spectrum=QUBIT, counts=(99_000, 1_000))
    post = bayes_posterior(sample, (0.05, 10.0), 1024)
    assert math.isfinite(post.mean) and math.isfinite(post.sd)
    assert post.mean == pytest.approx(closed_form_two_level(99_000, 1_000), rel=0.05)


def test_posterior_validation():
    sample = SampleSet(spectrum=QUBIT, counts=(7, 3))
    with pytest.raises(ValueError):
        bayes_posterior(sample, (1.0, 1.0), 256)
    with pytest.raises(ValueError):
        bayes_posterior(sample, (0.0, 1.0), 256)
    with pytest.raises(ValueError):
        bayes_posterior(sample, (5.0, 1.0), 256)
    with pytest.raises(ValueError):
        bayes_posterior(sample, (0.5, 1.0), 32)
