import json
import math
from pathlib import Path

import numpy as np
import pytest

from thermometry import (
    ABORT,
    AT_LOWER_BOUND,
    AT_UPPER_BOUND,
    BAYES,
    DegenerateExperimentError,
    EXCLUDE_AND_REPORT,
    GENERATOR_ID,
    INTERIOR,
    InputFormatError,
    MLE,
    NON_INVERTIBLE,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    draw_sample,
    fisher_information,
    gibbs_state,
    make_spectrum,
    report_to_dict,
    run_experiment,
    sweep_saturation,
    trial_rng,
    two_level_factor,
)
from thermometry.estimation import mle_batch
from thermometry.montecarlo import DRAW_CHUNK, draw_counts

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saturation_x24.cfg"

QUBIT = make_spectrum([(0.0, 1), (1.0, 1)], label="qubit")
P1_UNIT = 0.2689414213699951


def saturation_config(**overrides):
    base = dict(
        spectrum=QUBIT,
        true_temperature=1.0 / 2.4,
        shots_per_trial=1000,
        trials=10_000,
        estimator=MLE,
        seed=20260809,
        degenerate_sample_policy=EXCLUDE_AND_REPORT,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_draw_sample_matches_occupation():
    shots = 1_000_000
    sample = draw_sample(QUBIT, 1.0, shots, trial_rng(42, 0))
    sigma = math.sqrt(P1_UNIT * (1 - P1_UNIT) / shots)
    assert sample.total == shots
    assert abs(sample.counts[1] / shots - P1_UNIT) < 4.0 * sigma


def test_draw_sample_cold_limit():
    sample = draw_sample(QUBIT, 1e-6, 5000, trial_rng(42, 1))
    assert sample.counts == (5000, 0)


def test_draw_sample_deterministic():
    a = draw_sample(QUBIT, 0.7, 10_000, trial_rng(7, 3))
    b = draw_sample(QUBIT, 0.7, 10_000, trial_rng(7, 3))
    assert a.counts == b.counts
    c = draw_sample(QUBIT, 0.7, 10_000, trial_rng(7, 4))
    assert c.counts != a.counts


def test_draw_sample_multilevel_coverage():
    s = make_spectrum([(0.0, 1), (0.2, 2), (0.5, 1), (1.0, 3)])
    shots = 200_000
    sample = draw_sample(s, 1.0, shots, trial_rng(11, 0))
    probs = gibbs_state(s, 1.0).probs
    for count, p in zip(sample.counts, probs):
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) < 5.0 * sigma


def test_draw_counts_rows_equal_draw_sample():
    s = make_spectrum([(0.0, 1), (0.2, 2), (0.5, 1), (1.0, 3)])
    counts = draw_counts(s, 0.6, 300, (trial_rng(4, t) for t in range(25)))
    assert counts.shape == (25, 4)
    for t, row in enumerate(counts):
        assert tuple(row.tolist()) == draw_sample(s, 0.6, 300, trial_rng(4, t)).counts


def test_chunked_draw_equals_one_shot_draw():
    # several chunks plus a remainder continue the stream exactly as one draw
    shots = 200_000
    assert shots > 3 * DRAW_CHUNK
    s = make_spectrum([(0.0, 1), (0.2, 2), (0.5, 1), (1.0, 3)])
    cum = np.cumsum(gibbs_state(s, 0.8).probs)
    u = trial_rng(13, 2).random(shots)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    expected = tuple(np.bincount(idx, minlength=len(cum)).tolist())
    assert draw_sample(s, 0.8, shots, trial_rng(13, 2)).counts == expected


def test_uniform_past_a_cumulative_sum_below_one_lands_in_the_top_level():
    class LargestUniform:
        def random(self, k):
            return np.full(k, 1.0 - 2.0**-53)

    s = make_spectrum([(e, 1) for e in (0.05, 0.12, 0.81, 1.82, 1.91, 2.19, 2.44, 2.74)])
    T = 2.946
    assert np.cumsum(gibbs_state(s, T).probs)[-1] < 1.0
    counts = draw_counts(s, T, 5, [LargestUniform(), LargestUniform()])
    assert counts.tolist() == [[0] * 7 + [5]] * 2


def test_draw_sample_validation():
    with pytest.raises(ValueError):
        draw_sample(QUBIT, 1.0, 0, trial_rng(0, 0))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_saturation_at_optimal_ratio():
    report = run_experiment(saturation_config())
    assert 0.9 <= report.ratio <= 1.15
    assert report.excluded_trials < 0.001 * 10_000
    assert report.trials_used + report.excluded_trials == 10_000
    assert report.crb == pytest.approx(
        1.0 / (1000 * fisher_information(QUBIT, 1.0 / 2.4)), rel=1e-14
    )
    assert report.mean_estimate == pytest.approx(1.0 / 2.4, rel=0.01)
    assert report.generator == GENERATOR_ID


def test_small_sample_regime_still_reports():
    report = run_experiment(saturation_config(shots_per_trial=10))
    assert report.ratio > 0.0
    assert math.isfinite(report.ratio)
    assert report.trials_used > 0


def test_seed_stability_of_ratio():
    r1 = run_experiment(saturation_config(seed=1))
    r2 = run_experiment(saturation_config(seed=2))
    assert abs(r1.ratio - r2.ratio) / r1.ratio < 0.05


def test_reports_are_bitwise_reproducible():
    cfg = saturation_config(trials=500)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_bayes_estimator_runs():
    cfg = saturation_config(trials=300, shots_per_trial=300, estimator=BAYES)
    report = run_experiment(cfg)
    assert report.excluded_trials == 0  # the posterior mean always exists
    assert 0.7 <= report.ratio <= 1.5


def test_abort_policy_raises_quickly():
    cfg = saturation_config(true_temperature=100.0, shots_per_trial=9,
                            trials=100, degenerate_sample_policy=ABORT)
    with pytest.raises(DegenerateExperimentError):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "overrides,expected",
    [
        # gap/T = 6 at M = 50, as in a frozen sweep: most samples are all-ground
        (dict(true_temperature=1.0 / 6.0, shots_per_trial=50, trials=150, seed=6),
         {AT_LOWER_BOUND: 133, AT_UPPER_BOUND: 0, NON_INVERTIBLE: 0}),
        # a narrow bracket produces every status
        (dict(true_temperature=1.0, shots_per_trial=20, trials=2000, seed=9,
              mle_bracket=(0.5, 2.0)),
         {AT_LOWER_BOUND: 124, AT_UPPER_BOUND: 234, NON_INVERTIBLE: 60}),
    ],
)
def test_excluded_by_status(overrides, expected):
    cfg = saturation_config(**overrides)
    report = run_experiment(cfg)
    assert report.excluded_by_status == expected
    assert sum(report.excluded_by_status.values()) == report.excluded_trials
    assert "excluded_by_status" not in report_to_dict(report, cfg)


@pytest.mark.parametrize("overrides", [
    dict(trials=3000),
    dict(true_temperature=1.0, shots_per_trial=20, trials=2000, seed=9, mle_bracket=(0.5, 2.0)),
])
def test_ratio_stderr_is_the_standard_error_of_the_per_trial_ratios(overrides):
    cfg = saturation_config(**overrides)
    report = run_experiment(cfg)
    counts = draw_counts(QUBIT, cfg.true_temperature, cfg.shots_per_trial,
                         [trial_rng(cfg.seed, i) for i in range(cfg.trials)])
    status, estimate = mle_batch(QUBIT, counts, bracket=cfg.mle_bracket)
    x = (estimate[status == INTERIOR] - cfg.true_temperature) ** 2 / report.crb
    assert len(x) == report.trials_used
    assert report.ratio == pytest.approx(x.mean(), rel=1e-12)
    assert report.ratio_stderr == pytest.approx(np.std(x, ddof=1) / math.sqrt(len(x)), rel=1e-9)
    assert "ratio_stderr" not in report_to_dict(report, cfg)


def test_ratio_stderr_of_one_usable_trial_is_nan():
    assert math.isnan(run_experiment(saturation_config(trials=1)).ratio_stderr)


def test_bundled_ratio_is_within_four_standard_errors_of_the_exact_ratio():
    # exact finite-M ratio of the two-level MLE: k excited of M gives T(k) = gap/ln((M-k)/k);
    # k = 0 and k >= M/2 have no interior estimate and are excluded
    with open(BUNDLED_CONFIG, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh))
    report = run_experiment(cfg)
    M, T = cfg.shots_per_trial, cfg.true_temperature
    gap = cfg.spectrum.energies[1] - cfg.spectrum.energies[0]
    p = 1.0 / (1.0 + math.exp(gap / T))
    mass = sq = 0.0
    for k in range(1, (M + 1) // 2):
        pmf = math.exp(math.lgamma(M + 1) - math.lgamma(k + 1) - math.lgamma(M - k + 1)
                       + k * math.log(p) + (M - k) * math.log1p(-p))
        mass += pmf
        sq += pmf * (gap / math.log((M - k) / k) - T) ** 2
    crb = T**4 / (M * p * (1.0 - p) * gap**2)
    exact = sq / mass / crb
    assert exact == pytest.approx(1.00663, abs=5e-5)
    assert report.crb == pytest.approx(crb, rel=1e-12)
    assert abs(report.ratio - exact) < 4.0 * report.ratio_stderr


def test_zero_usable_trials_is_an_error():
    # with one shot every sample is either all-ground or inverted: always degenerate
    cfg = saturation_config(true_temperature=1e9, shots_per_trial=1, trials=5)
    with pytest.raises(DegenerateExperimentError):
        run_experiment(cfg)


def test_single_level_spectrum_rejected():
    with pytest.raises(ValueError):
        run_experiment(saturation_config(spectrum=make_spectrum([(0.0, 1)]), trials=10))


def test_config_validation():
    with pytest.raises(ValueError):
        saturation_config(true_temperature=-1.0)
    with pytest.raises(ValueError):
        saturation_config(shots_per_trial=0)
    with pytest.raises(ValueError):
        saturation_config(trials=0)
    with pytest.raises(ValueError):
        saturation_config(estimator="map")
    with pytest.raises(ValueError):
        saturation_config(degenerate_sample_policy="ignore")
    with pytest.raises(ValueError, match="seed"):
        saturation_config(seed=-1)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_floor_tracks_bound_factor():
    temps = [1.0 / 1.2, 1.0 / 2.4, 1.0 / 4.8]
    reports = sweep_saturation(QUBIT, temps, shots=50, trials=50, seed=5)
    for T, rep in zip(temps, reports):
        # crb/T^2 at M shots is f2(gap/T)/M
        assert rep.crb / T**2 == pytest.approx(two_level_factor(1.0 / T) / 50, rel=1e-12)
    factors = [rep.crb / T**2 for T, rep in zip(temps, reports)]
    assert factors[0] == pytest.approx(3.9036882879505206 / 50, rel=1e-12)
    assert factors[1] == pytest.approx(2.276717766307468 / 50, rel=1e-12)
    assert factors[2] == pytest.approx(5.361052398688536 / 50, rel=1e-12)
    # the dimensionless floor is minimal at the temperature closest to gap/2.4
    assert np.argmin(factors) == 1


def test_sweep_dimensionless_floor_blows_up_below_threshold():
    # below T = gap/x_m the floor relative to T^2 grows monotonically
    temps = [1.0 / 2.4, 1.0 / 4.0, 1.0 / 6.0, 1.0 / 8.0]
    reports = sweep_saturation(QUBIT, temps, shots=2000, trials=30, seed=3)
    factors = [rep.crb / T**2 for T, rep in zip(temps, reports)]
    assert factors[0] < factors[1] < factors[2] < factors[3]


def test_sweep_excluded_fraction_grows_past_gap():
    temps = [0.5, 2.0, 5.0]
    reports = sweep_saturation(QUBIT, temps, shots=20, trials=2000, seed=9)
    fractions = [rep.excluded_trials / 2000 for rep in reports]
    assert fractions[0] < fractions[1] < fractions[2]


def test_sweep_rejects_empty():
    with pytest.raises(ValueError):
        sweep_saturation(QUBIT, [], shots=10, trials=10)
    with pytest.raises(ValueError, match="seed"):
        sweep_saturation(QUBIT, [1.0], shots=10, trials=10, seed=-1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_config_dict_round_trip():
    cfg = saturation_config(trials=50)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_round_trip_with_options():
    cfg = saturation_config(
        trials=20, estimator=BAYES, bayes_prior=(0.1, 2.0), mle_bracket=(0.01, 10.0)
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again.bayes_prior == (0.1, 2.0)
    assert again.mle_bracket == (0.01, 10.0)
    assert again == cfg


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("spectrum"),
        lambda d: d.pop("true_temperature"),
        lambda d: d.pop("seed"),
        lambda d: d.update(trials="many"),
        lambda d: d.update(true_temperature=-2.0),
        lambda d: d.update(estimator="map"),
        lambda d: d.update(bayes_prior=[1.0]),
        lambda d: d.update(bayes_prior=[None, 1.0]),
        lambda d: d.update(bayes_grid_size=None),
        lambda d: d.update(mle_bracket=["a", 1.0]),
        lambda d: d.update(bayes_grid_size=100.7),
        lambda d: d.update(seed=-1),
    ],
)
def test_config_from_dict_rejects(mutate):
    data = config_to_dict(saturation_config(trials=10))
    mutate(data)
    with pytest.raises(InputFormatError):
        config_from_dict(data)


@pytest.mark.parametrize("value", [100.0, True])
@pytest.mark.parametrize("name", ["shots_per_trial", "trials", "seed", "bayes_grid_size"])
def test_config_rejects_a_non_integer_count_at_construction(name, value):
    with pytest.raises(InputFormatError, match=f"{name} must be an integer"):
        saturation_config(**{name: value})


def test_config_stores_numbers_as_floats():
    cfg = saturation_config(true_temperature=1, trials=5, bayes_prior=[1, 2], mle_bracket=(1, 3))
    assert repr((cfg.true_temperature, cfg.bayes_prior, cfg.mle_bracket)) == (
        "(1.0, (1.0, 2.0), (1.0, 3.0))"
    )


def test_report_dict_is_self_describing():
    cfg = saturation_config(trials=50)
    report = run_experiment(cfg)
    data = report_to_dict(report, cfg)
    assert data["config"]["seed"] == cfg.seed
    assert data["config"]["spectrum"]["levels"][1]["energy"] == 1.0
    assert data["generator"].startswith("numpy.random.PCG64")
    assert data["trials_used"] + data["excluded_trials"] == 50
    assert data["ratio"] == report.ratio
