import math

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
from thermometry import montecarlo
from thermometry.montecarlo import DRAW_CHUNK, draw_counts

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


def test_abort_policy_raises_before_estimating(monkeypatch):
    # statuses are known before bisection, so an aborting run never bisects
    def no_bisection(*args, **kwargs):
        raise AssertionError("mle_batch called on an aborting run")

    monkeypatch.setattr(montecarlo, "mle_batch", no_bisection)
    cfg = saturation_config(true_temperature=100.0, shots_per_trial=9,
                            trials=100, degenerate_sample_policy=ABORT)
    with pytest.raises(DegenerateExperimentError, match="produced a degenerate sample"):
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
    ],
)
def test_config_from_dict_rejects(mutate):
    data = config_to_dict(saturation_config(trials=10))
    mutate(data)
    with pytest.raises(InputFormatError):
        config_from_dict(data)


def test_report_dict_is_self_describing():
    cfg = saturation_config(trials=50)
    report = run_experiment(cfg)
    data = report_to_dict(report, cfg)
    assert data["config"]["seed"] == cfg.seed
    assert data["config"]["spectrum"]["levels"][1]["energy"] == 1.0
    assert data["generator"].startswith("numpy.random.PCG64")
    assert data["trials_used"] + data["excluded_trials"] == 50
    assert data["ratio"] == report.ratio
