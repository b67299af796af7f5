import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from thermometry import fisher, montecarlo
from thermometry.estimation import bayes_batch, mle_batch
from thermometry.montecarlo import (
    STREAM_BLOCK,
    _estimate,
    _stream_states,
    _trial_streams,
    draw_counts,
)

# far more levels than the Monte Carlo runs sample (2 to 5): a chain of that many binomials
MANY_LEVELS = 65

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saturation_x24.cfg"

QUBIT = make_spectrum([(0.0, 1), (1.0, 1)], label="qubit")
P1_UNIT = 0.2689414213699951
# energies 0, 0.5, 1, 1.5 and 2 with degeneracies 1, 2, 3, 2 and 1
FIVE_LEVELS = make_spectrum([(n / 2, m) for n, m in enumerate((1, 2, 3, 2, 1))], label="five")


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


def test_draw_sample_validation():
    with pytest.raises(ValueError):
        draw_sample(QUBIT, 1.0, 0, trial_rng(0, 0))
    with pytest.raises(InputFormatError, match="shots"):
        draw_sample(QUBIT, 0.4, 100.0, trial_rng(0, 0))
    with pytest.raises(OverflowError, match="shots must be <= 9223372036854775807"):
        draw_sample(QUBIT, 0.4, 2**63, trial_rng(0, 0))


# ---------------------------------------------------------------------------
# sampling kernel: bulk-seeded streams and one multinomial draw per stream
# ---------------------------------------------------------------------------

# seeds of one to ten 32-bit words, and spawn keys of one and two words
STREAM_SEEDS = [0, 7, 2**32 - 1, 20260809, 2**64, 2**64 + 12345, 2**128, 2**130 + 99, 2**300 + 1]
STREAM_TRIALS = [range(0, 3), range(5, 3 * STREAM_BLOCK + 7), range(2**32 - 2, 2**32 + 2),
                 range(2**40, 2**40 + 2)]
LOW64 = 2**64 - 1


def numpy_pcg_states(seed, trials):
    """``(state, inc)`` of numpy's own PCG64 under ``SeedSequence(seed, spawn_key=(t,))``."""
    for t in trials:
        pcg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))).state["state"]
        yield pcg["state"], pcg["inc"]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize(
    "trials", STREAM_TRIALS, ids=["first", "several_blocks", "one_to_two_words", "two_words"]
)
def test_bulk_stream_states_equal_numpy_seeding(seed, trials):
    expected = [[state & LOW64, state >> 64, inc & LOW64, inc >> 64]
                for state, inc in numpy_pcg_states(seed, trials)]
    blocks = list(_stream_states(seed, trials))
    assert all(b.dtype == np.uint64 and len(b) <= STREAM_BLOCK for b in blocks)
    assert np.concatenate(blocks).tolist() == expected


def test_bulk_stream_states_cover_both_carries():
    # the seeding step's two 128-bit additions, inc + s and (inc + s) * mult + inc, each
    # carry out of the low word in some tested trials and not in others
    first, second = set(), set()
    for seed in STREAM_SEEDS:
        for trials in STREAM_TRIALS:
            for t, (state, inc) in zip(trials, numpy_pcg_states(seed, trials)):
                words = np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)
                s_lo, product_lo = int(words[1]), state - inc & LOW64
                first.add((inc & LOW64) + s_lo > LOW64)
                second.add(product_lo + (inc & LOW64) > LOW64)
    assert first == second == {False, True}


def test_trial_streams_continue_as_trial_rng():
    # the reused generator across a block boundary of the state derivation; an odd count of
    # 32-bit draws leaves a half buffered, which the next trial must not draw
    trials = STREAM_BLOCK + 2

    def draw(rng):
        return rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() + rng.random(3).tolist()

    draws = [draw(rng) for rng in _trial_streams(5, trials)]
    assert draws == [draw(trial_rng(5, t)) for t in range(trials)]


@pytest.mark.parametrize("expected", ["_PROBE_LAYOUTS", "_PROBE_FLAGS"])
def test_trial_streams_refuse_an_unknown_state_layout(monkeypatch, expected):
    # the probe reads back as no known layout: expected words or flags that numpy does not hold
    monkeypatch.setattr(montecarlo, expected, {} if expected == "_PROBE_LAYOUTS" else 0)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        next(_trial_streams(5, 3))


@pytest.mark.parametrize(
    "levels,T,shots,edge",
    [
        # exp(-800) underflows: zero occupations, which no draw may reach
        ([(0.0, 1), (1.0, 2), (800.0, 1), (900.0, 1)], 1.0, 500, "zero"),
        # occupations below the cumulative sum's ulp
        ([(0.0, 1), (5.0, 1), (50.0, 1), (51.0, 1)], 1.0, 500, "sub_ulp"),
        ([(e, 1) for e in (0.05, 0.12, 0.81, 1.82, 1.91, 2.19, 2.44, 2.74)], 2.946, 500,
         "sum_below_one"),
        ([(0.0, 1), (1.0, 1)], 0.4, 1, None),
        ([(0.0, 1), (0.2, 2), (0.5, 1), (1.0, 3)], 0.8, 10**6, None),
        ([(0.01 * k, 1) for k in range(MANY_LEVELS)], 0.3, 300, None),
        ([(0.01 * k, 1) for k in range(MANY_LEVELS)], 0.3, 10**6, None),
    ],
    ids=["zero_occupations", "sub_ulp_occupations", "sum_below_one", "one_shot",
         "large_shots", "many_levels", "many_levels_large_shots"],
)
def test_draw_counts_equal_the_multinomial_draw(levels, T, shots, edge):
    s = make_spectrum(levels)
    assert s.n_levels == len(levels)
    probs = gibbs_state(s, T).probs
    if edge == "zero":
        assert (probs == 0.0).any()
    if edge == "sub_ulp":
        assert (probs < np.spacing(1.0)).any() and (probs > 0.0).all()
    if edge == "sum_below_one":
        assert np.cumsum(probs)[-1] < 1.0
    streams = 300
    expected = [trial_rng(3, t).multinomial(shots, probs).tolist() for t in range(streams)]
    counts = draw_counts(s, T, shots, _trial_streams(3, streams))
    assert counts.dtype == np.int64 and counts.shape == (streams, len(levels))
    assert counts.tolist() == expected
    assert (counts.sum(axis=1) == shots).all()
    assert (counts[:, probs == 0.0] == 0).all()


@pytest.mark.parametrize("degeneracies", [(1, 1), (1, 3), (5, 2)], ids=["m1_1", "m1_3", "m5_2"])
def test_two_level_draw_is_the_multinomial_draw_bit_for_bit(degeneracies):
    # one binomial of the ground level, on both of numpy's binomial paths (inversion where
    # the smaller of M p and M q is at most 30, BTPE above) and on both sides of p = 1/2
    s = make_spectrum(list(zip((0.0, 1.0), degeneracies)))
    for T in (0.05, 0.2, 1.0 / 2.4, 1.0, 5.0, 50.0):
        probs = gibbs_state(s, T).probs
        for shots in (1, 2, 31, 61, 1000, 10**5, 10**12, 2**63 - 1):
            expected = [trial_rng(8, t).multinomial(shots, probs).tolist() for t in range(20)]
            assert draw_counts(s, T, shots, _trial_streams(8, 20)).tolist() == expected


def log_binomial_pmf(k, n, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_two_sided_p(x, n, p):
    """Exact two-sided p-value of x under Binomial(n, p): twice the tail on the side of x
    away from the mean, summed in log space from x outwards until the terms stop counting."""
    step = 1 if x >= n * p else -1
    log_tail = log_term = log_binomial_pmf(x, n, p)
    k = x + step
    while 0 <= k <= n and log_term > log_tail - 60.0:
        log_term = log_binomial_pmf(k, n, p)
        log_tail = max(log_tail, log_term) + math.log1p(math.exp(-abs(log_tail - log_term)))
        k += step
    return min(1.0, 2.0 * math.exp(log_tail))


@pytest.mark.parametrize("spectrum,T,shots,trials", [
    (QUBIT, 1.0 / 2.4, 1000, 4000),
    (FIVE_LEVELS, 0.4, 500, 2000),
], ids=["qubit", "five_levels"])
def test_level_totals_pass_an_exact_binomial_tail_test(spectrum, T, shots, trials):
    # summed over R trials, each level's count is Binomial(R M, p_n) whatever the others do
    counts = draw_counts(spectrum, T, shots, _trial_streams(17, trials))
    assert (counts.sum(axis=1) == shots).all()
    for total, p in zip(counts.sum(axis=0).tolist(), gibbs_state(spectrum, T).probs):
        assert binomial_two_sided_p(total, trials * shots, float(p)) > 1e-9


def test_binomial_tail_test_rejects_a_shifted_total():
    # the test above can fail: 6 standard deviations off the mean of Binomial(4e6, 0.083)
    n, p = 4_000_000, 0.0831726964939
    sigma = math.sqrt(n * p * (1.0 - p))
    assert binomial_two_sided_p(round(n * p), n, p) == pytest.approx(1.0, abs=1e-3)
    for sign in (1, -1):
        assert binomial_two_sided_p(round(n * p + sign * 6.5 * sigma), n, p) < 1e-9


def test_draw_memory_is_the_counts_plus_one_block():
    for spectrum in (QUBIT, FIVE_LEVELS):
        draw_counts(spectrum, 0.4, 1000, _trial_streams(3, 10))
        tracemalloc.start()
        try:
            counts = draw_counts(spectrum, 0.4, 1000, _trial_streams(3, 4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the counts and one block of stream states, nothing per shot: one float for each of
        # the 4000 x 1000 shots would take 32 MB
        assert peak < 2 * counts.nbytes + STREAM_BLOCK * 1024, spectrum.label


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


@pytest.mark.parametrize("levels", [[(0.0, 1), (1.0, 1)], [(0.0, 1), (0.5, 2), (1.3, 1)]])
def test_a_run_builds_one_gibbs_state(monkeypatch, levels):
    # F and the cumulative occupations of the draw come from one state of the true
    # temperature, with the bits of fisher_information and draw_counts
    s = make_spectrum(levels)
    cfg = saturation_config(spectrum=s, trials=300, shots_per_trial=200)
    states = []

    def state(spectrum, T):
        states.append(T)
        return gibbs_state(spectrum, T)

    for module in (fisher, montecarlo):
        monkeypatch.setattr(module, "gibbs_state", state)
    report = run_experiment(cfg)
    assert states == [cfg.true_temperature]
    T, shots = cfg.true_temperature, cfg.shots_per_trial
    assert report.crb == 1.0 / (shots * fisher_information(s, T))
    status, estimate = mle_batch(s, draw_counts(s, T, shots, _trial_streams(cfg.seed, cfg.trials)))
    usable = estimate[status == INTERIOR]
    assert report.mean_estimate == float(np.cumsum(usable)[-1]) / len(usable)


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
         {AT_LOWER_BOUND: 123, AT_UPPER_BOUND: 234, NON_INVERTIBLE: 52}),
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


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 50), min_size=1, max_size=60),
    estimator=st.sampled_from([MLE, BAYES]),
    bracket=st.sampled_from([None, (0.3, 0.6)]),
)
def test_estimating_each_distinct_row_once_equals_the_full_batch(
    distinct, picks, estimator, bracket
):
    # two-level rows of 40 shots: (40, 0) is all-ground, (20, 20) non-invertible, and the
    # narrow bracket puts some rows past its ends; every row appears, some of them again
    base = [(40 - k, k) for k in distinct] + [(40, 0), (20, 20)]
    counts = np.array([base[i % len(base)] for i in picks] + base, dtype=np.int64)
    cfg = saturation_config(shots_per_trial=40, trials=len(counts), estimator=estimator,
                            mle_bracket=bracket)
    status, estimate = _estimate(cfg, counts)
    if estimator == MLE:
        full_status, full_estimate = mle_batch(QUBIT, counts, bracket=bracket)
        assert {AT_LOWER_BOUND, NON_INVERTIBLE} <= set(full_status.tolist())
    else:
        full_status = np.full(len(counts), INTERIOR, dtype=object)
        full_estimate = bayes_batch(QUBIT, counts, cfg.effective_prior(), cfg.bayes_grid_size)
    assert status.tolist() == full_status.tolist()
    assert estimate.tobytes() == full_estimate.tobytes()


def test_ratio_stderr_of_one_usable_trial_is_nan():
    assert math.isnan(run_experiment(saturation_config(trials=1)).ratio_stderr)


def exact_two_level_mle_ratio(M, T, gap):
    """The exact finite-M ratio of the two-level MLE, and the crb: k excited of M gives
    T(k) = gap/ln((M-k)/k); k = 0 and k >= M/2 have no interior estimate and are excluded."""
    p = 1.0 / (1.0 + math.exp(gap / T))
    mass = sq = 0.0
    for k in range(1, (M + 1) // 2):
        pmf = math.exp(log_binomial_pmf(k, M, p))
        mass += pmf
        sq += pmf * (gap / math.log((M - k) / k) - T) ** 2
    crb = T**4 / (M * p * (1.0 - p) * gap**2)
    return sq / mass / crb, crb


def test_bundled_ratio_is_within_four_standard_errors_of_the_exact_ratio():
    with open(BUNDLED_CONFIG, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh))
    report = run_experiment(cfg)
    gap = cfg.spectrum.energies[1] - cfg.spectrum.energies[0]
    exact, crb = exact_two_level_mle_ratio(cfg.shots_per_trial, cfg.true_temperature, gap)
    assert exact == pytest.approx(1.00663, abs=5e-5)
    assert report.crb == pytest.approx(crb, rel=1e-12)
    assert abs(report.ratio - exact) < 4.0 * report.ratio_stderr


def test_large_shot_ratio_is_within_four_standard_errors_of_the_exact_ratio():
    # at M = 10^5 the exact ratio is within 1e-4 of the floor, and each trial one binomial
    cfg = saturation_config(shots_per_trial=10**5, trials=4000, seed=41)
    report = run_experiment(cfg)
    exact, crb = exact_two_level_mle_ratio(cfg.shots_per_trial, cfg.true_temperature, 1.0)
    assert exact == pytest.approx(1.0, abs=1e-4) and exact != 1.0
    assert report.crb == pytest.approx(crb, rel=1e-12)
    assert report.excluded_trials == 0
    assert abs(report.ratio - exact) < 4.0 * report.ratio_stderr


def test_a_million_shots_in_ten_thousand_trials_run_in_well_under_a_second():
    # 10^10 shots: one draw per shot would take minutes
    cfg = saturation_config(shots_per_trial=10**6, trials=10**4, seed=43)
    start = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert report.trials_used == 10**4
    assert elapsed < 0.5


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
    with pytest.raises(OverflowError, match="shots_per_trial must be <= 9223372036854775807"):
        saturation_config(shots_per_trial=2**63)


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


@pytest.mark.parametrize("name,value", [("seed", 1.5), ("shots", 100.0), ("trials", True)])
def test_sweep_rejects_a_non_integer_count(name, value):
    kwargs = dict(shots=10, trials=10, seed=0) | {name: value}
    with pytest.raises(InputFormatError, match=name):
        sweep_saturation(QUBIT, [1.0], **kwargs)


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
