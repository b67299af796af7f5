import itertools
import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _strategies import multi_level_spectra, spectra
from thermometry import estimation
from thermometry import (
    AT_LOWER_BOUND,
    AT_UPPER_BOUND,
    INTERIOR,
    NON_INVERTIBLE,
    InputFormatError,
    SampleSet,
    bayes_of_statistics,
    bayes_posterior,
    make_spectrum,
    mle_of_means,
    mle_temperature,
    sample_from_dict,
    sample_to_dict,
    trial_rng,
    two_level_factor,
)
from thermometry.estimation import (
    BISECT_RTOL,
    BLOCK,
    MIN_GRID_SIZE,
    SCALAR_ROWS,
    _bisect,
    _posterior_means,
    _scalar_walk,
    _solve,
    bayes_batch,
    default_bracket,
    mle_batch,
)
from thermometry.errors import positive_interval
from thermometry.montecarlo import draw_counts
from thermometry.thermal import gibbs_log_probs, gibbs_log_weights, gibbs_probs, gibbs_state

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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SampleSet(spectrum=QUBIT, counts=(bad, 3))


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
        {"counts": [1, 2], "M": 3.0},
        {"counts": [0, 1], "M": True},
        {"counts": [1, 2, 3]},
    ],
)
def test_sample_from_dict_rejects(data):
    with pytest.raises(InputFormatError):
        sample_from_dict(data, QUBIT)


def test_sample_from_dict_rejects_a_total_beyond_the_float_range():
    # each count is a finite float but their float sum is inf, which would read as a mean of
    # 0; like a count beyond the float range, an OverflowError (exit 3), not a format error
    with pytest.raises(OverflowError, match=r"^M is beyond the float range$"):
        sample_from_dict({"counts": [10**308, 10**308]}, QUBIT)


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


def test_mle_bracket_beyond_float_range_warns_nothing():
    # -1/T overflows at the lower bracket end and near it during the bisection; with
    # RuntimeWarnings raised as errors, a warning fails this test
    status, estimate = mle_batch(QUBIT, [[731, 269]], bracket=(1e-320, 1.0))
    assert status.tolist() == [AT_UPPER_BOUND] and math.isnan(estimate[0])
    assert mle_batch(QUBIT, [[1000, 0]], bracket=(1e-320, 1.0))[0].tolist() == [AT_LOWER_BOUND]
    assert mle_temperature(SampleSet(spectrum=QUBIT, counts=(999_999, 1)),
                           bracket=(1e-320, 1.0)).status == INTERIOR


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
    assert list(mle_batch(s, counts)[0]) == list(status)
    means = bayes_batch(s, counts[:20], (0.05, 20.0), 256)
    for i, row in enumerate(counts):
        single = mle_temperature(SampleSet(spectrum=s, counts=tuple(row.tolist())))
        assert single.status == status[i]
        if single.status == INTERIOR:
            assert single.estimate == estimate[i]
    for i, row in enumerate(counts[:20]):
        post = bayes_posterior(SampleSet(spectrum=s, counts=tuple(row.tolist())),
                               (0.05, 20.0), 256)
        assert post.mean == means[i]


@pytest.mark.parametrize("counts, prior, grid", [
    ((731, 269), (0.05, 20.0), 256),
    ((40, 7, 0, 3, 1), (0.3, 3.0), 1024),
    ((1000, 0), (1e-3, 0.2), 64),
])
def test_posterior_sd_is_the_trapezoid_of_its_own_density(counts, prior, grid):
    # the sd formula applied to the posterior's grid and density, in the same power-of-two
    # unit, gives the reported sd bit for bit
    s = make_spectrum([(0.0, 1), (0.4, 2), (1.0, 1), (1.3, 1), (2.5, 3)][:len(counts)])
    post = bayes_posterior(SampleSet(spectrum=s, counts=counts), prior, grid)
    unit = math.ldexp(1.0, math.frexp(prior[1])[1] - 1)
    t = post.temperatures / unit
    mean = post.mean / unit
    var = float(np.trapezoid((t - mean) ** 2 * (post.density * unit), t))
    assert post.sd == math.sqrt(max(var, 0.0)) * unit


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


@pytest.mark.parametrize("row", [(0, 0), (-5, 1), (math.nan, 3), (math.inf, 3), (1, 2, 3)],
                         ids=["no outcome", "negative", "nan", "inf", "wrong shape"])
def test_every_count_entry_point_rejects_a_bad_row(row):
    # a ValueError, not an estimate, with no RuntimeWarning first; alone or among good rows
    batches = [[row]] if len(row) != QUBIT.n_levels else [[row], [(700, 300), row, (1, 1)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for counts in batches:
            with pytest.raises(ValueError):
                mle_batch(QUBIT, counts)
            with pytest.raises(ValueError):
                bayes_batch(QUBIT, counts, (0.2, 5.0), 64)
        # mle_temperature, bayes_posterior and mean_energy take a sample, which refuses it
        with pytest.raises(ValueError):
            SampleSet(spectrum=QUBIT, counts=row)


def test_count_entry_points_reject_a_shot_count_beyond_the_float_range():
    # each count is finite, but M is inf, which would read as a mean of 0
    sample = SampleSet(spectrum=QUBIT, counts=(1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in (lambda: mle_batch(QUBIT, [sample.counts]),
                         lambda: bayes_batch(QUBIT, [sample.counts], (0.2, 5.0), 64),
                         lambda: mle_temperature(sample),
                         lambda: bayes_posterior(sample, (0.2, 5.0), 64),
                         lambda: sample.mean_energy):
            with pytest.raises(ValueError, match="finite and non-negative"):
                estimate()


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


def test_mle_is_scale_equivariant_to_the_top_of_the_float_range():
    # 300 x 2^1020 passes the float range, so an unscaled sum of k_n (E_n - E_0) is inf and
    # the sample reads non-invertible; the bracket ends at 2^1023, where 2 hi0 overflows
    big = make_spectrum([(0.0, 1), (2.0**1020, 1)])
    got = mle_temperature(SampleSet(spectrum=big, counts=(700, 300)),
                          bracket=(2.0**1016, 2.0**1023))
    base = mle_temperature(SampleSet(spectrum=QUBIT, counts=(700, 300)), bracket=(2**-4, 8.0))
    assert got.status == base.status == INTERIOR
    assert got.estimate == base.estimate * 2.0**1020


@pytest.mark.parametrize("top, counts, bracket", [
    (1e300, (10**9, 2 * 10**8), (2e299, 5e300)),
    (1e304, (60_000, 40_000), None),
])
def test_mle_stays_interior_where_the_unscaled_energy_sum_overflows(top, counts, bracket):
    s = make_spectrum([(0.0, 1), (top, 1)])
    result = mle_temperature(SampleSet(spectrum=s, counts=counts), bracket=bracket)
    assert result.status == INTERIOR
    assert result.estimate == pytest.approx(top / math.log(counts[0] / counts[1]), rel=1e-12)


def _row_major_means(spectrum, temps):
    """<H - E_0> at each of ``temps`` as the dot product of each row of Gibbs occupations,
    not through the closed form :func:`shifted_means` takes on two levels."""
    return np.vecdot(gibbs_probs(spectrum, temps)[0], spectrum._shifted)


def _plain_mle_batch(spectrum, counts, bracket=None):
    """``mle_batch`` as one bisection with a row-major mean per step: the reference whose bits
    the guessed-then-checked bisection must keep."""
    if bracket is None:
        bracket = default_bracket(spectrum)
    lo0, hi0 = positive_interval(bracket, "bracket")
    counts = np.asarray(counts, dtype=float)
    de = spectrum._shifted
    m = spectrum._weights
    with np.errstate(over="ignore"):
        ebar = np.vecdot(counts, de) / counts.sum(axis=1)
        edges = _row_major_means(spectrum, np.array((lo0, hi0)))
        status = np.full(len(ebar), INTERIOR, dtype=object)
        status[edges[1] <= ebar] = AT_UPPER_BOUND
        status[edges[0] >= ebar] = AT_LOWER_BOUND
        status[ebar >= (m @ de) / m.sum()] = NON_INVERTIBLE
        status[ebar <= 0.0] = AT_LOWER_BOUND
        estimate = np.full(len(ebar), np.nan)
        rows = np.flatnonzero(status == INTERIOR)
        target = ebar[rows]
        lo = np.full(len(rows), lo0)
        hi = np.full(len(rows), hi0)
        while len(rows):
            total = lo + hi
            mid = 0.5 * total
            active = (hi - lo > BISECT_RTOL * 0.5 * total) & (mid > lo) & (mid < hi)
            if np.count_nonzero(active) < len(rows):
                estimate[rows[~active]] = mid[~active]
                rows, target, lo, hi, mid = (a[active] for a in (rows, target, lo, hi, mid))
            above = _row_major_means(spectrum, mid) > target
            np.copyto(hi, mid, where=above)
            np.copyto(lo, mid, where=~above)
    return status, estimate


def _same_bits(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    spectra(),
    st.sampled_from([None, (5e-324, 1e300), (1e-320, 1.0)]),
    st.floats(min_value=-1.5, max_value=1.0),
    st.sampled_from([1, 7, 50, 1000, 20_000]),
    st.sampled_from([1, 3, 40, SCALAR_ROWS, SCALAR_ROWS + 1, 200, 1100]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mle_batch_equals_the_plain_bisection(s, bracket, log_t, shots, rows, seed):
    # every status and estimate, bit for bit: guessed and checked up to SCALAR_ROWS interior
    # rows (whole rows a block at a time, several blocks at 1000 steps), plainly bisected above
    if bracket is None and s.n_levels == 1:
        with pytest.raises(ValueError):
            mle_batch(s, [[1]])
        return
    T = 10.0**log_t * (s.spread or 1.0)
    counts = np.random.default_rng(seed).multinomial(shots, gibbs_state(s, T).probs, size=rows)
    _same_bits(mle_batch(s, counts, bracket), _plain_mle_batch(s, counts, bracket))


def _interior_rows(n):
    """``n`` distinct count rows of the qubit at M = 10^4, every one interior."""
    k = np.arange(1000, 1000 + n)
    return np.column_stack([10_000 - k, k])


def _counting_walks(monkeypatch):
    """A list recording each guessed walk as "walk" and each ``_bisect`` by its row count."""
    walks = []

    def walk(*a):
        walks.append("walk")
        return _scalar_walk(*a)

    def bisect(spectrum, target, lo0, hi0):
        walks.append(len(target))
        return _bisect(spectrum, target, lo0, hi0)

    monkeypatch.setattr(estimation, "_scalar_walk", walk)
    monkeypatch.setattr(estimation, "_bisect", bisect)
    return walks


@pytest.mark.parametrize("rows", [SCALAR_ROWS, SCALAR_ROWS + 1])
def test_the_row_count_picks_the_walk(monkeypatch, rows):
    # at most SCALAR_ROWS interior rows walk their guesses in Python floats, more are bisected
    # plainly; both keep the plain bisection's bits
    counts = _interior_rows(rows)
    walks = _counting_walks(monkeypatch)
    _same_bits(mle_batch(QUBIT, counts), _plain_mle_batch(QUBIT, counts))
    assert walks == (["walk"] if rows <= SCALAR_ROWS else [rows])


@pytest.mark.parametrize("shots", [3, 50, 1000, 10**5])
@pytest.mark.parametrize("m", [(1, 1), (1, 3), (2, 1)])
@pytest.mark.parametrize("x", [0.05, 0.5, 2.4, 6.0, 20.0])
def test_two_level_root_guess_leaves_no_row_to_bisect_again(monkeypatch, x, m, shots):
    # every upper-level count within 20 of the most likely one at gap/T = x; the closed-form
    # guess, polished on the computed <H>, predicts every real decision of the walk
    s = make_spectrum([(0.0, m[0]), (1.0, m[1])])
    k = round(shots * gibbs_state(s, 1.0 / x).probs[1]) + np.arange(-20, 21)
    k = np.unique(np.clip(k, 0, shots))
    counts = np.column_stack([shots - k, k])
    want = _plain_mle_batch(s, counts)
    walks = _counting_walks(monkeypatch)
    _same_bits(mle_batch(s, counts), want)
    interior = np.count_nonzero(want[0] == INTERIOR)
    assert walks[:1] == (["walk"] if interior else [0])  # m = (2, 1) at M = 3 has none
    # at gap/T = 0.05 (roots near 20 gaps) the computed <H> is flat over tens to
    # thousands of ulps of T, so a midpoint can fall between the guess and the crossing: 17 of
    # the 3820 rows within 4 sd of the mode in these 12 cases
    assert sum(walks[1:]) <= (1 if x < 0.5 else 0)


@pytest.mark.parametrize("guess", ["lower end", "upper end", "near miss"])
def test_rows_with_a_wrong_guess_are_bisected_again_to_the_same_bits(monkeypatch, guess):
    s = make_spectrum([(0.0, 1), (0.5, 2), (1.2, 1), (2.0, 3), (3.5, 1)])
    counts = np.random.default_rng(8).multinomial(300, gibbs_state(s, 0.9).probs, size=60)
    # the first row of each sample mean, in increasing order: the targets mle_batch solves
    means = np.vecdot(counts.astype(float), s._shifted) / counts.sum(axis=1)
    counts = counts[np.unique(means, return_index=True)[1]]
    want = _plain_mle_batch(s, counts)
    roots = want[1][want[0] == INTERIOR]
    assert len(roots) <= SCALAR_ROWS
    # a near miss sits 1e-10 of T off the root, alternately above and below: the walk
    # agrees for about 46 of its 56 steps, then parts from the real one
    sides = np.where(np.arange(len(roots)) % 2, 1 + 1e-10, 1 - 1e-10)
    wrong = {"lower end": lambda s_, t, lo0, hi0: np.full(len(t), lo0),
             "upper end": lambda s_, t, lo0, hi0: np.full(len(t), hi0),
             "near miss": lambda s_, t, lo0, hi0: roots * sides}[guess]
    monkeypatch.setattr(estimation, "_root_guess", wrong)
    walks = _counting_walks(monkeypatch)
    _same_bits(mle_batch(s, counts), want)
    assert walks == ["walk", len(roots)]  # the guessed walk, then every row again


@pytest.mark.parametrize("miss", [None, 1 + 1e-10], ids=["root guess", "near miss"])
def test_a_row_walks_through_many_check_slices(monkeypatch, miss):
    # 2048 levels leave BLOCK // 2048 = 8 midpoints to a check slice, so one row walks, and
    # on (5e-324, 1e300) its walk of about 1040 midpoints is checked in about 130 slices; a
    # guess 1e-10 of T off the root parts from the real decisions only in a late slice
    s = make_spectrum([(0.01 * n, 1) for n in range(2048)])
    counts = np.random.default_rng(21).multinomial(10**4, gibbs_state(s, 3.0).probs, size=1)
    bracket = (5e-324, 1e300)
    want = _plain_mle_batch(s, counts, bracket)
    if miss is not None:
        monkeypatch.setattr(estimation, "_root_guess", lambda s_, t, lo0, hi0: want[1] * miss)
    walks = _counting_walks(monkeypatch)
    _same_bits(mle_batch(s, counts, bracket), want)
    assert walks == (["walk"] if miss is None else ["walk", 1])


def test_rows_with_one_mean_share_one_solve(monkeypatch):
    # on a lattice spectrum (3, 0, 1) and (2, 2, 0) differ but have one mean, 0.5, so
    # _solve sees a single target and both rows get its estimate
    s = make_spectrum([(0.0, 1), (1.0, 1), (2.0, 1)])
    counts = np.array([[3, 0, 1], [2, 2, 0]])
    solved = []

    def solve(spectrum, target, lo0, hi0):
        solved.append(len(target))
        return _solve(spectrum, target, lo0, hi0)

    monkeypatch.setattr(estimation, "_solve", solve)
    got = mle_batch(s, counts)
    assert solved == [1]
    _same_bits(got, _plain_mle_batch(s, counts))
    assert got[0].tolist() == [INTERIOR, INTERIOR]


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


@pytest.mark.parametrize("gap", [1e-300, 1e-150, 1e150, 1e300])
def test_posterior_scales_with_the_gap(gap):
    # in units of the gap the posterior is the qubit's, also where T^2 under- or overflows
    counts = (731, 269)
    ref = bayes_posterior(SampleSet(spectrum=QUBIT, counts=counts), (0.2, 5.0), 256)
    scaled = make_spectrum([(0.0, 1), (gap, 1)])
    post = bayes_posterior(SampleSet(spectrum=scaled, counts=counts), (0.2 * gap, 5.0 * gap), 256)
    assert post.mean == pytest.approx(ref.mean * gap, rel=1e-12, abs=0.0)
    assert post.sd == pytest.approx(ref.sd * gap, rel=1e-12, abs=0.0)


def test_posterior_of_a_sample_impossible_on_the_whole_grid_raises():
    # -S/T of a single count on the upper level is past the float range on the whole grid:
    # the log-likelihood is -inf everywhere, which is no posterior
    wide = make_spectrum([(0.0, 1), (1e300, 1)])
    with pytest.raises(ValueError, match="no finite maximum"):
        bayes_posterior(SampleSet(spectrum=wide, counts=(999, 1)), (1e-10, 1e-9), 64)


def test_an_impossible_row_inside_a_block_raises_the_single_sample_message():
    wide = make_spectrum([(0.0, 1), (1e300, 1)])
    counts = np.tile([1000, 0], (40, 1))
    counts[20] = (999, 1)
    assert BLOCK // 64 > len(counts)  # one block holds every row
    with pytest.raises(ValueError, match="no finite maximum") as batch:
        bayes_batch(wide, counts, (1e-10, 1e-9), 64)
    with pytest.raises(ValueError) as single:
        bayes_posterior(SampleSet(spectrum=wide, counts=(999, 1)), (1e-10, 1e-9), 64)
    assert str(batch.value) == str(single.value)


def test_bayes_batch_of_no_rows_is_empty():
    s = make_spectrum([(0.0, 1), (0.5, 2), (1.5, 1)])
    means = bayes_batch(s, np.zeros((0, 3), dtype=np.int64), (0.1, 5.0), 256)
    assert means.shape == (0,)


def _counting_posteriors(monkeypatch):
    """A list recording the number of samples of each posterior kernel call."""
    calls = []

    def kernel(grid, S, M, density=None):
        calls.append(len(S))
        return _posterior_means(grid, S, M, density)

    monkeypatch.setattr(estimation, "_posterior_means", kernel)
    return calls


@pytest.mark.parametrize("counts, posteriors", [
    ([[1, 0, 1], [0, 2, 0], [1, 0, 1]], 1),  # one (S, M) = (2, 2) from two count vectors
    ([[1, 0, 1], [2, 0, 1], [0, 1, 0]], 3),  # S = 2 at M = 2 and 3, and S = 1 at M = 1
], ids=["same-statistic", "same-S-other-M"])
def test_bayes_batch_takes_one_posterior_per_distinct_statistic(monkeypatch, counts, posteriors):
    s = make_spectrum([(0.0, 1), (1.0, 1), (2.0, 1)])
    want = [bayes_posterior(SampleSet(spectrum=s, counts=tuple(row)), (0.2, 5.0), 256).mean
            for row in counts]
    calls = _counting_posteriors(monkeypatch)
    means = bayes_batch(s, counts, (0.2, 5.0), 256)
    assert calls == [posteriors]
    assert means.tolist() == want
    assert len(set(want)) == posteriors


@settings(max_examples=40, deadline=None)
@given(
    multi_level_spectra(max_levels=6),
    st.sampled_from([1, 5, 30, 1000]),
    st.integers(min_value=1, max_value=120),
    st.floats(min_value=0.1, max_value=3.0),
    st.randoms(use_true_random=False),
)
def test_permuting_rows_permutes_the_estimates(s, shots, rows, scale, random):
    # a row's status and estimates follow from its own statistic, wherever its duplicates
    # sit: few shots give many repeated rows, many shots few
    T = scale * s.spread
    counts = np.random.default_rng(random.getrandbits(32)).multinomial(
        shots, gibbs_state(s, T).probs, size=rows)
    perm = np.array(random.sample(range(rows), rows))
    prior = (T / 5.0, 5.0 * T)
    means = bayes_batch(s, counts, prior, 128)
    assert bayes_batch(s, counts[perm], prior, 128).tobytes() == means[perm].tobytes()
    status, estimate = mle_batch(s, counts)
    _same_bits(mle_batch(s, counts[perm]), (status[perm], estimate[perm]))


@settings(max_examples=40, deadline=None)
@given(
    multi_level_spectra(max_levels=9),
    st.integers(min_value=MIN_GRID_SIZE, max_value=2100),
    st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bayes_batch_rows_equal_single_posteriors_across_blocks(
    s, grid, rows, scale, shots, seed
):
    # row counts of 1 and of one block less, at, one more and 3 blocks plus 5; a row's
    # posterior mean is that of the sample alone, bit for bit, wherever it sits in a block
    block = max(1, BLOCK // grid)
    T = scale * s.spread
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, gibbs_state(s, T).probs, size=rows[0] * block + rows[1])
    prior = (T / 5.0, 5.0 * T)
    means = bayes_batch(s, counts, prior, grid)
    for i, row in enumerate(counts):
        post = bayes_posterior(SampleSet(spectrum=s, counts=tuple(row.tolist())), prior, grid)
        assert post.mean == means[i]
    # then with a block and 2 rows (M2 - i, i, 0, ...) of a second shot total M2 > M after
    # them, each its own pair: sorted by M, the run of M2 ends the run of M wherever it stops
    # in a block and takes two blocks, both of which subtract M2's row M2 x log Z'
    second = shots + block + 2
    i = np.arange(block + 2)
    extra = np.zeros((len(i), s.n_levels), dtype=counts.dtype)
    extra[:, 0], extra[:, 1] = second - i, i
    both = np.concatenate([extra, counts])
    S, M = np.vecdot(both.astype(float), s._shifted), both.sum(axis=1)
    assert len(set(S[:len(i)].tolist())) == len(i) and set(M.tolist()) == {shots, second}
    both_means = bayes_batch(s, both, prior, grid)
    assert bayes_of_statistics(s, S, M, prior, grid).tobytes() == both_means.tobytes()
    assert both_means[len(i):].tobytes() == means.tobytes()
    for k, row in enumerate(extra):
        post = bayes_posterior(SampleSet(spectrum=s, counts=tuple(row.tolist())), prior, grid)
        assert post.mean == both_means[k]


def _reference_posterior_mean(s, counts, prior, grid):
    # row by row: the full log-likelihood sum_n k_n ln p_n(T), ln m_n included, shifted by
    # its maximum, and np.trapezoid for the norm and the first moment
    temps = np.linspace(prior[0], prior[1], grid)
    logp = np.array([gibbs_log_probs(s, T) for T in temps])
    means = []
    for row in counts:
        loglik = logp @ row
        density = np.exp(loglik - loglik.max())
        means.append(np.trapezoid(temps * density, temps) / np.trapezoid(density, temps))
    return np.array(means)


@settings(max_examples=40, deadline=None)
@given(
    multi_level_spectra(max_levels=9),
    st.integers(min_value=MIN_GRID_SIZE, max_value=2100),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bayes_batch_matches_a_row_by_row_reference(s, grid, rows, scale, shots, seed):
    # the kernel drops the T-independent sum_n k_n ln m_n and takes S and M only; the
    # reference keeps every term of the multinomial log-likelihood
    T = scale * s.spread
    counts = np.random.default_rng(seed).multinomial(shots, gibbs_state(s, T).probs, size=rows)
    prior = (T / 5.0, 5.0 * T)
    means = bayes_batch(s, counts, prior, grid)
    ref = _reference_posterior_mean(s, counts, prior, grid)
    np.testing.assert_allclose(means, ref, rtol=1e-12, atol=0.0)


def test_bayes_mean_stays_finite_where_the_unscaled_energy_sum_overflows():
    # S = 2e8 * 1e300 is past the float range; in units of the power of two at or below the
    # spread it is about 3e8, and the mean is the one the per-level kernel gave
    wide = make_spectrum([(0.0, 1), (1e300, 1)])
    means = bayes_batch(wide, [[10**9, 2 * 10**8]], (2e299, 5e300), 256)
    assert means[0] == pytest.approx(6.141176470588235e+299, rel=1e-12, abs=0.0)


def test_bayes_basis_stays_finite_where_spread_over_t_overflows():
    # spread/T passes the float range on the whole grid, gap/T does not: the count on the
    # gap level adds -2/T, which rises by over 1e297 from each grid point to the next, so
    # the mass sits on the top point, as it did with one log weight per level; a basis
    # floored at -max would give every grid point the same log-likelihood, and the
    # midpoint as mean
    s = make_spectrum([(0.0, 1), (2.0, 1), (1e12, 1)])
    post = bayes_posterior(SampleSet(spectrum=s, counts=(999, 1, 0)), (1e-300, 1e-299), 256)
    assert post.mean == pytest.approx(1e-299, rel=1e-12, abs=0.0)


def test_bayes_batch_memory_does_not_grow_with_the_rows():
    # past the per-row vectors (counts, totals, means), memory is one block of at most
    # BLOCK floats, whatever the row count; a (rows, grid) array of 18000 more rows would
    # take 147 MB
    s = make_spectrum([(0.0, 1), (1.0, 3), (2.0, 3), (3.0, 1), (4.0, 2)])
    counts = np.random.default_rng(11).multinomial(
        1000, gibbs_state(s, 1.0).probs, size=20_000)
    bayes_batch(s, counts[:10], (0.2, 5.0), 1024)
    peaks = []
    for rows in (2_000, 20_000):
        tracemalloc.start()
        try:
            bayes_batch(s, counts[:rows], (0.2, 5.0), 1024)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 18_000 * (s.n_levels + 3) * 8


def test_mle_batch_memory_does_not_grow_with_the_rows():
    # past the per-row vectors (counts, sample means, statuses, estimates, brackets) and one
    # step's Gibbs occupations, memory is at most one block plus one row of unchecked
    # midpoints; steps x rows x levels floats of 18000 more rows would take 41 MB
    s = make_spectrum([(0.0, 1), (1.0, 3), (2.0, 3), (3.0, 1), (4.0, 2)])
    counts = np.random.default_rng(12).multinomial(
        10**5, gibbs_state(s, 1.0).probs, size=20_000)
    mle_batch(s, counts[:10])
    peaks = []
    for rows in (2_000, 20_000):
        tracemalloc.start()
        try:
            mle_batch(s, counts[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 18_000 * (4 * s.n_levels + 12) * 8


def test_mle_check_memory_does_not_grow_with_the_steps():
    # the guessed walk of these 57 rows (at most SCALAR_ROWS, so in Python floats) checks
    # whole rows once their midpoints fill a block: 20 times the steps (a bracket of
    # (5e-324, 1e300) takes about 1040) cost at most a block plus one row of midpoints,
    # their row indices and decisions and one block's occupations, not a record of every
    # step (about 1040 x 57 x 17 B = 1.0 MB)
    k = np.random.default_rng(13).binomial(1000, gibbs_state(QUBIT, 0.4).probs[1], size=4000)
    counts = np.unique(np.column_stack([1000 - k, k]), axis=0)[:120]
    peaks = []
    for bracket in (None, (5e-324, 1e300)):
        mle_batch(QUBIT, counts[:2], bracket)
        tracemalloc.start()
        try:
            mle_batch(QUBIT, counts, bracket)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= (BLOCK // QUBIT.n_levels) * (8 + 8 + 1 + 4 * 8)


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


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=10_000)).filter(lambda c: sum(c) > 0),
    st.tuples(st.floats(min_value=-3.0, max_value=2.0),
              st.floats(min_value=0.01, max_value=3.0)).map(
        lambda p: (10.0 ** p[0], 10.0 ** (p[0] + p[1]))),
    st.sampled_from([MIN_GRID_SIZE, 128, 1024]),
)
# a posterior collapsed onto an end of the grid: before the mean was clipped to the grid's
# ends, rounding took each of these one ulp past its prior
@example(counts=(9999, 1), prior=(7.430309162450986, 105.82325392165191), grid=128)
@example(counts=(1, 9999), prior=(0.7676041928872599, 1.3185868745720237), grid=64)
@example(counts=(0, 1000), prior=(1e-300, 1e-299), grid=64)
def test_posterior_mean_lies_in_its_prior(counts, prior, grid):
    mean = bayes_posterior(SampleSet(spectrum=QUBIT, counts=counts), prior, grid).mean
    assert prior[0] <= mean <= prior[1]
    assert bayes_batch(QUBIT, [counts], prior, grid).tolist() == [mean]
    assert bayes_of_statistics(QUBIT, [counts[1]], [sum(counts)], prior, grid).tolist() == [mean]


# ---------------------------------------------------------------------------
# the statistic-level functions under the count adapters
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    multi_level_spectra(max_levels=6),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=120),
    st.floats(min_value=0.05, max_value=5.0),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_statistic_functions_equal_the_count_adapters(s, shots, rows, scale, explicit, seed):
    # each row's sample mean and (S, M), formed as the adapters form them, give the adapters'
    # bits: on the default bracket or an explicit one, on the default prior [T/5, 5T] of a
    # run or an explicit one
    T = scale * s.spread
    counts = np.random.default_rng(seed).multinomial(shots, gibbs_state(s, T).probs, size=rows)
    S, M = np.vecdot(counts.astype(float), s._shifted), counts.sum(axis=1)
    bracket = (T / 30.0, 30.0 * T) if explicit else None
    _same_bits(mle_of_means(s, S / M, bracket), mle_batch(s, counts, bracket))
    prior, grid = ((T / 2.0, 3.0 * T), 300) if explicit else ((T / 5.0, 5.0 * T), 1024)
    means = bayes_of_statistics(s, S, M, prior, grid)
    assert means.tobytes() == bayes_batch(s, counts, prior, grid).tobytes()


def _rows_by_lattice_sum(s, unit, shots):
    """Every count row of ``shots`` outcomes on ``s``, grouped by its integer lattice sum
    sum_n k_n j_n, where E_n - E_0 = j_n ``unit``: {lattice sum: rows}."""
    j = [round(e / unit) for e in s._shifted.tolist()]
    assert np.array_equal(np.array(j) * unit, s._shifted)
    groups = {}
    for k in itertools.product(range(shots + 1), repeat=s.n_levels - 1):
        if sum(k) <= shots:
            row = (shots - sum(k), *k)
            groups.setdefault(sum(c * jn for c, jn in zip(row, j)), []).append(row)
    return groups


def test_one_lattice_sum_gives_one_statistic_on_a_dyadic_lattice():
    # unit 1/8: every partial sum is a multiple of 1/8 far below 2^53 of them, so exact, and
    # rows with one lattice sum have one S, one sample mean and one estimate of each kind
    s = make_spectrum([(0.0, 1), (0.125, 2), (0.375, 1), (0.5, 3)])
    for rows in _rows_by_lattice_sum(s, 0.125, 6).values():
        counts = np.array(rows)
        for values in (np.vecdot(counts.astype(float), s._shifted),
                       bayes_batch(s, counts, (0.05, 2.0), 256), mle_batch(s, counts)[1]):
            assert len({x.hex() for x in values.tolist()}) == 1  # NaN included


def test_one_lattice_sum_can_give_two_statistics_on_a_non_dyadic_lattice():
    # unit 0.1 is no power of two: counts (7, 3, 0) and (9, 0, 1) have the lattice sum 3, but
    # 3 x 0.1 and 1 x 0.3 round to S an ulp apart, so Bayes takes two posteriors. The two
    # sample means are an ulp apart too, and the MLE's bisection stops at one midpoint
    s = make_spectrum([(0.0, 1), (0.1, 1), (0.3, 1)])
    counts = [[7, 3, 0], [9, 0, 1]]
    prior = (0.05, 2.0)
    S = np.vecdot(np.array(counts, dtype=float), s._shifted)
    # in units of the grid's scale, the power of two 1/4 at or below the spread 0.3
    assert [x.hex() for x in S / 0.25] == ["0x1.3333333333334p+0", "0x1.3333333333333p+0"]
    means = bayes_batch(s, counts, prior, 1024)
    assert means[0] != means[1]  # 0.37535193748138 and 0.37535193748137985
    assert means[0] == pytest.approx(means[1], rel=1e-15, abs=0.0)
    assert bayes_of_statistics(s, S, [10, 10], prior, 1024).tolist() == means.tolist()
    # exact code forms S as the lattice sum times the unit: one S, the first row's mean
    assert bayes_of_statistics(s, [3 * 0.1], [10], prior, 1024).tolist() == [means[0]]
    status, estimate = mle_batch(s, counts)
    assert status.tolist() == [INTERIOR, INTERIOR] and estimate[0] == estimate[1]
    assert S[0] / 10 != S[1] / 10
    _same_bits(mle_of_means(s, S / 10), (status, estimate))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_statistic_functions_reject_a_statistic_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="sample means must be a vector of finite numbers"):
        mle_of_means(QUBIT, [0.2, bad])
    with pytest.raises(ValueError, match="S must be a vector of finite numbers"):
        bayes_of_statistics(QUBIT, [3.0, bad], [10, 10], (0.2, 5.0), 256)
    with pytest.raises(ValueError, match="M must be a vector of finite numbers"):
        bayes_of_statistics(QUBIT, [3.0, 3.0], [10, bad], (0.2, 5.0), 256)


@pytest.mark.parametrize("S, M", [
    ([3.0], [0]), ([3.0], [0.5]), ([3.0], [-10]), ([3.0, 4.0], [10]), ([[3.0]], [[10]]),
], ids=["M-0", "M-half", "M-negative", "lengths-differ", "not-vectors"])
def test_bayes_of_statistics_rejects_m_below_1_and_shapes_that_differ(S, M):
    with pytest.raises(ValueError):
        bayes_of_statistics(QUBIT, S, M, (0.2, 5.0), 256)


def test_statistic_functions_reject_a_bad_bracket_or_prior():
    for bracket in [(1.0, 0.5), (0.0, 1.0), (math.nan, 1.0), (0.1, math.inf)]:
        with pytest.raises(ValueError, match="bracket must satisfy"):
            mle_of_means(QUBIT, [0.2], bracket)
    flat = make_spectrum([(0.0, 2)])
    with pytest.raises(ValueError, match="default bracket undefined"):
        mle_of_means(flat, [0.0])
    for prior, grid in [((5.0, 1.0), 256), ((0.0, 1.0), 256), ((0.2, math.inf), 256),
                        ((1e-320, 1.0), 256), ((0.2, 5.0), MIN_GRID_SIZE - 1)]:
        with pytest.raises(ValueError):
            bayes_of_statistics(QUBIT, [3.0], [10], prior, grid)
    with pytest.raises(ValueError, match="sample means must be a vector"):
        mle_of_means(QUBIT, 0.2)
