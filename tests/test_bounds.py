import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq, minimize_scalar

from thermometry import (
    GapFamily,
    InputFormatError,
    UNBOUNDED,
    family_from_dict,
    fisher_information,
    fisher_report,
    gapped_divergence_factor,
    make_spectrum,
    minimize_three_level_factor,
    minimize_two_level_factor,
    three_level_factor,
    three_level_factor_grid,
    tune_gap,
    two_level_crb,
    two_level_factor,
)
from thermometry.bounds import (
    ROOT_BRACKET,
    _brentq,
    _cross_diagonal_curvature,
    _cubic_value,
    _degenerate_minimum,
    _degenerate_stationarity,
    _pchip,
)

# 30-digit roots of s_1 and s_2 (x sinh x = 2(1+cosh x) and its diagonal
# analogue), rounded to float64.
X_M = 2.3993572805154675
G_MIN = 2.2767175312280727
X_H = 2.654657972462592
H_MIN = 1.3126766377485912

ratios = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def degenerate_factor(x, m):
    """g_m(x) = (1 + m e^{-x})^2 / (m x^2 e^{-x}).

    1/F at T = 1 of levels (0, x) with degeneracies (1, m).
    """
    e = math.exp(-x)
    return (1 + m * e) ** 2 / (m * x * x * e)


def naive_three_level_factor(x, y):
    """Literal formula, safe only for moderate arguments."""
    num = math.exp(-x - y) * (math.exp(x) + math.exp(y) + math.exp(x + y)) ** 2
    den = (1 + math.exp(y)) * x * x - 2 * x * y + (1 + math.exp(x)) * y * y
    return num / den


def diagonal_closed_form(x):
    """(2 + e^x)^2 / (2 x^2 e^x) as (2 e^{-x/2} + e^{x/2})^2 / (2 x^2), finite for x <= 700.

    ``inf`` where 2 x^2 underflows to 0, below x ~ 1e-162: the factor is past the float
    range there.
    """
    half = math.exp(0.5 * x)
    den = 2.0 * x * x
    return (2.0 / half + half) ** 2 / den if den else math.inf


# ---------------------------------------------------------------------------
# two-level factor
# ---------------------------------------------------------------------------

def test_two_level_factor_values():
    assert two_level_factor(2.4) == pytest.approx(2.0 * (1 + math.cosh(2.4)) / 2.4**2, rel=1e-15)
    assert two_level_factor(2.4) == pytest.approx(2.27, abs=0.01)
    assert two_level_factor(1.0) == pytest.approx(2.0 * (1 + math.cosh(1.0)), rel=1e-15)


def test_two_level_factor_cross_checks_fisher():
    # 1/(T^2 F) for a unit-gap system at T = 1 is the factor at x = 1
    f = fisher_information(make_spectrum([(0.0, 1), (1.0, 1)]), 1.0)
    assert two_level_factor(1.0) == pytest.approx(1.0 / f, rel=1e-12)


def test_two_level_factor_small_x_law():
    assert two_level_factor(1e-3) * 1e-6 / 4.0 == pytest.approx(1.0, abs=1e-6)
    # 4/x^2 beyond the float range: saturate, also where x^2 underflows to 0
    assert math.isinf(two_level_factor(1e-160))
    assert math.isinf(two_level_factor(1e-200))
    assert math.isinf(three_level_factor(1e-200, 1e-200))


def test_two_level_factor_large_x_law():
    assert two_level_factor(50.0) * 50.0**2 * math.exp(-50.0) == pytest.approx(1.0, abs=1e-3)


def test_two_level_factor_asymptotic_branch():
    # continuity across the switch and graceful saturation far beyond it
    assert two_level_factor(700.1) == pytest.approx(
        math.exp(700.1 - 2 * math.log(700.1)), rel=1e-12
    )
    assert two_level_factor(699.9) == pytest.approx(
        math.exp(699.9 - 2 * math.log(699.9)), rel=1e-12
    )
    assert math.isfinite(two_level_factor(720.0))
    # inf only where e^{x - 2 ln x} itself overflows
    assert two_level_factor(722.5) == 1.1483848970269577e308
    assert math.isinf(two_level_factor(760.0))


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_two_level_factor_rejects(x):
    with pytest.raises(ValueError):
        two_level_factor(x)


# ---------------------------------------------------------------------------
# three-level factor
# ---------------------------------------------------------------------------

def test_three_level_factor_near_minimum():
    assert three_level_factor(2.66, 2.66) == pytest.approx(1.313, abs=1e-3)
    assert three_level_factor(2.66, 2.66) == pytest.approx(1.3126859902804158, rel=1e-13)


def test_three_level_factor_symmetry_example():
    assert three_level_factor(1.0, 2.0) == pytest.approx(three_level_factor(2.0, 1.0), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(ratios, ratios)
def test_three_level_factor_symmetry(x, y):
    assert three_level_factor(x, y) == pytest.approx(three_level_factor(y, x), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
)
def test_three_level_factor_matches_naive_formula(x, y):
    assert three_level_factor(x, y) == pytest.approx(naive_three_level_factor(x, y), rel=1e-11)


def test_three_level_approaches_two_level():
    assert abs(three_level_factor(2.4, 30.0) - two_level_factor(2.4)) < 1e-3
    for x in (1.0, 2.0, 3.5, 5.0):
        assert abs(three_level_factor(x, 30.0) - two_level_factor(x)) <= 1e-3
    # far limit is exact to rounding
    assert three_level_factor(2.0, 650.0) == pytest.approx(two_level_factor(2.0), rel=1e-12)


def test_three_level_factor_stable_to_700():
    value = three_level_factor(700.0, 700.0)
    assert math.isfinite(value) and value > 1e290


def test_three_level_factor_underflow_reported():
    # every term of the denominator underflows, also where x^2 or (x - y)^2 is past the
    # float range: the true denominator is below ~1e-322, so the factor is past the range
    for x, y in [(800.0, 800.0), (1e160, 1e160), (1e200, 2e200), (1e-170, 1e160)]:
        assert three_level_factor(x, y) == math.inf


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0)])
def test_three_level_factor_rejects(x, y):
    with pytest.raises(ValueError):
        three_level_factor(x, y)


@pytest.mark.parametrize("x,y", [(1e160, 5.0), (5.0, 1e160), (1e200, 5.0), (1.7e308, 5.0)])
def test_three_level_factor_past_the_square_range(x, y):
    # the terms carrying e^{-x} = 0 add 0, as for 745 < x < 1e154, also where x^2 and
    # (x - y)^2 are past the float range
    assert three_level_factor(x, y) == three_level_factor(800.0, 5.0) == 6.016795881983026


# axis values: floats in range or not, and the ints and numpy floats the grid reads as floats
AXIS_VALUES = (
    st.floats(min_value=1e-3, max_value=60.0)
    | st.floats()
    | st.integers(-2, 60)
    | st.floats().map(np.float64)
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(AXIS_VALUES, max_size=5),
    st.lists(AXIS_VALUES, max_size=5),
)
def test_three_level_factor_grid_is_the_factor_cell_by_cell(xs, ys):
    # the same bits, or the same first error (a bad value)
    try:
        expected = [[three_level_factor(x, y) for y in ys] for x in xs]
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            three_level_factor_grid(xs, ys)
        assert str(info.value) == str(exc)
    else:
        assert repr(three_level_factor_grid(xs, ys)) == repr(expected)


def test_diagonal_closed_form():
    for x in (0.8, 2.66, 10.0, 300.0):
        assert three_level_factor(x, x) == pytest.approx(diagonal_closed_form(x), rel=1e-12)
    assert three_level_factor(2.66, 2.66) == pytest.approx(
        (2 + math.exp(2.66)) ** 2 / (2 * 2.66**2 * math.exp(2.66)), rel=1e-13
    )
    # past x ~ 708 the denominator is subnormal and keeps fewer bits, yet stays finite
    assert three_level_factor(723.0, 723.0) == 9.453743739482051e307


# log-uniform over the positive floats, subnormals included
POSITIVE_FLOATS = st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(POSITIVE_FLOATS, POSITIVE_FLOATS)
@example(1e-170, 1e-170)
@example(722.5, 722.5)
@example(723.0, 723.0)
@example(745.2, 745.2)
@example(800.0, 800.0)
@example(1e160, 1e160)
@example(1e200, 1e200)
@example(1e-170, 1e160)
@example(1e-10, 1e300)
@example(1e150, 1e-300)
def test_bounds_saturate_and_never_refuse(x, y):
    # a value past the float range is inf, never an error; only a bad input is refused
    def saturated(v):
        return type(v) is float and 0.0 < v <= math.inf

    assert saturated(two_level_factor(x))
    assert saturated(three_level_factor(x, y))
    assert all(saturated(h) for row in three_level_factor_grid([x, y], [y, x]) for h in row)
    for T, gap in ((x, y), (y, x)):
        if 0.0 < T * T < math.inf:  # else T^2 leaves the float range: a bad temperature
            assert saturated(two_level_crb(T, gap))
    if x <= 700.0:
        assert three_level_factor(x, x) == pytest.approx(diagonal_closed_form(x), rel=1e-12)


# ---------------------------------------------------------------------------
# minima
# ---------------------------------------------------------------------------

def test_two_level_minimum_default_bracket():
    res = minimize_two_level_factor()
    assert res.argmin == pytest.approx(X_M, abs=1e-14)
    assert res.value == pytest.approx(G_MIN, rel=1e-12)
    assert res.argmin == pytest.approx(2.4, abs=0.05)
    assert res.value == pytest.approx(2.27, abs=0.01)
    assert res.converged
    assert res.value > 0.0
    assert 0.5 < res.argmin < 10.0


def test_two_level_minimum_grid_certificate():
    grid = np.linspace(0.5, 10.0, 10**6)
    values = 2.0 * (1.0 + np.cosh(grid)) / grid**2
    x_grid = grid[np.argmin(values)]
    assert abs(minimize_two_level_factor().argmin - x_grid) <= 1e-5


def test_three_level_minimum():
    res = minimize_three_level_factor()
    xh, yh = res.argmin
    assert xh == yh  # symmetric minimizer, by construction
    assert xh == pytest.approx(X_H, abs=1e-9)
    assert res.value == pytest.approx(H_MIN, rel=1e-12)
    assert xh == pytest.approx(2.66, abs=0.05)
    assert res.value == pytest.approx(1.31, abs=0.01)
    assert res.converged


def _central_differences(f, x, y, h):
    """Gradient and Hessian of f at (x, y) by central differences of step h."""
    f0 = f(x, y)
    fx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    fy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    fxx = (f(x + h, y) - 2 * f0 + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2 * f0 + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
    return (fx, fy), ((fxx, fxy), (fxy, fyy))


def test_three_level_minimum_is_a_strict_local_minimum():
    # independent of the closed form: the gradient vanishes and the numerical
    # Hessian is positive definite at the returned point
    xh, yh = minimize_three_level_factor().argmin
    (fx, fy), hessian = _central_differences(three_level_factor, xh, yh, 1e-4 * xh)
    assert abs(fx) <= 1e-7 and abs(fy) <= 1e-7
    eigenvalues = np.linalg.eigvalsh(np.array(hessian))
    assert eigenvalues.min() > 0.1


@pytest.mark.parametrize("t", np.linspace(1.5, 3.5, 21).tolist())
def test_cross_diagonal_curvature_matches_finite_differences(t):
    _, ((fxx, fxy), _) = _central_differences(three_level_factor, t, t, 1e-4 * t)
    closed = _cross_diagonal_curvature(t) * math.exp(t) / (4 * t**4)
    assert closed == pytest.approx(fxx - fxy, rel=1e-5)


@pytest.mark.parametrize("t", np.linspace(1.5, 3.5, 21).tolist())
def test_diagonal_slope_matches_finite_differences(t):
    h = 1e-4 * t
    slope = (three_level_factor(t + h, t + h) - three_level_factor(t - h, t - h)) / (2 * h)
    closed = _degenerate_stationarity(t, 2) * (math.exp(t) + 2) ** 2 * math.exp(-t) / (2 * t**2)
    assert closed == pytest.approx(slope, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("t", np.linspace(1.5, 3.5, 21).tolist())
def test_two_level_slope_matches_finite_differences(t):
    h = 1e-4 * t
    slope = (two_level_factor(t + h) - two_level_factor(t - h)) / (2 * h)
    closed = _degenerate_stationarity(t, 1) * two_level_factor(t)
    # the difference is off by ~h^2 f2'''/6, up to 5e-8 here; the slope crosses 0 at x_m
    assert closed == pytest.approx(slope, rel=1e-5, abs=1e-7)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(*ROOT_BRACKET), m=st.integers(1, 32))
def test_degenerate_level_crb_is_the_family_factor(x, m):
    report = fisher_report(make_spectrum([(0.0, 1), (x, m)]), 1.0)
    assert report.crb_single_shot == pytest.approx(degenerate_factor(x, m), rel=1e-12)


def test_three_level_minimum_is_the_m2_member():
    root, converged, iterations = _degenerate_minimum(2)
    res = minimize_three_level_factor()
    assert res.argmin == (root, root)
    assert (res.converged, res.iterations) == (converged, iterations)


@pytest.mark.parametrize(
    "m, x_star, g_star", [(3, 2.845, 0.977), (7, 3.333, 0.563), (31, 4.412, 0.259)]
)
def test_degenerate_minimum_of_more_excited_levels(m, x_star, g_star):
    root, converged, _ = _degenerate_minimum(m)
    assert converged
    assert root == pytest.approx(x_star, abs=5e-4)
    assert degenerate_factor(root, m) == pytest.approx(g_star, abs=5e-4)


def test_s1_has_the_sign_of_the_tanh_form():
    for x in np.linspace(*ROOT_BRACKET, 2001).tolist():
        tanh_form = x * math.tanh(0.5 * x) - 2.0
        assert np.sign(_degenerate_stationarity(x, 1)) == np.sign(tanh_form)


def test_cross_diagonal_curvature_changes_sign():
    # the check can fail: beyond t ~ 3.777 the diagonal point is a saddle
    assert _cross_diagonal_curvature(X_H) == pytest.approx(3.93968012457511, rel=1e-12)
    assert _cross_diagonal_curvature(3.7) > 0.0 > _cross_diagonal_curvature(3.85)


def test_three_level_minimum_grid_certificate():
    axis = np.linspace(1.0, 6.0, 600)
    xs, ys = np.meshgrid(axis, axis)
    ex, ey = np.exp(-xs), np.exp(-ys)
    values = (1 + ex + ey) ** 2 / ((xs - ys) ** 2 * ex * ey + xs**2 * ex + ys**2 * ey)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    res = minimize_three_level_factor()
    spacing = axis[1] - axis[0]
    assert abs(res.argmin[0] - xs[i, j]) <= spacing
    assert abs(res.argmin[1] - ys[i, j]) <= spacing
    assert res.value <= values[i, j]


# ---------------------------------------------------------------------------
# variance floors
# ---------------------------------------------------------------------------

def test_two_level_crb_values():
    assert two_level_crb(1.0, 2.4) == pytest.approx(2.2767177663074674, rel=1e-13)
    assert two_level_crb(1.0, 2.4) == pytest.approx(2.27, abs=0.01)
    assert two_level_crb(1.0, 0.0) is UNBOUNDED
    with pytest.raises(ValueError):
        two_level_crb(1.0, -0.5)
    # gap/T past the float range, or underflowing to 0: the floor is past the range too
    assert two_level_crb(1e-10, 1e300) == two_level_crb(1e150, 1e-300) == math.inf


@pytest.mark.parametrize("T", [1e-200, 1e200])
def test_two_level_crb_rejects_temperature_whose_square_leaves_float_range(T):
    with pytest.raises(ValueError, match=r"temperature .* T\^2 under- or overflows"):
        two_level_crb(T, 1.0)


def test_two_level_crb_matches_fisher_grid():
    for T in (0.1, 0.5, 1.0, 3.0):
        for gap in (0.1, 1.0, 2.4, 10.0):
            crb = two_level_crb(T, gap)
            f = fisher_information(make_spectrum([(0.0, 1), (gap, 1)]), T)
            assert crb * f == pytest.approx(1.0, rel=1e-12)


def test_three_level_floor_matches_fisher_grid():
    for T in (0.1, 0.5, 1.0, 3.0):
        for gap in (0.1, 1.0, 2.4, 10.0):
            d1, d2 = gap, 2.0 * gap
            floor = T * T * three_level_factor(d1 / T, d2 / T)
            f = fisher_information(make_spectrum([(0.0, 1), (d1, 1), (d2, 1)]), T)
            assert floor * f == pytest.approx(1.0, rel=1e-10)


def test_divergence_factor_values():
    # (2 + e + 1/e)/e, far from the asymptote
    assert gapped_divergence_factor(1.0, 1.0) == pytest.approx(
        (2.0 + math.e + math.exp(-1.0)) / math.e, rel=1e-14
    )
    assert gapped_divergence_factor(0.05, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert gapped_divergence_factor(0.01, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("T", [1.0, 0.5, 0.3])
def test_divergence_factor_matches_literal_ratio(T):
    gap = 1.0
    literal = two_level_crb(T, gap) * gap**2 / (T**4 * math.exp(gap / T))
    assert gapped_divergence_factor(T, gap) == pytest.approx(literal, rel=1e-12)


def test_divergence_factor_monotone_approach():
    factors = [gapped_divergence_factor(T, 1.0) for T in (0.2, 0.1, 0.05)]
    assert factors[0] > factors[1] > factors[2] > 1.0


def test_divergence_factor_rejects():
    with pytest.raises(ValueError):
        gapped_divergence_factor(1.0, 0.0)
    with pytest.raises(ValueError):
        gapped_divergence_factor(0.0, 1.0)


def test_landau_bound_temperature_invariance():
    # the optimal dimensionless floor is the same at any T
    minima = []
    for T in (0.01, 1.0, 100.0):
        res = minimize_scalar(
            lambda x: two_level_crb(T, x * T) / T**2, bounds=(0.5, 10.0), method="bounded",
            options={"xatol": 1e-12},
        )
        minima.append(res.fun)
    spread = (max(minima) - min(minima)) / min(minima)
    assert spread <= 1e-6
    assert minima[0] == pytest.approx(G_MIN, rel=1e-9)


# ---------------------------------------------------------------------------
# gap families and tuning
# ---------------------------------------------------------------------------

def brute_force_certificate(family, T, result):
    lams = np.linspace(family.lambda_min, family.lambda_max, 1000)
    for lam in lams:
        gap = family.gap_at(lam)
        value = T * T * two_level_factor(gap / T) if gap > 0 else math.inf
        assert result.bound <= value * (1.0 + 1e-12)


def test_tune_linear_reaches_optimal_ratio():
    family = GapFamily.linear(1.0, 0.0, 0.01, 10.0)
    res = tune_gap(family, 1.0)
    assert res.lambda_star == pytest.approx(X_M, abs=1e-6)
    assert res.bound == pytest.approx(G_MIN, rel=1e-9)
    assert res.bound == pytest.approx(2.27, abs=0.01)
    brute_force_certificate(family, 1.0, res)


def test_tune_linear_fixed_range_low_temperature():
    # the objective overflows to inf over most of this range
    family = GapFamily.linear(1.0, 0.0, 1e-3, 1e2)
    T = 1e-3
    res = tune_gap(family, T)
    assert res.bound / T**2 == pytest.approx(G_MIN, rel=1e-9)
    assert res.lambda_star == pytest.approx(X_M * T, rel=1e-6)
    brute_force_certificate(family, T, res)


def test_tune_where_gap_over_T_leaves_the_float_range():
    # gap/T reaches inf at the top of the range, where the floor saturates rather than fails
    T = 1e-10
    res = tune_gap(GapFamily.linear(1.0, 0.0, 1e-20, 1e300), T)
    assert res.bound / T**2 == pytest.approx(G_MIN, rel=1e-9)
    res = tune_gap(GapFamily.linear(1.0, 0.0, 1e200, 1e300), T)
    assert (res.lambda_star, res.bound) == (1e200, math.inf)


def test_tune_linear_boundary_optimum():
    family = GapFamily.linear(1.0, 0.0, 5.0, 10.0)
    res = tune_gap(family, 1.0)
    assert res.lambda_star == 5.0
    assert res.bound == pytest.approx(two_level_factor(5.0), rel=1e-13)
    assert res.bound == pytest.approx(6.016795881983028, rel=1e-13)
    brute_force_certificate(family, 1.0, res)


def test_tune_scales_with_temperature():
    family = GapFamily.linear(1.0, 0.0, 0.01, 10.0)
    res = tune_gap(family, 2.0)
    assert res.lambda_star == pytest.approx(2.0 * X_M, abs=1e-5)
    assert res.bound == pytest.approx(4.0 * G_MIN, rel=1e-9)
    brute_force_certificate(family, 2.0, res)


def test_tune_quadratic_floor_above_optimum():
    family = GapFamily.quadratic(1.0, 3.0, 5.0, 0.0, 6.0)
    res = tune_gap(family, 1.0)
    assert res.lambda_star == pytest.approx(3.0, abs=1e-6)
    assert res.gap == pytest.approx(5.0, abs=1e-10)
    assert res.bound == pytest.approx(two_level_factor(5.0), rel=1e-9)
    brute_force_certificate(family, 1.0, res)


def test_tune_quadratic_bimodal_objective():
    # gap crosses the optimal ratio on both sides of the center
    family = GapFamily.quadratic(1.0, 5.0, 0.5, 0.0, 10.0)
    res = tune_gap(family, 1.0)
    assert res.bound == pytest.approx(G_MIN, rel=1e-9)
    assert res.gap == pytest.approx(X_M, abs=1e-5)
    brute_force_certificate(family, 1.0, res)


def test_tune_table_family():
    family = GapFamily.from_table([(0.0, 0.5), (5.0, 2.4), (10.0, 9.0)])
    res = tune_gap(family, 1.0)
    assert res.bound == pytest.approx(G_MIN, rel=1e-12)
    brute_force_certificate(family, 1.0, res)


@st.composite
def scaled_families(draw):
    """(family, T): a linear, quadratic or table family whose control range and gaps scale
    with T, for T in [1e-3, 1e3]."""
    T = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["linear", "quadratic", "table"]))
    lo = T * draw(st.floats(-10.0, 10.0))
    hi = lo + T * draw(st.floats(0.01, 20.0))
    if kind == "linear":
        slope = draw(st.floats(-3.0, 3.0))
        # the smallest intercept that keeps both ends >= 0, plus a drawn margin
        floor = max(0.0, -(slope * lo), -(slope * hi))
        intercept = T * draw(st.floats(0.0, 10.0)) + floor
        return GapFamily.linear(slope, intercept, lo, hi), T
    if kind == "quadratic":
        curvature = draw(st.floats(0.0, 5.0)) / T
        center = T * draw(st.floats(-10.0, 10.0))
        return GapFamily.quadratic(curvature, center, T * draw(st.floats(0.0, 5.0)), lo, hi), T
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=6))
    lams = [lo + T * sum(widths[:i]) for i in range(len(widths) + 1)]
    gaps = draw(st.lists(st.floats(0.0, 10.0), min_size=len(lams), max_size=len(lams)))
    return GapFamily.from_table([(lam, T * g) for lam, g in zip(lams, gaps)]), T


@settings(max_examples=100, deadline=None)
@given(scaled_families())
def test_tune_beats_a_grid_and_never_the_landau_floor(case):
    family, T = case
    if max(family.gap_at(b) for b in family.breaks) == 0.0:
        with pytest.raises(ValueError, match="vanishes"):
            tune_gap(family, T)
        return
    res = tune_gap(family, T)
    brute_force_certificate(family, T, res)
    assert res.bound / T**2 >= G_MIN * (1.0 - 1e-12)


def test_table_family_keeps_a_zero_point_at_zero():
    # the cubic of the last piece, evaluated at its end, rounds 0 to -2.2e-16
    family = GapFamily.from_table([(0.0, 1.0), (0.1, 3.0), (0.3, 0.0)])
    assert family.gap_at(0.3) == 0.0
    res = tune_gap(family, 1.0)
    assert res.bound == pytest.approx(G_MIN, rel=1e-12)
    brute_force_certificate(family, 1.0, res)


# The ports of scipy's brentq and PchipInterpolator, against the installed scipy, to the bit

# smooth functions with one sign change, at r
SIGN_CHANGES = [
    lambda x, r: x - r,
    lambda x, r: math.expm1(x - r),
    lambda x, r: math.tanh(3.0 * (x - r)),
    lambda x, r: (x - r) ** 3 + 0.1 * (x - r),
    lambda x, r: math.atan(x - r) * (1.0 + (x - r) ** 2),
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SIGN_CHANGES),
    st.floats(-5.0, 5.0),
    st.floats(-3.0, 1.0),
    st.floats(-3.0, 1.0),
    st.sampled_from([1.0, -1.0, 1e-200, -1e150]),
    st.floats(-14.0, -2.0),
    st.sampled_from([100, 4000, 5, 0]),
)
def test_brentq_port_matches_scipy_to_the_bit(g, r, left, right, scale, log_xtol, maxiter):
    def f(x):
        return scale * g(x, r)

    a, b, xtol = r - 10.0**left, r + 10.0**right, 10.0**log_xtol
    root, info = brentq(f, a, b, xtol=xtol, maxiter=maxiter, full_output=True, disp=False)
    got, converged, iterations = _brentq(f, a, b, xtol, maxiter)
    assert (got.hex(), converged, iterations) == (root.hex(), info.converged, info.iterations)


def test_brentq_port_returns_a_zero_end_and_rejects_one_sign():
    # scipy leaves the iteration count unset at a zero end, so only the root is compared
    for a, b in [(0.5, 1.0), (0.0, 0.5)]:
        root = brentq(lambda x: x - 0.5, a, b)
        assert _brentq(lambda x: x - 0.5, a, b, 1e-10, 100) == (root, True, 0)
    with pytest.raises(ValueError, match="different signs") as ours:
        _brentq(lambda x: x - 0.5, 1.0, 2.0, 1e-10, 100)
    with pytest.raises(ValueError) as theirs:
        brentq(lambda x: x - 0.5, 1.0, 2.0)
    assert str(ours.value) == str(theirs.value)


@st.composite
def pchip_tables(draw):
    """2-12 points whose spacings and values span 1e-3 to 1e3, with zero values and
    repeated values (flat pieces), so slopes vanish and change sign."""
    n = draw(st.integers(2, 12))
    powers = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    steps = draw(st.lists(powers, min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-1e3, 1e3)) + np.concatenate(([0.0], np.cumsum(steps)))
    values = st.one_of(st.just(0.0), st.just(1.0), powers)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    inside = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return x, y, [x[0] + u * (x[-1] - x[0]) for u in inside]


@settings(max_examples=300, deadline=None)
@given(pchip_tables())
def test_pchip_port_matches_scipy_to_the_bit(table):
    x, y, inside = table
    interp = PchipInterpolator(x, y)
    with np.errstate(all="ignore"):
        c = _pchip(x, y)
    assert c.tobytes() == interp.c.tobytes()
    family = GapFamily.from_table(list(zip(x.tolist(), y.tolist())))
    xs, pieces = x.tolist(), c.T.tolist()
    # the breakpoints (the ends among them), points inside, and beyond either end
    for lam in xs + inside + [xs[0] - 1.0, xs[-1] + 1.0]:
        value = float(interp(lam))
        assert _cubic_value(xs, pieces, lam).hex() == value.hex(), lam
        if xs[0] <= lam <= xs[-1]:
            assert family.gap_at(lam).hex() == max(value, 0.0).hex(), lam


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_table_family_rejects_a_non_finite_control_value(lam):
    # JSON's Infinity and NaN reach from_table; scipy used to reject them
    with pytest.raises(ValueError, match="control values must be finite"):
        GapFamily.from_table([(0.0, 1.0), (lam, 2.0), (1.0, 3.0)])


@pytest.mark.parametrize("T", [1e-200, 1e300])
def test_tune_rejects_temperature_whose_square_leaves_float_range(T):
    with pytest.raises(ValueError, match="temperature"):
        tune_gap(GapFamily.linear(1.0, 0.0, 0.01, 10.0), T)


def test_tune_rejects_vanishing_gap_family():
    family = GapFamily.linear(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="vanishes"):
        tune_gap(family, 1.0)


def test_gap_family_validation():
    with pytest.raises(ValueError):
        GapFamily.linear(1.0, 0.0, 5.0, 1.0)  # reversed range
    with pytest.raises(ValueError):
        GapFamily.linear(-1.0, 0.0, 0.0, 1.0)  # negative gap at the far end
    with pytest.raises(ValueError):
        GapFamily.quadratic(-1.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GapFamily.from_table([(0.0, 1.0)])
    with pytest.raises(ValueError):
        GapFamily.from_table([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        GapFamily.from_table([(0.0, -1.0), (1.0, 2.0)])
    family = GapFamily.linear(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        family.gap_at(2.0)  # outside the control range
    with pytest.raises(ValueError, match="breaks must increase"):
        GapFamily(evaluate=lambda lam: lam, breaks=(0.0, 2.0, 1.0))


@pytest.mark.parametrize("breaks", [(), (1.0,)])
def test_gap_family_needs_two_breaks(breaks):
    # no breaks used to raise a bare IndexError from lambda_min
    with pytest.raises(ValueError, match="breaks must hold at least two"):
        GapFamily(evaluate=lambda lam: lam, breaks=breaks)


def test_family_from_dict_round_trips():
    linear = family_from_dict(
        {"kind": "linear", "slope": 1.0, "intercept": 0.0, "lambda_min": 0.01, "lambda_max": 10.0}
    )
    assert linear.gap_at(2.0) == 2.0
    quad = family_from_dict(
        {
            "kind": "quadratic",
            "curvature": 2.0,
            "center": 1.0,
            "gap_min": 0.5,
            "lambda_min": 0.0,
            "lambda_max": 3.0,
        }
    )
    assert quad.gap_at(1.0) == 0.5
    table = family_from_dict({"kind": "table", "points": [[0.0, 1.0], [2.0, 3.0]]})
    assert table.gap_at(0.0) == 1.0
    assert table.gap_at(2.0) == 3.0


@pytest.mark.parametrize(
    "data",
    [
        "nope",
        {},
        {"kind": "spline"},
        {"kind": "linear", "slope": 1.0},
        {"kind": "linear", "slope": "one", "intercept": 0.0, "lambda_min": 0.0, "lambda_max": 1.0},
        {"kind": "quadratic", "curvature": 1.0, "center": 0.0, "gap_min": -1.0,
         "lambda_min": 0.0, "lambda_max": 1.0},
        {"kind": "table", "points": []},
        {"kind": "table", "points": [[0.0, 1.0], [1.0]]},
        {"kind": "table", "points": [[0.0, 1.0]]},
        {"kind": "table", "points": [[None, 1], [1, 2]]},
        {"kind": "table", "points": [[0, 1], [1, [2]]]},
    ],
)
def test_family_from_dict_rejects(data):
    with pytest.raises(InputFormatError):
        family_from_dict(data)
