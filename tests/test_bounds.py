import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from thermometry import (
    GapFamily,
    InputFormatError,
    UNBOUNDED,
    family_from_dict,
    fisher_information,
    gapped_divergence_factor,
    make_spectrum,
    minimize_three_level_factor,
    minimize_two_level_factor,
    three_level_factor,
    three_level_factor_diagonal,
    tune_gap,
    two_level_crb,
    two_level_factor,
)
from thermometry.bounds import _cross_diagonal_curvature, _diagonal_stationarity

# 30-digit stationarity roots (x sinh x = 2(1+cosh x) and its diagonal
# analogue), rounded to float64.
X_M = 2.3993572805154675
G_MIN = 2.2767175312280727
X_H = 2.654657972462592
H_MIN = 1.3126766377485912

ratios = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def naive_three_level_factor(x, y):
    """Literal formula, safe only for moderate arguments."""
    num = math.exp(-x - y) * (math.exp(x) + math.exp(y) + math.exp(x + y)) ** 2
    den = (1 + math.exp(y)) * x * x - 2 * x * y + (1 + math.exp(x)) * y * y
    return num / den


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
    assert math.isinf(three_level_factor_diagonal(1e-200))


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
    with pytest.raises(ValueError, match="denominator"):
        three_level_factor(800.0, 800.0)


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0)])
def test_three_level_factor_rejects(x, y):
    with pytest.raises(ValueError):
        three_level_factor(x, y)


def test_diagonal_closed_form():
    for x in (0.8, 2.66, 10.0, 300.0):
        assert three_level_factor_diagonal(x) == pytest.approx(
            three_level_factor(x, x), rel=1e-12
        )
    assert three_level_factor_diagonal(2.66) == pytest.approx(
        (2 + math.exp(2.66)) ** 2 / (2 * 2.66**2 * math.exp(2.66)), rel=1e-13
    )


# ---------------------------------------------------------------------------
# minima
# ---------------------------------------------------------------------------

def test_two_level_minimum_default_bracket():
    res = minimize_two_level_factor()
    assert res.argmin == pytest.approx(X_M, abs=1e-9)
    assert res.value == pytest.approx(G_MIN, rel=1e-12)
    assert res.argmin == pytest.approx(2.4, abs=0.05)
    assert res.value == pytest.approx(2.27, abs=0.01)
    assert res.converged
    assert res.value > 0.0
    assert 0.5 < res.argmin < 10.0


def test_two_level_minimum_bracket_independent():
    res = minimize_two_level_factor(bracket=(2.3, 2.5))
    assert res.argmin == pytest.approx(X_M, abs=1e-9)


def test_two_level_minimum_grid_certificate():
    grid = np.linspace(0.5, 10.0, 10**6)
    values = 2.0 * (1.0 + np.cosh(grid)) / grid**2
    x_grid = grid[np.argmin(values)]
    assert abs(minimize_two_level_factor().argmin - x_grid) <= 1e-5


@pytest.mark.parametrize("bracket", [(3.0, 10.0), (0.5, 2.0)])
def test_two_level_minimum_requires_interior(bracket):
    with pytest.raises(ValueError, match="interior"):
        minimize_two_level_factor(bracket=bracket)


@pytest.mark.parametrize("bracket", [(-1.0, 5.0), (5.0, 1.0), (0.0, 4.0)])
def test_two_level_minimum_bracket_validation(bracket):
    with pytest.raises(ValueError):
        minimize_two_level_factor(bracket=bracket)


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
    slope = (three_level_factor_diagonal(t + h) - three_level_factor_diagonal(t - h)) / (2 * h)
    closed = _diagonal_stationarity(t) * (math.exp(t) + 2) ** 2 * math.exp(-t) / (2 * t**2)
    assert closed == pytest.approx(slope, rel=1e-5, abs=1e-9)


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
        if family.pair_valued:
            value = (
                T * T * three_level_factor(gap[0] / T, gap[1] / T)
                if gap[0] > 0 and gap[1] > 0
                else math.inf
            )
        else:
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


def test_tune_pair_family():
    family = GapFamily.three_level(lambda lam: (lam, 2.0 * lam), 0.1, 20.0)
    res = tune_gap(family, 1.0)
    # dense-grid oracle for the pair objective
    lams = np.linspace(0.1, 20.0, 200001)
    values = [three_level_factor(l, 2 * l) for l in lams]
    assert res.bound == pytest.approx(min(values), rel=1e-9)
    brute_force_certificate(family, 1.0, res)


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
    bad_pair = GapFamily.three_level(lambda lam: (2.0, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        bad_pair.gap_at(0.5)
    with pytest.raises(ValueError):
        GapFamily(evaluate=lambda lam: lam, lambda_min=0.0, lambda_max=1.0, breaks=(0.0, 2.0))


def test_family_from_dict_round_trips():
    linear = family_from_dict(
        {"kind": "linear", "slope": 1.0, "intercept": 0.0, "lambda_min": 0.01, "lambda_max": 10.0}
    )
    assert linear.kind == "linear"
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
