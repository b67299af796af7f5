"""Closed-form low-temperature variance bounds and gap tuning.

For a two-level system with gap D at temperature T, the variance of any
temperature estimator is floored by T^2 * f2(D/T) with
f2(x) = 2 (1 + cosh x) / x^2; a three-level system with gaps D1 <= D2 is
floored by T^2 * f3(D1/T, D2/T). Both factors are evaluated with the
largest exponent factored out so they stay finite for arguments up to
several hundred. ``tune_gap`` minimizes the floor over an external
control parameter that moves the gap(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    InputFormatError,
    number,
    positive,
    positive_interval,
    require,
    temperature_power,
)
from .fisher import UNBOUNDED, _Unbounded

__all__ = [
    "MinimumResult",
    "GapFamily",
    "TuneResult",
    "two_level_factor",
    "three_level_factor",
    "three_level_factor_diagonal",
    "minimize_two_level_factor",
    "minimize_three_level_factor",
    "two_level_crb",
    "gapped_divergence_factor",
    "tune_gap",
    "family_from_dict",
]

# Above this argument cosh overflows float64; switch to the asymptotic branch.
_ASYMPTOTIC_X = 700.0
# Brent steps per tuning root: ~6.5 per decade of width/tol, so any float64 range fits.
_ROOT_MAXITER = 4000


def two_level_factor(x: float) -> float:
    """Two-level bound factor 2 (1 + cosh x) / x^2 at x = gap/T.

    Diverges as 4/x^2 for x -> 0 and as e^x/x^2 for x -> infinity. Above
    x = 700 the e^x/x^2 branch is used (relative error ~ 2 e^{-x}); if even
    that exceeds the float64 range, or x^2 underflows to 0, the factor
    saturates to ``inf``.
    """
    x = positive(x, "x")
    if x > _ASYMPTOTIC_X:
        t = x - 2.0 * math.log(x)
        return math.exp(t) if t < 709.0 else math.inf
    x2 = x * x
    return 2.0 * (1.0 + math.cosh(x)) / x2 if x2 > 0.0 else math.inf


def three_level_factor(x: float, y: float) -> float:
    """Three-level bound factor at x = gap1/T, y = gap2/T.

    Equals e^{-x-y} (e^x + e^y + e^{x+y})^2 /
    ((1+e^y) x^2 - 2xy + (1+e^x) y^2), evaluated here with e^{x+y}
    factored out of numerator and denominator:

        (1 + e^{-x} + e^{-y})^2
        ------------------------------------------
        (x-y)^2 e^{-x-y} + x^2 e^{-x} + y^2 e^{-y}

    which involves only non-positive exponents and is exact for x, y up
    to 700. The denominator is algebraically positive for x, y > 0; it
    can only vanish by underflow (x, y beyond ~745), which is reported
    as an explicit error rather than returned as inf/NaN.
    """
    x = positive(x, "x")
    y = positive(y, "y")
    ex = math.exp(-x)
    ey = math.exp(-y)
    num = (1.0 + ex + ey) ** 2
    den = (x - y) ** 2 * (ex * ey) + x * x * ex + y * y * ey
    if den == 0.0:
        raise ValueError(
            f"three-level factor denominator vanished (underflow) at x={x!r}, y={y!r}"
        )
    return num / den


def three_level_factor_diagonal(x: float) -> float:
    """Closed form (2 + e^x)^2 / (2 x^2 e^x) on the diagonal; inf where x^2 underflows."""
    x = positive(x, "x")
    half = math.exp(0.5 * x) if x < 1400.0 else math.inf
    den = 2.0 * x * x
    return (2.0 / half + half) ** 2 / den if den > 0.0 else math.inf


@dataclass(frozen=True)
class MinimumResult:
    """Located minimum of a bound factor.

    ``argmin`` is the dimensionless gap/T coordinate (a pair for the
    three-level factor); ``iterations`` counts the Brent root steps.
    """

    argmin: float | tuple[float, float]
    value: float
    converged: bool
    iterations: int


def _two_level_stationarity(x: float) -> float:
    """x tanh(x/2) - 2; increasing on (0, inf), zero at the factor minimum.

    f2'(x) has the sign of x sinh x - 2 (1 + cosh x), which factors as
    (1 + cosh x) (x tanh(x/2) - 2).
    """
    return x * math.tanh(0.5 * x) - 2.0


def minimize_two_level_factor(
    bracket: tuple[float, float] = (0.5, 10.0),
    tol: float = 1e-10,
) -> MinimumResult:
    """Locate the minimum of the two-level bound factor within ``bracket``.

    The minimum is the single root of x tanh(x/2) = 2, found by Brent's
    root finder to ``tol`` in x.
    """
    a, b = positive_interval(bracket, "bracket")
    tol = positive(tol, "tol")
    if _two_level_stationarity(a) >= 0.0 or _two_level_stationarity(b) <= 0.0:
        raise ValueError(f"bracket {bracket!r} does not contain an interior minimum")
    xm, info = brentq(_two_level_stationarity, a, b, xtol=tol, full_output=True, disp=False)
    return MinimumResult(
        argmin=xm,
        value=two_level_factor(xm),
        converged=info.converged,
        iterations=info.iterations,
    )


def _diagonal_stationarity(x: float) -> float:
    """s(x), increasing; g(t) = f3(t, t) has g'(t) = s(t) (e^t + 2)^2 e^{-t} / (2 t^2)."""
    return 2.0 / (1.0 + 2.0 * math.exp(-x)) - 2.0 / x - 1.0


def _cross_diagonal_curvature(t: float) -> float:
    """a(t), with f3_xx - f3_xy = a(t) e^t / (4 t^4) at (t, t): curvature across the diagonal."""
    e = math.exp(-t)
    return -t * t + 4 * t - 2 + (16 * t - 12) * e + (4 * t * t + 16 * t - 24) * e * e - 16 * e**3


def minimize_three_level_factor(tol: float = 1e-10) -> MinimumResult:
    """Strict local minimum of the three-level bound factor, on the diagonal x = y.

    The factor is symmetric, so its gradient vanishes at the Brent root (to ``tol``) of
    the diagonal stationarity on [0.5, 10]. Its Hessian there is positive definite: the
    curvature along the diagonal because the stationarity increases, the one across it
    where a(t) > 0, which ``converged`` checks in closed form.
    """
    tol = positive(tol, "tol")
    xd, info = brentq(_diagonal_stationarity, 0.5, 10.0, xtol=tol, full_output=True, disp=False)
    return MinimumResult(
        argmin=(xd, xd),
        value=three_level_factor(xd, xd),
        converged=info.converged and _cross_diagonal_curvature(xd) > 0.0,
        iterations=info.iterations,
    )


def two_level_crb(T: float, gap: float) -> float | _Unbounded:
    """Single-shot variance floor T^2 * f2(gap/T) for a two-level system.

    A zero gap carries no temperature information, so the floor is
    :data:`UNBOUNDED` there (the factor diverges as 4/x^2).
    """
    T = positive(T, "temperature")
    gap = float(gap)
    if not math.isfinite(gap) or gap < 0.0:
        raise ValueError(f"gap must be finite and >= 0, got {gap!r}")
    if gap == 0.0:
        return UNBOUNDED
    return temperature_power(T, 2) * two_level_factor(gap / T)


def gapped_divergence_factor(T: float, gap: float) -> float:
    """Ratio of the two-level floor to its low-T divergence law T^4 e^{gap/T} / gap^2.

    Algebraically two_level_crb(T, gap) * gap^2 / (T^4 e^{gap/T})
    = 2 (1 + cosh x) e^{-x} = (1 + e^{-x})^2 at x = gap/T; the shifted
    form is used so no intermediate can overflow. Tends to 1 as T -> 0.
    """
    T = positive(T, "temperature")
    ex = math.exp(-positive(gap, "gap") / T)
    return (1.0 + ex) ** 2


# ---------------------------------------------------------------------------
# Gap families and tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapFamily:
    """Gap(s) of a tunable system as a function of a control parameter.

    ``evaluate`` maps a control value in [lambda_min, lambda_max] to a
    single gap, or to a pair (gap1, gap2) with gap2 >= gap1 when
    ``pair_valued``. ``kind`` is a descriptive label. ``breaks`` are
    increasing control values, starting at lambda_min and ending at
    lambda_max, between which a single gap is monotone: (lo, hi) for a
    linear family, (lo, clipped centre, hi) for a quadratic one, the data
    points for a table. ``tune_gap`` solves for the optimal gap on each
    such piece; without ``breaks`` it searches by grid-then-refine.
    """

    evaluate: Callable[[float], float | tuple[float, float]]
    lambda_min: float
    lambda_max: float
    description: str = ""
    kind: str = "custom"
    pair_valued: bool = False
    breaks: tuple[float, ...] | None = None

    def __post_init__(self):
        lo, hi = float(self.lambda_min), float(self.lambda_max)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(
                f"control range must satisfy lambda_min < lambda_max, got [{lo!r}, {hi!r}]"
            )
        b = self.breaks
        if b is not None and (b[0] != lo or b[-1] != hi or any(a >= c for a, c in zip(b, b[1:]))):
            raise ValueError(f"breaks must increase from lambda_min to lambda_max, got {b!r}")

    def gap_at(self, lam: float):
        """Evaluate and validate the gap(s) at one control value."""
        if not self.lambda_min <= lam <= self.lambda_max:
            raise ValueError(
                f"control value {lam!r} outside [{self.lambda_min}, {self.lambda_max}]"
            )
        value = self.evaluate(lam)
        if self.pair_valued:
            d1, d2 = float(value[0]), float(value[1])
            if not (math.isfinite(d1) and math.isfinite(d2)) or d1 < 0.0 or d2 < d1:
                raise ValueError(
                    f"gap pair at lambda={lam!r} must satisfy 0 <= gap1 <= gap2, got {value!r}"
                )
            return d1, d2
        gap = float(value)
        if not math.isfinite(gap) or gap < 0.0:
            raise ValueError(f"gap at lambda={lam!r} must be finite and >= 0, got {gap!r}")
        return gap

    @classmethod
    def linear(cls, slope, intercept, lambda_min, lambda_max, description=""):
        """Gap(lambda) = slope * lambda + intercept; must be >= 0 on the range."""
        slope, intercept = float(slope), float(intercept)
        ends = (slope * float(lambda_min) + intercept, slope * float(lambda_max) + intercept)
        if min(ends) < 0.0:
            raise ValueError(f"linear family is negative on the range (endpoint gaps {ends})")
        return cls(
            evaluate=lambda lam: slope * lam + intercept,
            lambda_min=float(lambda_min),
            lambda_max=float(lambda_max),
            description=description or f"linear gap {slope}*lambda + {intercept}",
            kind="linear",
            breaks=(float(lambda_min), float(lambda_max)),
        )

    @classmethod
    def quadratic(cls, curvature, center, gap_min, lambda_min, lambda_max, description=""):
        """Gap(lambda) = curvature * (lambda - center)^2 + gap_min, a gap with a floor."""
        curvature, center, gap_min = float(curvature), float(center), float(gap_min)
        if curvature < 0.0:
            raise ValueError(f"curvature must be >= 0, got {curvature!r}")
        if gap_min < 0.0:
            raise ValueError(f"gap_min must be >= 0, got {gap_min!r}")
        lo, hi = float(lambda_min), float(lambda_max)
        return cls(
            evaluate=lambda lam: curvature * (lam - center) ** 2 + gap_min,
            lambda_min=lo,
            lambda_max=hi,
            description=description or f"quadratic gap, minimum {gap_min} at {center}",
            kind="quadratic",
            breaks=tuple(dict.fromkeys((lo, min(max(center, lo), hi), hi))),
        )

    @classmethod
    def from_table(cls, points: Sequence[Sequence[float]], description=""):
        """Monotone-cubic (PCHIP) interpolation through (lambda, gap) pairs."""
        pts = sorted((float(l), float(g)) for l, g in points)
        if len(pts) < 2:
            raise ValueError("table family needs at least 2 points")
        lams = np.array([p[0] for p in pts])
        gaps = np.array([p[1] for p in pts])
        if np.any(lams[1:] <= lams[:-1]):  # compared, not subtracted: no overflow
            raise ValueError("table family control values must be distinct")
        if np.any(gaps < 0.0) or not np.all(np.isfinite(gaps)):
            raise ValueError("table family gaps must be finite and >= 0")
        # shape-preserving: stays >= 0 and is monotone between data points
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite coefficient
            interp = PchipInterpolator(lams, gaps)
        if not np.all(np.isfinite(interp.c)):
            raise ValueError("table family interpolation overflows (points too close or far apart)")
        return cls(
            evaluate=lambda lam: float(interp(lam)),
            lambda_min=float(lams[0]),
            lambda_max=float(lams[-1]),
            description=description or f"tabulated gap ({len(pts)} points)",
            kind="table",
            breaks=tuple(float(l) for l in lams),
        )

    @classmethod
    def three_level(cls, evaluator, lambda_min, lambda_max, description=""):
        """Pair-valued family: evaluator(lambda) -> (gap1, gap2), gap2 >= gap1."""
        return cls(
            evaluate=evaluator,
            lambda_min=float(lambda_min),
            lambda_max=float(lambda_max),
            description=description or "three-level gap pair",
            kind="custom",
            pair_valued=True,
        )


@dataclass(frozen=True)
class TuneResult:
    lambda_star: float
    gap: float | tuple[float, float]
    bound: float


def _family_objective(family: GapFamily, T: float) -> Callable[[float], float]:
    if family.pair_valued:

        def objective(lam: float) -> float:
            d1, d2 = family.gap_at(lam)
            if d1 == 0.0 or d2 == 0.0:
                return math.inf
            return T * T * three_level_factor(d1 / T, d2 / T)

    else:

        def objective(lam: float) -> float:
            gap = family.gap_at(lam)
            if gap == 0.0:
                return math.inf
            return T * T * two_level_factor(gap / T)

    return objective


def tune_gap(family: GapFamily, T: float, tol: float = 1e-10) -> TuneResult:
    """Control value minimizing the variance floor of ``family`` at temperature ``T``.

    The two-level floor is unimodal in the gap with its minimum at
    gap = x_m T, so on each monotone piece of a single-gap family with
    ``breaks`` the optimum is the root of gap(lambda) = x_m T or an end of
    the piece. Pair-valued and custom families are scanned on a 1000-point
    grid and refined in the winning cell. Endpoints always compete, so
    boundary optima are exact.
    """
    T = positive(T, "temperature")
    temperature_power(T, 2)  # the floor is T^2 times a factor
    tol = positive(tol, "tol")
    objective = _family_objective(family, T)
    lo, hi = family.lambda_min, family.lambda_max

    if family.breaks is not None and not family.pair_valued:
        target = T * brentq(_two_level_stationarity, 0.5, 10.0, xtol=tol)

        def excess(lam: float) -> float:
            return family.gap_at(lam) - target

        candidates = list(family.breaks)
        for a, b in zip(family.breaks[:-1], family.breaks[1:]):
            if excess(a) * excess(b) < 0.0:
                candidates.append(brentq(excess, a, b, xtol=tol, maxiter=_ROOT_MAXITER))
    else:
        grid = np.linspace(lo, hi, 1000)
        values = [objective(lam) for lam in grid]
        i = int(np.argmin(values))
        candidates = [lo, hi, grid[i]]
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]
        if b > a:
            refined = minimize_scalar(
                objective, bounds=(a, b), method="bounded", options={"xatol": tol}
            )
            candidates.append(refined.x)

    best_lam = min(candidates, key=objective)
    best = objective(best_lam)
    if math.isinf(best):
        probe = np.linspace(lo, hi, 101)
        gaps = [family.gap_at(lam) for lam in probe]
        flat = [g for pair in gaps for g in (pair if family.pair_valued else (pair,))]
        if max(flat) == 0.0:
            raise ValueError(
                "gap vanishes on the whole control range; the bound is unbounded everywhere"
            )
    return TuneResult(lambda_star=float(best_lam), gap=family.gap_at(best_lam), bound=best)


# ---------------------------------------------------------------------------
# Gap-family configuration block
# ---------------------------------------------------------------------------

def family_from_dict(data: dict) -> GapFamily:
    """Parse a gap-family configuration block.

    kind "linear":    slope, intercept, lambda_min, lambda_max
    kind "quadratic": curvature, center, gap_min, lambda_min, lambda_max
    kind "table":     points = [[lambda, gap], ...] (range inferred)
    """
    if not isinstance(data, dict):
        raise InputFormatError("gap family must be an object with a 'kind' field")
    kind = data.get("kind")
    description = data.get("description", "")

    def field(key: str) -> float:
        return number(require(data, key, "gap family"), key)

    try:
        if kind == "linear":
            return GapFamily.linear(
                field("slope"),
                field("intercept"),
                field("lambda_min"),
                field("lambda_max"),
                description=description,
            )
        if kind == "quadratic":
            return GapFamily.quadratic(
                field("curvature"),
                field("center"),
                field("gap_min"),
                field("lambda_min"),
                field("lambda_max"),
                description=description,
            )
        if kind == "table":
            points = data.get("points")
            if not isinstance(points, list) or not points:
                raise InputFormatError("table family needs a non-empty 'points' array")
            pairs = []
            for i, pt in enumerate(points):
                if not isinstance(pt, (list, tuple)) or len(pt) != 2:
                    raise InputFormatError(f"points[{i}] must be a [lambda, gap] pair")
                pairs.append((number(pt[0], f"points[{i}][0]"), number(pt[1], f"points[{i}][1]")))
            return GapFamily.from_table(pairs, description=description)
    except ValueError as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(f"invalid gap family: {exc}") from exc
    raise InputFormatError(
        f"unknown gap-family kind {kind!r} (expected linear, quadratic, or table)"
    )
