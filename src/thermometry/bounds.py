"""Closed-form low-temperature variance bounds and gap tuning.

For a two-level system with gap D at temperature T, the variance of any
temperature estimator is floored by T^2 * f2(D/T) with
f2(x) = 2 (1 + cosh x) / x^2; a three-level system with gaps D1 <= D2 is
floored by T^2 * f3(D1/T, D2/T). f2 and the diagonal of f3 are the m = 1 and m = 2
members of the optimal thermometers of Correa, Mehboudi, Adesso & Sanpera, PRL 114,
220405 (2015): levels (0, gap) of multiplicities (1, m). Both factors are evaluated with the
largest exponent factored out so they stay finite for arguments up to
several hundred. A factor or floor past the float range is ``inf``; an
argument that is not finite and > 0 is a ValueError. ``tune_gap``
minimizes the two-level floor over an external control parameter that
moves the gap: the gap is monotone between given breaks, so the optimum
is a root of gap = x_m T on some piece or a break.

Brent's root finder and the PCHIP interpolant of table families are ported
from scipy (``scipy.optimize.brentq`` and ``scipy.interpolate.PchipInterpolator``)
operation for operation, so they give scipy's bits without loading it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InputFormatError,
    number,
    positive,
    require,
    temperature_power,
)
from .fisher import UNBOUNDED, _Unbounded

__all__ = [
    "ROOT_TOL",
    "ROOT_BRACKET",
    "MinimumResult",
    "GapFamily",
    "TuneResult",
    "two_level_factor",
    "three_level_factor",
    "three_level_factor_grid",
    "minimize_two_level_factor",
    "minimize_three_level_factor",
    "two_level_crb",
    "gapped_divergence_factor",
    "tune_gap",
    "family_from_dict",
]

# Absolute tolerance of every Brent root in this module.
ROOT_TOL = 1e-10
# Interval in gap/T that holds the roots of s_m for m = 1 (x_m ~ 2.4) and m = 2 (x_h ~ 2.65).
ROOT_BRACKET = (0.5, 10.0)
# Above this argument cosh overflows float64; switch to the asymptotic branch.
_ASYMPTOTIC_X = 700.0
# Brent steps per root: ~6.5 per decade of width/ROOT_TOL, so any float64 range fits.
_ROOT_MAXITER = 4000
# Relative tolerance of every Brent root, scipy's default and smallest allowed rtol
_BRENT_RTOL = 4 * sys.float_info.epsilon


def two_level_factor(x: float) -> float:
    """Two-level bound factor 2 (1 + cosh x) / x^2 at x = gap/T.

    Diverges as 4/x^2 for x -> 0 and as e^x/x^2 for x -> infinity. Above
    x = 700 the e^x/x^2 branch is used (relative error ~ 2 e^{-x}). A factor
    past the float range (e^x/x^2 overflows, or x^2 underflows to 0) is ``inf``.
    """
    return _two_level_factor(positive(x, "x"))


def _two_level_factor(x: float) -> float:
    """:func:`two_level_factor` at a float ``x`` already checked finite and > 0."""
    if x > _ASYMPTOTIC_X:
        try:
            return math.exp(x - 2.0 * math.log(x))
        except OverflowError:
            return math.inf
    x2 = x * x
    return 2.0 * (1.0 + math.cosh(x)) / x2 if x2 > 0.0 else math.inf


def three_level_factor(x: float, y: float) -> float:
    """Three-level bound factor at x = gap1/T, y = gap2/T: the one cell of its grid.

    Equals e^{-x-y} (e^x + e^y + e^{x+y})^2 / ((1+e^y) x^2 - 2xy + (1+e^x) y^2), and
    (2 + e^x)^2 / (2 x^2 e^x) on the diagonal. It is evaluated with e^{x+y} factored out:

        (1 + e^{-x} + e^{-y})^2
        ------------------------------------------
        (x-y)^2 e^{-x-y} + x^2 e^{-x} + y^2 e^{-y}

    which involves only non-positive exponents and is exact for x, y up to 700. A term
    whose exponential underflows to 0 adds 0, so for any finite x beyond ~745 the factor
    is that of the other terms (algebraically the two-level factor in y). A factor past
    the float range is ``inf``, also where every term underflows (x and y both beyond
    ~745, or both below ~1e-162): the true denominator is then below ~1e-322 and the
    numerator at least 1.
    """
    return three_level_factor_grid([x], [y])[0][0]


def three_level_factor_grid(xs: Sequence[float], ys: Sequence[float]) -> list[list[float]]:
    """``[[three_level_factor(x, y) for y in ys] for x in xs]``: the same bits, or the same error.

    Each value is checked, and its e^{-v} and term v^2 e^{-v} taken (``_point``), once
    rather than once per cell, in the order the cells reach it: x0, every y, the other x.
    A term whose exponential is 0 adds 0 and is not formed, so no square overflows.

    Each ``** 2`` is libm ``pow``, whose bits differ from ``v * v`` at about 1 in 1 200
    random arguments. Squaring instead moves 2 of the 10 201 cells of the pinned default
    ``hfun`` table, and 14 of the 10 404 cells of the bounds_scan grid at seed 1; so a
    numpy port of this loop must keep ``pow`` or pin those outputs again.
    """
    if not len(ys):  # no cell, so no value is checked
        return [[] for _ in xs]
    cols = None
    rows = []
    for x, ex, x_term in map(_point, xs, repeat("x")):
        if cols is None:  # the first cell checks x before y
            cols = [_point(y, "y") for y in ys]
        one_ex = 1.0 + ex
        row = []
        for y, ey, y_term in cols:
            exy = ex * ey
            den = ((x - y) ** 2 * exy if exy else 0.0) + x_term + y_term
            row.append((one_ex + ey) ** 2 / den if den else math.inf)
        rows.append(row)
    return rows


def _point(v: float, name: str) -> tuple[float, float, float]:
    """v checked as ``name``, e^{-v}, and the term v^2 e^{-v}: 0 where e^{-v} is."""
    v = positive(v, name)
    e = math.exp(-v)
    return v, e, v * v * e if e else 0.0


def _brentq(
    f: Callable[[float], float], a: float, b: float, xtol: float, maxiter: int
) -> tuple[float, bool, int]:
    """Root of ``f`` on [a, b] by Brent's method: (root, converged, iterations).

    A line-for-line port of scipy's ``brentq.c`` at its default rtol, so it takes
    scipy's steps and returns its root bits, converged flag and iteration count. An end
    where ``f`` is 0 is returned after no iteration (scipy leaves its count unset there).
    ``f(a)`` and ``f(b)`` must differ in sign unless one is 0; ``f`` must not give NaN.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre, True, 0
    if fcur == 0:
        return xcur, True, 0
    if (fpre < 0) == (fcur < 0):  # neither is 0, so this is signbit
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # C divides by 0 to an inf or NaN step, which fails the step test: so does inf
            stry = math.inf
            if xpre == xblk:
                # interpolate
                if fcur != fpre:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, False, maxiter


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


def _degenerate_stationarity(x: float, m: int) -> float:
    """s_m(x) = 2 / (1 + m e^{-x}) - 2/x - 1; increasing, zero at the minimum of g_m.

    g_m(x) = (1 + m e^{-x})^2 / (m x^2 e^{-x}) is 1/F at T = 1 of levels (0, x) with
    multiplicities (1, m), and g_m'(x) = s_m(x) g_m(x). g_1 is the two-level factor,
    where s_1 = tanh(x/2) - 2/x, and g_2(t) = f3(t, t) is the three-level diagonal.
    """
    return 2.0 / (1.0 + m * math.exp(-x)) - 2.0 / x - 1.0


def _degenerate_minimum(m: int) -> tuple[float, bool, int]:
    """Brent root of s_m on ``ROOT_BRACKET`` to ``ROOT_TOL``: (root, converged, iterations)."""
    return _brentq(
        lambda x: _degenerate_stationarity(x, m), *ROOT_BRACKET, ROOT_TOL, _ROOT_MAXITER
    )


def minimize_two_level_factor() -> MinimumResult:
    """Minimum of the two-level bound factor: the root of s_1, the m = 1 member."""
    xm, converged, iterations = _degenerate_minimum(1)
    return MinimumResult(
        argmin=xm, value=two_level_factor(xm), converged=converged, iterations=iterations
    )


def _cross_diagonal_curvature(t: float) -> float:
    """a(t), with f3_xx - f3_xy = a(t) e^t / (4 t^4) at (t, t): curvature across the diagonal."""
    e = math.exp(-t)
    return -t * t + 4 * t - 2 + (16 * t - 12) * e + (4 * t * t + 16 * t - 24) * e * e - 16 * e**3


def minimize_three_level_factor() -> MinimumResult:
    """Strict local minimum of the three-level bound factor, on the diagonal x = y.

    The factor is symmetric and its diagonal is g_2, so its gradient vanishes at the root
    of s_2, the m = 2 member. Its Hessian there is positive definite: the
    curvature along the diagonal because s_2 increases, the one across it where a(t) > 0,
    which ``converged`` checks in closed form.
    """
    xd, converged, iterations = _degenerate_minimum(2)
    return MinimumResult(
        argmin=(xd, xd),
        value=three_level_factor(xd, xd),
        converged=converged and _cross_diagonal_curvature(xd) > 0.0,
        iterations=iterations,
    )


def two_level_crb(T: float, gap: float) -> float | _Unbounded:
    """Single-shot variance floor T^2 * f2(gap/T) for a two-level system.

    A zero gap carries no temperature information, so the floor is
    :data:`UNBOUNDED` there (the factor diverges as 4/x^2). A floor past the
    float range is ``inf``, also where gap/T leaves (0, inf): the factor is
    then past it too.
    """
    T = positive(T, "temperature")
    gap = float(gap)
    if not math.isfinite(gap) or gap < 0.0:
        raise ValueError(f"gap must be finite and >= 0, got {gap!r}")
    if gap == 0.0:
        return UNBOUNDED
    x = gap / T
    return temperature_power(T, 2) * (two_level_factor(x) if 0.0 < x < math.inf else math.inf)


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

def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c[k, i] of (lambda - x[i])^(3-k) of the PCHIP interpolant through (x, y).

    scipy's ``PchipInterpolator`` operation for operation, so the bits match. Its
    ``_find_derivatives`` gives the slopes: the Fritsch-Butland weighted harmonic mean of
    the secants, 0 where they change sign or one vanishes, one-sided ends, and the secant
    for two points. ``CubicHermiteSpline`` turns them into coefficients.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.empty_like(y)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_end(h0, h1, m0, m1):
    """End slope of ``_pchip``: one-sided three-point, kept shape-preserving (``_edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _cubic_value(xs: list[float], pieces: list[list[float]], lam: float) -> float:
    """Value at ``lam`` of the piecewise cubic with breaks ``xs``, as scipy's PPoly gives it.

    ``pieces[i]`` holds column i of ``_pchip``. The piece is PPoly's ``find_interval``:
    xs[i] <= lam < xs[i + 1], the last closed and the end pieces extended beyond the
    range. The sum runs in the order of PPoly's ``evaluate_poly1``.
    """
    i = min(max(bisect_right(xs, lam) - 1, 0), len(pieces) - 1)
    c0, c1, c2, c3 = pieces[i]
    s = lam - xs[i]
    s2 = s * s
    return 0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


@dataclass(frozen=True)
class GapFamily:
    """Gap of a tunable two-level system as a function of a control parameter.

    ``evaluate`` maps a control value to the gap. ``breaks`` are increasing
    control values between which the gap is monotone: (lo, hi) for a linear
    family, (lo, clipped centre, hi) for a quadratic one, the data points
    for a table. The control range runs from the first break to the last.
    """

    evaluate: Callable[[float], float]
    breaks: tuple[float, ...]
    description: str = ""

    def __post_init__(self):
        if len(self.breaks) < 2:
            raise ValueError(f"breaks must hold at least two control values, got {self.breaks!r}")
        lo, hi = float(self.lambda_min), float(self.lambda_max)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(
                f"control range must satisfy lambda_min < lambda_max, got [{lo!r}, {hi!r}]"
            )
        b = self.breaks
        if any(a >= c for a, c in zip(b, b[1:])):
            raise ValueError(f"breaks must increase, got {b!r}")

    @property
    def lambda_min(self) -> float:
        return self.breaks[0]

    @property
    def lambda_max(self) -> float:
        return self.breaks[-1]

    def gap_at(self, lam: float) -> float:
        """Evaluate and validate the gap at one control value."""
        if not self.lambda_min <= lam <= self.lambda_max:
            raise ValueError(
                f"control value {lam!r} outside [{self.lambda_min}, {self.lambda_max}]"
            )
        gap = float(self.evaluate(lam))
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
            breaks=(float(lambda_min), float(lambda_max)),
            description=description or f"linear gap {slope}*lambda + {intercept}",
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
            breaks=tuple(dict.fromkeys((lo, min(max(center, lo), hi), hi))),
            description=description or f"quadratic gap, minimum {gap_min} at {center}",
        )

    @classmethod
    def from_table(cls, points: Sequence[Sequence[float]], description=""):
        """Monotone-cubic (PCHIP) interpolation through (lambda, gap) pairs.

        The interpolant is scipy's ``PchipInterpolator`` to the bit (see ``_pchip``),
        built and evaluated here; beyond the range its end pieces extend, as scipy's do.
        """
        pts = sorted((float(l), float(g)) for l, g in points)
        if len(pts) < 2:
            raise ValueError("table family needs at least 2 points")
        lams = np.array([p[0] for p in pts])
        gaps = np.array([p[1] for p in pts])
        if np.any(lams[1:] <= lams[:-1]):  # compared, not subtracted: no overflow
            raise ValueError("table family control values must be distinct")
        if np.any(gaps < 0.0) or not np.all(np.isfinite(gaps)):
            raise ValueError("table family gaps must be finite and >= 0")
        if not np.all(np.isfinite(lams)):
            raise ValueError("table family control values must be finite")
        # shape-preserving: stays >= 0 and is monotone between data points
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite coefficient
            c = _pchip(lams, gaps)
        if not np.all(np.isfinite(c)):
            raise ValueError("table family interpolation overflows (points too close or far apart)")
        xs, pieces = lams.tolist(), c.T.tolist()
        return cls(
            # the interpolant is >= 0; evaluating it can round a zero point to -1e-16
            evaluate=lambda lam: max(_cubic_value(xs, pieces, float(lam)), 0.0),
            breaks=tuple(xs),
            description=description or f"tabulated gap ({len(pts)} points)",
        )


@dataclass(frozen=True)
class TuneResult:
    lambda_star: float
    gap: float
    bound: float


def tune_gap(family: GapFamily, T: float) -> TuneResult:
    """Control value minimizing the two-level variance floor of ``family`` at ``T``.

    The floor T^2 f2(gap/T) is unimodal in the gap with its minimum at
    gap = x_m T, so on each monotone piece between ``breaks`` the optimum is
    the root of gap(lambda) = x_m T or an end of the piece. Every root stops
    at ``ROOT_TOL`` in the control value; the breaks always compete, so
    boundary optima are exact.
    """
    T = positive(T, "temperature")
    temperature_power(T, 2)  # the floor is T^2 times a factor
    target = T * minimize_two_level_factor().argmin

    def bound(lam: float) -> float:
        gap = family.gap_at(lam)
        return two_level_crb(T, gap) if gap > 0.0 else math.inf

    def excess(lam: float) -> float:
        return family.gap_at(lam) - target

    candidates = list(family.breaks)
    for a, b in zip(family.breaks[:-1], family.breaks[1:]):
        if excess(a) * excess(b) < 0.0:
            root, converged, iterations = _brentq(excess, a, b, ROOT_TOL, _ROOT_MAXITER)
            if not converged:
                raise RuntimeError(f"Failed to converge after {iterations} iterations.")
            candidates.append(root)
    best_lam = min(candidates, key=bound)
    best = bound(best_lam)
    # each piece is monotone, so a gap of 0 at every break is 0 everywhere
    if math.isinf(best) and max(family.gap_at(b) for b in family.breaks) == 0.0:
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
