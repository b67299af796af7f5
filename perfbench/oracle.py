"""Expected outputs for every benchmark operation, computed without the package.

Nothing here imports ``thermometry``. Each operation's stdout is parsed into
named observations, and each observation is compared with a :class:`Target`
derived from a closed form or from an exact sum over the distribution of a
sufficient statistic:

- two-level MLE (``simulate`` and ``sweep``): the count k of upper-level
  outcomes is binomial and the estimate has the closed form
  T(k) = gap / ln((M - k) m1 / (k m0)), so the MSE/CRB ratio, the mean
  estimate and the exclusion probability are finite sums over k;
- multi-level Bayes (``simulate``): on an integer energy lattice the
  posterior depends on the counts only through the total energy S, whose
  distribution is the M-fold convolution of the one-shot distribution;
- ``minima``, ``tune``, ``gfun``, ``hfun``: roots of the stationarity
  equations and the closed-form bound factors, written in forms that differ
  from the package's;
- ``bound``: the Fisher information against a central finite difference of
  the mean energy, F = (d<H>/dT) / T^2.

Monte Carlo observations (mean squared error, mean estimate, excluded
count) must pass exact two-sided tail tests at level ``TAIL_ALPHA`` against
those exact distributions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

TAIL_ALPHA = 1e-9
# Longest lattice for the exact sample-mean test (entries), and the largest
# probability that any draw falls among the extreme values it leaves out.
_MAX_LATTICE = 1 << 22
_DROPPED = 1e-12
# Documented default MLE search bracket, relative to the spectrum spread.
MLE_BRACKET_SPAN = (1e-4, 1e4)


@dataclass(frozen=True, eq=False)
class Target:
    """An expected value and how an observation is compared with it.

    ``how`` is one of: ``eq`` (exact), ``rel`` (relative tolerance ``tol``),
    ``abs`` (absolute tolerance ``tol``), ``ge`` / ``le`` (a lower / upper
    limit), ``tail`` (``value`` is the probability of a binomial count over
    ``tol`` trials) and ``mean`` (the observation is the mean of ``tol`` draws
    from the distribution ``support``/``probs``, whose mean is ``value``).
    """

    value: float
    how: str
    tol: float = 0.0
    support: np.ndarray | None = field(default=None, repr=False)
    probs: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def mean_of(cls, support: np.ndarray, probs: np.ndarray, n: int) -> "Target":
        return cls(float(probs @ support), "mean", n, support, probs)

    def holds(self, obs: float) -> bool:
        if self.how == "eq":
            return obs == self.value
        if self.how == "rel":
            return abs(obs - self.value) <= self.tol * abs(self.value)
        if self.how == "abs":
            return abs(obs - self.value) <= self.tol
        if self.how == "ge":
            return obs >= self.value
        if self.how == "le":
            return obs <= self.value
        if self.how == "tail":
            return binomial_tail_ok(int(obs), int(self.tol), self.value)
        if self.how == "mean":
            return sample_mean_tail_ok(self.support, self.probs, int(self.tol), obs)
        raise ValueError(f"unknown comparison {self.how!r}")

    def wrong(self) -> "Target":
        """A deliberately wrong version of this target, which a correct output must miss."""
        if self.how == "eq":
            return replace(self, value=self.value + 1)
        if self.how in ("rel", "abs"):
            shift = max(0.5 * abs(self.value), 1e3 * self.tol)
            return replace(self, value=self.value + shift)
        if self.how == "ge":
            return replace(self, value=math.inf)
        if self.how == "le":
            return replace(self, value=-math.inf)
        if self.how == "tail":
            return replace(self, value=self.value + 0.5 if self.value < 0.5 else self.value - 0.5)
        # mean: shift the distribution up by 20 standard errors of the sample mean
        sd = math.sqrt(float(self.probs @ (self.support - self.value) ** 2))
        support = self.support + 20.0 * sd / math.sqrt(max(self.tol, 1))
        return Target.mean_of(support, self.probs, int(self.tol))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def two_level_factor(x: float) -> float:
    """2 (1 + cosh x) / x^2, written as (2 cosh(x/2) / x)^2."""
    return (2.0 * math.cosh(0.5 * x) / x) ** 2


def three_level_factor(x: float, y: float) -> float:
    """e^{-x-y} (e^x + e^y + e^{x+y})^2 / ((x-y)^2 + e^y x^2 + e^x y^2)."""
    num = (math.exp(x) + math.exp(y) + math.exp(x + y)) ** 2 * math.exp(-x - y)
    return num / ((x - y) ** 2 + math.exp(y) * x * x + math.exp(x) * y * y)


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] (sign change assumed), to float resolution."""
    negative_at_lo = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if (f(mid) < 0.0) == negative_at_lo:
            lo = mid
        else:
            hi = mid


def two_level_minimum() -> tuple[float, float]:
    """(x_m, f2(x_m)) from the root of x tanh(x/2) = 2."""
    xm = _bisect_root(lambda x: x * math.tanh(0.5 * x) - 2.0, 1.0, 4.0)
    return xm, two_level_factor(xm)


def three_level_minimum() -> tuple[float, float]:
    """(x_h, f3(x_h, x_h)) from the diagonal stationarity e^x (x - 2) = 2 (x + 2)."""
    xh = _bisect_root(lambda x: math.exp(x) * (x - 2.0) - 2.0 * (x + 2.0), 2.0, 10.0)
    return xh, three_level_factor(xh, xh)


def _mean_energy(energies, mults, T: float) -> float:
    e0 = min(energies)
    w = [m * math.exp(-(e - e0) / T) for e, m in zip(energies, mults)]
    return math.fsum(wi * e for wi, e in zip(w, energies)) / math.fsum(w)


# ---------------------------------------------------------------------------
# Exact finite-M distributions
# ---------------------------------------------------------------------------

def _log_binom_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    lg = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_choose = lg[n] - lg - lg[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(k > 0, k * math.log(p) if p > 0.0 else -np.inf, 0.0)
        logq = np.where(k < n, (n - k) * math.log1p(-p) if p < 1.0 else -np.inf, 0.0)
    return log_choose + logp + logq


def binomial_tail_ok(count: int, n: int, p: float) -> bool:
    """True unless ``count`` lies in either tail of Binomial(n, p) beyond TAIL_ALPHA / 2."""
    if not 0 <= count <= n:
        return False
    pmf = np.exp(_log_binom_pmf(n, p))
    below = float(pmf[: count + 1].sum())
    above = float(pmf[count:].sum())
    return min(below, above) >= 0.5 * TAIL_ALPHA


def sample_mean_tail_ok(support: np.ndarray, probs: np.ndarray, n: int, observed: float) -> bool:
    """True unless the mean of ``n`` draws lies in either tail beyond TAIL_ALPHA / 2.

    The draws take the non-negative values ``support`` with probabilities
    ``probs``. Values are rounded to a lattice of spacing 0.2 sd / sqrt(n), so
    rounding all n draws moves their sum by at most a tenth of the sum's
    standard deviation; the sum's distribution on the lattice is the n-fold
    convolution, taken by FFT. The observed sum is widened by that rounding
    bound on each side, which can only make the test pass more easily.
    """
    if n < 1 or not math.isfinite(observed):
        return False
    # Drop the largest values while their total probability stays below
    # _DROPPED / n: the n draws miss them with probability above 1 - _DROPPED,
    # which is added back to the upper tail below.
    order = np.argsort(support)
    upper_mass = np.cumsum(probs[order][::-1])[::-1]
    keep = order[upper_mass > _DROPPED / n]
    support, probs = support[keep], probs[keep] / probs[keep].sum()
    mean = float(probs @ support)
    sd = math.sqrt(float(probs @ (support - mean) ** 2))
    top = float(support.max())
    step = max(0.2 * sd / math.sqrt(n), n * top / _MAX_LATTICE, 1e-300)
    idx = np.rint(support / step).astype(np.int64)
    length = n * int(idx.max()) + 1
    size = 1 << (length - 1).bit_length()
    one = np.zeros(size)
    np.add.at(one, idx, probs)
    pmf = np.clip(np.fft.irfft(np.fft.rfft(one) ** n, size)[:length], 0.0, None)
    cdf = np.cumsum(pmf)
    s = n * observed / step
    hi = int(math.floor(s + 0.5 * n))
    lo = int(math.ceil(s - 0.5 * n))
    below = float(cdf[min(hi, length - 1)]) if hi >= 0 else 0.0
    above = float(cdf[-1] - (cdf[lo - 1] if lo >= 1 else 0.0)) if lo < length else 0.0
    return min(below, above + _DROPPED) >= 0.5 * TAIL_ALPHA


def _usable(prob: np.ndarray, est: np.ndarray, T: float, crb: float) -> dict:
    """Conditional distribution of the estimate over the usable outcomes."""
    return {"T": T, "crb": crb, "est": est, "w": prob / prob.sum()}


def two_level_mle_exact(gap: float, m0: int, m1: int, T: float, M: int) -> dict:
    """Exact finite-M behaviour of the two-level MLE at temperature T.

    A sample with k upper-level outcomes is excluded when k = 0 (mean at the
    ground energy), when k / M reaches the infinite-temperature occupation
    m1 / (m0 + m1), or when the closed-form estimate leaves the default
    bracket; otherwise the estimate is gap / ln((M - k) m1 / (k m0)).
    """
    boltz = m1 * math.exp(-gap / T)
    q = boltz / (m0 + boltz)
    lo, hi = MLE_BRACKET_SPAN[0] * gap, MLE_BRACKET_SPAN[1] * gap
    k = np.arange(M + 1)
    prob = np.exp(_log_binom_pmf(M, q))
    invertible = (k > 0) & (k * (m0 + m1) < M * m1)
    est = np.full(M + 1, np.nan)
    ki = k[invertible]
    est[invertible] = gap / np.log((M - ki) * m1 / (ki * m0))
    usable = invertible & (est > lo) & (est < hi)
    crb = T**4 / (M * gap * gap * q * (1.0 - q))
    out = _usable(prob[usable], est[usable], T, crb)
    out["p_excluded"] = float(prob[~usable].sum())
    return out


def bayes_lattice_exact(
    gaps: list[int], mults: list[int], unit: float, T: float, M: int,
    prior: tuple[float, float], grid: int,
) -> dict:
    """Exact finite-M behaviour of the flat-prior posterior mean on an energy lattice.

    Level n sits at ``unit * gaps[n]`` above the ground. The posterior on the
    uniform ``grid`` over ``prior`` (trapezoid quadrature) depends on the
    counts only through S = sum of per-shot gaps, whose distribution is the
    M-fold convolution of the one-shot distribution (computed by FFT).
    """
    g = np.asarray(gaps)
    logw = np.log(np.asarray(mults, dtype=float)) - g * unit / T
    p = np.exp(logw - logw.max())
    p /= p.sum()
    top = int(g.max()) * M
    size = 1 << (top + 1).bit_length()
    one_shot = np.zeros(size)
    np.add.at(one_shot, g, p)
    pmf = np.fft.irfft(np.fft.rfft(one_shot) ** M, size)[: top + 1]
    pmf = np.clip(pmf, 0.0, None)
    keep = np.flatnonzero(pmf > 1e-14 * pmf.max())  # below this the FFT result is rounding noise
    prob = pmf[keep] / pmf[keep].sum()

    temps = np.linspace(prior[0], prior[1], grid)
    quad = np.full(grid, temps[1] - temps[0])
    quad[[0, -1]] *= 0.5
    level_logw = np.log(np.asarray(mults, dtype=float))[None, :] - np.outer(unit / temps, g)
    log_z = np.logaddexp.reduce(level_logw, axis=1)
    loglik = -np.outer(keep * unit, 1.0 / temps) - M * log_z[None, :]
    dens = np.exp(loglik - loglik.max(axis=1, keepdims=True)) * quad
    est = (dens @ temps) / dens.sum(axis=1)

    energies = g * unit
    e_mean = float(p @ energies)
    var = float(p @ (energies - e_mean) ** 2)
    crb = T**4 / (M * var)
    return _usable(prob, est, T, crb)


# ---------------------------------------------------------------------------
# Targets per operation kind
# ---------------------------------------------------------------------------

def _mc_targets(prefix: str, exact: dict, R: int, obs: dict) -> dict:
    """Targets of one Monte Carlo report, given its observed number of used trials."""
    used = int(obs.get(f"{prefix}trials_used", 0))
    est, w = exact["est"], exact["w"]
    targets = {
        f"{prefix}crb": Target(exact["crb"], "rel", 1e-9),
        f"{prefix}empirical_mse": Target.mean_of((est - exact["T"]) ** 2, w, used),
        f"{prefix}trials_total": Target(R, "eq"),
    }
    if f"{prefix}mean_estimate" in obs:  # the sweep table has no mean column
        targets[f"{prefix}mean_estimate"] = Target.mean_of(est, w, used)
    if f"{prefix}empirical_mse" in obs and f"{prefix}crb" in obs:
        targets[f"{prefix}ratio"] = Target(
            obs[f"{prefix}empirical_mse"] / obs[f"{prefix}crb"], "rel", 1e-12)
    return targets


def _two_level_targets(prefix: str, params: dict, T: float, obs: dict) -> dict:
    exact = two_level_mle_exact(params["gap"], params["m0"], params["m1"], T, params["M"])
    R = params["R"]
    targets = _mc_targets(prefix, exact, R, obs)
    targets[f"{prefix}excluded_trials"] = Target(exact["p_excluded"], "tail", R)
    return targets


def _targets_simulate_mle(params, obs):
    return _two_level_targets("", params, params["T"], obs)


def _targets_simulate_bayes(params, obs):
    exact = bayes_lattice_exact(
        params["gaps"], params["mults"], params["unit"], params["T"], params["M"],
        tuple(params["prior"]), params["grid"],
    )
    targets = _mc_targets("", exact, params["R"], obs)
    targets["excluded_trials"] = Target(0, "eq")
    targets["mean_estimate_min"] = Target(params["prior"][0], "ge")
    targets["mean_estimate_max"] = Target(params["prior"][1], "le")
    return targets


def _targets_sweep(params, obs):
    targets = {"rows": Target(len(params["temperatures"]), "eq")}
    for i, T in enumerate(params["temperatures"]):
        targets[f"T[{i}]"] = Target(T, "eq")
        targets.update(_two_level_targets(f"row[{i}].", params, T, obs))
    return targets


def _targets_minima(params, obs):
    xm, f2 = two_level_minimum()
    xh, f3 = three_level_minimum()
    printed = 1e-8  # values are printed with 8 decimals
    return {
        "two_level_xm": Target(xm, "abs", printed),
        "two_level_min": Target(f2, "abs", printed),
        "three_level_xh": Target(xh, "abs", printed),
        "three_level_yh": Target(xh, "abs", printed),
        "three_level_min": Target(f3, "abs", printed),
        "two_level_converged": Target(1.0, "eq"),
        "three_level_converged": Target(1.0, "eq"),
    }


def _family_gap(family: dict, lam: float) -> float | None:
    if family["kind"] == "linear":
        return family["slope"] * lam + family["intercept"]
    if family["kind"] == "quadratic":
        return family["curvature"] * (lam - family["center"]) ** 2 + family["gap_min"]
    return None  # tabulated families interpolate; no closed form


def _family_gap_range(family: dict) -> tuple[float, float]:
    if family["kind"] == "table":
        gaps = [g for _, g in family["points"]]
        return min(gaps), max(gaps)
    lo, hi = family["lambda_min"], family["lambda_max"]
    ends = (_family_gap(family, lo), _family_gap(family, hi))
    low = min(ends)
    if family["kind"] == "quadratic" and lo <= family["center"] <= hi:
        low = family["gap_min"]
    return low, max(ends)


def _targets_tune(params, obs):
    family, T = params["family"], params["T"]
    xm, f2 = two_level_minimum()
    gap_lo, gap_hi = _family_gap_range(family)
    interior_tol = 1e-6 if family["kind"] == "table" else 1e-9
    if gap_lo <= xm * T <= gap_hi:
        bound = Target(T * T * f2, "rel", interior_tol)
    elif xm * T < gap_lo:
        bound = Target(T * T * two_level_factor(gap_lo / T), "rel", 1e-12)
    else:
        bound = Target(T * T * two_level_factor(gap_hi / T), "rel", 1e-12)
    lam_lo, lam_hi = _lambda_range(family)
    targets = {
        "bound": bound,
        "bound_over_T2": Target(bound.value / (T * T), "rel", bound.tol + 1e-15),
        "lambda_star_min": Target(lam_lo, "ge"),
        "lambda_star_max": Target(lam_hi, "le"),
    }
    lam = obs.get("lambda_star")
    if lam is not None and _family_gap(family, lam) is not None:
        targets["gap"] = Target(_family_gap(family, lam), "rel", 1e-12)
    return targets


def _lambda_range(family: dict) -> tuple[float, float]:
    if family["kind"] == "table":
        lams = [l for l, _ in family["points"]]
        return min(lams), max(lams)
    return family["lambda_min"], family["lambda_max"]


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid lo, lo + step, ... up to hi (a last point within 1e-9 step of hi counts)."""
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + i * step for i in range(n + 1)]


def _targets_gfun(params, obs):
    xs = _grid(params["min"], params["max"], params["step"])
    targets = {"rows": Target(len(xs), "eq")}
    for i, x in enumerate(xs):
        targets[f"x[{i}]"] = Target(x, "eq")
        targets[f"g[{i}]"] = Target(two_level_factor(x), "rel", 1e-12)
    targets["g_min"] = Target(two_level_minimum()[1] * (1.0 - 1e-12), "ge")
    return targets


def _targets_hfun(params, obs):
    axis = _grid(params["min"], params["max"], params["step"])
    targets = {"rows": Target(len(axis) ** 2, "eq")}
    i = 0
    for x in axis:
        for y in axis:
            targets[f"x[{i}]"] = Target(x, "eq")
            targets[f"y[{i}]"] = Target(y, "eq")
            targets[f"h[{i}]"] = Target(three_level_factor(x, y), "rel", 1e-11)
            i += 1
    targets["h_min"] = Target(three_level_minimum()[1] * (1.0 - 1e-12), "ge")
    return targets


def _targets_bound(params, obs):
    energies, mults, T, M = params["energies"], params["mults"], params["T"], params["M"]
    h = 1e-4 * T
    dmean = (_mean_energy(energies, mults, T + h) - _mean_energy(energies, mults, T - h)) / (2 * h)
    fisher = dmean / (T * T)
    mean = _mean_energy(energies, mults, T)
    scale = (max(energies) - min(energies)) / (T * T)
    fd = 1e-6  # central-difference truncation, O(h^2)
    return {
        "temperature": Target(T, "eq"),
        "shots": Target(M, "eq"),
        "fisher": Target(fisher, "rel", fd),
        "specific_heat": Target(fisher * T * T, "rel", fd),
        "crb_single_shot": Target(1.0 / fisher, "rel", fd),
        "crb_m_shots": Target(1.0 / (M * fisher), "rel", fd),
        "sld_count": Target(len(set(energies)), "eq"),
        "sld_first": Target((min(energies) - mean) / (T * T), "abs", 1e-10 * scale),
        "sld_last": Target((max(energies) - mean) / (T * T), "abs", 1e-10 * scale),
    }


# ---------------------------------------------------------------------------
# Parsers: stdout text -> named observations plus the work it represents
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows


def _parse_simulate(text):
    rep = json.loads(text)
    obs = {k: float(rep[k]) for k in (
        "crb", "empirical_mse", "ratio", "mean_estimate", "excluded_trials", "trials_used")}
    obs["trials_total"] = obs["excluded_trials"] + obs["trials_used"]
    obs["mean_estimate_min"] = obs["mean_estimate_max"] = obs["mean_estimate"]
    return obs, 1 + int(obs["trials_total"])


def _parse_sweep(text):
    rows = _csv_rows(text)
    obs = {"rows": float(len(rows))}
    trials = 0
    for i, row in enumerate(rows):
        T, crb, mse, ratio, excluded, used = row
        p = f"row[{i}]."
        obs[f"T[{i}]"] = float(T)
        obs.update({
            p + "crb": float(crb), p + "empirical_mse": float(mse), p + "ratio": float(ratio),
            p + "excluded_trials": float(int(excluded)), p + "trials_used": float(int(used)),
            p + "trials_total": float(int(excluded) + int(used)),
        })
        trials += int(excluded) + int(used)
    return obs, len(rows) + trials


def _parse_minima(text):
    obs = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        obs[key] = {"true": 1.0, "false": 0.0}.get(value, None)
        if obs[key] is None:
            obs[key] = float(value)
    return obs, 2


def _parse_tune(text):
    rep = json.loads(text)
    obs = {k: float(rep[k]) for k in ("bound", "bound_over_T2", "lambda_star")}
    obs["lambda_star_min"] = obs["lambda_star_max"] = obs["lambda_star"]
    if not isinstance(rep["gap"], list):
        obs["gap"] = float(rep["gap"])
    return obs, 1


def _parse_gfun(text):
    rows = _csv_rows(text)
    obs = {"rows": float(len(rows))}
    for i, (x, g) in enumerate(rows):
        obs[f"x[{i}]"], obs[f"g[{i}]"] = float(x), float(g)
    obs["g_min"] = min(float(g) for _, g in rows)
    return obs, len(rows)


def _parse_hfun(text):
    rows = _csv_rows(text)
    obs = {"rows": float(len(rows))}
    for i, (x, y, h) in enumerate(rows):
        obs[f"x[{i}]"], obs[f"y[{i}]"], obs[f"h[{i}]"] = float(x), float(y), float(h)
    obs["h_min"] = min(float(h) for _, _, h in rows)
    return obs, len(rows)


def _parse_bound(text):
    rep = json.loads(text)
    sld = rep["sld_eigenvalues"]
    obs = {k: float(rep[k]) for k in (
        "temperature", "shots", "fisher", "specific_heat", "crb_single_shot", "crb_m_shots")}
    obs.update({"sld_count": float(len(sld)), "sld_first": sld[0], "sld_last": sld[-1]})
    return obs, 1


KINDS = {
    "simulate_mle": (_parse_simulate, _targets_simulate_mle),
    "simulate_bayes": (_parse_simulate, _targets_simulate_bayes),
    "sweep": (_parse_sweep, _targets_sweep),
    "minima": (_parse_minima, _targets_minima),
    "tune": (_parse_tune, _targets_tune),
    "gfun": (_parse_gfun, _targets_gfun),
    "hfun": (_parse_hfun, _targets_hfun),
    "bound": (_parse_bound, _targets_bound),
}


def observe(op: dict, text: str) -> tuple[dict, int]:
    """Parse one operation's stdout into observations and its work units.

    Work units are output rows plus solver results; each Monte Carlo trial
    is one estimator result. Raises on output that does not parse.
    """
    return KINDS[op["kind"]][0](text)


def targets(op: dict, obs: dict) -> dict:
    """Expected values for one operation (some depend on observed trial counts)."""
    return KINDS[op["kind"]][1](op["params"], obs)


def compare(obs: dict, expected: dict) -> list[str]:
    """One message per target that the observations miss or violate."""
    failures = []
    for key, target in expected.items():
        if key not in obs:
            failures.append(f"{key}: missing from output")
        elif not target.holds(obs[key]):
            failures.append(f"{key}: observed {obs[key]!r}, expected {target}")
    return failures


def check(op: dict, text: str) -> tuple[list[str], int]:
    """Failures of one operation's stdout against its oracle, and its work units."""
    try:
        obs, work = observe(op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output does not parse: {exc!r}"], 0
    return compare(obs, targets(op, obs)), work
