"""Simulated energy measurements and empirical check of the variance floor.

Each trial owns an RNG stream derived from (seed, trial index) only, so
reports are bitwise reproducible for a given config and trials could run
in any order; the reduction below iterates in trial order, which fixes
the float accumulation order as well.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateExperimentError, InputFormatError
from .estimation import (
    INTERIOR,
    EstimateResult,
    SampleSet,
    bayes_posterior,
    mle_temperature,
)
from .fisher import fisher_information
from .thermal import Spectrum, gibbs_state, spectrum_from_dict, spectrum_to_dict

__all__ = [
    "GENERATOR_ID",
    "MLE",
    "BAYES",
    "EXCLUDE_AND_REPORT",
    "ABORT",
    "ExperimentConfig",
    "SaturationReport",
    "trial_rng",
    "draw_sample",
    "run_experiment",
    "sweep_saturation",
    "config_to_dict",
    "config_from_dict",
    "report_to_dict",
]

GENERATOR_ID = f"numpy.random.PCG64 (numpy {np.__version__})"

MLE = "mle"
BAYES = "bayes"
EXCLUDE_AND_REPORT = "exclude_and_report"
ABORT = "abort"


@dataclass(frozen=True)
class ExperimentConfig:
    """One saturation experiment: R trials of M shots at a true temperature."""

    spectrum: Spectrum
    true_temperature: float
    shots_per_trial: int
    trials: int
    estimator: str = MLE
    seed: int = 0
    degenerate_sample_policy: str = EXCLUDE_AND_REPORT
    bayes_prior: tuple[float, float] | None = None
    bayes_grid_size: int = 1024
    mle_bracket: tuple[float, float] | None = None

    def __post_init__(self):
        T = self.true_temperature
        if not (isinstance(T, numbers.Real) and math.isfinite(T) and T > 0.0):
            raise ValueError(f"true_temperature must be finite and > 0, got {T!r}")
        if self.shots_per_trial < 1:
            raise ValueError(f"shots_per_trial must be >= 1, got {self.shots_per_trial}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.estimator not in (MLE, BAYES):
            raise ValueError(f"estimator must be '{MLE}' or '{BAYES}', got {self.estimator!r}")
        if self.degenerate_sample_policy not in (EXCLUDE_AND_REPORT, ABORT):
            raise ValueError(
                f"degenerate_sample_policy must be '{EXCLUDE_AND_REPORT}' or "
                f"'{ABORT}', got {self.degenerate_sample_policy!r}"
            )

    def effective_prior(self) -> tuple[float, float]:
        """Bayes prior; defaults to [T/5, 5T] around the simulated truth."""
        if self.bayes_prior is not None:
            return self.bayes_prior
        T = self.true_temperature
        return (T / 5.0, 5.0 * T)


@dataclass(frozen=True)
class SaturationReport:
    """Empirical estimator error against the variance floor 1/(M F)."""

    empirical_mse: float
    crb: float
    ratio: float
    mean_estimate: float
    excluded_trials: int
    trials_used: int
    generator: str = GENERATOR_ID


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, trial) only."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def draw_sample(
    spectrum: Spectrum, T: float, shots: int, rng: np.random.Generator
) -> SampleSet:
    """Multinomial counts of ``shots`` energy outcomes at temperature ``T``.

    Inverse-CDF sampling: each uniform is placed in the cumulative
    occupation distribution; the final clip guards against the cumulative
    sum landing a few ulp below 1.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = gibbs_state(spectrum, T).probs
    cum = np.cumsum(probs)
    u = rng.random(shots)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    counts = np.bincount(idx, minlength=len(cum))
    return SampleSet(spectrum=spectrum, counts=tuple(int(c) for c in counts))


def _estimate(cfg: ExperimentConfig, sample: SampleSet) -> EstimateResult:
    if cfg.estimator == MLE:
        return mle_temperature(sample, bracket=cfg.mle_bracket)
    post = bayes_posterior(sample, cfg.effective_prior(), cfg.bayes_grid_size)
    return EstimateResult(
        status=INTERIOR,
        estimate=post.mean,
        posterior_mean=post.mean,
        posterior_sd=post.sd,
    )


def run_experiment(cfg: ExperimentConfig) -> SaturationReport:
    """Run all trials and compare the mean squared error to the floor.

    The error is the mean of (estimate - true T)^2 over usable trials,
    i.e. squared error about the truth, not about the sample mean.
    Degenerate (boundary / non-invertible) trials are excluded and
    counted, or abort the run, per the configured policy.
    """
    T = cfg.true_temperature
    fisher = fisher_information(cfg.spectrum, T)
    if fisher <= 0.0:
        raise ValueError(
            "spectrum carries no temperature information; the variance floor is unbounded"
        )
    crb = 1.0 / (cfg.shots_per_trial * fisher)

    sum_sq = 0.0
    sum_est = 0.0
    used = 0
    excluded = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        sample = draw_sample(cfg.spectrum, T, cfg.shots_per_trial, rng)
        result = _estimate(cfg, sample)
        if result.status != INTERIOR:
            if cfg.degenerate_sample_policy == ABORT:
                raise DegenerateExperimentError(
                    f"trial {trial} produced a degenerate sample "
                    f"(status {result.status}, counts {sample.counts})"
                )
            excluded += 1
            continue
        err = result.estimate - T
        sum_sq += err * err
        sum_est += result.estimate
        used += 1
    if used == 0:
        raise DegenerateExperimentError(
            f"all {cfg.trials} trials were degenerate; no usable estimates"
        )
    mse = sum_sq / used
    return SaturationReport(
        empirical_mse=mse,
        crb=crb,
        ratio=mse / crb,
        mean_estimate=sum_est / used,
        excluded_trials=excluded,
        trials_used=used,
    )


def sweep_saturation(
    spectrum: Spectrum,
    temperatures: Sequence[float],
    shots: int,
    trials: int,
    estimator: str = MLE,
    seed: int = 0,
    degenerate_sample_policy: str = EXCLUDE_AND_REPORT,
) -> list[SaturationReport]:
    """One report per temperature; each gets a child seed derived from (seed, index)."""
    if len(temperatures) == 0:
        raise ValueError("temperature list must not be empty")
    reports = []
    for i, T in enumerate(temperatures):
        child_seed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
        cfg = ExperimentConfig(
            spectrum=spectrum,
            true_temperature=float(T),
            shots_per_trial=shots,
            trials=trials,
            estimator=estimator,
            seed=child_seed,
            degenerate_sample_policy=degenerate_sample_policy,
        )
        reports.append(run_experiment(cfg))
    return reports


# ---------------------------------------------------------------------------
# Config / report serialization
# ---------------------------------------------------------------------------

def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = {
        "spectrum": spectrum_to_dict(cfg.spectrum),
        "true_temperature": cfg.true_temperature,
        "shots_per_trial": cfg.shots_per_trial,
        "trials": cfg.trials,
        "estimator": cfg.estimator,
        "seed": cfg.seed,
        "degenerate_sample_policy": cfg.degenerate_sample_policy,
    }
    if cfg.estimator == BAYES:
        data["bayes_prior"] = list(cfg.effective_prior())
        data["bayes_grid_size"] = cfg.bayes_grid_size
    if cfg.mle_bracket is not None:
        data["mle_bracket"] = list(cfg.mle_bracket)
    return data


def _require(data: dict, key: str):
    if key not in data:
        raise InputFormatError(f"experiment config is missing the '{key}' field")
    return data[key]


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputFormatError(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputFormatError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _optional_pair(data: dict, key: str) -> tuple[float, float] | None:
    pair = data.get(key)
    if pair is None:
        return None
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputFormatError(f"'{key}' must be a [low, high] pair, got {pair!r}")
    return (_number(pair[0], key), _number(pair[1], key))


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InputFormatError("experiment config must be an object")
    spectrum = spectrum_from_dict(_require(data, "spectrum"))
    try:
        return ExperimentConfig(
            spectrum=spectrum,
            true_temperature=_number(_require(data, "true_temperature"), "true_temperature"),
            shots_per_trial=_integer(_require(data, "shots_per_trial"), "shots_per_trial"),
            trials=_integer(_require(data, "trials"), "trials"),
            estimator=data.get("estimator", MLE),
            seed=_integer(_require(data, "seed"), "seed"),
            degenerate_sample_policy=data.get(
                "degenerate_sample_policy", EXCLUDE_AND_REPORT
            ),
            bayes_prior=_optional_pair(data, "bayes_prior"),
            bayes_grid_size=_integer(data.get("bayes_grid_size", 1024), "bayes_grid_size"),
            mle_bracket=_optional_pair(data, "mle_bracket"),
        )
    except InputFormatError:
        raise
    except ValueError as exc:
        raise InputFormatError(f"invalid experiment config: {exc}") from exc


def report_to_dict(report: SaturationReport, cfg: ExperimentConfig) -> dict:
    """Full report with the config echoed so the output is self-describing."""
    return {
        "config": config_to_dict(cfg),
        "generator": report.generator,
        "empirical_mse": report.empirical_mse,
        "crb": report.crb,
        "ratio": report.ratio,
        "mean_estimate": report.mean_estimate,
        "excluded_trials": report.excluded_trials,
        "trials_used": report.trials_used,
    }
