"""Simulated energy measurements and empirical check of the variance floor.

Each trial owns an RNG stream derived from (seed, trial index) only, so
reports are bitwise reproducible for a given config and trials could run
in any order; the reduction below sums in trial order, which fixes
the float accumulation order as well. A run draws every trial's counts
into one (trials, levels) array and hands it to the batched estimators
in :mod:`thermometry.estimation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateExperimentError,
    InputFormatError,
    at_least,
    integer,
    number,
    positive,
    positive_interval,
    require,
    temperature_power,
)
from .estimation import (
    AT_LOWER_BOUND,
    AT_UPPER_BOUND,
    INTERIOR,
    MIN_GRID_SIZE,
    NON_INVERTIBLE,
    SampleSet,
    bayes_batch,
    mle_batch,
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

# Uniforms are drawn per trial in chunks of at most this many, so memory does
# not grow with the shot count; consecutive draws continue one PCG64 stream.
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One saturation experiment: R trials of M shots at a true temperature.

    Construction checks every field (InputFormatError for a wrong type, ValueError for a
    value out of range) and stores numbers as floats, counts as ints, intervals as tuples.
    """

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
        store = object.__setattr__  # the dataclass is frozen
        store(self, "true_temperature",
              positive(number(self.true_temperature, "true_temperature"), "true_temperature"))
        for name, minimum in (("shots_per_trial", 1), ("trials", 1), ("seed", 0),
                              ("bayes_grid_size", MIN_GRID_SIZE)):
            store(self, name, at_least(integer(getattr(self, name), name), minimum, name))
        for name in ("bayes_prior", "mle_bracket"):
            pair = getattr(self, name)
            if pair is not None:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise InputFormatError(f"{name} must be a [low, high] pair, got {pair!r}")
                ends = (number(pair[0], f"{name}[0]"), number(pair[1], f"{name}[1]"))
                store(self, name, positive_interval(ends, name))
        if self.bayes_prior is not None:  # a default [T/5, 5T] fails only where T itself does
            temperature_power(self.bayes_prior[0], -1, "bayes_prior lower end")
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
    # status -> number of excluded trials; not part of the serialized report
    excluded_by_status: dict[str, int] = field(default_factory=dict, hash=False)
    # standard error of ``ratio``; not serialized either. NaN below two usable trials,
    # and left out of equality, where NaN would make equal reports unequal
    ratio_stderr: float = field(default=math.nan, compare=False)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, derived from (seed, trial) only."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def draw_counts(
    spectrum: Spectrum, T: float, shots: int, rngs: Iterable[np.random.Generator]
) -> np.ndarray:
    """Multinomial counts of ``shots`` energy outcomes at ``T``, one row per stream.

    Inverse-CDF sampling: each uniform is placed among the cumulative
    occupations of all levels but the top one, so a uniform past every one
    of those boundaries lands in the top level, even where the cumulative
    sum ends a few ulp below 1. Each stream's uniforms are drawn in chunks
    of ``DRAW_CHUNK``, which continue the stream exactly as one draw would.
    """
    at_least(shots, 1, "shots")
    cum = np.cumsum(gibbs_state(spectrum, T).probs)[:-1]
    n = len(cum) + 1
    rows = []
    for rng in rngs:
        counts = np.zeros(n, dtype=np.int64)
        for start in range(0, shots, DRAW_CHUNK):
            u = rng.random(min(DRAW_CHUNK, shots - start))
            counts += np.bincount(np.searchsorted(cum, u, side="right"), minlength=n)
        rows.append(counts)
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def draw_sample(
    spectrum: Spectrum, T: float, shots: int, rng: np.random.Generator
) -> SampleSet:
    """One sample of ``shots`` outcomes from ``rng``: :func:`draw_counts` of one stream."""
    counts = draw_counts(spectrum, T, shots, [rng])[0]
    return SampleSet(spectrum=spectrum, counts=tuple(counts.tolist()))


def run_experiment(cfg: ExperimentConfig) -> SaturationReport:
    """Run all trials and compare the mean squared error to the floor.

    One pass: the batched estimator gives every trial's status and
    estimate, the policy reads those statuses, and the reduction works on
    the usable estimates as arrays. The error is the mean of
    (estimate - true T)^2 over usable trials, i.e. squared error about the
    truth, not about the sample mean; the reported sums run in trial order.
    ``ratio_stderr`` is the standard error of ``ratio`` as the mean of the
    per-trial values (estimate - true T)^2 / crb. Degenerate (boundary /
    non-invertible) trials are excluded and counted, or abort the run at
    the first one in trial order, per the configured policy.
    """
    T = cfg.true_temperature
    fisher = fisher_information(cfg.spectrum, T)
    if fisher <= 0.0:
        raise ValueError(
            "spectrum carries no temperature information; the variance floor is unbounded"
        )
    crb = 1.0 / (cfg.shots_per_trial * fisher)

    counts = draw_counts(
        cfg.spectrum, T, cfg.shots_per_trial,
        (trial_rng(cfg.seed, trial) for trial in range(cfg.trials)),
    )
    if cfg.estimator == MLE:
        status, estimate = mle_batch(cfg.spectrum, counts, bracket=cfg.mle_bracket)
    else:
        estimate = bayes_batch(
            cfg.spectrum, counts, cfg.effective_prior(), cfg.bayes_grid_size
        )
        status = np.full(cfg.trials, INTERIOR, dtype=object)

    usable = status == INTERIOR
    if cfg.degenerate_sample_policy == ABORT and not usable.all():
        trial = int(np.flatnonzero(~usable)[0])
        raise DegenerateExperimentError(
            f"trial {trial} produced a degenerate sample "
            f"(status {status[trial]}, counts {tuple(counts[trial].tolist())})"
        )
    estimates = estimate[usable]
    used = len(estimates)
    if used == 0:
        raise DegenerateExperimentError(
            f"all {cfg.trials} trials were degenerate; no usable estimates"
        )
    sq = (estimates - T) ** 2
    # cumsum adds in trial order, as the serialized sums always have; np.sum is pairwise
    mse = float(np.cumsum(sq)[-1]) / used
    var_sq = float(np.var(sq, ddof=1)) if used > 1 else math.nan
    return SaturationReport(
        empirical_mse=mse,
        crb=crb,
        ratio=mse / crb,
        mean_estimate=float(np.cumsum(estimates)[-1]) / used,
        excluded_trials=cfg.trials - used,
        trials_used=used,
        excluded_by_status={
            s: int(np.count_nonzero(status == s))
            for s in (AT_LOWER_BOUND, AT_UPPER_BOUND, NON_INVERTIBLE)
        },
        ratio_stderr=math.sqrt(var_sq / used) / crb,
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
    at_least(seed, 0, "seed")
    reports = []
    for i, T in enumerate(temperatures):
        child_seed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
        cfg = ExperimentConfig(
            spectrum=spectrum,
            true_temperature=T,
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

_CONFIG_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "spectrum"]


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


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object describes; its fields are checked by :class:`ExperimentConfig`."""
    if not isinstance(data, dict):
        raise InputFormatError("experiment config must be an object")
    what = "experiment config"
    spectrum = spectrum_from_dict(require(data, "spectrum", what))
    for key in ("true_temperature", "shots_per_trial", "trials", "seed"):
        require(data, key, what)
    try:
        return ExperimentConfig(spectrum, **{k: data[k] for k in _CONFIG_KEYS if k in data})
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
