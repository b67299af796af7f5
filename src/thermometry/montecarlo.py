"""Simulated energy measurements and empirical check of the variance floor.

Each trial owns an RNG stream derived from (seed, trial index) only, so
reports are bitwise reproducible for a given config and trials could run
in any order; the reduction below sums in trial order, which fixes
the float accumulation order as well. A run draws every trial's counts
into one (trials, levels) array and hands it to the batched estimators in
:mod:`thermometry.estimation`, which estimate each distinct sufficient statistic
once: the MLE each sample mean, Bayes each pair (S, M) of energy sum and shots.

Trial streams are built in bulk, bit for bit the same as ``trial_rng``: the PCG64
``(state, inc)`` of ``trial_rng(seed, t)`` is derived for a block of
trials at once, as uint64 arrays, by numpy's ``SeedSequence`` hash (the
seed's pool taken from numpy once, the block's spawn words hashed as one
array) and PCG64's seeding step in 64-bit halves. Each trial's four words
are then written in place into one reused generator, through numpy's
documented ``BitGenerator.ctypes.state_address``, after a check of that
memory's layout. Each trial then takes one multinomial draw of its counts
from its stream, whose cost does not grow with the shot count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateExperimentError,
    InputFormatError,
    at_least,
    int64,
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
from .fisher import _variance_and_fisher
from .thermal import (
    Spectrum,
    ThermalState,
    gibbs_state,
    spectrum_from_dict,
    spectrum_to_dict,
)

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

# Trial streams whose PCG64 states are derived together.
STREAM_BLOCK = 1024

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on 32-bit words, and the
# PCG64 multiplier of its seeding step, in 64-bit halves
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = divmod(_PCG_MULT, 1 << 64)

# The probe of the state layout check: a PCG64 state and inc, and a buffered 32-bit half,
# each 32-bit word distinct, so that a swapped or shifted read shows. Each of numpy's two
# pcg128_t layouts holds the probe's words (state_lo, state_hi, inc_lo, inc_hi) in its own
# column order, the one a row of stream words is written in: a native __uint128_t keeps the
# low word first, the emulated {high, low} struct swaps each pair. The flags word is
# has_uint32 = 1 and the half, the two 32-bit fields after the state pointer.
_PROBE_STATE = 0x0123456789ABCDEF_F0E1D2C3B4A59687
_PROBE_INC = 0x1032547698BADCFE_0F1E2D3C4B5A6979
_PROBE_HALF = 0x5EEDC0DE
_PROBE_WORDS = (*divmod(_PROBE_STATE, 1 << 64)[::-1], *divmod(_PROBE_INC, 1 << 64)[::-1])
_PROBE_LAYOUTS = {tuple(_PROBE_WORDS[i] for i in order): order
                  for order in ([0, 1, 2, 3], [1, 0, 3, 2])}
_PROBE_FLAGS = 1 | _PROBE_HALF << 32


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
        int64(self.shots_per_trial, "shots_per_trial")  # numpy draws counts as int64
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


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of ``n`` >= 0, at least one."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_columns(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants for ``count`` hashmixes in a row from ``const``: the one
    each value is XORed with and the one it is then multiplied by, as (count, 1) uint64
    columns."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(np.array(c, dtype=np.uint64)[:, None] for c in (consts[:-1], consts[1:]))


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` (a uint64 array of 32-bit words) under the
    constant columns of :func:`_hash_columns`, one row per constant."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two hashed words."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


# generate_state(4, np.uint64): eight 32-bit words, hashed from the pool entries in turn
_STATE_ENTRIES = np.arange(8) % _POOL_SIZE
_STATE_XOR, _STATE_MUL = _hash_columns(_INIT_B, _MULT_B, 8)


def _mul_high(a: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * m``, for a uint64 array ``a`` and a
    64-bit constant ``m``, on 32-bit limbs: each partial product fits in 64 bits."""
    a0, a1 = a & _MASK32, a >> 32
    m0, m1 = m & _MASK32, m >> 32
    mid = (a0 * m0 >> 32) + (a0 * m1 & _MASK32) + (a1 * m0 & _MASK32)
    return a1 * m1 + (a0 * m1 >> 32) + (a1 * m0 >> 32) + (mid >> 32)


def _stream_states(seed: int, trials: range) -> Iterator[np.ndarray]:
    """PCG64 ``(state, inc)`` of ``trial_rng(seed, t)`` for each t of ``trials``, as one
    (trials, 4) uint64 block of words state_lo, state_hi, inc_lo, inc_hi per block of at
    most ``STREAM_BLOCK`` trials.

    The seed's part of the SeedSequence hash is numpy's own pool of ``SeedSequence(seed)``:
    under a spawn key numpy pads the seed's words with zeros to the pool size, and those
    zeros hash as the fill of a shorter seed does. The pool's fill and all-pairs mix take
    16 hashes and each seed word past the pool size 4 more, each multiplying the hash
    constant by ``_MULT_A``, so the constant next in line is a power of it times ``_INIT_A``.
    Each block of trials whose spawn keys have the same number of words is hashed as
    (4, trials) uint64 arrays of 32-bit words: each spawn word into all four pool entries at
    once, then the eight state words as one (8, trials) array. PCG64's seeding step follows
    on the same arrays: with s and i the hashed 128-bit words, inc = 2i + 1 and state =
    (inc + s) * ``_PCG_MULT`` + inc mod 2^128, in 64-bit halves that wrap as uint64 does,
    with each carry out of a low half taken by comparison.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    const = _INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, len(_words(seed))), 1 << 32) & _MASK32
    start = trials.start
    while start < trials.stop:
        n_words = len(_words(start))
        end = min(trials.stop, start + STREAM_BLOCK, 1 << 32 * n_words)
        t = np.arange(start, end, dtype=np.uint64)
        xor, mul = _hash_columns(const, _MULT_A, _POOL_SIZE * n_words)
        block = pool
        for j in range(n_words):
            rows = slice(_POOL_SIZE * j, _POOL_SIZE * (j + 1))
            block = _mix(block, _hashmix(t >> 32 * j & _MASK32, xor[rows], mul[rows]))
        words = _hashmix(block[_STATE_ENTRIES], _STATE_XOR, _STATE_MUL)
        s_hi, s_lo, i_hi, i_lo = words[0::2] | words[1::2] << 32
        out = np.empty((end - start, 4), dtype=np.uint64)
        out[:, 2] = inc_lo = i_lo << 1 | 1
        out[:, 3] = inc_hi = i_hi << 1 | i_lo >> 63
        a_lo = inc_lo + s_lo
        a_hi = inc_hi + s_hi + (a_lo < inc_lo)
        out[:, 0] = state_lo = a_lo * _PCG_MULT_LO + inc_lo
        out[:, 1] = (_mul_high(a_lo, _PCG_MULT_LO) + a_lo * _PCG_MULT_HI + a_hi * _PCG_MULT_LO
                     + inc_hi + (state_lo < inc_lo))
        yield out
        start = end


def _state_words(bits: np.random.PCG64) -> tuple:
    """The state words and the flags word of ``bits`` in numpy's memory, as ctypes views,
    and the column order that puts a row of :func:`_stream_states` into the words.

    ``bits.ctypes.state_address`` is numpy's ``pcg64_state {pcg64_random_t *pcg_state;
    int has_uint32; uint32_t uinteger}``, and ``pcg_state`` points at the 128-bit state and
    inc. The check sets a known state, inc and buffered 32-bit half through the public
    setter and reads them back through those addresses; a layout it does not know raises
    ``RuntimeError``, before anything is written.
    """
    import ctypes  # loaded by numpy already

    bits.state = {"bit_generator": "PCG64", "state": {"state": _PROBE_STATE, "inc": _PROBE_INC},
                  "has_uint32": 1, "uinteger": _PROBE_HALF}
    address = bits.ctypes.state_address
    words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    flags = ctypes.c_uint64.from_address(address + 8)
    order = _PROBE_LAYOUTS.get(tuple(words))
    if order is None or flags.value != _PROBE_FLAGS:
        raise RuntimeError(
            f"numpy {np.__version__}: PCG64 state memory does not have a known layout "
            f"(read {[hex(w) for w in words]}, flags {flags.value:#x})"
        )
    return words, flags, order


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """``trial_rng(seed, t)`` for t = 0 .. trials - 1, as one generator whose state is
    rewritten in place for each trial: draw from each before taking the next.

    Each trial writes its four words of :func:`_stream_states` over the generator's state
    and inc, and clears ``has_uint32`` and ``uinteger``, as numpy's setter and a new PCG64
    do: otherwise the 32-bit half that an odd count of 32-bit draws left buffered would be
    the next trial's first draw. :func:`_state_words` checks the layout before the first
    write.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    words, flags, order = _state_words(bits)
    for block in _stream_states(seed, range(trials)):
        for row in block[:, order].tolist():
            words[:] = row
            flags.value = 0
            yield rng


def draw_counts(
    spectrum: Spectrum, T: float, shots: int, rngs: Iterable[np.random.Generator]
) -> np.ndarray:
    """Multinomial counts of ``shots`` energy outcomes at ``T``, one row per stream.

    Each row is ``rng.multinomial(shots, probs)`` of its stream, the conditional chain
    k_n ~ Binomial(shots - sum_{j<n} k_j, p_n / (1 - sum_{j<n} p_j)) whose remainder goes to
    the top level, even where the occupations sum a few ulp below 1. Each count is one
    BTPE or inversion binomial draw, so the cost does not grow with ``shots``. A stream is
    used up before the next is taken.
    """
    shots = int64(at_least(integer(shots, "shots"), 1, "shots"), "shots")
    return _draw_counts(gibbs_state(spectrum, T), shots, rngs)


def _draw_counts(
    state: ThermalState, shots: int, rngs: Iterable[np.random.Generator], count: int = -1
) -> np.ndarray:
    """:func:`draw_counts` from the Gibbs state ``state`` and a checked ``shots``, over
    ``count`` streams where that is known (-1 where not).

    On two levels the chain is one binomial of the ground level, with multinomial's bits
    at less cost per call.
    """
    probs = state.probs
    if len(probs) == 2:
        p0 = float(probs[0])
        ground = np.fromiter((rng.binomial(shots, p0) for rng in rngs), np.int64, count)
        counts = np.empty((len(ground), 2), dtype=np.int64)
        counts[:, 0] = ground
        np.subtract(shots, ground, out=counts[:, 1])
        return counts
    return np.fromiter((rng.multinomial(shots, probs) for rng in rngs),
                       (np.int64, len(probs)), count)


def draw_sample(
    spectrum: Spectrum, T: float, shots: int, rng: np.random.Generator
) -> SampleSet:
    """One sample of ``shots`` outcomes from ``rng``: :func:`draw_counts` of one stream."""
    counts = draw_counts(spectrum, T, shots, [rng])[0]
    return SampleSet(spectrum=spectrum, counts=tuple(counts.tolist()))


def _estimate(cfg: ExperimentConfig, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Status and estimate of every count row by the configured estimator.

    Each estimator reads a row only through its sufficient statistic and estimates each
    distinct one once: the MLE each sample mean (see :func:`mle_batch`), Bayes each pair
    (S, M) (see :func:`bayes_batch`). Rows repeat more on a lattice spectrum and at fewer
    shots, so a run's cost follows how often they do; without repeats the extra cost is
    one sort of the statistics.
    """
    if cfg.estimator == BAYES:
        estimate = bayes_batch(cfg.spectrum, counts, cfg.effective_prior(), cfg.bayes_grid_size)
        return np.full(len(counts), INTERIOR, dtype=object), estimate
    return mle_batch(cfg.spectrum, counts, bracket=cfg.mle_bracket)


def run_experiment(cfg: ExperimentConfig) -> SaturationReport:
    """Run all trials and compare the mean squared error to the floor.

    One pass: the batched estimator gives every trial's status and estimate
    (each distinct sufficient statistic once, see ``_estimate``), the
    policy reads the statuses, and the reduction works on the usable
    estimates as arrays. The error is the mean of
    (estimate - true T)^2 over usable trials, i.e. squared error about the
    truth, not about the sample mean; the reported sums run in trial order.
    ``ratio_stderr`` is the standard error of ``ratio`` as the mean of the
    per-trial values (estimate - true T)^2 / crb. Degenerate (boundary /
    non-invertible) trials are excluded and counted, or abort the run at
    the first one in trial order, per the configured policy. A squared error
    sum past the float range (estimates past about 1e154, as a Bayes prior
    reaching that far allows) raises OverflowError. The Gibbs state of the
    true temperature is built once: F and the cumulative occupations of the
    draw both come from it, with the bits of :func:`fisher_information` and
    :func:`draw_counts`.
    """
    T = cfg.true_temperature
    state = gibbs_state(cfg.spectrum, T)
    fisher = _variance_and_fisher(state)[1]
    if fisher <= 0.0:
        raise ValueError(
            "spectrum carries no temperature information; the variance floor is unbounded"
        )
    crb = 1.0 / (cfg.shots_per_trial * fisher)

    counts = _draw_counts(state, cfg.shots_per_trial, _trial_streams(cfg.seed, cfg.trials),
                          cfg.trials)
    status, estimate = _estimate(cfg, counts)
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
    with np.errstate(over="ignore"):  # an error past about 1e154 squares to inf
        sq = (estimates - T) ** 2
        # cumsum adds in trial order, as the serialized sums always have; np.sum is pairwise
        mse = float(np.cumsum(sq)[-1]) / used
    if math.isinf(mse):
        raise OverflowError("empirical_mse is beyond the float range")
    with np.errstate(over="ignore"):  # past about 1e154 a square's variance is inf
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
    seed = at_least(integer(seed, "seed"), 0, "seed")
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
