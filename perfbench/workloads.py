"""Seeded inputs for the four benchmark workloads.

``build`` writes the files the program reads (experiment configs, spectra,
gap families) into a work directory and returns the operations of one pass:
for each, the argv handed to ``thermometry.cli.main``, the input files it
parses, and the parameters the oracle needs. The same (workload, seed, size)
always gives the same inputs; the seed changes values, never the amount of
work. Energy scales are powers of two so that sample means and lattice sums
are exact in floating point, which keeps every exclusion decision of the
program and the oracle identical.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("saturation_mle", "saturation_bayes_multilevel", "sweep_frozen", "bounds_scan")

# Per size: Monte Carlo runs per pass and trials per run, and the bounds_scan
# table sizes. Several short runs per pass rather than one long one keep each
# timed operation short next to the speed reference (see speed.py); for the
# same reason each sweep operation covers one temperature.
SIZES = {
    "full": {
        "mc_runs": 5, "mle_trials": 100, "bayes_trials": 150, "sweep_trials": 150,
        "gfun_step": 0.001, "hfun_step": 0.05, "spectrum_levels": 20000, "tune_temps": 7,
    },
    "small": {
        "mc_runs": 2, "mle_trials": 50, "bayes_trials": 30, "sweep_trials": 150,
        "gfun_step": 0.01, "hfun_step": 0.25, "spectrum_levels": 300, "tune_temps": 3,
    },
}
SWEEP_RATIOS = (0.5, 1.0, 2.4, 4.0, 6.0)  # gap/T; at 6, P(all of R trials excluded) ~ 0.884^R


def _write(workdir: Path, name: str, data: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _two_level(gap: float) -> dict:
    return {"label": "two-level", "levels": [{"energy": 0.0}, {"energy": gap}]}


def _saturation_mle(rng, workdir, size):
    gap = 2.0 ** rng.randint(-3, 3)
    T = gap / 2.4
    M, R = 1000, size["mle_trials"]
    params = {"gap": gap, "m0": 1, "m1": 1, "T": T, "M": M, "R": R}
    ops = []
    for j in range(size["mc_runs"]):
        cfg = {
            "spectrum": _two_level(gap), "true_temperature": T, "shots_per_trial": M,
            "trials": R, "estimator": "mle", "seed": rng.randrange(2**32),
            "degenerate_sample_policy": "exclude_and_report",
        }
        path = _write(workdir, f"saturation_mle_{j}.cfg", cfg)
        ops.append(_op("simulate_mle", ["simulate", "--config", path], [("config", path)], params))
    return ops


def _saturation_bayes(rng, workdir, size):
    unit = 2.0 ** rng.randint(-3, 3)
    gaps = [0] + sorted(rng.sample(range(1, 9), 4))
    mults = [rng.randint(1, 4) for _ in gaps]
    T = unit * gaps[1] / rng.uniform(1.5, 3.0)
    M, R, grid = 1000, size["bayes_trials"], 1024
    prior = [T / 5.0, 5.0 * T]
    spectrum = {
        "label": "lattice-5",
        "levels": [{"energy": unit * g, "degeneracy": m} for g, m in zip(gaps, mults)],
    }
    params = {"gaps": gaps, "mults": mults, "unit": unit, "T": T, "M": M, "R": R,
              "prior": prior, "grid": grid}
    ops = []
    for j in range(size["mc_runs"]):
        cfg = {
            "spectrum": spectrum, "true_temperature": T, "shots_per_trial": M, "trials": R,
            "estimator": "bayes", "seed": rng.randrange(2**32),
            "degenerate_sample_policy": "exclude_and_report",
            "bayes_prior": prior, "bayes_grid_size": grid,
        }
        path = _write(workdir, f"saturation_bayes_{j}.cfg", cfg)
        ops.append(_op("simulate_bayes", ["simulate", "--config", path], [("config", path)], params))
    return ops


def _sweep_frozen(rng, workdir, size):
    gap = 2.0 ** rng.randint(-3, 3)
    temps = [gap / x for x in SWEEP_RATIOS]
    M, R = 50, size["sweep_trials"]
    path = _write(workdir, "sweep_spectrum.json", _two_level(gap))
    ops = []
    for T in temps:
        argv = ["sweep", "--spectrum", path, "--temperatures", repr(T), "--shots", str(M),
                "--trials", str(R), "--seed", str(rng.randrange(2**32))]
        params = {"gap": gap, "m0": 1, "m1": 1, "temperatures": [T], "M": M, "R": R}
        ops.append(_op("sweep", argv, [("spectrum", path)], params))
    return ops


def _families(rng, T: float, i: int) -> list[dict]:
    """Linear, quadratic and table gap families whose control range scales with T.

    Odd i puts the linear family's gap range above 2.4 T, so its optimum sits
    at the range's lower end; the quadratic family's floor gap_min is above
    2.4 T about half of the time, which also pins the optimum to its floor.
    """
    slope = 2.0 ** rng.uniform(-1.0, 1.0)
    span = (5.0, 10.0) if i % 2 else (0.01 * rng.uniform(0.5, 2.0), 10.0 * rng.uniform(0.5, 2.0))
    linear = {"kind": "linear", "slope": slope, "intercept": 0.0,
              "lambda_min": span[0] * T / slope, "lambda_max": span[1] * T / slope}
    center = rng.uniform(-1.0, 1.0)
    quadratic = {"kind": "quadratic", "curvature": T, "center": center,
                 "gap_min": rng.uniform(0.5, 5.0) * T,
                 "lambda_min": center - 3.5, "lambda_max": center + 3.5}
    exps = sorted(rng.uniform(-1.0, 1.0) for _ in range(7))
    points = [[float(j), T * 10.0**e] for j, e in enumerate([-1.3, *exps, 1.3])]
    table = {"kind": "table", "points": points}
    return [linear, quadratic, table]


def _large_spectrum(rng, n: int) -> tuple[list[float], list[int]]:
    # Energies on a 2^-24 grid of the width: distinct levels never fall within
    # the package's relative merge tolerance, while exact repeats still merge.
    width = 2.0 ** rng.randint(-3, 3) * n / 100.0
    energies = [width * rng.randrange(2**24) / 2**24 for _ in range(n)]
    energies += rng.sample(energies, n // 20)
    mults = [rng.randint(1, 3) for _ in energies]
    return energies, mults


def _bounds_scan(rng, workdir, size):
    ops = [_op("minima", ["minima"], [], {})]

    g = {"min": round(rng.uniform(0.4, 0.6), 3), "max": round(rng.uniform(9.5, 10.5), 3),
         "step": size["gfun_step"]}
    ops.append(_op("gfun", ["gfun", "--min", repr(g["min"]), "--max", repr(g["max"]),
                            "--step", repr(g["step"])], [], g))
    h = {"min": round(rng.uniform(0.9, 1.1), 3), "max": round(rng.uniform(5.9, 6.1), 3),
         "step": size["hfun_step"]}
    ops.append(_op("hfun", ["hfun", "--min", repr(h["min"]), "--max", repr(h["max"]),
                            "--step", repr(h["step"])], [], h))

    n_temps = size["tune_temps"]
    temps = [10.0 ** (-3.0 + 6.0 * i / (n_temps - 1)) for i in range(n_temps)]
    temps = [temps[0]] + [t * 10.0 ** rng.uniform(-0.2, 0.2) for t in temps[1:-1]] + [temps[-1]]
    for i, T in enumerate(temps):
        for family in _families(rng, T, i):
            path = _write(workdir, f"family_{i}_{family['kind']}.json", family)
            ops.append(_op("tune", ["tune", "--family", path, "-T", repr(T)],
                           [("family", path)], {"family": family, "T": T}))

    energies, mults = _large_spectrum(rng, size["spectrum_levels"])
    spectrum = {"label": "large", "levels": [
        {"energy": e, "degeneracy": m} for e, m in zip(energies, mults)]}
    path = _write(workdir, "large_spectrum.json", spectrum)
    width = max(energies)
    for _ in range(3):
        T = width * 10.0 ** rng.uniform(-2.0, -0.5)
        M = rng.randint(10, 1000)
        ops.append(_op("bound", ["bound", "--spectrum", path, "-T", repr(T), "-M", str(M)],
                       [("spectrum", path)],
                       {"energies": energies, "mults": mults, "T": T, "M": M}))
    return ops


def _op(kind: str, argv: list[str], inputs: list[tuple[str, str]], params: dict) -> dict:
    return {"kind": kind, "argv": argv,
            "inputs": [{"type": t, "path": p} for t, p in inputs], "params": params}


GENERATORS = {
    "saturation_mle": _saturation_mle,
    "saturation_bayes_multilevel": _saturation_bayes,
    "sweep_frozen": _sweep_frozen,
    "bounds_scan": _bounds_scan,
}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[dict]:
    """Write the workload's input files into ``workdir``; return one pass of operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, workdir, SIZES[size])

