"""Command-line surface: bounds, bound-factor tables, minima, simulations, tuning.

Exit codes: 0 success, 2 malformed input file / bad usage, 3 invalid
numeric argument or a size beyond memory, 4 degenerate experiment. User errors print a one-line
message naming the offending input, never a stack trace. All numeric
output is written with repr precision, so tables and reports parse back
losslessly at 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bounds import (
    ROOT_BRACKET,
    ROOT_TOL,
    _two_level_factor,
    family_from_dict,
    minimize_three_level_factor,
    minimize_two_level_factor,
    three_level_factor_grid,
    tune_gap,
)
from .errors import (
    DegenerateExperimentError,
    InputFormatError,
    at_least,
    int64,
    positive,
    positive_interval,
)
from .estimation import (
    MIN_GRID_SIZE,
    bayes_posterior,
    default_bracket,
    mle_temperature,
    sample_from_dict,
)
from .fisher import UNBOUNDED, fisher_report
from .montecarlo import (
    ABORT,
    BAYES,
    EXCLUDE_AND_REPORT,
    MLE,
    config_from_dict,
    report_to_dict,
    run_experiment,
    sweep_saturation,
)
from .thermal import load_json, load_spectrum

__all__ = ["main", "run"]


def _crb_value(crb):
    return "unbounded" if crb is UNBOUNDED else crb


def _json_text(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\\n"`` for a report (a dict with str keys)."""
    return _layout(data, "\n") + "\n"


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# the encoder's text of each scalar, by its exact type; any other value (numpy scalars, an
# int or str subclass, empty containers) goes through ``json.dumps``
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _layout(value, newline: str) -> str:
    """``value`` as the indenting encoder writes it after ``newline`` (a newline + indent).

    ``json.dumps`` with ``indent`` runs its pure-Python encoder; keys and scalars instead
    take their text from ``_SCALAR_TEXT``, and a flat list goes through the C encoder in
    one call, with the indenter's item separator.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{_layout(key, inner)}: {_layout(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _SCALAR_TEXT.keys():
            flat = json.dumps(value, separators=("," + inner, ": "))
            return "[" + inner + flat[1:-1] + newline + "]"
        items = [_layout(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def _axis(args) -> list[float]:
    """Grid from ``--min`` to ``--max`` in steps of ``--step`` (shared by gfun and hfun)."""
    lo, hi = positive_interval((args.min, args.max), "--min/--max")
    step = positive(args.step, "--step")
    if step > hi - lo:
        raise ValueError(f"--step {step!r} exceeds the range [{lo!r}, {hi!r}]")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValueError(f"--step {step!r} gives no finite point count on [{lo!r}, {hi!r}]")
    n = int(math.floor(span + 1e-9))
    return [lo + i * step for i in range(n + 1)]


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the full output text)
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> str:
    T = positive(args.temperature, "--temperature")
    shots = at_least(args.shots, 1, "--shots")
    spectrum = load_spectrum(args.spectrum)
    report = fisher_report(spectrum, T)
    return _json_text(
        {
            "spectrum_label": spectrum.label,
            "temperature": report.temperature,
            "fisher": report.fisher,
            "specific_heat": report.specific_heat,
            "crb_single_shot": _crb_value(report.crb_single_shot),
            "shots": shots,
            "crb_m_shots": _crb_value(report.crb_m_shots(shots)),
            "sld_eigenvalues": report.sld_eigenvalues.tolist(),
        }
    )


def _cmd_gfun(args) -> str:
    axis = _axis(args)
    lines = [
        "# two-level bound factor 2(1+cosh x)/x^2",
        f"# x from {args.min!r} to {args.max!r} step {args.step!r}",
        "x,g",
    ]
    for x in axis:  # _axis checked every point
        lines.append(f"{x!r},{_two_level_factor(x)!r}")
    return "\n".join(lines) + "\n"


def _cmd_hfun(args) -> str:
    axis = _axis(args)
    lines = [
        "# three-level bound factor on a square grid",
        f"# x and y from {args.min!r} to {args.max!r} step {args.step!r}",
        "x,y,h",
    ]
    texts = [repr(x) for x in axis]
    for tx, row in zip(texts, three_level_factor_grid(axis, axis)):
        for ty, h in zip(texts, row):
            lines.append(f"{tx},{ty},{h!r}")
    return "\n".join(lines) + "\n"


def _cmd_minima(args) -> str:
    two = minimize_two_level_factor()
    three = minimize_three_level_factor()
    lo, hi = ROOT_BRACKET
    return "".join(
        [
            "# minima of the low-temperature bound factors\n",
            f"# two-level: Brent root of s_m(x) = 2/(1 + m e^-x) - 2/x - 1 at m = 1"
            f" on [{lo:g}, {hi:g}], tol {ROOT_TOL!r}\n",
            f"# three-level: Brent root of s_m at m = 2 (the diagonal) on [{lo:g}, {hi:g}]"
            f" + closed-form cross-diagonal Hessian check, tol {ROOT_TOL!r}\n",
            f"two_level_xm = {two.argmin:.8f}\n",
            f"two_level_min = {two.value:.8f}\n",
            f"three_level_xh = {three.argmin[0]:.8f}\n",
            f"three_level_yh = {three.argmin[1]:.8f}\n",
            f"three_level_min = {three.value:.8f}\n",
            f"two_level_converged = {str(two.converged).lower()}\n",
            f"two_level_iterations = {two.iterations}\n",
            f"three_level_converged = {str(three.converged).lower()}\n",
            f"three_level_iterations = {three.iterations}\n",
        ]
    )


def _cmd_sweep(args) -> str:
    temps = [positive(T, "--temperatures") for T in args.temperatures]
    shots = int64(at_least(args.shots, 1, "--shots"), "--shots")
    trials = at_least(args.trials, 1, "--trials")
    spectrum = load_spectrum(args.spectrum)
    reports = sweep_saturation(
        spectrum,
        temps,
        shots=shots,
        trials=trials,
        estimator=args.estimator,
        seed=args.seed,
        degenerate_sample_policy=args.policy,
    )
    lines = [
        f"# saturation sweep: shots={shots} trials={trials} "
        f"estimator={args.estimator} seed={args.seed} policy={args.policy}",
        "T,crb,empirical_mse,ratio,excluded,trials_used",
    ]
    for T, rep in zip(temps, reports):
        lines.append(
            f"{T!r},{rep.crb!r},{rep.empirical_mse!r},{rep.ratio!r},"
            f"{rep.excluded_trials},{rep.trials_used}"
        )
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> str:
    cfg = config_from_dict(load_json(args.config))
    report = run_experiment(cfg)
    return _json_text(report_to_dict(report, cfg))


def _cmd_tune(args) -> str:
    T = positive(args.temperature, "--temperature")
    family = family_from_dict(load_json(args.family))
    result = tune_gap(family, T)
    return _json_text(
        {
            "family": family.description,
            "control_range": [family.lambda_min, family.lambda_max],
            "temperature": T,
            "tolerance": ROOT_TOL,
            "lambda_star": result.lambda_star,
            "gap": result.gap,
            "bound": result.bound,
            "bound_over_T2": result.bound / (T * T),
        }
    )


def _cmd_estimate(args) -> str:
    spectrum = load_spectrum(args.spectrum)
    sample = sample_from_dict(load_json(args.sample), spectrum)
    if args.bracket is not None:
        bracket = positive_interval(args.bracket, "--bracket")
    else:
        bracket = default_bracket(spectrum)
    result = mle_temperature(sample, bracket=bracket)
    out = {
        "spectrum_label": spectrum.label,
        "M": sample.total,
        "bracket": list(bracket),
        "status": result.status,
        "estimate": result.estimate,
    }
    if args.prior is not None:
        prior = positive_interval(args.prior, "--prior")
        grid = at_least(args.grid, MIN_GRID_SIZE, "--grid")
        post = bayes_posterior(sample, prior, grid)
        out["posterior_mean"] = post.mean
        out["posterior_sd"] = post.sd
        out["prior"] = list(prior)
        out["grid_size"] = grid
    return _json_text(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="thermometry",
        description=(
            "Precision limits of temperature estimation for finite systems at "
            "thermal equilibrium, and Monte Carlo checks that energy measurement "
            "plus likelihood processing attains them."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", help="variance floor report for a spectrum file")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--temperature", "-T", type=float, required=True)
    p.add_argument("--shots", "-M", type=int, default=1, help="repeated measurements")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("gfun", help="CSV table of the two-level bound factor")
    p.add_argument("--min", type=float, default=0.5)
    p.add_argument("--max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(handler=_cmd_gfun)

    p = sub.add_parser("hfun", help="CSV table of the three-level bound factor (square grid)")
    p.add_argument("--min", type=float, default=1.0)
    p.add_argument("--max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(handler=_cmd_hfun)

    p = sub.add_parser("minima", help="locate both bound-factor minima")
    p.set_defaults(handler=_cmd_minima)

    p = sub.add_parser("sweep", help="saturation sweep over temperatures (CSV)")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--temperatures", type=float, nargs="+", required=True)
    p.add_argument("--shots", "-M", type=int, required=True)
    p.add_argument("--trials", "-R", type=int, required=True)
    p.add_argument("--estimator", choices=[MLE, BAYES], default=MLE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=[EXCLUDE_AND_REPORT, ABORT], default=EXCLUDE_AND_REPORT)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", help="run one experiment config file")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("tune", help="optimal control value for a gap family")
    p.add_argument("--family", required=True, help="gap-family JSON file")
    p.add_argument("--temperature", "-T", type=float, required=True)
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("estimate", help="re-analyze a stored sample file")
    p.add_argument("--sample", required=True, help="sample JSON file")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--prior", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=2048)
    p.set_defaults(handler=_cmd_estimate)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # e.g. a grid size far beyond memory
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def run() -> None:
    raise SystemExit(main())
