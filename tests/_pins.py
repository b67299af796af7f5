"""Every command output whose bytes are pinned, in one table.

Each row runs one ``thermometry`` command on input files written from the row and pins
the sha256 of its stdout, with the numpy version in the generator line masked. Tier-1 runs
every row (``tests/test_cli.py``), the scipy-free cold start runs them all in a fresh
interpreter (``tests/test_package.py``), and this file runs them as a script:

    PYTHONPATH=src python tests/_pins.py

which prints one line per row whose output moved and exits 1 if any did.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from thermometry import GENERATOR_ID
from thermometry.cli import main

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saturation_x24.cfg"
QUBIT = {"label": "qubit", "levels": [{"energy": 0.0}, {"energy": 1.0}]}
# energies 0, 0.5, 1, 1.5 and 2 with degeneracies 1, 2, 3, 2 and 1
FIVE_LEVELS = {"label": "five", "levels": [
    {"energy": n / 2, "degeneracy": m} for n, m in enumerate((1, 2, 3, 2, 1))]}
SAMPLE = {"spectrum_label": "qubit", "counts": [731, 269], "M": 1000}


def lattice_spectrum():
    # 300 levels on a 1/64 lattice, 89 energies repeated exactly (merged on load)
    levels = [{"energy": (i * 37 % 211) / 64, "degeneracy": 1 + i % 3} for i in range(300)]
    return {"label": "lattice-300", "levels": levels}


def tied_spectrum(sort=False):
    # 2000 levels on a 2^-14 lattice, 100 exact repeats and 100 near-ties: 50 within the
    # merge tolerance (1e-12 of the spread, about 6.4e-11), 50 kept as levels 2e-10 apart
    rng = random.Random(22)
    energies = [rng.randrange(2**20) / 2**14 for _ in range(2000)]
    energies += rng.sample(energies, 100)
    near = rng.sample(energies, 100)
    energies += [e + 5e-12 for e in near[:50]] + [e + 2e-10 for e in near[50:]]
    levels = [{"energy": e, "degeneracy": 1 + rng.randrange(3)} for e in energies]
    if sort:
        levels.sort(key=lambda level: level["energy"])
    return {"label": "tied", "levels": levels}


def large_spectrum():
    # 20 000 levels on a 2^-24 grid of the width, 1 000 of them repeated exactly (merged on
    # load), degeneracies 1-3: the shape of the bound spectrum of perfbench's bounds_scan
    rng = random.Random(31)
    width = 200.0
    energies = [width * rng.randrange(2**24) / 2**24 for _ in range(20000)]
    energies += rng.sample(energies, 1000)
    levels = [{"energy": e, "degeneracy": rng.randint(1, 3)} for e in energies]
    return {"label": "large", "levels": levels}


class Pin(NamedTuple):
    id: str
    argv: tuple
    inputs: dict  # each file name in argv: its JSON content, or a file to copy
    digest: str


# the report the per-level loop wrote; the input order changes nothing once levels merge
TIED_DIGEST = "917c89341c5636988766c3c60b8656b5bfd2f8616461d4988a6d7af1694e51ec"
_QUBIT_SWEEP = ("sweep", "--spectrum", "qubit.json", "--temperatures", "0.4", "0.8",
                "--shots", "50", "--trials", "20")

PINS = [
    # both roots of s_m: m = 1 within 1.1e-15 of x_m, m = 2 within ROOT_TOL of x_h
    Pin("minima", ("minima",), {},
        "aac7b76e15c2ea0941829044aa09798473e16816355fae739613e479a2633a11"),
    # an interior optimum: the root of gap(lambda) = x_m T on the middle piece
    Pin("tune-table", ("tune", "--family", "family.json", "-T", "1.0"),
        {"family.json": {"kind": "table", "points": [[0.0, 0.5], [5.0, 2.4], [10.0, 9.0]]}},
        "d86301f7b973d3c5bac13c7e5458b3c88a79481557d6e339a643117341d7e741"),
    # the linear and quadratic families, first pinned with the package sources at f04528f
    Pin("tune-linear", ("tune", "--family", "family.json", "-T", "1.0"),
        {"family.json": {"kind": "linear", "slope": 1.0, "intercept": 0.0,
                         "lambda_min": 0.01, "lambda_max": 10.0}},
        "316c00f3c7bdf433a97287718a4fea8007a9b6b2945bba6e315780dc502319c6"),
    Pin("tune-quadratic", ("tune", "--family", "family.json", "-T", "1.0"),
        {"family.json": {"kind": "quadratic", "curvature": 2.0, "center": 1.0,
                         "gap_min": 0.1, "lambda_min": 0.0, "lambda_max": 3.0}},
        "6c6ee65b5bade9ea94d5f230bd16161220231e26071d8cbd15edcec7fb77f11e"),
    # the qubit floor report
    Pin("bound-qubit", ("bound", "--spectrum", "qubit.json", "-T", "0.4", "-M", "100"),
        {"qubit.json": QUBIT},
        "19a22e93276a61b4da577ec67ea3b8c600126d95b0199fdc83194213d99dfa87"),
    # one level: the "unbounded" marker, first pinned at f04528f
    Pin("bound-flat", ("bound", "--spectrum", "flat.json", "-T", "1.0", "-M", "5"),
        {"flat.json": {"label": "flat", "levels": [{"energy": 0.0, "degeneracy": 3}]}},
        "201ce7529e9502609bdd610d7f4c9f35a0588ddb2f4d7c74dd9f87f516a3a9ad"),
    # the report written by json.dumps(report, indent=2)
    Pin("bound-lattice", ("bound", "--spectrum", "lattice.json", "-T", "1.7", "-M", "250"),
        {"lattice.json": lattice_spectrum()},
        "6191f2c811bed6bb7c2c01d463a61b32f7a6cb61fb40fc582b1fbde48d13dc40"),
    Pin("bound-ties-drawn", ("bound", "--spectrum", "tied.json", "-T", "3.0", "-M", "77"),
        {"tied.json": tied_spectrum()}, TIED_DIGEST),
    Pin("bound-ties-sorted", ("bound", "--spectrum", "tied.json", "-T", "3.0", "-M", "77"),
        {"tied.json": tied_spectrum(sort=True)}, TIED_DIGEST),
    # the report the per-level loop wrote, taken before the array merge of many levels existed
    Pin("bound-large", ("bound", "--spectrum", "large.json", "-T", "7.5", "-M", "500"),
        {"large.json": large_spectrum()},
        "77c5d4ae9830f642c73f1a7dcf123a777e0e5a18e1c59bc8ae59735647ee8ca3"),
    # both factor tables on small grids
    Pin("gfun", ("gfun", "--min", "1", "--max", "3", "--step", "0.5"), {},
        "ac5e21ed8bd6aa145af57d9fc8bd582892a82587898101afedb4801a1b71819d"),
    Pin("hfun-small", ("hfun", "--min", "1", "--max", "2", "--step", "0.5"), {},
        "00429e885c1567c8b4c4d34970b72ad03e0265b4abb1fa513357d09863da4fe4"),
    Pin("hfun-default", ("hfun",), {},
        "40051217c5a586e704b91a496e91502024eeb8b4731edff1b91f58e56f567322"),
    # every cell past the float range: inf, not an error; first pinned at f04528f
    Pin("hfun-inf", ("hfun", "--min", "800", "--max", "801", "--step", "0.5"), {},
        "478de726fa0c9c2637f159dc076c78ccf75c59a94371ef9e23f534fdb77b20ee"),
    # every trial stream and MLE of the two runs; this and every other Monte Carlo digest
    # below was taken with one multinomial draw per trial stream
    Pin("sweep-qubit", _QUBIT_SWEEP, {"qubit.json": QUBIT},
        "28ff81eb20730f10d23283157ac84f23c0ed2560f5a2ceb1fae5b6244359f1a1"),
    # the same streams through the posterior, first pinned at f04528f; multinomial draw
    Pin("sweep-qubit-bayes", _QUBIT_SWEEP + ("--estimator", "bayes"), {"qubit.json": QUBIT},
        "345f5ac26c5ba548575099259f4cfdf2dd19f6f6700f3a721342e2626e18b5a6"),
    # three temperatures at seed 7; multinomial draw
    Pin("sweep-seed-7", ("sweep", "--spectrum", "qubit.json", "--temperatures",
                         str(1.0 / 1.2), str(1.0 / 2.4), str(1.0 / 4.8),
                         "--shots", "50", "--trials", "40", "--seed", "7"),
        {"qubit.json": QUBIT},
        "05cc0745b62c1095002248858f787aa1c1d01b44db4d5085c44d92b60fa935e6"),
    # the qubit posterior, and (first pinned at f04528f) the qubit MLE
    Pin("estimate-bayes", ("estimate", "--sample", "sample.json", "--spectrum", "qubit.json",
                           "--prior", "0.2", "5.0", "--grid", "64"),
        {"sample.json": SAMPLE, "qubit.json": QUBIT},
        "65ace15d98a45819081ad5793a47aef742002181c271574b8b46adb3915b964a"),
    Pin("estimate-mle", ("estimate", "--sample", "sample.json", "--spectrum", "qubit.json"),
        {"sample.json": SAMPLE, "qubit.json": QUBIT},
        "f34839b8cd9f761a5b6968eaf986eaa03da171698ae1ba5a7566371d986ea7a1"),
    # the MLE, Bayes and bundled reports of the multinomial draw, one per trial stream; the
    # Bayes report is that of the posterior taken from S and M alone, whose means differ
    # from the per-level log-likelihood's by up to about 2.6e-15 relative
    Pin("simulate-mle", ("simulate", "--config", "run.cfg"),
        {"run.cfg": {"spectrum": QUBIT, "true_temperature": 1.0 / 2.4,
                     "shots_per_trial": 200, "trials": 300, "estimator": "mle", "seed": 11,
                     "degenerate_sample_policy": "exclude_and_report"}},
        "5621de56ab7f0d7cee28ebee8795f01842e1f0791a9f5db06aa8354834e9b016"),
    Pin("simulate-bayes", ("simulate", "--config", "run.cfg"),
        {"run.cfg": {"spectrum": FIVE_LEVELS, "true_temperature": 0.4,
                     "shots_per_trial": 500, "trials": 100, "estimator": "bayes", "seed": 5,
                     "degenerate_sample_policy": "exclude_and_report", "bayes_grid_size": 1024}},
        "1a6daa5d93fa83902340e390fe4665bce57801185b5c82f86adef4739ebe8a8d"),
    Pin("simulate-bundled", ("simulate", "--config", "run.cfg"), {"run.cfg": BUNDLED_CONFIG},
        "8a2425f7b5e9b9530016719081bd0f633e0428ff57a6dcbf4a74b798d381322b"),
]


def pin_argv(pin: Pin, directory: Path) -> list:
    """Write the row's input files to a folder of its own and return its argv on them."""
    folder = Path(directory) / pin.id
    folder.mkdir(parents=True, exist_ok=True)
    for name, content in pin.inputs.items():
        text = content.read_text("utf-8") if isinstance(content, Path) else json.dumps(content)
        (folder / name).write_text(text, encoding="utf-8")
    return [str(folder / arg) if arg in pin.inputs else arg for arg in pin.argv]


def run_pin(pin: Pin, directory: Path) -> tuple:
    """(exit code, stdout, stderr) of the row's command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(pin_argv(pin, directory))
    return code, out.getvalue(), err.getvalue()


def output_digest(out: str) -> str:
    # the generator line names the numpy version; the report bits are what is pinned
    return hashlib.sha256(out.replace(GENERATOR_ID, "<generator>").encode()).hexdigest()


def mismatches(directory: Path) -> list:
    """One line for each row that fails, exits non-zero or prints to stderr."""
    lines = []
    for pin in PINS:
        code, out, err = run_pin(pin, directory)
        digest = output_digest(out)
        if (code, err, digest) != (0, "", pin.digest):
            lines.append(f"{pin.id}: exit {code}, sha256 {digest}, pinned {pin.digest}"
                         + (f", stderr {err.strip()!r}" if err else ""))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        failed = mismatches(Path(directory))
    print("\n".join(failed) if failed else f"all {len(PINS)} pinned outputs match")
    sys.exit(1 if failed else 0)
