"""Benchmark worker: the one process that runs a workload through ``thermometry.cli.main``.

    python3 worker.py setup WORKDIR
    python3 worker.py run WORKDIR --seconds S --trace 0|1

Both modes import the package from the checkout's ``src`` directory and read
what ``run.py`` wrote into WORKDIR.

``setup`` parses every input file of the workload with the package's own
loaders and exits; run.py times it from process start to exit.

``run`` makes one untimed warm-up pass over the operations in WORKDIR/argv.json,
then timed passes in a closed loop (each operation starts when the previous
one has returned) until S seconds of passes have run. With ``--trace 1`` the
second half of that time runs with spans recorded (see tracing.py). Pass
times are reported at reference speed (see speed.py). It writes the warm-up
pass's stdout per operation to WORKDIR/out/, and the per-pass exit codes,
stdout digests and times, and the layer metrics to WORKDIR/worker.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from speed import reference_seconds, scaled

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

MIN_PASSES = 3
SEGMENT_S = 0.05


def _import_package():
    """The package and its CLI module, imported from this checkout's sources."""
    thermometry = importlib.import_module("thermometry")
    if Path(thermometry.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported thermometry from {thermometry.__file__}, not {SRC}")
    return thermometry, importlib.import_module("thermometry.cli")


def setup(workdir: Path) -> None:
    thermometry, _ = _import_package()
    loaders = {
        "config": lambda p: thermometry.config_from_dict(_read_json(p)),
        "spectrum": thermometry.load_spectrum,
        "family": lambda p: thermometry.family_from_dict(_read_json(p)),
    }
    for kind, path in json.loads((workdir / "inputs.json").read_text()):
        loaders[kind](path)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_op(cli, argv):
    """Run one operation; return (exit code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue(), time.perf_counter() - t0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed_passes(cli, ops, seconds: float, log: dict) -> list[float]:
    """Passes until ``seconds`` of operation time; returns pass times at reference speed.

    The reference task runs before the first operation and then whenever the
    operations since the last reference have taken ``SEGMENT_S``, and at the
    end of each pass. Each such segment is scaled by the two reference
    measurements around it; a pass's time is the sum over its segments.
    """
    refs = [reference_seconds()]
    raw, times = [], []
    while len(times) < MIN_PASSES or sum(raw) < seconds:
        codes, digests, raw_pass, scaled_pass, segment = [], [], 0.0, 0.0, 0.0
        for i, argv in enumerate(ops):
            code, text, elapsed = _run_op(cli, argv)
            raw_pass += elapsed
            segment += elapsed
            if segment >= SEGMENT_S or i == len(ops) - 1:
                refs.append(reference_seconds())
                scaled_pass += scaled(segment, refs[-2], refs[-1])
                segment = 0.0
            codes.append(code)
            digests.append(_digest(text))
        raw.append(raw_pass)
        times.append(scaled_pass)
        log["codes"].append(codes)
        log["digests"].append(digests)
    log["raw_pass_times"].append(raw)
    log["reference_times"].append(refs)
    return times


def run(workdir: Path, seconds: float, trace: bool) -> None:
    thermometry, cli = _import_package()
    import numpy
    import scipy

    ops = json.loads((workdir / "argv.json").read_text())
    log = {"codes": [], "digests": [], "raw_pass_times": [], "reference_times": []}

    warm = [_run_op(cli, argv) for argv in ops]
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    for i, (_, text, _) in enumerate(warm):
        (out / f"{i}.txt").write_text(text, encoding="utf-8")
    log["codes"].append([code for code, _, _ in warm])
    log["digests"].append([_digest(text) for _, text, _ in warm])
    stdout_bytes = sum(len(text.encode("utf-8")) for _, text, _ in warm)

    report = {
        "generator_id": thermometry.GENERATOR_ID,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "thermometry": thermometry.__version__},
    }
    if not trace:
        report["pass_times"] = _timed_passes(cli, ops, seconds, log)
    else:
        from tracing import Tracer

        report["pass_times"] = _timed_passes(cli, ops, seconds / 2, log)
        tracer = Tracer()
        tracer.install()
        traced = _timed_passes(cli, ops, seconds / 2, log)
        report["traced_pass_times"] = traced
        layers = tracer.layer_metrics(len(traced))
        layers["cli.stdout_bytes"] = stdout_bytes
        layers["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(report["pass_times"]))
        report["layers"] = layers
        report["posterior_outside_prior"] = tracer.counts["posterior_outside_prior"]
        spans = ROOT / ".perfbench_out"
        spans.mkdir(exist_ok=True)
        tracer.save(spans / f"spans-{workdir.name.rsplit('-', 1)[0]}.npz")
    report.update(log)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (workdir / "worker.json").write_text(json.dumps(report), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workdir)
    else:
        run(args.workdir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
