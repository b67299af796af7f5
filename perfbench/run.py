#!/usr/bin/env python3
"""Benchmark of the thermometry package: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs (experiment configs,
spectra, gap families) are generated from the seed into a scratch directory
of the checkout, and one worker process runs them through
``thermometry.cli.main`` in a closed loop. Every operation's stdout is checked
against an oracle that does not use the package (oracle.py). The last line of
stdout is the result, a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics declared
in BENCHMARK.json, with ``--trace 1`` the per-layer metrics. The line before
it records provenance (stdout digests, versions, thread cap).

Exit codes: 0 result printed, 1 the worker failed, 2 no package sources in
the checkout or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0


def _cap_threads() -> tuple[int, int]:
    """Cap BLAS/OpenMP threads at the CPU count (or a lower cap already set)."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


NPROC, THREAD_CAP = _cap_threads()
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (after the thread cap, which numpy reads at import)
import workloads  # noqa: E402


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, text=True)


def _setup_seconds(workdir: Path) -> list[float]:
    """Wall time from a fresh interpreter to the workload's inputs parsed, per run.

    Not scaled by the speed reference: start-up is mostly module loading,
    which the reference task does not track, and its raw times are steadier.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = _worker("setup", str(workdir), timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run exited with {proc.returncode}")
    return times


def _failures(ops: list[dict], workdir: Path, report: dict) -> tuple[list[list[bool]], int, list[str]]:
    """Per pass and operation, whether it failed; the work units of one pass; messages.

    An operation fails if it exits non-zero, if its stdout differs from the
    warm-up pass's (every report is bitwise reproducible), or if the warm-up
    stdout does not parse or misses an oracle target.
    """
    messages, oracle_ok, work = [], [], 0
    for i, op in enumerate(ops):
        text = (workdir / "out" / f"{i}.txt").read_text(encoding="utf-8")
        failed, units = oracle.check(op, text)
        messages += [f"op {i} ({op['argv'][0]}): {m}" for m in failed]
        oracle_ok.append(not failed)
        work += units
    first = report["digests"][0]
    bad = [[code != 0 or digest != first[i] or not oracle_ok[i]
            for i, (code, digest) in enumerate(zip(codes, digests))]
           for codes, digests in zip(report["codes"], report["digests"])]
    for p, row in enumerate(bad):
        for i, failed in enumerate(row):
            if failed and oracle_ok[i]:
                messages.append(f"op {i} pass {p}: exit {report['codes'][p][i]}, stdout sha256 "
                                f"{report['digests'][p][i][:12]}, warm-up {first[i][:12]}")
    if report.get("posterior_outside_prior"):
        messages.append(f"{report['posterior_outside_prior']} posterior means outside their prior")
        traced = range(len(bad) - len(report["traced_pass_times"]), len(bad))
        for p in traced:
            for i, op in enumerate(ops):
                bad[p][i] |= op["kind"] == "simulate_bayes"
    return bad, work, messages


def _write_inputs(ops: list[dict], workdir: Path) -> None:
    (workdir / "argv.json").write_text(json.dumps([op["argv"] for op in ops]), encoding="utf-8")
    inputs = sorted({(i["type"], i["path"]) for op in ops for i in op["inputs"]})
    (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    declared = _declared()
    workdir = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = workloads.build(workload, seed, workdir, size)
        _write_inputs(ops, workdir)
        proc = _worker("run", str(workdir), "--seconds", str(seconds), "--trace", str(int(trace)),
                       timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        report = json.loads((workdir / "worker.json").read_text(encoding="utf-8"))
        bad, work, messages = _failures(ops, workdir, report)
        setup = [] if trace else _setup_seconds(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is gone

    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    wall = statistics.median(report["pass_times"])
    if trace:
        layers = report["layers"]
        missing = [m["name"] for m in declared["per_layer"] if m["name"] not in layers]
        if missing:
            raise RuntimeError(f"declared layer metrics not measured: {missing}")
        metrics = {m["name"]: {"value": float(layers[m["name"]]), "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "rows_per_s": work / wall,
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    failed = sum(map(sum, bad))
    provenance = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "generator_id": report["generator_id"], **report["versions"],
        "nproc": NPROC, "thread_cap": THREAD_CAP, "passes": len(bad), "ops_per_pass": len(ops),
        "stdout_sha256": report["digests"][0],
        "pass_seconds": report["pass_times"],
        "traced_pass_seconds": report.get("traced_pass_times"),
        "raw_pass_seconds": report["raw_pass_times"],
        "reference_seconds": report["reference_times"],
        "setup_seconds": setup,
    }
    return {
        "provenance": provenance,
        "result": {
            "correct": failed == 0,
            "attempted": len(bad) * len(ops),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'small' is for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermometry" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'thermometry'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
