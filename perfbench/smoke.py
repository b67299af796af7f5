#!/usr/bin/env python3
"""Smoke test of the benchmark at small size.

    python3 perfbench/smoke.py

Checks, from the root of a checkout:

1. every workload, untraced and traced, at ``--size small``: run.py exits 0,
   the result is correct with no failed operation, and it emits exactly the
   metrics BENCHMARK.json declares for that mode, each with its unit;
2. every kind of oracle target of every operation, replaced by a
   deliberately wrong one (``Target.wrong``), is missed by the real output,
   while the right targets all hold;
3. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero and prints no result.

Prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(declared: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "small"]
            proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            result = _last_json(proc.stdout)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
    return problems


def check_oracle_rejects_wrong_targets() -> list[str]:
    """Each target kind of each operation kind must fail once its expected value is wrong."""
    sys.path.insert(0, str(ROOT / "src"))
    from worker import _import_package, _run_op

    _, cli = _import_package()
    problems = []
    workdir = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, 7, workdir, "small"):
                code, text, _ = _run_op(cli, op["argv"])
                obs, _ = oracle.observe(op, text)
                targets = oracle.targets(op, obs)
                where = f"{workload} {op['kind']}"
                failed = oracle.compare(obs, targets)
                if code != 0 or failed:
                    problems.append(f"{where}: exit {code}, right targets missed: {failed[:3]}")
                    continue
                seen = set()
                for key, target in targets.items():
                    kind = re.sub(r"\[\d+\]", "[]", key)
                    if kind in seen:
                        continue
                    seen.add(kind)
                    if not oracle.compare(obs, {key: target.wrong()}):
                        problems.append(f"{where}: wrong target for {key} ({target.how}) passed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", "saturation_mle", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", *args], cwd=bare,
                              capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory() + check_oracle_rejects_wrong_targets() + check_runs(declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
