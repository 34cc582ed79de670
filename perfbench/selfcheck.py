#!/usr/bin/env python3
"""The benchmark's own checks.  Run from a checkout; takes about two minutes.

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, with the same units, and passes its output checks.
2. A perturbed report fails the report.json digest check.
3. A chunk that raises is counted as failed work and does not end the run.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench_run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(run.DEFAULT_SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metric_sets() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = bench_run(workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what} exits 0 (stderr: {proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{what} emits every {key} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what} passes its output checks ({result['attempted']} attempted)")


def check_perturbed_report() -> None:
    real = workloads.run_experiment

    def perturbed(cfg, jobs=1):
        report, timings = real(cfg, jobs=jobs)
        report["per_seed"][0]["metrics"]["student_skd"]["binary_f1"] += 1e-12
        return report, timings

    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sl22 = workloads.Sl22(run.DEFAULT_SEED, work, jobs=1)
        check(sl22.chunk(0, None).failed == 0, "an unperturbed report matches its digest")
        workloads.run_experiment = perturbed
        try:
            chunk = sl22.chunk(0, None)
        finally:
            workloads.run_experiment = real
        check(chunk.failed == chunk.units, "a perturbed report fails the digest check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_raising_chunk() -> None:
    class Raising:
        units_per_chunk = 3
        guards: dict = {}

        def chunk(self, call, tracer):
            raise RuntimeError("injected failure")

    result = workloads.measure(Raising(), seconds=0)
    check(result.attempted >= 3 and result.failed == result.attempted
          and not result.untraced.chunks,
          "a raising chunk counts as failed work and the run completes")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("capacity_sweep", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and '"correct"' not in last[0],
              f"without the source tree the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metric_sets()
    check_perturbed_report()
    check_raising_chunk()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
