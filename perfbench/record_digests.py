#!/usr/bin/env python3
"""Record the SHA-256 digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py            # writes perfbench/digests.json
    python3 perfbench/record_digests.py --check    # recomputes and compares, writes nothing

Run it without BLAS thread limits: the benchmark itself runs with a thread
cap, so a match at benchmark time also confirms that the cap leaves the
reports unchanged.  Recording takes about five minutes on two cores.

* sl22_report: report.json of every SL22 call (2 seeds, jobs=1) of every
  seed block, keyed by the call's base seed.
* sl22_30seed_report: report.json of the 30-seed headline (default
  config, base seed 1000) at jobs=1 and jobs=2.
* cli: teacher and student checkpoints, the evaluate JSON and the capacity
  output of every CLI pipeline, keyed by the config seed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from skdlab import cli  # noqa: E402
from skdlab.experiment import run_experiment, sl22_trend_config  # noqa: E402

import run  # noqa: E402
from workloads import (  # noqa: E402
    BLOCK_CALLS,
    DIGESTS,
    SEED_BLOCKS,
    SEEDS_PER_CALL,
    cli_config_seed,
    pipeline_argvs,
    pipeline_digests,
    report_digest,
    sl22_base_seed,
    write_config,
    write_confusion_csv,
)


def cli_pipeline_digests(seed: int, run_dir: Path) -> dict:
    """The CLI pipeline run in-process, through the same cli.main the children run."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    write_config(config, seed)
    stdout = ""
    cwd = os.getcwd()
    os.chdir(run_dir)  # the pipeline's paths are relative to its run directory
    try:
        for step, argv in pipeline_argvs(config):
            if step == "capacity":
                write_confusion_csv(run_dir)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli {step} exited {code} for config seed {seed}")
            stdout = buf.getvalue()
    finally:
        os.chdir(cwd)
    return pipeline_digests(run_dir, stdout)


def record(work: Path) -> dict:
    blocks = range(SEED_BLOCKS)
    calls = range(BLOCK_CALLS)
    sl22 = {}
    for base in sorted({sl22_base_seed(b, c) for b in blocks for c in calls}):
        report, _ = run_experiment(sl22_trend_config(n_seeds=SEEDS_PER_CALL, base_seed=base), jobs=1)
        sl22[str(base)] = report_digest(report, work / "report")
        print(f"sl22 base_seed={base} {sl22[str(base)]}", file=sys.stderr)
    headline = {}
    for jobs in (1, 2):
        report, _ = run_experiment(sl22_trend_config(), jobs=jobs)
        headline[f"jobs{jobs}"] = report_digest(report, work / "report")
        print(f"sl22 30 seeds jobs={jobs} {headline[f'jobs{jobs}']}", file=sys.stderr)
    pipelines = {}
    for seed in sorted({cli_config_seed(b, c) for b in blocks for c in calls}):
        pipelines[str(seed)] = cli_pipeline_digests(seed, work / "pipeline")
        print(f"cli config seed={seed} {pipelines[str(seed)]}", file=sys.stderr)
    env = run.environment(blas_threads=None)
    return {
        "recorded_with": {k: env[k] for k in ("python", "numpy", "blas", "blas_version", "blas_threads")},
        "sl22_report": sl22,
        "sl22_30seed_report": headline,
        "cli": pipelines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true", help="compare with digests.json")
    args = parser.parse_args()
    work = run.WORK / "record"
    try:
        digests = record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.check:
        stored = json.loads(DIGESTS.read_text())
        same = all(stored[k] == digests[k] for k in ("sl22_report", "sl22_30seed_report", "cli"))
        print("digests match" if same else "digests DIFFER")
        return 0 if same else 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
