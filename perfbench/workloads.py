"""The four benchmark workloads, the closed measurement loop, and the metrics.

Every workload is a closed loop with one caller: the next chunk of work
starts only when the previous one has finished.  Throughput is the units
of work completed over the wall time of the chunks that completed them:

* sl22_headline / sl22_jobs2: one ``run_experiment`` call of
  SEEDS_PER_CALL seeds (the unit of work is a seed);
* cli_pipeline: one five-step chain of ``python -m skdlab.cli`` children
  (the unit is a pipeline);
* capacity_sweep: CHANNELS_PER_CHUNK channels (the unit is a channel).

Inputs come from the workload seed only.  SL22 runs and CLI pipelines draw
their experiment seeds from a block of recorded seeds, so every report and
checkpoint can be compared with the SHA-256 recorded in digests.json.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from skdlab import capacity
from skdlab.experiment import VARIANTS, run_experiment, sl22_trend_config, write_experiment_report
from skdlab.hierarchy import build_task_preset
from tracer import CALLS, RAISED, SELF, TOTAL, merge_stats

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
LAUNCH = BENCH / "launch.py"

# Seed blocks: workload seed s uses block s % SEED_BLOCKS of BLOCK_CALLS
# consecutive calls; digests.json holds a digest for every call of every block.
BASE_SEED = 1000
SEED_BLOCKS = 10
BLOCK_CALLS = 8
SEEDS_PER_CALL = 2

CHANNELS = 4096
CHANNELS_PER_CHUNK = 32
CAPACITY_TOL = 1e-6
CHILD_TIMEOUT_S = 120

# Exact work per unit at the default SL22 config: 2 teachers x 40 epochs x
# 25 batches + 4 students x 30 x 25 steps per seed; a CLI pipeline trains
# one 40-epoch teacher and one 30-epoch skd student.
SL22_GUARDS = {"optimizer_step": 5000, "backward": 5000, "evaluate": 6, "combined": 1500}
CLI_GUARDS = {"optimizer_step": 1750, "backward": 1750, "evaluate": 3, "combined": 750}
GUARD_METRICS = {
    "optimizer_step": "training.steps",
    "backward": "network.backward_calls",
    "evaluate": "training.evaluate_calls",
    "combined": "losses.combined_calls",
}

CLI_STEPS = ("generate", "train_teacher", "train_student", "evaluate", "capacity")

END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# The throughput's unit of work and the name it is printed under.
UNIT_OF_WORK = {
    "sl22_headline": ("seed", "seeds_per_s"),
    "sl22_jobs2": ("seed", "seeds_per_s"),
    "cli_pipeline": ("pipeline", "pipelines_per_s"),
    "capacity_sweep": ("channel", "solves_per_s"),
}

PER_LAYER = (
    ("network.backward_calls", "count/op"),
    ("network.backward_s", "s/op"),
    ("network.optimizer_step_calls", "count/op"),
    ("network.optimizer_step_s", "s/op"),
    ("network.forward_calls", "count/op"),
    ("network.forward_s", "s/op"),
    ("network.checkpoint_s", "s/op"),
    ("losses.ce_calls", "count/op"),
    ("losses.ce_s", "s/op"),
    ("losses.combined_calls", "count/op"),
    ("losses.combined_s", "s/op"),
    ("training.steps", "count/op"),
    ("training.loop_self_s", "s/op"),
    *((f"training.variant_ms.{v}", "ms/op") for v in VARIANTS),
    ("training.evaluate_calls", "count/op"),
    ("training.evaluate_s", "s/op"),
    ("data.generate_s", "s/op"),
    ("data.io_s", "s/op"),
    ("experiment.seed_s.p50", "s"),
    ("experiment.seed_s.max", "s"),
    ("experiment.pool_idle_s", "s/op"),
    ("experiment.seeds_failed", "count/op"),
    ("cli.process_start_s", "s"),
    *((f"cli.{step}_s", "s") for step in CLI_STEPS),
    ("capacity.ba_calls", "count/op"),
    ("capacity.ba_s", "s/op"),
    ("capacity.ba_failed", "count/op"),
    ("capacity.closed_form_s", "s/op"),
    ("capacity.bits_report_s", "s/op"),
    ("failed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def sl22_base_seed(seed: int, call: int) -> int:
    return BASE_SEED + SEEDS_PER_CALL * (BLOCK_CALLS * (seed % SEED_BLOCKS) + call % BLOCK_CALLS)


def cli_config_seed(seed: int, call: int) -> int:
    return BASE_SEED + BLOCK_CALLS * (seed % SEED_BLOCKS) + call % BLOCK_CALLS


def report_digest(report: dict, out_dir) -> str:
    """SHA-256 of report.json exactly as write_experiment_report writes it."""
    return sha256_file(write_experiment_report(report, out_dir)["report"])


def pipeline_argvs(config) -> list[tuple[str, list[str]]]:
    """The README's shell session, one child per step, paths relative to the run directory."""
    return [
        ("generate", ["generate", "-c", str(config), "-o", "data"]),
        ("train_teacher", ["train", "-c", str(config), "--data", "data", "--role", "teacher",
                           "-o", "teacher"]),
        ("train_student", ["train", "-c", str(config), "--data", "data", "--role", "student",
                           "--mode", "skd", "--teacher", "teacher/checkpoint.json", "-o", "student"]),
        ("evaluate", ["evaluate", "--checkpoint", "student/checkpoint.json", "--data", "data",
                      "-o", "eval.json"]),
        ("capacity", ["capacity", "--matrix", "confusion.csv"]),
    ]


def write_confusion_csv(run_dir: Path) -> None:
    """Class confusion from the evaluate step, as the capacity step's input."""
    evaluated = json.loads((run_dir / "eval.json").read_text())
    with open(run_dir / "confusion.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(evaluated["metrics"]["class_confusion"])


def pipeline_digests(run_dir: Path, capacity_stdout: str) -> dict:
    return {
        "teacher": sha256_file(run_dir / "teacher" / "checkpoint.json"),
        "student": sha256_file(run_dir / "student" / "checkpoint.json"),
        "evaluate": sha256_file(run_dir / "eval.json"),
        "capacity": hashlib.sha256(capacity_stdout.encode()).hexdigest(),
    }


def write_config(path: Path, seed: int) -> None:
    path.write_text(f"[data]\nseed = {seed}\n")


@dataclass
class Chunk:
    units: int
    failed: int
    wall: float | None  # None when the chunk raised
    child_dumps: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Workloads.


class Sl22:
    """The paper's headline experiment, SEEDS_PER_CALL seeds per call."""

    units_per_chunk = SEEDS_PER_CALL
    guards = SL22_GUARDS

    def __init__(self, seed: int, work: Path, jobs: int):
        self.seed, self.work, self.jobs = seed, work, jobs
        self.recorded = load_digests()["sl22_report"]
        self.worker_dir = work if jobs > 1 else None
        self.seed_s: list[float] = []
        self.idle_s: list[float] = []
        self.seeds_failed: list[int] = []

    def chunk(self, call: int, tracer) -> Chunk:
        base = sl22_base_seed(self.seed, call)
        cfg = sl22_trend_config(n_seeds=SEEDS_PER_CALL, base_seed=base)
        start = perf_counter()
        report, timings = run_experiment(cfg, jobs=self.jobs)
        wall = perf_counter() - start
        failed = len(report["failures"])
        digest = report_digest(report, self.work / "report")
        expected = self.recorded.get(str(base))
        if digest != expected:
            print(f"sl22 base_seed={base}: report.json sha256 {digest} != recorded {expected}",
                  file=sys.stderr)
            failed = SEEDS_PER_CALL
        dumps = []
        if tracer is not None and self.worker_dir is not None:
            for path in sorted(self.worker_dir.glob("worker-*.json")):
                dumps.append(json.loads(path.read_text()))
                path.unlink()
        if tracer is None:
            seed_s = [float(line.rsplit("wall_clock_s=", 1)[1]) for line in timings]
            self.seed_s.extend(seed_s)
            self.idle_s.append(self.jobs * wall - sum(seed_s))
            self.seeds_failed.append(len(report["failures"]))
        return Chunk(SEEDS_PER_CALL, failed, wall, dumps)

    def layer_extras(self) -> dict:
        if not self.seed_s:
            return {}
        return {
            "experiment.seed_s.p50": statistics.median(self.seed_s),
            "experiment.seed_s.max": max(self.seed_s),
            "experiment.pool_idle_s": statistics.mean(self.idle_s) / SEEDS_PER_CALL,
            "experiment.seeds_failed": sum(self.seeds_failed) / (SEEDS_PER_CALL * len(self.seeds_failed)),
        }


class CliPipeline:
    """generate -> train teacher -> train skd student -> evaluate -> capacity."""

    units_per_chunk = 1
    guards = CLI_GUARDS
    worker_dir = None

    def __init__(self, seed: int, work: Path, measure_start: bool = False):
        self.seed, self.work = seed, work
        self.measure_start = measure_start
        self.recorded = load_digests()["cli"]
        self.configs = {}
        for call in range(BLOCK_CALLS):
            s = cli_config_seed(seed, call)
            self.configs[s] = work / f"config-{s}.ini"
            write_config(self.configs[s], s)
        self.step_s = {step: [] for step in CLI_STEPS}
        self.start_s: list[float] = []

    def chunk(self, call: int, tracer) -> Chunk:
        s = cli_config_seed(self.seed, call)
        run_dir = self.work / "pipeline"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        times, dumps, stdout = {}, [], ""
        start = perf_counter()
        for step, argv in pipeline_argvs(self.configs[s]):
            if step == "capacity":
                write_confusion_csv(run_dir)
            if tracer is None:
                cmd = [sys.executable, "-m", "skdlab.cli", *argv]
            else:
                spans = run_dir / f"{step}.spans.json"
                cmd = [sys.executable, str(LAUNCH), str(spans), str(tracer.op), "--", *argv]
            t = perf_counter()
            proc = subprocess.run(cmd, cwd=run_dir, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            times[step] = perf_counter() - t
            if proc.returncode != 0:
                print(f"cli {step} (config seed {s}) exited {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return Chunk(1, 1, None, dumps)
            if tracer is not None:
                dumps.append(json.loads(spans.read_text()))
            stdout = proc.stdout
        wall = perf_counter() - start
        got = pipeline_digests(run_dir, stdout)
        expected = self.recorded.get(str(s))
        failed = int(got != expected)
        if failed:
            print(f"cli config seed {s}: outputs {got} != recorded {expected}", file=sys.stderr)
        if tracer is None:
            for step, value in times.items():
                self.step_s[step].append(value)
            if self.measure_start:
                t = perf_counter()
                subprocess.run([sys.executable, "-c", "import skdlab.cli"], check=True,
                               timeout=CHILD_TIMEOUT_S)
                self.start_s.append(perf_counter() - t)
        return Chunk(1, failed, wall, dumps)

    def layer_extras(self) -> dict:
        extras = {f"cli.{step}_s": statistics.median(v) for step, v in self.step_s.items() if v}
        if self.start_s:
            extras["cli.process_start_s"] = statistics.median(self.start_s)
        return extras


def _multinomial_rows(rng, totals, rows) -> np.ndarray:
    return np.array([rng.multinomial(n, row) for n, row in zip(totals, rows)])


def _qsc_rows(n: int, p: float) -> np.ndarray:
    rows = np.full((n, n), (1.0 - p) / (n - 1))
    np.fill_diagonal(rows, p)
    return rows


class CapacitySweep:
    """QSC and BAC channels: closed form against Blahut-Arimoto, plus label-bit reports.

    Even channels are QSC (n = 2..8, p above chance); odd channels are BAC
    (both accuracies in (0.5, 1)) and also feed label_bits_report with class
    and subclass confusion counts sampled from them, alternating the SL22
    (hierarchy bound) and SL21 (detection bound) label trees.
    """

    units_per_chunk = CHANNELS_PER_CHUNK
    guards: dict = {}
    worker_dir = None
    SAMPLE_COUNTS = {
        "SL22": ((248, 248), (540, 540)),
        "SL21": ((248, 248), (1080,)),
    }

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for k in range(CHANNELS):
            if k % 2 == 0:
                n = int(rng.integers(2, 9))
                self.items.append(("qsc", n, float(rng.uniform(1.0 / n + 0.05, 0.99))))
                continue
            p0, p1 = (float(v) for v in rng.uniform(0.55, 0.99, size=2))
            task = "SL22" if k % 4 == 1 else "SL21"
            hierarchy = build_task_preset(task)
            counts = self.SAMPLE_COUNTS[task]
            class_conf = _multinomial_rows(
                rng, [sum(c) for c in counts], [[p0, 1.0 - p0], [1.0 - p1, p1]]
            )
            sub_confs = [
                _multinomial_rows(rng, c, _qsc_rows(len(c), rng.uniform(0.6, 0.99)))
                if len(c) > 1 else None
                for c in counts
            ]
            self.items.append(("bac", p0, p1, hierarchy, class_conf, sub_confs, counts))

    @staticmethod
    def solve(item) -> bool:
        if item[0] == "qsc":
            _, n, p = item
            closed = capacity.qsc_capacity(n, p)
            oracle, _ = capacity.blahut_arimoto(capacity.qsc_channel(n, p))
            return abs(closed - oracle) <= CAPACITY_TOL
        _, p0, p1, hierarchy, class_conf, sub_confs, counts = item
        closed = capacity.bac_capacity(p0, p1)
        oracle, _ = capacity.blahut_arimoto(capacity.bac_channel(p0, p1))
        row = capacity.label_bits_report(class_conf, sub_confs, hierarchy, counts)
        b = row.breakdown
        max_sub_bits = max(np.log2(n) for n in hierarchy.subclasses_per_class)
        return (
            abs(closed - oracle) <= CAPACITY_TOL
            and 0.0 <= b.class_bits <= np.log2(hierarchy.num_classes) + 1e-9
            and 0.0 <= b.subclass_bits <= max_sub_bits + 1e-9
            and 0.0 <= row.empirical["class_capacity"] <= 1.0 + 1e-9
        )

    def chunk(self, call: int, tracer) -> Chunk:
        lo = (call * CHANNELS_PER_CHUNK) % CHANNELS
        failed = 0
        start = perf_counter()
        for item in self.items[lo : lo + CHANNELS_PER_CHUNK]:
            try:
                ok = self.solve(item)
            except Exception:  # ConvergenceError and any other raise fail this channel only
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"capacity check failed for {item[:3]}", file=sys.stderr)
            failed += not ok
        wall = perf_counter() - start
        return Chunk(CHANNELS_PER_CHUNK, failed, wall)

    def layer_extras(self) -> dict:
        return {}


def make_workload(name: str, seed: int, work: Path, jobs: int, trace: bool):
    if name in ("sl22_headline", "sl22_jobs2"):
        return Sl22(seed, work, jobs)
    if name == "cli_pipeline":
        return CliPipeline(seed, work, measure_start=trace)
    if name == "capacity_sweep":
        return CapacitySweep(seed, work)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement.


@dataclass
class Throughput:
    """Units of work completed over the wall time of the chunks that completed them."""

    units: int = 0
    seconds: float = 0.0
    chunks: int = 0

    def add(self, chunk: Chunk) -> None:
        self.units += chunk.units
        self.seconds += chunk.wall
        self.chunks += 1

    @property
    def rate(self) -> float:
        return self.units / self.seconds if self.seconds else 0.0


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    untraced: Throughput = field(default_factory=Throughput)
    traced: Throughput = field(default_factory=Throughput)
    stats: dict = field(default_factory=dict)           # span stats of traced chunks
    child_dumps: list = field(default_factory=list)


def guard_violations(stats: dict, guards: dict, units: int) -> list[str]:
    out = []
    for name, per_unit in guards.items():
        got = stats.get(name, [0])[CALLS]
        if got != per_unit * units:
            out.append(f"{GUARD_METRICS[name]} = {got}, expected {per_unit} x {units}")
    return out


def measure(workload, seconds: float, tracer=None) -> RunResult:
    """Run chunks until `seconds` have passed; with a tracer, every other chunk is traced."""
    result = RunResult()
    min_chunks = 2 if tracer is not None else 1
    deadline = perf_counter() + seconds
    call = 0
    while call < min_chunks or perf_counter() < deadline:
        traced = tracer is not None and call % 2 == 1
        if traced:
            tracer.op = call
            tracer.install()
        try:
            chunk = workload.chunk(call, tracer if traced else None)
        except Exception:  # a raising chunk fails its units; the run goes on
            traceback.print_exc()
            chunk = Chunk(workload.units_per_chunk, workload.units_per_chunk, None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            stats = tracer.take_stats()
            for dump in chunk.child_dumps:
                merge_stats(stats, dump["stats"])
            result.child_dumps.extend(chunk.child_dumps)
            if chunk.wall is not None:
                violations = guard_violations(stats, workload.guards, chunk.units)
                if violations:
                    print(f"chunk {call}: work guard failed: {'; '.join(violations)}",
                          file=sys.stderr)
                    chunk.failed = chunk.units
                merge_stats(result.stats, stats)
        result.attempted += chunk.units
        result.failed += chunk.failed
        if chunk.wall is not None:
            (result.traced if traced else result.untraced).add(chunk)
        call += 1
    return result


def layer_metrics(result: RunResult, extras: dict) -> dict:
    """Every per-layer metric, per traced unit of work; 0 where the layer did nothing."""
    units = max(result.traced.units, 1)
    stats = result.stats

    def calls(*names):
        return sum(stats[n][CALLS] for n in names if n in stats) / units

    def self_s(*names):
        return sum(stats[n][SELF] for n in names if n in stats) / units

    train = [n for n in stats if n.startswith("train:")]
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update({
        "network.backward_calls": calls("backward"),
        "network.backward_s": self_s("backward"),
        "network.optimizer_step_calls": calls("optimizer_step"),
        "network.optimizer_step_s": self_s("optimizer_step"),
        "network.forward_calls": calls("forward"),
        "network.forward_s": self_s("forward"),
        "network.checkpoint_s": self_s("checkpoint"),
        "losses.ce_calls": calls("ce"),
        "losses.ce_s": self_s("ce"),
        "losses.combined_calls": calls("combined"),
        "losses.combined_s": self_s("combined"),
        "training.steps": calls("optimizer_step"),
        "training.loop_self_s": self_s(*train),
        "training.evaluate_calls": calls("evaluate"),
        "training.evaluate_s": self_s("evaluate"),
        "data.generate_s": self_s("generate"),
        "data.io_s": self_s("io"),
        "capacity.ba_calls": calls("ba"),
        "capacity.ba_s": self_s("ba"),
        "capacity.ba_failed": stats["ba"][RAISED] / units if "ba" in stats else 0,
        "capacity.closed_form_s": self_s("closed_form"),
        "capacity.bits_report_s": self_s("bits_report"),
        "failed_frac": result.failed / result.attempted,
    })
    for v in VARIANTS:
        name = f"train:{v}"
        metrics[f"training.variant_ms.{v}"] = (
            1000.0 * stats[name][TOTAL] / units if name in stats else 0
        )
    if result.untraced.rate and result.traced.rate:
        metrics["trace.overhead_frac"] = result.untraced.rate / result.traced.rate - 1.0
    metrics.update(extras)
    return metrics
