"""Multi-seed experiment orchestration over the six variants of VARIANT_TABLE.

Each seed generates a fresh synthetic dataset, trains two teachers (class
and subclass labels) plus four students (baseline, subclass labels only,
conventional KD, subclass KD), and evaluates everything at class level.
Report files are deterministic byte-for-byte; wall-clock timings go to a
separate log so rerunning an experiment reproduces the reports exactly.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .data import Dataset, SyntheticSpec, generate_synthetic, split_dataset
from .hierarchy import build_task_preset, whole_number
from .losses import STUDENT_MODES, DistillConfig
from .training import (
    Metrics,
    TrainConfig,
    TrainResult,
    evaluate,
    student_train_config,
    train_student,
    train_teacher,
)

# (name, label level, student mode or None for a teacher, teacher row or None), in report order
VARIANT_TABLE = (
    ("teacher_class", "class", None, None),
    ("teacher_subclass", "subclass", None, None),
    ("student_baseline", "class", "baseline", None),
    ("student_subclass", "subclass", "subclass", None),
    ("student_kd", "class", "kd", "teacher_class"),
    ("student_skd", "subclass", "skd", "teacher_subclass"),
)
VARIANTS = tuple(row[0] for row in VARIANT_TABLE)


def config_fields(cfg) -> list:
    """The fields of a config dataclass that an INI file sets and report.json records.

    A TrainConfig's seed and distill are left out: they are set per seed and variant.
    """
    return [f for f in fields(cfg) if f.name not in ("seed", "distill")]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings as plain values: the data settings as its SyntheticSpec
    holds them (int counts, one float difficulty per subclass), the rest as ints or floats."""

    task: str = "SL22"
    samples_per_subclass: tuple[int, ...] = (248, 248, 540, 540)
    difficulty: tuple[float, ...] = (0.2, 0.8, 0.2, 0.8)
    feature_dim: int = 2
    train_fraction: float = 0.5
    base_seed: int = 1000
    n_seeds: int = 30
    teacher: TrainConfig = TrainConfig()
    student: TrainConfig = student_train_config()
    tau_skd: float = 5.0
    tau_kd: float = 128.0
    lam: float = DistillConfig.lam

    def __post_init__(self):
        # reject a bad task, count, difficulty, feature_dim, split, seed, seed count, tau or lam
        # before any seed trains, and keep the data settings as every seed's spec holds them
        spec = self.data_spec(self.base_seed)
        for name in ("samples_per_subclass", "difficulty", "feature_dim"):
            object.__setattr__(self, name, getattr(spec, name))
        object.__setattr__(self, "base_seed", spec.seed)
        if 1 in self.samples_per_subclass:
            raise ValueError("a subclass of 1 sample cannot split into train and test")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        object.__setattr__(self, "n_seeds", whole_number(self.n_seeds, "n_seeds"))
        if self.n_seeds < 2:
            raise ValueError("n_seeds must be at least 2")
        for mode in STUDENT_MODES:
            self.distill_config(mode)
        for name in ("train_fraction", "tau_skd", "tau_kd", "lam"):  # numbers: a str failed above
            object.__setattr__(self, name, float(getattr(self, name)))

    def data_spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            build_task_preset(self.task), self.samples_per_subclass, self.difficulty,
            self.feature_dim, seed,
        )

    def distill_config(self, mode: str) -> DistillConfig:
        tau = {"kd": self.tau_kd, "skd": self.tau_skd}.get(mode, DistillConfig.tau)
        return DistillConfig(mode=mode, tau=tau, lam=self.lam)

    def to_dict(self) -> dict:
        """The report's config block: every config field, tuples as lists."""

        def plain(value):
            if is_dataclass(value):
                return {f.name: plain(getattr(value, f.name)) for f in config_fields(value)}
            return list(value) if isinstance(value, tuple) else value

        return plain(self)


def sl22_trend_config(**overrides) -> ExperimentConfig:
    """Imbalanced two-hard-two-easy preset used for the headline comparison.

    Class 0 is the minority (248 per split at the default 0.5 fraction,
    majority 540); each class has one easy (0.2) and one hard (0.8)
    subclass, laid out by the tiered auto-placement in two dimensions.
    """
    return replace(ExperimentConfig(), **overrides)


def train_variants(cfg: ExperimentConfig, seed: int, train_set: Dataset) -> dict[str, TrainResult]:
    """Train each VARIANT_TABLE row on train_set in order; a teacher precedes its students."""
    teacher_cfg, student_cfg = replace(cfg.teacher, seed=seed), replace(cfg.student, seed=seed)
    results = {}
    for name, level, mode, teacher in VARIANT_TABLE:
        if mode is None:
            results[name] = train_teacher(train_set, cfg=teacher_cfg, label_level=level)
        else:
            scfg = replace(student_cfg, distill=cfg.distill_config(mode))
            net = results[teacher].network if teacher else None
            results[name] = train_student(train_set, cfg=scfg, teacher=net)
    return results


def run_single_seed(cfg: ExperimentConfig, seed: int) -> dict[str, Metrics]:
    """Generate, split, train all six variants, evaluate at class level."""
    spec = cfg.data_spec(seed)
    train_set, test_set = split_dataset(generate_synthetic(spec), cfg.train_fraction, seed)
    results = train_variants(cfg, seed, train_set)
    return {
        name: evaluate(results[name].network, test_set, level)
        for name, level, _, _ in VARIANT_TABLE
    }


def _seed_worker(args: tuple[ExperimentConfig, int]) -> tuple[int, dict, Optional[str], float]:
    cfg, seed = args
    start = time.perf_counter()
    try:
        metrics = run_single_seed(cfg, seed)
    except FloatingPointError as exc:  # divergence is recorded per seed; survivors still summarize
        return seed, {}, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return seed, {name: m.to_dict() for name, m in metrics.items()}, None, elapsed


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[dict, list[str]]:
    """Run all seeds and build the report dict plus timing log lines.

    The report contains no timings; each seed's wall-clock time is returned
    as a line "seed=<s> wall_clock_s=<t>", to be written to a sidecar log.
    """
    jobs = whole_number(jobs, "jobs")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    seeds = [cfg.base_seed + k for k in range(cfg.n_seeds)]
    tasks = [(cfg, s) for s in seeds]
    if jobs == 1:
        raw = [_seed_worker(t) for t in tasks]
    else:
        # imported here: the pool module costs every process start that never uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            raw = list(pool.map(_seed_worker, tasks))  # map keeps task order: seeds ascend

    per_seed = [{"seed": seed, "metrics": m} for seed, m, err, _ in raw if err is None]
    failures = [{"seed": seed, "error": err} for seed, _, err, _ in raw if err is not None]
    if len(per_seed) < 2:
        detail = "; ".join(f"seed {f['seed']}: {f['error']}" for f in failures)
        raise RuntimeError(f"fewer than two seeds completed: {detail}")
    timings = [f"seed={seed} wall_clock_s={elapsed:.3f}" for seed, _, _, elapsed in raw]

    summary: dict[str, dict] = {}
    for name in VARIANTS:
        summary[name] = {}
        for metric in ("binary_f1", "macro_f1"):
            values = [entry["metrics"][name][metric] for entry in per_seed]
            n = len(values)
            mean = sum(values) / n
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            summary[name][metric] = {"mean": mean, "std": var**0.5, "values": values}

    report = {
        "config": cfg.to_dict(),
        "variants": list(VARIANTS),
        "per_seed": per_seed,
        "failures": failures,
        "summary": summary,
    }
    return report, timings


def write_experiment_report(report: dict, out_dir, timings=None) -> dict[str, Path]:
    """Write report.json, summary.csv, per_seed.csv, and an optional run.log.

    Only run.log carries timings; the other three files are
    byte-identical across repeat runs with the same config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["report"] = out / "report.json"
    paths["report"].write_text(json.dumps(report, indent=2) + "\n")

    paths["summary"] = out / "summary.csv"
    with paths["summary"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "binary_f1_mean", "binary_f1_std", "macro_f1_mean", "macro_f1_std", "n"]
        )
        n = len(report["per_seed"])  # seeds that completed
        for name in report["variants"]:
            row = report["summary"][name]
            writer.writerow(
                [
                    name,
                    f"{row['binary_f1']['mean']:.6f}",
                    f"{row['binary_f1']['std']:.6f}",
                    f"{row['macro_f1']['mean']:.6f}",
                    f"{row['macro_f1']['std']:.6f}",
                    n,
                ]
            )

    paths["per_seed"] = out / "per_seed.csv"
    with paths["per_seed"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "variant", "binary_f1", "macro_f1"])
        for entry in report["per_seed"]:
            for name in report["variants"]:
                m = entry["metrics"][name]
                writer.writerow(
                    [entry["seed"], name, f"{m['binary_f1']:.6f}", f"{m['macro_f1']:.6f}"]
                )

    if timings is not None:
        paths["log"] = out / "run.log"
        paths["log"].write_text("\n".join(timings) + "\n")
    return paths
