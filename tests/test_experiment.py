import csv
import json
import re

import numpy as np
import pytest

import skdlab.experiment as exp
from skdlab.experiment import (
    VARIANT_TABLE,
    VARIANTS,
    ExperimentConfig,
    run_experiment,
    run_single_seed,
    sl22_trend_config,
    write_experiment_report,
)
from skdlab.losses import DistillConfig
from skdlab.training import student_train_config, teacher_train_config


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        samples_per_subclass=(12, 12, 26, 26),
        teacher=teacher_train_config(epochs=3),
        student=student_train_config(epochs=2),
        n_seeds=3,
        base_seed=5,
    )
    base.update(overrides)
    return sl22_trend_config(**base)


class TestDefaults:
    def test_trend_preset(self):
        cfg = sl22_trend_config()
        assert cfg.task == "SL22"
        assert cfg.samples_per_subclass == (248, 248, 540, 540)
        assert cfg.difficulty == (0.2, 0.8, 0.2, 0.8)
        assert cfg.n_seeds == 30 and cfg.base_seed == 1000
        assert cfg.tau_skd == 5.0 and cfg.tau_kd == 128.0 and cfg.lam == 0.45
        assert cfg.teacher.hidden_layers == (64, 32) and cfg.teacher.epochs == 40
        assert cfg.student.hidden_layers == (8,) and cfg.student.epochs == 30

    @pytest.mark.parametrize(
        "override",
        [
            {"lam": 1.5},
            {"lam": -0.1},
            {"tau_skd": 0.0},
            {"difficulty": (0.2, 0.8)},
            {"samples_per_subclass": (10, 10)},
            {"task": "SL99"},
            {"train_fraction": 1.5},
            {"tau_kd": 0.0},
            {"tau_kd": float("inf")},
            {"samples_per_subclass": (1, 12, 26, 26)},
            {"samples_per_subclass": (248.5, 248, 540, 540)},
            {"samples_per_subclass": (248, 248, 540, float("inf"))},
        ],
    )
    def test_bad_values_rejected_at_construction(self, override):
        with pytest.raises(ValueError):
            sl22_trend_config(**override)

    @pytest.mark.parametrize(
        "bad, message",
        [((0.2, 0.8), "difficulty has 2 entries, expected 4"),
         ((0.2, -0.1, 0.2, 0.8), "difficulty must lie in [0, 1]"),
         ((0.2, 0.8, 1.1, 0.8), "difficulty must lie in [0, 1]"),
         ((0.2, 0.8, 0.2, float("nan")), "difficulty must lie in [0, 1]")],
        ids=["length", "below", "above", "nan"],
    )
    def test_difficulty_fault_message(self, bad, message):
        with pytest.raises(ValueError) as info:
            sl22_trend_config(difficulty=bad)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "given, plain",
        [({"samples_per_subclass": (248.0, 248, 540, 540)}, {}),
         ({"tau_skd": 5}, {}),
         ({"difficulty": 0.5}, {"difficulty": (0.5, 0.5, 0.5, 0.5)}),
         ({"feature_dim": 2.0, "n_seeds": np.int64(30), "lam": np.float32(0.5)}, {"lam": 0.5})],
        ids=["float counts", "int tau", "scalar difficulty", "numpy scalars"],
    )
    def test_equal_configs_record_equal_config_blocks(self, given, plain):
        cfg, expected = sl22_trend_config(**given), sl22_trend_config(**plain)
        assert cfg == expected
        assert json.dumps(cfg.to_dict()) == json.dumps(expected.to_dict())

    def test_config_built_from_numpy_values_writes_its_report(self, tmp_path):
        n = np.int64
        cfg = tiny_config(
            samples_per_subclass=np.array([12, 12, 26, 26]),
            teacher=teacher_train_config(epochs=n(3), batch_size=n(32)),
            student=student_train_config(epochs=n(2), batch_size=n(32)),
            n_seeds=n(2), base_seed=n(5), lam=np.float32(0.5),
        )
        plain = tiny_config(n_seeds=2, lam=0.5)
        assert cfg == plain
        write_experiment_report(run_experiment(cfg)[0], tmp_path / "numpy")
        write_experiment_report(run_experiment(plain)[0], tmp_path / "plain")
        report = (tmp_path / "numpy" / "report.json").read_bytes()
        assert report == (tmp_path / "plain" / "report.json").read_bytes()

    def test_config_round_trips_through_dict(self):
        d = tiny_config().to_dict()
        assert d["samples_per_subclass"] == [12, 12, 26, 26]
        assert d["teacher"]["epochs"] == 3
        json.dumps(d)  # must already be JSON-safe


class TestVariantTable:
    def test_rows_pair_students_with_teachers(self):
        teachers = {name: level for name, level, mode, _ in VARIANT_TABLE if mode is None}
        for name, level, mode, teacher in VARIANT_TABLE:
            # the names are the span names the benchmark's tracer derives from each call
            if mode is None:
                assert name == f"teacher_{level}" and teacher is None
                continue
            distill = DistillConfig(mode)
            assert name == f"student_{mode}" and level == distill.level
            assert (teacher is not None) == distill.uses_teacher
            if teacher is not None:
                # a teacher row at the student's level, trained before the student
                assert teachers[teacher] == level
                assert VARIANTS.index(teacher) < VARIANTS.index(name)


class TestSingleSeed:
    def test_all_variants_present(self):
        metrics = run_single_seed(tiny_config(), seed=5)
        assert list(metrics) == list(VARIANTS)  # report.json's per-seed key order
        for name, m in metrics.items():
            assert m.class_confusion.shape == (2, 2)
            assert 0.0 <= m.binary_f1 <= 1.0
        assert metrics["teacher_subclass"].subclass_confusion is not None
        assert metrics["teacher_class"].subclass_confusion is None
        assert metrics["student_skd"].subclass_confusion is not None
        assert metrics["student_kd"].subclass_confusion is None

    def test_deterministic(self):
        cfg = tiny_config()
        a = run_single_seed(cfg, 7)
        b = run_single_seed(cfg, 7)
        for name in VARIANTS:
            assert a[name].binary_f1 == b[name].binary_f1
            np.testing.assert_array_equal(a[name].class_confusion, b[name].class_confusion)


class TestRunExperiment:
    def test_report_structure_and_summary_math(self):
        cfg = tiny_config()
        report, timings = run_experiment(cfg)
        assert report["variants"] == list(VARIANTS)
        assert [e["seed"] for e in report["per_seed"]] == [5, 6, 7]
        assert report["failures"] == []
        assert len(timings) == 3
        for name in VARIANTS:
            cell = report["summary"][name]["binary_f1"]
            values = np.array(cell["values"])
            assert len(values) == 3
            assert cell["mean"] == pytest.approx(values.mean(), abs=1e-15)
            assert cell["std"] == pytest.approx(values.std(ddof=1), abs=1e-12)

    def test_reports_identical_across_runs_and_job_counts(self):
        cfg = tiny_config()
        r1, _ = run_experiment(cfg, jobs=1)
        r2, _ = run_experiment(cfg, jobs=1)
        r3, _ = run_experiment(cfg, jobs=2)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)

    def test_zero_count_subclass(self):
        # subclass 0 has no samples: generation and the split skip it, and the
        # subclass-level variants' test confusions keep its empty row
        cfg = tiny_config(
            samples_per_subclass=(0, 12, 26, 26), n_seeds=2, teacher=teacher_train_config(epochs=2)
        )
        report, _ = run_experiment(cfg)
        assert report["failures"] == []
        for entry in report["per_seed"]:
            for name in ("teacher_subclass", "student_subclass", "student_skd"):
                confusion = np.array(entry["metrics"][name]["subclass_confusion"])
                assert confusion.shape == (4, 4)
                assert not confusion[0].any() and confusion[1:].sum(axis=1).all()

    def test_partial_failures_are_recorded(self, monkeypatch, tmp_path):
        real = run_single_seed

        def flaky(cfg, seed):
            if seed == 6:
                raise FloatingPointError("synthetic failure")
            return real(cfg, seed)

        monkeypatch.setattr(exp, "run_single_seed", flaky)
        report, _ = run_experiment(tiny_config())
        assert [e["seed"] for e in report["per_seed"]] == [5, 7]
        assert report["failures"] == [{"seed": 6, "error": "FloatingPointError: synthetic failure"}]
        # summary covers the two surviving seeds
        assert len(report["summary"]["student_skd"]["binary_f1"]["values"]) == 2
        # and summary.csv counts them in its last column
        write_experiment_report(report, tmp_path)
        rows = csv.reader((tmp_path / "summary.csv").read_text().splitlines())
        assert [row[-1] for row in rows] == ["n"] + ["2"] * len(VARIANTS)

    def test_pool_is_no_larger_than_the_seed_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InProcessPool:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = tiny_config(
            n_seeds=2, teacher=teacher_train_config(epochs=1), student=student_train_config(epochs=1)
        )
        report, _ = run_experiment(cfg, jobs=64)
        assert sizes == [2]
        assert [e["seed"] for e in report["per_seed"]] == [5, 6]

    def test_too_many_failures_raise(self, monkeypatch):
        def broken(cfg, seed):
            raise FloatingPointError("no data")

        monkeypatch.setattr(exp, "run_single_seed", broken)
        with pytest.raises(RuntimeError, match="fewer than two seeds"):
            run_experiment(tiny_config())

    def test_diverging_training_fails_every_seed(self):
        # a teacher learning rate of 1e300 overflows the first Adam step, so backward
        # finds a non-finite loss on the next batch of each seed
        cfg = ExperimentConfig(
            n_seeds=2,
            teacher=teacher_train_config(epochs=1, learning_rate=1e300),
            student=student_train_config(epochs=1),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError) as info:
                run_experiment(cfg)
        assert str(info.value) == (
            "fewer than two seeds completed: seed 1000: FloatingPointError: non-finite loss; "
            "seed 1001: FloatingPointError: non-finite loss"
        )

    def test_non_numerical_errors_propagate(self, monkeypatch):
        real = run_single_seed

        def buggy(cfg, seed):
            if seed == 6:
                raise ValueError("not a divergence")
            return real(cfg, seed)

        monkeypatch.setattr(exp, "run_single_seed", buggy)
        with pytest.raises(ValueError, match="not a divergence"):
            run_experiment(tiny_config())

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(n_seeds=1))
        with pytest.raises(ValueError):
            run_experiment(tiny_config(), jobs=0)

    def test_fractional_jobs_fail_before_any_seed_trains(self, monkeypatch):
        def untouchable(cfg, seed):
            raise AssertionError(f"seed {seed} trained")

        monkeypatch.setattr(exp, "run_single_seed", untouchable)
        with pytest.raises(ValueError, match="^jobs must be a whole number, got 1.5$"):
            run_experiment(tiny_config(), jobs=1.5)


class TestReportFiles:
    def test_files_written_and_deterministic(self, tmp_path):
        cfg = tiny_config()
        report, timings = run_experiment(cfg)
        first = tmp_path / "a"
        second = tmp_path / "b"
        paths = write_experiment_report(report, first, timings)
        report2, timings2 = run_experiment(cfg)
        write_experiment_report(report2, second, timings2)

        for name in ("report.json", "summary.csv", "per_seed.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "run.log").exists()

        loaded = json.loads(paths["report"].read_text())
        assert loaded["config"]["n_seeds"] == 3

        summary_lines = (first / "summary.csv").read_text().splitlines()
        assert summary_lines[0] == "variant,binary_f1_mean,binary_f1_std,macro_f1_mean,macro_f1_std,n"
        assert len(summary_lines) == 1 + len(VARIANTS)

        per_seed_lines = (first / "per_seed.csv").read_text().splitlines()
        assert len(per_seed_lines) == 1 + 3 * len(VARIANTS)

    def test_log_has_one_timing_line_per_seed(self, tmp_path):
        cfg = tiny_config(
            n_seeds=2, teacher=teacher_train_config(epochs=1), student=student_train_config(epochs=1)
        )
        report, timings = run_experiment(cfg)
        write_experiment_report(report, tmp_path, timings)
        lines = (tmp_path / "run.log").read_text().splitlines()
        matches = [re.fullmatch(r"seed=(\d+) wall_clock_s=(\d+\.\d{3})", line) for line in lines]
        assert all(matches), lines
        assert [int(m[1]) for m in matches] == [5, 6]
        assert all(float(m[2]) > 0.0 for m in matches)

    def test_log_omitted_without_timings(self, tmp_path):
        report, _ = run_experiment(tiny_config())
        paths = write_experiment_report(report, tmp_path / "out")
        assert "log" not in paths
        assert not (tmp_path / "out" / "run.log").exists()
