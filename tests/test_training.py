import math

import numpy as np
import pytest

from skdlab import training
from skdlab.data import Dataset, SyntheticSpec, generate_synthetic, split_dataset
from skdlab.hierarchy import LabelHierarchy, build_task_preset
from skdlab.losses import DistillAgainstTeacher, DistillConfig
from skdlab.network import backward, forward, init_network
from skdlab.training import (
    Metrics,
    TrainConfig,
    evaluate,
    per_class_subclass_confusions,
    student_train_config,
    teacher_train_config,
    train_student,
    train_teacher,
)

SL22 = build_task_preset("SL22")


@pytest.fixture(scope="module")
def split():
    return make_split()


@pytest.fixture(scope="module")
def subclass_teacher(split):
    return train_teacher(split[0], cfg=teacher_train_config(seed=1, epochs=4)).network


@pytest.fixture(scope="module")
def class_teacher(split):
    return train_teacher(
        split[0], cfg=teacher_train_config(seed=1, epochs=4), label_level="class"
    ).network


def make_split(counts=(30, 30, 60, 60), difficulty=0.4, seed=11):
    spec = SyntheticSpec(SL22, counts, difficulty, 2, seed)
    return split_dataset(generate_synthetic(spec), 0.5, seed)


def nets_identical(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


def logit_injector(width: int):
    """Single linear layer wired as the identity: features pass through as logits."""
    net = init_network((width, width), 0)
    net.weights[0][...] = np.eye(width)
    net.biases[0][...] = 0.0
    return net


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for bad in ({"learning_rate": -0.5}, {"lr_decay": float("nan")}, {"weight_decay": -1e-4}):
            with pytest.raises(ValueError, match="must be finite"):
                TrainConfig(**bad)

    def test_factory_overrides(self):
        cfg = teacher_train_config(seed=9, epochs=3)
        assert cfg.seed == 9 and cfg.epochs == 3 and cfg.hidden_layers == (64, 32)
        s = student_train_config(seed=2)
        assert s.hidden_layers == (8,) and s.epochs == 30

    def test_default_distill_is_the_baseline_mode(self):
        assert TrainConfig().distill == DistillConfig()
        assert TrainConfig().distill.level == "class"


class TestTrainTeacher:
    def test_level_selects_output_width(self):
        train, _ = make_split()
        cfg = teacher_train_config(seed=1, epochs=2)
        sub = train_teacher(train, cfg=cfg, label_level="subclass")
        cls = train_teacher(train, cfg=cfg, label_level="class")
        assert sub.network.num_outputs == 4
        assert cls.network.num_outputs == 2
        assert len(sub.loss_per_epoch) == 2

    def test_unknown_level_rejected(self):
        train, _ = make_split()
        with pytest.raises(ValueError):
            train_teacher(train, cfg=teacher_train_config(epochs=1), label_level="coarse")

    def test_empty_training_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), [], SL22)
        with pytest.raises(ValueError):
            train_teacher(empty, cfg=teacher_train_config(epochs=1))

    def test_run_to_run_bitwise_identical(self):
        train, _ = make_split()
        cfg = teacher_train_config(seed=4, epochs=3)
        a = train_teacher(train, cfg=cfg)
        b = train_teacher(train, cfg=cfg)
        assert nets_identical(a.network, b.network)
        assert a.loss_per_epoch == b.loss_per_epoch

    def test_loss_decreases_on_easy_data(self):
        train, _ = make_split(difficulty=0.0, seed=3)
        r = train_teacher(train, cfg=teacher_train_config(seed=3, epochs=10))
        assert r.loss_per_epoch[-1] < r.loss_per_epoch[0]


class TestStudentModes:
    def test_baseline_rejects_teacher(self, split, class_teacher):
        cfg = student_train_config(seed=2, epochs=1, distill=DistillConfig("baseline"))
        with pytest.raises(ValueError, match="takes no teacher"):
            train_student(split[0], cfg=cfg, teacher=class_teacher)

    def test_kd_requires_teacher(self, split):
        cfg = student_train_config(seed=2, epochs=1, distill=DistillConfig("kd", tau=128.0))
        with pytest.raises(ValueError, match="requires a teacher"):
            train_student(split[0], cfg=cfg)

    def test_level_mismatch_detected(self, split, class_teacher, subclass_teacher):
        skd = student_train_config(seed=2, epochs=1, distill=DistillConfig("skd", tau=5.0))
        with pytest.raises(ValueError, match="teacher level mismatch"):
            train_student(split[0], cfg=skd, teacher=class_teacher)
        kd = student_train_config(seed=2, epochs=1, distill=DistillConfig("kd", tau=128.0))
        with pytest.raises(ValueError, match="teacher level mismatch"):
            train_student(split[0], cfg=kd, teacher=subclass_teacher)

    def test_teacher_stays_frozen(self, split, subclass_teacher):
        before = subclass_teacher.params.copy()
        cfg = student_train_config(seed=7, epochs=2, distill=DistillConfig("skd", tau=5.0))
        train_student(split[0], cfg=cfg, teacher=subclass_teacher)
        assert np.array_equal(before, subclass_teacher.params)

    @pytest.mark.parametrize("level, mode", [("class", "baseline"), ("subclass", "subclass")])
    def test_baseline_equals_class_level_training(self, split, level, mode):
        # same config, same streams: the two entry points must coincide bitwise
        cfg = student_train_config(seed=5, epochs=3, distill=DistillConfig(mode))
        via_student = train_student(split[0], cfg=cfg)
        via_teacher = train_teacher(split[0], cfg=cfg, label_level=level)
        assert nets_identical(via_student.network, via_teacher.network)
        assert via_student.loss_per_epoch == via_teacher.loss_per_epoch

    def test_full_label_weight_reduces_to_subclass_training(self, split, subclass_teacher):
        # lam = 1 zeroes the distillation term, so the teacher must not matter
        skd = student_train_config(
            seed=6, epochs=3, distill=DistillConfig("skd", tau=5.0, lam=1.0)
        )
        plain = student_train_config(seed=6, epochs=3, distill=DistillConfig("subclass"))
        a = train_student(split[0], cfg=skd, teacher=subclass_teacher)
        b = train_student(split[0], cfg=plain)
        assert a.loss_per_epoch == b.loss_per_epoch
        assert nets_identical(a.network, b.network)

    def test_teacher_matches_itself_under_pure_distillation(self, split, subclass_teacher):
        # a student identical to the teacher sits at the distillation optimum
        X = split[0].features
        spec = DistillAgainstTeacher(forward(subclass_teacher, X), tau=5.0)
        loss, grads = backward(subclass_teacher, X, spec)
        assert loss == 0.0
        assert all(not w.any() for w in grads.d_weights)
        assert all(not b.any() for b in grads.d_biases)

    def test_widths_per_mode(self, split, subclass_teacher, class_teacher):
        train = split[0]
        cases = {
            "baseline": (None, 2),
            "subclass": (None, 4),
            "kd": (class_teacher, 2),
            "skd": (subclass_teacher, 4),
        }
        for mode, (teacher, width) in cases.items():
            tau = 5.0 if mode == "skd" else 128.0 if mode == "kd" else 1.0
            cfg = student_train_config(seed=3, epochs=1, distill=DistillConfig(mode, tau=tau))
            r = train_student(train, cfg=cfg, teacher=teacher)
            assert r.network.num_outputs == width, mode

    @pytest.mark.parametrize("mode", ["subclass", "skd"])
    def test_one_backward_and_one_step_per_batch(self, split, subclass_teacher, monkeypatch, mode):
        # the exact work per run that the benchmark's guard counts
        calls = {"backward": 0, "optimizer_step": 0}
        for name in calls:
            def counted(*args, _fn=getattr(training, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        distill = DistillConfig(mode, tau=5.0)
        cfg = student_train_config(seed=3, epochs=3, batch_size=16, distill=distill)
        teacher = subclass_teacher if mode == "skd" else None
        train_student(split[0], cfg=cfg, teacher=teacher)
        steps = 3 * math.ceil(len(split[0]) / 16)
        assert len(split[0]) % 16 and calls == {"backward": steps, "optimizer_step": steps}


class TestDivergence:
    def test_non_finite_loss_raises(self, split):
        # a learning rate of 1e300 overflows the first Adam step, so backward finds
        # a non-finite loss on the next batch
        cfg = student_train_config(seed=1, epochs=1, learning_rate=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^non-finite loss$"):
                train_student(split[0], cfg=cfg)


class TestSeparability:
    def test_teacher_fits_well_separated_clusters(self):
        # difficulty 0 puts six standard deviations between paired centers,
        # so both the network and a nearest-centroid rule should be near-perfect
        spec = SyntheticSpec(SL22, (60, 60, 120, 120), 0.0, 2, 17)
        train, _ = split_dataset(generate_synthetic(spec), 0.5, 17)
        result = train_teacher(train, cfg=teacher_train_config(seed=17, epochs=50))
        m = evaluate(result.network, train, "subclass")
        acc = np.trace(m.class_confusion) / m.class_confusion.sum()
        assert acc >= 0.99

        # independent route: nearest subclass centroid, mapped up to classes
        centroids = np.stack(
            [train.features[train.subclass_labels == j].mean(axis=0) for j in range(4)]
        )
        d = np.linalg.norm(train.features[:, None, :] - centroids[None], axis=2)
        to_class = np.array(SL22.class_of)
        centroid_acc = np.mean(to_class[np.argmin(d, axis=1)] == train.class_labels)
        assert centroid_acc >= 0.99

        # the class layout is checkerboard-like on purpose: collapsing each
        # class to a single centroid throws the separability away
        class_centroids = np.stack(
            [train.features[train.class_labels == c].mean(axis=0) for c in range(2)]
        )
        dc = np.linalg.norm(train.features[:, None, :] - class_centroids[None], axis=2)
        class_centroid_acc = np.mean(np.argmin(dc, axis=1) == train.class_labels)
        assert class_centroid_acc < 0.8


class TestEvaluate:
    def test_metrics_from_known_confusion(self):
        h = build_task_preset("ClassLevel")
        labels = np.array([0] * 3 + [1] * 7)
        # predictions 0,0,1 | 0,1,1,1,1,1,1 give confusion [[2,1],[1,6]]
        preds = np.array([0, 0, 1, 0, 1, 1, 1, 1, 1, 1])
        feats = np.eye(2)[preds] * 4.0
        ds = Dataset(feats, labels, h)
        m = evaluate(logit_injector(2), ds, "class")
        np.testing.assert_array_equal(m.class_confusion, [[2, 1], [1, 6]])
        assert m.precision[0] == pytest.approx(2 / 3, abs=1e-15)
        assert m.recall[0] == pytest.approx(2 / 3, abs=1e-15)
        assert m.binary_f1 == pytest.approx(2 / 3, abs=1e-15)
        assert f"{m.binary_f1:.6f}" == "0.666667"
        assert m.macro_f1 == pytest.approx((2 / 3 + 12 / 14) / 2, abs=1e-15)
        assert m.subclass_confusion is None

    def test_f1_recoverable_from_confusion(self):
        train, test = make_split()
        r = train_teacher(train, cfg=teacher_train_config(seed=2, epochs=5))
        m = evaluate(r.network, test, "subclass")
        conf = m.class_confusion.astype(float)
        tp = np.diag(conf)
        p = tp / conf.sum(axis=0)
        r_ = tp / conf.sum(axis=1)
        f1 = 2 * p * r_ / (p + r_)
        np.testing.assert_allclose(m.f1, f1, atol=1e-12)
        assert m.macro_f1 == pytest.approx(f1.mean(), abs=1e-12)

    def test_perfect_predictor(self):
        h = build_task_preset("ClassLevel")
        labels = np.array([0, 0, 1, 1])
        ds = Dataset(np.eye(2)[labels], labels, h)
        m = evaluate(logit_injector(2), ds, "class")
        assert m.binary_f1 == 1.0 and m.macro_f1 == 1.0

    def test_constant_predictor_scores_zero_on_minority(self):
        h = build_task_preset("ClassLevel")
        labels = np.array([0, 1, 1, 1])
        feats = np.tile([0.0, 5.0], (4, 1))  # always predicts class 1
        ds = Dataset(feats, labels, h)
        m = evaluate(logit_injector(2), ds, "class")
        assert m.binary_f1 == 0.0

    def test_subclass_model_aggregates_before_class_argmax(self):
        # mass 0.3+0.3 on class 0 beats 0.4 on class 1's best subclass
        logits = np.log(np.array([[0.3, 0.3, 0.4, 0.0001]]))
        ds = Dataset(logits, [0], SL22)
        m = evaluate(logit_injector(4), ds, "subclass")
        np.testing.assert_array_equal(m.class_confusion, [[1, 0], [0, 0]])
        # the subclass argmax is global, recorded alongside
        assert m.subclass_confusion[0, 2] == 1

    def test_width_mismatch_rejected(self):
        h = build_task_preset("ClassLevel")
        labels = np.array([0, 1])
        ds = Dataset(np.eye(2), labels, h)
        with pytest.raises(ValueError):
            evaluate(logit_injector(3), ds, "class")
        with pytest.raises(ValueError):
            evaluate(logit_injector(2), ds, "bogus")

    def test_empty_dataset_rejected(self):
        h = build_task_preset("ClassLevel")
        ds = Dataset(np.zeros((0, 2)), [], h)
        with pytest.raises(ValueError):
            evaluate(logit_injector(2), ds, "class")

    def test_metrics_to_dict_round_trip(self):
        h = build_task_preset("ClassLevel")
        labels = np.array([0, 1])
        ds = Dataset(np.eye(2), labels, h)
        d = evaluate(logit_injector(2), ds, "class").to_dict()
        assert d["class_confusion"] == [[1, 0], [0, 1]]
        assert isinstance(d["binary_f1"], float)
        assert "subclass_confusion" not in d


class TestSubclassConfusions:
    def test_argmax_restricted_to_own_class(self):
        # sample 1: global argmax lands in class 1, but within class 0 the
        # winner is subclass 0; the per-class matrix must use the latter
        logits = np.array(
            [
                [0.40, 0.10, 0.45, 0.05],
                [0.10, 0.20, 0.50, 0.00],
            ]
        )
        ds = Dataset(logits, [0, 1], SL22)
        confs = per_class_subclass_confusions(logit_injector(4), ds)
        np.testing.assert_array_equal(confs[0], [[1, 0], [0, 1]])
        np.testing.assert_array_equal(confs[1], [[0, 0], [0, 0]])

    def test_single_subclass_class_yields_none(self):
        h = build_task_preset("SL12")
        logits = np.array([[1.0, 0.0, 0.0]])
        ds = Dataset(logits, [0], h)
        confs = per_class_subclass_confusions(logit_injector(3), ds)
        assert confs[0] is None
        assert confs[1].shape == (2, 2)

    def test_width_checked(self):
        ds = Dataset(np.zeros((1, 2)), [0], SL22)
        with pytest.raises(ValueError):
            per_class_subclass_confusions(logit_injector(2), ds)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 4)), [], SL22)
        with pytest.raises(ValueError, match="empty"):
            per_class_subclass_confusions(logit_injector(4), ds)
