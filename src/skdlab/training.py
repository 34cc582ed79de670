"""Training regimes and class-level evaluation.

Four student regimes are supported through DistillConfig.mode:

* baseline: class-label cross entropy only.
* subclass: subclass-label cross entropy only.
* kd:  class-label cross entropy blended with softened KL against a
  class-level teacher.
* skd: subclass-label cross entropy blended with softened KL against a
  subclass-level teacher.

Models that emit subclass logits are always evaluated at class level by
summing each class's subclass probabilities before the argmax.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .data import Dataset
from .losses import (
    CombinedObjective,
    CrossEntropyOnLabels,
    DistillConfig,
    aggregate_class_probabilities,
)
from .network import (
    DenseNetwork,
    OptimizerState,
    backward,
    forward,
    init_network,
    optimizer_step,
    softmax_temperature,
)

@dataclass(frozen=True)
class TrainConfig:
    """One network's training settings.

    The defaults train the desk-scale 64-32 teacher (student_train_config
    gives the 8-unit student) with OptimizerState's optimizer defaults.
    """

    hidden_layers: tuple[int, ...] = (64, 32)
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = OptimizerState.learning_rate
    weight_decay: float = OptimizerState.weight_decay
    lr_decay: float = OptimizerState.lr_decay
    seed: int = 0
    distill: DistillConfig = DistillConfig()

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers widths must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (np.isfinite(self.lr_decay) and self.lr_decay > 0):
            raise ValueError("lr_decay must be finite and positive")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and non-negative")


def teacher_train_config(**overrides) -> TrainConfig:
    return TrainConfig(**overrides)


def student_train_config(**overrides) -> TrainConfig:
    return replace(TrainConfig(hidden_layers=(8,), epochs=30), **overrides)


@dataclass
class TrainResult:
    network: DenseNetwork
    loss_per_epoch: list[float]


def _level_targets(ds: Dataset, level: str) -> tuple[int, np.ndarray]:
    """Output width and labels at class or subclass level of a non-empty dataset."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    if level == "class":
        return ds.hierarchy.num_classes, ds.class_labels
    if level == "subclass":
        return ds.hierarchy.total_subclasses, ds.subclass_labels
    raise ValueError(f"level must be 'class' or 'subclass', got {level!r}")


def _run_training(features: np.ndarray, spec, num_outputs: int, cfg: TrainConfig) -> TrainResult:
    """Minibatch training of a fresh network on spec, a loss over all of features' rows.

    Each epoch gathers the shuffled features and loss rows once; the
    batches are contiguous slices of that gather.
    """
    dims = (features.shape[1], *cfg.hidden_layers, num_outputs)
    net = init_network(dims, [cfg.seed, 0])
    state = OptimizerState(
        learning_rate=cfg.learning_rate,
        lr_decay=cfg.lr_decay,
        weight_decay=cfg.weight_decay,
    )
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    n = len(features)
    batches = [slice(start, start + cfg.batch_size) for start in range(0, n, cfg.batch_size)]
    grads = None  # the first backward allocates the run's gradient buffer; later ones refill it
    loss_per_epoch = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_features, epoch_spec = features[order], spec.rows(order)
        batch_losses = []
        for batch in batches:
            loss, grads = backward(net, epoch_features[batch], epoch_spec.rows(batch), grads)
            optimizer_step(net, grads, state)
            batch_losses.append(loss)
        state.end_epoch()
        loss_per_epoch.append(float(np.mean(batch_losses)))
    if not np.isfinite(loss_per_epoch[-1]):
        raise FloatingPointError("training diverged: final loss is not finite")
    return TrainResult(net, loss_per_epoch)


def train_teacher(
    train_set: Dataset, *, cfg: TrainConfig, label_level: str = "subclass"
) -> TrainResult:
    """train_teacher(train_set, *, cfg, label_level="subclass"): cross-entropy at that level.

    Keyword-only: perfbench's tracer names each span from label_level.  Labels come from train_set.
    """
    if label_level not in ("class", "subclass"):
        raise ValueError(f"label_level must be 'class' or 'subclass', got {label_level!r}")
    mode = "baseline" if label_level == "class" else "subclass"
    return train_student(train_set, cfg=replace(cfg, distill=DistillConfig(mode)))


def train_student(
    train_set: Dataset, *, cfg: TrainConfig, teacher: Optional[DenseNetwork] = None
) -> TrainResult:
    """train_student(train_set, *, cfg, teacher=None): train under cfg.distill's mode.

    Keyword-only: perfbench's tracer names each span from cfg.  The teacher stays frozen.
    """
    distill = cfg.distill
    width, labels = _level_targets(train_set, distill.level)
    if not distill.uses_teacher:
        if teacher is not None:
            raise ValueError(f"mode {distill.mode!r} takes no teacher")
        return _run_training(train_set.features, CrossEntropyOnLabels(labels, width), width, cfg)
    if teacher is None:
        raise ValueError(f"mode {distill.mode!r} requires a teacher")
    if teacher.num_outputs != width:
        raise ValueError(
            f"teacher level mismatch: mode {distill.mode!r} needs a {distill.level}-level "
            f"teacher with {width} outputs, got {teacher.num_outputs}"
        )
    # teacher is frozen: its logits and softened targets are computed once, up front
    spec = CombinedObjective(
        labels, forward(teacher, train_set.features), distill.tau, distill.lam
    )
    return _run_training(train_set.features, spec, width, cfg)


# ---------------------------------------------------------------------------
# Evaluation.


@dataclass
class Metrics:
    """Class-level evaluation results (plus subclass confusion when available).

    binary_f1 reports class 0, the minority/positive role in every task
    preset; macro_f1 is the unweighted mean across classes.
    """

    class_confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    binary_f1: float
    macro_f1: float
    subclass_confusion: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        """Every field in field order, arrays as lists; a None subclass_confusion is left out."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


def _confusion(true_labels, pred_labels, size) -> np.ndarray:
    counts = np.zeros((size, size), dtype=int)
    np.add.at(counts, (true_labels, pred_labels), 1)
    return counts


def _prf_from_confusion(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.diag(conf).astype(float)
    pred_totals = conf.sum(axis=0).astype(float)
    true_totals = conf.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(true_totals > 0, tp / true_totals, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    return precision, recall, f1


def _model_probabilities(model: DenseNetwork, dataset: Dataset, level: str) -> np.ndarray:
    """Softmax outputs of a class- or subclass-level model on a dataset."""
    width, _ = _level_targets(dataset, level)
    if model.num_outputs != width:
        raise ValueError(f"model width does not match {level} count")
    return softmax_temperature(forward(model, dataset.features), 1.0)


def evaluate(model: DenseNetwork, dataset: Dataset, level_of_model: str) -> Metrics:
    """Class-level metrics; subclass models are aggregated before the argmax."""
    probs = _model_probabilities(model, dataset, level_of_model)
    class_probs, subclass_confusion = probs, None
    if level_of_model == "subclass":
        class_probs = aggregate_class_probabilities(probs, dataset.hierarchy)
        subclass_confusion = _confusion(
            dataset.subclass_labels, np.argmax(probs, axis=1), dataset.hierarchy.total_subclasses
        )
    pred = np.argmax(class_probs, axis=1)
    conf = _confusion(dataset.class_labels, pred, dataset.hierarchy.num_classes)
    precision, recall, f1 = _prf_from_confusion(conf)
    return Metrics(
        class_confusion=conf,
        precision=precision,
        recall=recall,
        f1=f1,
        binary_f1=float(f1[0]),
        macro_f1=float(np.mean(f1)),
        subclass_confusion=subclass_confusion,
    )


def per_class_subclass_confusions(
    model: DenseNetwork, dataset: Dataset
) -> list[Optional[np.ndarray]]:
    """Within-class subclass confusions from a subclass-level model.

    For each class with more than one subclass, the argmax is restricted to
    that class's own subclass columns, giving an n_c x n_c matrix indexed by
    within-class subclass position.  Single-subclass classes yield None.
    """
    hierarchy = dataset.hierarchy
    probs = _model_probabilities(model, dataset, "subclass")
    out: list[Optional[np.ndarray]] = [None] * hierarchy.num_classes
    for c in hierarchy.split_classes:
        mask = dataset.class_labels == c
        true_within = dataset.subclass_labels[mask] - hierarchy.offsets[c]
        pred_within = np.argmax(probs[mask][:, hierarchy.class_slice(c)], axis=1)
        out[c] = _confusion(true_within, pred_within, hierarchy.subclasses_per_class[c])
    return out
