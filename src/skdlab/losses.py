"""Distillation losses and subclass-to-class probability aggregation.

Training losses are in nats (natural log); the information-theory module is
the only place that works in bits.  Batch losses are arithmetic means over
samples so the balance weight keeps the same meaning at every batch size.

The distillation term compares temperature-softened distributions:

    distill = KL( softmax(teacher/tau) || softmax(student/tau) )

and the student objective blends it with cross entropy on ground-truth
labels:

    objective = lam * ce + (1 - lam) * distill

with no extra temperature-squared rescaling of the distillation gradient:
the objective is differentiated exactly as written.  In subclass
distillation the cross entropy targets subclass labels; in class-level
distillation and plain baseline training it targets class labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hierarchy import LabelHierarchy
from .network import softmax_and_log_softmax, softmax_temperature

PROB_FLOOR = 1e-300

STUDENT_MODES = ("baseline", "subclass", "kd", "skd")


@dataclass(frozen=True)
class DistillConfig:
    """Student-objective settings: mode, temperature, balance weight."""

    mode: str = "baseline"
    tau: float = 1.0
    lam: float = 0.45

    def __post_init__(self):
        if self.mode not in STUDENT_MODES:
            raise ValueError(f"mode must be one of {STUDENT_MODES}, got {self.mode!r}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    @property
    def uses_teacher(self) -> bool:
        return self.mode in ("kd", "skd")

    @property
    def level(self) -> str:
        """The label level of the student's logits and CE targets: "subclass" or "class"."""
        return "subclass" if self.mode in ("subclass", "skd") else "class"


def cross_entropy(probabilities, one_hot_target) -> float:
    """-ln p[target] for a single probability vector and one-hot target."""
    p = np.asarray(probabilities, dtype=float)
    t = np.asarray(one_hot_target, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError("probabilities and target must be 1-D and the same length")
    hot = np.flatnonzero(t)
    if len(hot) != 1 or t[hot[0]] != 1.0 or np.any((t != 0.0) & (t != 1.0)):
        raise ValueError("target must be one-hot")
    return float(-np.log(max(p[hot[0]], PROB_FLOOR)))


def kl_divergence(p, q) -> float:
    """sum p ln(p/q) in nats, with 0 ln 0 = 0 and q floored at 1e-300."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    q = np.maximum(q, PROB_FLOOR)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def skd_loss(teacher_logits, student_logits, tau: float) -> float:
    """Batch-mean KL between softened teacher and student subclass outputs."""
    t, s = np.atleast_2d(teacher_logits, student_logits)
    if t.shape != s.shape:
        raise ValueError(f"teacher logits {t.shape} do not match student {s.shape}")
    pt, log_pt = softmax_and_log_softmax(t, tau)
    log_ps = softmax_and_log_softmax(s, tau)[1]
    per_sample = np.sum(pt * (log_pt - log_ps), axis=1)
    return float(np.mean(per_sample))


def conventional_kd_loss(teacher_class_logits, student_class_logits, tau: float) -> float:
    """Class-level distillation loss; same functional form, class-width logits."""
    return skd_loss(teacher_class_logits, student_class_logits, tau)


def student_objective(ce_term: float, skd_term: float, lam: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    return lam * ce_term + (1.0 - lam) * skd_term


def aggregate_class_probabilities(subclass_probs, hierarchy: LabelHierarchy) -> np.ndarray:
    """Sum each class's block of subclass probabilities.

    Accepts a single vector or a batch; preserves total mass exactly.
    """
    p = np.asarray(subclass_probs, dtype=float)
    if p.shape[-1] != hierarchy.total_subclasses:
        raise ValueError(
            f"width {p.shape[-1]} does not match {hierarchy.total_subclasses} subclasses"
        )
    starts = np.array(hierarchy.offsets[:-1])
    return np.add.reduceat(p, starts, axis=-1)


# ---------------------------------------------------------------------------
# Loss specs: the output-layer stories handed to network.backward.  Each
# exposes loss_and_logit_grad(logits) -> (batch-mean loss, dL/dlogits) and
# takes the logits as the 2-D array backward passes.  The training loop's
# specs are CrossEntropyOnLabels and its subclass CombinedObjective, which
# adds the teacher term to the CE it inherits; both share one rows(index),
# the spec on a subset of samples.  These two also take a stack: labels
# (k, n) and logits (k, n, width) give k losses, each reduced over its own
# network's last two axes.
# Gradients are exact analytic derivatives:
#   d(mean CE)/dz      = (softmax(z) - onehot) / n
#   d(mean distill)/dz = (softmax(z/tau) - softmax(t/tau)) / (n * tau)


def _one_hot_table(labels, width: int) -> np.ndarray:
    """The (..., n, width) one-hot table of integer labels, each checked to lie in [0, width)."""
    y = np.asarray(labels, dtype=int)
    if y.size == 0:
        raise ValueError("empty label batch")
    if y.min() < 0 or y.max() >= width:
        raise ValueError(f"label out of range for width {width}")
    return np.equal(y[..., None], np.arange(width)).astype(float)


class CrossEntropyOnLabels:
    """Mean cross entropy of softmax(logits) against integer labels.

    Given the logit width, the labels are checked and one-hot encoded once,
    here; without it, each call encodes them at the width of the logits it
    gets.
    """

    PER_SAMPLE = ("labels", "_one_hot")  # the attributes with one row per sample

    def __init__(self, labels, width: Optional[int] = None):
        self.labels = np.asarray(labels)
        self._one_hot = None if width is None else _one_hot_table(self.labels, width)

    def rows(self, index):
        """The same spec on a subset of samples: each PER_SAMPLE array indexed by index.

        For a stack, index leads with one index per stack axis, as in (networks, order).
        """
        sub = object.__new__(type(self))
        sub.__dict__ = attrs = self.__dict__.copy()
        for name in self.PER_SAMPLE:
            attrs[name] = None if attrs[name] is None else attrs[name][index]
        return sub

    def loss_and_logit_grad(self, z):
        hot = self._one_hot
        if hot is None:
            hot = _one_hot_table(self.labels, z.shape[-1])
        if hot.shape != z.shape:
            if hot.shape[:-1] != z.shape[:-1]:
                raise ValueError("labels do not match batch size")
            raise ValueError(f"label width {hot.shape[-1]} does not match logit width {z.shape[-1]}")
        n = z.shape[-2]
        p, log_p = softmax_and_log_softmax(z)
        log_p *= hot
        loss = -np.add.reduce(log_p, axis=(-2, -1)) / n
        p -= hot
        p /= n
        return loss, p


@dataclass(eq=False)
class DistillAgainstTeacher:
    """Mean softened KL against fixed teacher logits."""

    teacher_logits: np.ndarray
    tau: float

    def loss_and_logit_grad(self, logits):
        z = np.atleast_2d(logits)
        t = np.atleast_2d(np.asarray(self.teacher_logits, dtype=float))
        loss = skd_loss(t, z, self.tau)
        n = z.shape[0]
        grad = (softmax_temperature(z, self.tau) - softmax_temperature(t, self.tau)) / (n * self.tau)
        return float(loss), grad


class CombinedObjective(CrossEntropyOnLabels):
    """lam * CE(labels) + (1 - lam) * softened KL(teacher).

    The frozen teacher's logits are only read at construction, to compute its
    softened targets once; the labels are one-hot encoded then too, at the
    teacher's width.
    """

    PER_SAMPLE = CrossEntropyOnLabels.PER_SAMPLE + ("_teacher_probs", "_teacher_log_probs")

    def __init__(self, labels, teacher_logits, tau: float, lam: float):
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        self.tau, self.lam = tau, lam
        self._teacher_probs, self._teacher_log_probs = softmax_and_log_softmax(
            np.atleast_2d(teacher_logits), tau
        )
        super().__init__(labels, self._teacher_probs.shape[-1])
        if self._one_hot.shape != self._teacher_probs.shape:
            raise ValueError("labels and teacher logits differ in sample count")

    def loss_and_logit_grad(self, z):
        pt = self._teacher_probs
        if pt.shape != z.shape:
            raise ValueError(f"teacher logits {pt.shape} do not match student {z.shape}")
        ce_loss, grad = super().loss_and_logit_grad(z)
        # the expressions of skd_loss and DistillAgainstTeacher, teacher terms precomputed,
        # evaluated in place with the same operands and order
        n = z.shape[-2]
        p, log_p = softmax_and_log_softmax(z, self.tau)
        np.subtract(self._teacher_log_probs, log_p, out=log_p)
        log_p *= pt
        kd_loss = np.add.reduce(np.add.reduce(log_p, axis=-1), axis=-1) / n
        p -= pt
        p /= n * self.tau
        loss = self.lam * ce_loss + (1.0 - self.lam) * kd_loss
        grad *= self.lam
        p *= 1.0 - self.lam
        grad += p
        return loss, grad
