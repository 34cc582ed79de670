import math

import numpy as np
import pytest

from skdlab.hierarchy import LabelHierarchy, build_task_preset
from skdlab.losses import (
    CombinedObjective,
    CrossEntropyOnLabels,
    DistillAgainstTeacher,
    DistillConfig,
    STUDENT_MODES,
    aggregate_class_probabilities,
    conventional_kd_loss,
    cross_entropy,
    kl_divergence,
    skd_loss,
    student_objective,
)
from skdlab.network import softmax_temperature

SL22 = build_task_preset("SL22")


def batch_kl_oracle(t_logits, s_logits, tau):
    """Independent softened-KL route: explicit softmax then termwise p*ln(p/q)."""
    p = softmax_temperature(np.atleast_2d(np.asarray(t_logits, float)), tau)
    q = softmax_temperature(np.atleast_2d(np.asarray(s_logits, float)), tau)
    total = 0.0
    for pr, qr in zip(p, q):
        total += sum(pi * math.log(pi / qi) for pi, qi in zip(pr, qr) if pi > 0)
    return total / len(p)


class TestCrossEntropy:
    def test_known_value(self):
        # -ln(0.75)
        got = cross_entropy([0.75, 0.25], [1.0, 0.0])
        assert got == pytest.approx(-math.log(0.75), abs=1e-15)
        assert got == pytest.approx(0.287682, abs=1e-6)

    def test_uniform_prediction(self):
        assert cross_entropy([0.25] * 4, [0, 0, 1, 0]) == pytest.approx(math.log(4))

    def test_strict_one_hot_required(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], [1.0, 1.0])

    def test_floor_keeps_loss_finite(self):
        assert math.isfinite(cross_entropy([0.0, 1.0], [1.0, 0.0]))

    @pytest.mark.parametrize(
        "p, t", [([0.5, 0.5], [1.0, 0.0, 0.0]), ([[0.5, 0.5]], [[1.0, 0.0]])], ids=["length", "2-D"]
    )
    def test_shapes_checked(self, p, t):
        with pytest.raises(ValueError, match="probabilities and target must be 1-D and the same length"):
            cross_entropy(p, t)


class TestKlDivergence:
    def test_known_value(self):
        # 0.3 ln(3/7) + 0.7 ln(7/3) = 0.4 ln(7/3)
        expected = 0.4 * math.log(7.0 / 3.0)
        assert kl_divergence([0.3, 0.7], [0.7, 0.3]) == pytest.approx(expected, abs=1e-15)

    def test_zero_for_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_zero_times_log_zero(self):
        # 0 ln 0 treated as 0 in the p=0 slot
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            assert kl_divergence(p, q) >= -1e-12

    @pytest.mark.parametrize("q", [[0.5, 0.5, 0.0], [[0.3, 0.7]]], ids=["length", "2-D"])
    def test_shapes_checked(self, q):
        with pytest.raises(ValueError, match="distributions must have the same shape"):
            kl_divergence([0.3, 0.7], q)


class TestSkdLoss:
    def test_zero_when_logits_match(self):
        rng = np.random.default_rng(2)
        for tau in (1.0, 5.0, 128.0):
            z = rng.standard_normal((4, 6))
            assert skd_loss(z, z, tau) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        z_t = rng.standard_normal((3, 5))
        z_s = rng.standard_normal((3, 5))
        base = skd_loss(z_t, z_s, 5.0)
        shifted = skd_loss(z_t + 13.0, z_s - 7.5, 5.0)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_hand_value_via_independent_route(self):
        got = skd_loss([2.0, 0.0], [0.0, 0.0], 1.0)
        assert got == pytest.approx(batch_kl_oracle([2.0, 0.0], [0.0, 0.0], 1.0), abs=1e-13)

    def test_temperature_rescales_logits(self):
        # dividing logits by tau before softmax: tau=2 on [2,0] equals tau=1 on [1,0]
        assert skd_loss([2.0, 0.0], [0.0, 0.0], 2.0) == pytest.approx(
            skd_loss([1.0, 0.0], [0.0, 0.0], 1.0), abs=1e-14
        )

    def test_batch_mean_semantics(self):
        rng = np.random.default_rng(4)
        t, s = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        singles = [skd_loss(t[i], s[i], 5.0) for i in range(2)]
        assert skd_loss(t, s, 5.0) == pytest.approx(np.mean(singles), abs=1e-13)

    def test_random_sweep_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = rng.standard_normal((3, 4)) * 3
            s = rng.standard_normal((3, 4)) * 3
            tau = rng.choice([1.0, 5.0, 128.0])
            assert skd_loss(t, s, tau) == pytest.approx(
                batch_kl_oracle(t, s, tau), abs=1e-12
            )

    @pytest.mark.parametrize("student_shape", [(2, 4), (3, 5)], ids=["batch", "width"])
    def test_shape_mismatch_rejected(self, student_shape):
        with pytest.raises(ValueError, match=r"teacher logits \(3, 4\) do not match student"):
            skd_loss(np.zeros((3, 4)), np.zeros(student_shape), 5.0)


class TestConventionalKd:
    def test_same_form_as_subclass_distillation(self):
        rng = np.random.default_rng(6)
        t, s = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        assert conventional_kd_loss(t, s, 128.0) == skd_loss(t, s, 128.0)

    def test_hand_value(self):
        # KL(sigma([1,0]) || sigma([0,1])) collapses to (p - q) * ln(e) = 2p - 1
        p = math.exp(1.0) / (1.0 + math.exp(1.0))
        expected = 2.0 * p - 1.0  # = tanh(1/2)
        got = conventional_kd_loss([1.0, 0.0], [0.0, 1.0], 1.0)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(math.tanh(0.5), abs=1e-14)


class TestStudentObjective:
    def test_convex_blend(self):
        assert student_objective(2.0, 4.0, 0.45) == pytest.approx(0.45 * 2 + 0.55 * 4)
        assert student_objective(2.0, 4.0, 1.0) == 2.0
        assert student_objective(2.0, 4.0, 0.0) == 4.0

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            student_objective(1.0, 1.0, 1.2)


class TestAggregateClassProbabilities:
    def test_block_sums(self):
        p = np.array([[0.1, 0.2, 0.3, 0.4]])
        np.testing.assert_allclose(
            aggregate_class_probabilities(p, SL22), [[0.3, 0.7]], atol=1e-15
        )

    def test_mass_preserved_on_random_batches(self):
        h = LabelHierarchy((3, 1, 2))
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(6), size=50)
        agg = aggregate_class_probabilities(p, h)
        np.testing.assert_allclose(agg.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # dual route: explicit per-class slice sums
        manual = np.stack([p[:, h.class_slice(c)].sum(axis=1) for c in range(3)], axis=1)
        np.testing.assert_allclose(agg, manual, rtol=0, atol=1e-15)

    def test_single_vector_form(self):
        out = aggregate_class_probabilities(np.array([0.25, 0.25, 0.25, 0.25]), SL22)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_width_checked(self):
        with pytest.raises(ValueError):
            aggregate_class_probabilities(np.ones((2, 3)) / 3, SL22)


class TestDistillConfig:
    def test_mode_truth_table(self):
        assert STUDENT_MODES == ("baseline", "subclass", "kd", "skd")
        flags = {
            m: (DistillConfig(m).uses_teacher, DistillConfig(m).level)
            for m in STUDENT_MODES
        }
        assert flags == {
            "baseline": (False, "class"),
            "subclass": (False, "subclass"),
            "kd": (True, "class"),
            "skd": (True, "subclass"),
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            DistillConfig("softlabel")
        with pytest.raises(ValueError):
            DistillConfig("skd", tau=0.0)
        with pytest.raises(ValueError):
            DistillConfig("skd", lam=-0.1)


class TestLossSpecs:
    """Loss-and-gradient plumbing used by the training loop."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.logits = rng.standard_normal((6, 4)) * 2
        self.labels = rng.integers(0, 4, size=6)
        self.teacher = rng.standard_normal((6, 4)) * 2

    def test_combined_lambda_one_is_pure_ce(self):
        ce = CrossEntropyOnLabels(self.labels)
        combo = CombinedObjective(self.labels, self.teacher, tau=5.0, lam=1.0)
        l1, g1 = ce.loss_and_logit_grad(self.logits)
        l2, g2 = combo.loss_and_logit_grad(self.logits)
        assert l2 == pytest.approx(l1, abs=1e-15)
        np.testing.assert_allclose(g2, g1, rtol=0, atol=1e-16)

    def test_combined_lambda_zero_is_pure_distill(self):
        kd = DistillAgainstTeacher(self.teacher, tau=5.0)
        combo = CombinedObjective(self.labels, self.teacher, tau=5.0, lam=0.0)
        l1, g1 = kd.loss_and_logit_grad(self.logits)
        l2, g2 = combo.loss_and_logit_grad(self.logits)
        assert l2 == pytest.approx(l1, abs=1e-15)
        np.testing.assert_allclose(g2, g1, rtol=0, atol=1e-16)

    def test_ce_gradient_formula(self):
        # (softmax - onehot) / n, written out independently
        _, g = CrossEntropyOnLabels(self.labels).loss_and_logit_grad(self.logits)
        p = softmax_temperature(self.logits, 1.0)
        onehot = np.zeros_like(p)
        onehot[np.arange(6), self.labels] = 1.0
        np.testing.assert_allclose(g, (p - onehot) / 6, rtol=0, atol=1e-16)

    def test_distill_gradient_formula(self):
        # (softmax(z/tau) - softmax(t/tau)) / (n * tau)
        tau = 5.0
        _, g = DistillAgainstTeacher(self.teacher, tau).loss_and_logit_grad(self.logits)
        expected = (
            softmax_temperature(self.logits, tau) - softmax_temperature(self.teacher, tau)
        ) / (6 * tau)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("width", [None, 4])
    def test_ce_rejects_labels_of_another_batch(self, width):
        ce = CrossEntropyOnLabels(self.labels[:5], width)
        with pytest.raises(ValueError, match="labels do not match batch size"):
            ce.loss_and_logit_grad(self.logits)

    def test_empty_label_batch_rejected(self):
        with pytest.raises(ValueError, match="empty label batch"):
            CrossEntropyOnLabels([], 4)

    def test_distill_rejects_logits_of_another_shape(self):
        kd = DistillAgainstTeacher(self.teacher, tau=5.0)
        with pytest.raises(ValueError, match=r"teacher logits \(6, 4\) do not match student \(6, 3\)"):
            kd.loss_and_logit_grad(self.logits[:, :3])

    @pytest.mark.parametrize("lam", [-0.1, 1.1, float("nan")])
    def test_combined_lambda_range(self, lam):
        with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
            CombinedObjective(self.labels, self.teacher, tau=5.0, lam=lam)

    def test_combined_rejects_logits_of_another_shape(self):
        combo = CombinedObjective(self.labels, self.teacher, tau=5.0, lam=0.5)
        with pytest.raises(ValueError, match=r"teacher logits \(6, 4\) do not match student \(5, 4\)"):
            combo.loss_and_logit_grad(self.logits[:5])

    def test_distill_loss_matches_skd_loss(self):
        l, _ = DistillAgainstTeacher(self.teacher, 5.0).loss_and_logit_grad(self.logits)
        assert l == pytest.approx(skd_loss(self.teacher, self.logits, 5.0), abs=1e-14)

    @pytest.mark.parametrize("lam", [0.45, 0.0])  # lam 0 exposes the distill term's last bits
    @pytest.mark.parametrize("tau", [5.0, 128.0])
    def test_fused_combined_matches_composed_reference(self, tau, lam):
        # the objective built over a larger set and sliced by rows() must give
        # exactly what CE + distill + student_objective give on the batch alone
        rng = np.random.default_rng(int(tau))
        labels = rng.integers(0, 4, size=40)
        teacher = rng.standard_normal((40, 4)) * 3
        order = rng.permutation(40)
        batch = slice(8, 14)
        idx = order[batch]
        ce_loss, ce_grad = CrossEntropyOnLabels(labels[idx]).loss_and_logit_grad(self.logits)
        kd_loss, kd_grad = DistillAgainstTeacher(teacher[idx], tau).loss_and_logit_grad(self.logits)
        fused = CombinedObjective(labels, teacher, tau, lam).rows(order).rows(batch)
        loss, grad = fused.loss_and_logit_grad(self.logits)
        assert loss == student_objective(ce_loss, kd_loss, lam)
        assert np.array_equal(grad, lam * ce_grad + (1.0 - lam) * kd_grad)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_run_ce_table_matches_the_labels_form(self, seed):
        # the one-hot table built once at the run's width and sliced by rows()
        # must give exactly what the batch's own labels give
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=40)
        order = rng.permutation(40)
        batch = slice(8, 14)
        want = CrossEntropyOnLabels(labels[order[batch]]).loss_and_logit_grad(self.logits)
        for spec in (CrossEntropyOnLabels(labels, 4), CrossEntropyOnLabels(labels)):
            loss, grad = spec.rows(order).rows(batch).loss_and_logit_grad(self.logits)
            assert loss == want[0]
            assert np.array_equal(grad, want[1])

    def test_per_run_tables_check_their_labels_once(self):
        with pytest.raises(ValueError, match="out of range"):
            CrossEntropyOnLabels(np.array([0, 4]), 4)
        with pytest.raises(ValueError, match="out of range"):
            CombinedObjective(np.array([0, 4]), np.zeros((2, 4)), tau=5.0, lam=0.45)
        with pytest.raises(ValueError, match="sample count"):
            CombinedObjective(np.array([0, 1, 2]), np.zeros((2, 4)), tau=5.0, lam=0.45)
        spec = CrossEntropyOnLabels(self.labels, 4)
        with pytest.raises(ValueError, match="width"):
            spec.loss_and_logit_grad(np.zeros((6, 5)))

    @pytest.mark.parametrize("kind", ["ce", "ce_width", "combined"])
    def test_stack_rows_and_losses_match_each_network(self, kind):
        # a spec over (k, n) labels, gathered by (network, order) and sliced by
        # (every network, batch), gives network i what its own spec gives
        rng = np.random.default_rng(12)
        k, n, width = 3, 40, 4
        labels = rng.integers(0, width, size=(k, n))
        teacher = rng.standard_normal((k, n, width)) * 3
        make = {
            "ce": lambda y, t: CrossEntropyOnLabels(y),
            "ce_width": lambda y, t: CrossEntropyOnLabels(y, width),
            "combined": lambda y, t: CombinedObjective(y, t, tau=5.0, lam=0.45),
        }[kind]
        order = np.stack([rng.permutation(n) for _ in range(k)])
        batch = slice(8, 14)
        z = rng.standard_normal((k, 6, width)) * 2
        stack = make(labels, teacher).rows((np.arange(k)[:, None], order)).rows((slice(None), batch))
        loss, grad = stack.loss_and_logit_grad(z)
        assert loss.shape == (k,)
        for i in range(k):
            one = make(labels[i], teacher[i]).rows(order[i]).rows(batch)
            for name in one.PER_SAMPLE:
                got, want = getattr(stack, name), getattr(one, name)
                assert got is want is None or np.array_equal(got[i], want)
            want_loss, want_grad = one.loss_and_logit_grad(z[i])
            assert loss[i] == want_loss
            assert np.array_equal(grad[i], want_grad)
