import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skdlab.capacity import bac_channel
from skdlab.data import Dataset
from skdlab.hierarchy import build_task_preset
from skdlab.losses import (
    CombinedObjective,
    CrossEntropyOnLabels,
    DistillAgainstTeacher,
)
from skdlab.network import (
    CHECKPOINT_FORMAT,
    EPS,
    DenseNetwork,
    GradientSet,
    OptimizerState,
    backward,
    forward,
    init_network,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    softmax_and_log_softmax,
    softmax_temperature,
)
from skdlab.training import Metrics, TrainResult


class TestInitNetwork:
    def test_parameter_count(self):
        net = init_network([2, 4, 3], seed=1)
        assert net.params.size == 2 * 4 + 4 + 4 * 3 + 3  # 27

    def test_fan_in_bounds_and_zero_biases(self):
        net = init_network([10, 50, 3], seed=7)
        for w, fan_in in zip(net.weights, (10, 50)):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_deterministic_and_seed_sequences(self):
        a = init_network([3, 5, 2], seed=[11, 0])
        b = init_network([3, 5, 2], seed=[11, 0])
        c = init_network([3, 5, 2], seed=[12, 0])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))

    @pytest.mark.parametrize("dims", [[3], [], [2, 0, 3], [2, -1]])
    def test_bad_dims(self, dims):
        with pytest.raises(ValueError):
            init_network(dims, seed=0)


class TestForward:
    def test_single_vs_batch(self):
        net = init_network([3, 4, 2], seed=0)
        X = np.random.default_rng(0).standard_normal((5, 3))
        batch = forward(net, X)
        for i in range(5):
            # single-row and batched BLAS paths may differ in the last ulp
            np.testing.assert_allclose(forward(net, X[i : i + 1])[0], batch[i], rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="2-D"):
            forward(net, X[0])

    def test_permutation_equivariant(self):
        net = init_network([3, 6, 4], seed=2)
        X = np.random.default_rng(1).standard_normal((7, 3))
        perm = np.random.default_rng(2).permutation(7)
        np.testing.assert_array_equal(forward(net, X)[perm], forward(net, X[perm]))

    def test_dimension_check(self):
        net = init_network([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((5, 4)))

    def test_rejects_non_finite_input(self):
        net = init_network([2, 3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, np.array([[1.0, np.nan]]))

    def test_logits_are_bit_identical_at_one_and_two_blas_threads(self):
        # a teacher's 64->32 layer over a full 788-row split is the one product in the lab
        # that wakes OpenBLAS's second thread
        one, two = logit_bytes_at_one_and_two_threads("init_network((2, 64, 32, 4), 7)", (788, 2))
        assert len(one) == 788 * 4 * 8
        assert one == two

    def test_stack_logits_are_bit_identical_at_one_and_two_blas_threads(self):
        stack = (
            "DenseNetwork((2, 64, 32, 4), *(list(map(np.stack, zip(*(getattr(n, part) for n in nets)))) "
            "for part in ('weights', 'biases')))"
        )
        nets = "nets = [init_network((2, 64, 32, 4), s) for s in (7, 8, 9)]; "
        one, two = logit_bytes_at_one_and_two_threads(stack, (3, 788, 2), nets)
        assert len(one) == 3 * 788 * 4 * 8
        assert one == two


def logit_bytes_at_one_and_two_threads(net, shape, setup=""):
    """The raw bytes of forward's logits, from one child process at each OpenBLAS thread count."""
    code = (
        "import sys, numpy as np; from skdlab.network import DenseNetwork, forward, init_network; "
        f"{setup}x = np.random.default_rng(7).standard_normal({shape}); "
        f"sys.stdout.buffer.write(forward({net}, x).tobytes())"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    logits = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        logits.append(proc.stdout)
    return logits


class TestSoftmax:
    def test_known_value(self):
        # sigma([2,0]) = [e^2, 1] / (e^2 + 1)
        expected = np.array([np.exp(2.0), 1.0]) / (np.exp(2.0) + 1.0)
        got = softmax_temperature(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, [0.880797, 0.119203], atol=1e-6)

    @pytest.mark.parametrize("tau", [1.0, 5.0, 128.0, 1e9])
    def test_probability_vector_for_extreme_logits(self, tau):
        z = np.array([[1e4, 0.0, -1e4], [700.0, 699.0, -700.0]])
        p = softmax_temperature(z, tau)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_argmax_invariant_under_temperature(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((40, 6))
        base = np.argmax(z, axis=1)
        for tau in (0.01, 1.0, 5.0, 128.0):
            np.testing.assert_array_equal(
                np.argmax(softmax_temperature(z, tau), axis=1), base
            )

    def test_tau_must_be_positive(self):
        for tau in (0.0, float("nan")):
            with pytest.raises(ValueError):
                softmax_temperature(np.zeros(3), tau)

    def test_log_softmax_consistency(self):
        z = np.random.default_rng(4).standard_normal((9, 5)) * 30
        np.testing.assert_allclose(
            np.exp(softmax_and_log_softmax(z, 5.0)[1]),
            softmax_temperature(z, 5.0),
            rtol=1e-13,
        )


class TestBackward:
    def _finite_diff(self, net, X, spec, h=1e-5):
        grads = []
        for arr in net.weights + net.biases:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = backward(net, X, spec)
                arr[idx] = orig - h
                down, _ = backward(net, X, spec)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
        return grads

    @pytest.mark.parametrize("kind", ["ce", "distill", "combined"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        net = init_network([3, 6, 4], seed=int(rng.integers(2**31)))
        X = rng.standard_normal((5, 3))
        labels = rng.integers(0, 4, size=5)
        teacher_logits = rng.standard_normal((5, 4))
        spec = {
            "ce": CrossEntropyOnLabels(labels),
            "distill": DistillAgainstTeacher(teacher_logits, tau=5.0),
            "combined": CombinedObjective(labels, teacher_logits, tau=5.0, lam=0.45),
        }[kind]
        _, grads = backward(net, X, spec)
        numeric = self._finite_diff(net, X, spec)
        analytic = grads.d_weights + grads.d_biases
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
            assert rel.max() < 1e-4

    def test_empty_batch_rejected(self):
        net = init_network([2, 3, 2], seed=0)
        with pytest.raises(ValueError):
            backward(net, np.zeros((0, 2)), CrossEntropyOnLabels(np.array([], dtype=int)))

    @pytest.mark.parametrize("features", [np.zeros(2), np.zeros((1, 3))], ids=["1-D", "width"])
    def test_input_shape_checked_as_in_forward(self, features):
        net = init_network([2, 3, 2], seed=0)
        with pytest.raises(ValueError, match="feature"):
            forward(net, features)
        with pytest.raises(ValueError, match="feature"):
            backward(net, features, CrossEntropyOnLabels(np.array([0])))

    def test_gradients_share_the_parameter_layout(self):
        rng = np.random.default_rng(8)
        net = init_network([3, 5, 4, 2], seed=8)
        spec = CrossEntropyOnLabels(np.arange(6) % 2)
        _, grads = backward(net, rng.standard_normal((6, 3)), spec)
        assert grads.flat.shape == net.params.shape
        np.testing.assert_array_equal(grads.flat, flat(grads.d_weights + grads.d_biases))
        grads.d_weights[1][2, 3] = 7.0  # layer 1 starts after layer 0's 3 x 5 weights
        assert grads.flat[3 * 5 + 2 * 4 + 3] == 7.0
        np.testing.assert_array_equal(grads.flat, flat(grads.d_weights + grads.d_biases))

    def test_writes_into_a_given_gradient_set(self):
        rng = np.random.default_rng(9)
        net = init_network([3, 5, 4, 2], seed=9)
        spec = CrossEntropyOnLabels(np.arange(6) % 2)
        X = rng.standard_normal((6, 3))
        _, g = backward(net, rng.standard_normal((6, 3)), spec)  # holds another batch's gradients
        buffer = g.flat
        want_loss, want = backward(net, X, spec)
        loss, got = backward(net, X, spec, out=g)
        assert got is g and got.flat is buffer
        assert loss == want_loss
        assert np.array_equal(g.flat, want.flat)
        assert all(np.shares_memory(a, buffer) for a in g.d_weights + g.d_biases)


def stack_of(nets):
    """One DenseNetwork holding the given same-shape networks along a leading axis."""
    parts = [[np.stack(arrays) for arrays in zip(*(getattr(n, name) for n in nets))]
             for name in ("weights", "biases")]
    return DenseNetwork(nets[0].layer_dims, *parts)


def stack_specs(kind, rng, k, n=10, width=4):
    """A spec over a (k, n) label stack and the k per-network specs it stacks."""
    labels = rng.integers(0, width, size=(k, n))
    teacher = rng.standard_normal((k, n, width)) * 3
    make = {
        "ce": lambda y, t: CrossEntropyOnLabels(y),
        "ce_width": lambda y, t: CrossEntropyOnLabels(y, width),
        "combined": lambda y, t: CombinedObjective(y, t, tau=5.0, lam=0.45),
    }[kind]
    return make(labels, teacher), [make(y, t) for y, t in zip(labels, teacher)]


class TestStack:
    """A stack of k networks gives each slice the bits of that network's own 2-D calls."""

    @pytest.mark.parametrize("kind", ["ce", "ce_width", "combined"])
    def test_forward_backward_and_step_match_each_network(self, kind):
        rng = np.random.default_rng(31)
        nets = [init_network([3, 6, 5, 4], seed=s) for s in (1, 2, 3)]
        stack = stack_of(nets)
        assert stack.params.shape == (3, nets[0].params.size)
        X = rng.standard_normal((3, 10, 3))
        spec, specs = stack_specs(kind, rng, 3)
        logits = forward(stack, X)
        loss, grads = backward(stack, X, spec)
        state = OptimizerState(learning_rate=0.01)
        optimizer_step(stack, grads, state)
        for i, (net, x, one) in enumerate(zip(nets, X, specs)):
            assert np.array_equal(logits[i], forward(net, x))
            want_loss, want = backward(net, x, one)
            assert loss[i] == want_loss
            for got_view, want_view in zip((grads.flat, *grads.d_weights, *grads.d_biases),
                                           (want.flat, *want.d_weights, *want.d_biases)):
                assert np.array_equal(got_view[i], want_view)
            one_state = OptimizerState(learning_rate=0.01)
            optimizer_step(net, want, one_state)
            assert np.array_equal(stack.params[i], net.params)
            assert np.array_equal(state.m[i], one_state.m) and np.array_equal(state.v[i], one_state.v)

    def test_features_must_carry_the_stack_axis(self):
        stack = stack_of([init_network([2, 3, 2], seed=s) for s in (1, 2)])
        with pytest.raises(ValueError, match="3-D"):
            forward(stack, np.zeros((4, 2)))

    def test_leading_axes_must_agree(self):
        nets = [init_network([2, 3, 2], seed=s) for s in (1, 2)]
        weights = [np.stack([w, w]) for w in nets[0].weights]
        with pytest.raises(ValueError, match="do not match layer_dims"):
            DenseNetwork((2, 3, 2), weights, [np.stack([b] * 3) for b in nets[0].biases])


def loop_adam_step(weights, biases, grads, moments, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Per-layer Adam loop: the reference the flat optimizer_step must match bit for bit."""
    m_w, v_w, m_b, v_b = moments
    for i in range(len(weights)):
        m_w[i] = b1 * m_w[i] + (1 - b1) * grads.d_weights[i]
        v_w[i] = b2 * v_w[i] + (1 - b2) * grads.d_weights[i] ** 2
        m_hat = m_w[i] / (1 - b1 ** t)
        v_hat = v_w[i] / (1 - b2 ** t)
        weights[i] -= lr * m_hat / (np.sqrt(v_hat) + eps) + lr * wd * weights[i]

        m_b[i] = b1 * m_b[i] + (1 - b1) * grads.d_biases[i]
        v_b[i] = b2 * v_b[i] + (1 - b2) * grads.d_biases[i] ** 2
        m_hat = m_b[i] / (1 - b1 ** t)
        v_hat = v_b[i] / (1 - b2 ** t)
        biases[i] -= lr * m_hat / (np.sqrt(v_hat) + eps) + lr * wd * biases[i]


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestOptimizerStep:
    @pytest.mark.parametrize("overwrite_weights", [False, True])
    def test_matches_per_layer_loop(self, overwrite_weights):
        rng = np.random.default_rng(21)
        net = init_network([3, 7, 5, 4], seed=4)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        moments = tuple([np.zeros_like(a) for a in arrays] for arrays in (ref_w, ref_w, ref_b, ref_b))
        state = OptimizerState(learning_rate=0.01)
        for step in range(1, 7):
            if overwrite_weights and step == 3:
                net.weights[0][...] = rng.standard_normal((3, 7))
                ref_w[0] = net.weights[0].copy()
            X = rng.standard_normal((9, 3))
            _, grads = backward(net, X, CrossEntropyOnLabels(rng.integers(0, 4, size=9)))
            lr = state.learning_rate
            optimizer_step(net, grads, state)
            loop_adam_step(ref_w, ref_b, grads, moments, step, lr, state.weight_decay)
            state.end_epoch()
            for got, want in zip(net.weights + net.biases, ref_w + ref_b):
                assert np.array_equal(got, want)
            m_w, v_w, m_b, v_b = moments
            assert np.array_equal(state.m, flat(m_w + m_b))
            assert np.array_equal(state.v, flat(v_w + v_b))

    def test_layer_arrays_cannot_be_replaced(self):
        net = init_network([3, 7, 4], seed=4)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((3, 7))
        with pytest.raises(TypeError):
            net.biases[1] = np.zeros(4)

    def _one_param_net(self, w0):
        net = init_network([1, 1], seed=0)
        net.weights[0][...] = w0
        return net

    def test_zero_gradients_fixed_point(self):
        net = init_network([2, 3, 2], seed=5)
        before = [w.copy() for w in net.weights]
        state = OptimizerState(weight_decay=0.0)
        _, grads = backward(net, np.zeros((1, 2)), CrossEntropyOnLabels(np.array([0])))
        for g in grads.d_weights + grads.d_biases:
            g[...] = 0.0
        optimizer_step(net, grads, state)
        for w, b4 in zip(net.weights, before):
            np.testing.assert_array_equal(w, b4)

    def test_single_step_matches_hand_update(self):
        # fresh moments: m_hat = g, v_hat = g^2, so the step is
        # w - lr*g/(|g|+eps) - lr*wd*w
        net = self._one_param_net(1.0)
        state = OptimizerState(learning_rate=0.1, weight_decay=5e-4)
        g = 0.7
        _, grads = backward(net, np.ones((1, 1)), CrossEntropyOnLabels(np.array([0])))
        grads.d_weights[0][...] = g
        grads.d_biases[0][...] = 0.0
        optimizer_step(net, grads, state)
        expected = 1.0 - 0.1 * g / (np.sqrt(g**2) + EPS) - 0.1 * 5e-4 * 1.0
        np.testing.assert_allclose(net.weights[0][0, 0], expected, rtol=0, atol=1e-15)

    def test_descent_direction(self):
        net = self._one_param_net(1.0)
        state = OptimizerState(learning_rate=0.1, weight_decay=0.0)
        _, grads = backward(net, np.ones((1, 1)), CrossEntropyOnLabels(np.array([0])))
        grads.d_weights[0][...] = 1.0
        optimizer_step(net, grads, state)
        assert net.weights[0][0, 0] < 1.0

    def test_state_monotonicity(self):
        net = init_network([2, 2], seed=6)
        state = OptimizerState()
        for _ in range(2):
            _, grads = backward(net, np.ones((1, 2)), CrossEntropyOnLabels(np.array([1])))
            optimizer_step(net, grads, state)
        assert state.step == 2
        assert np.all(state.v > 0)

    def test_epoch_boundary_decays_learning_rate(self):
        state = OptimizerState(learning_rate=1e-3, lr_decay=0.91)
        state.end_epoch()
        assert state.learning_rate == pytest.approx(9.1e-4)

    def test_non_finite_gradients_rejected(self):
        net = init_network([2, 2], seed=0)
        state = OptimizerState()
        _, grads = backward(net, np.ones((1, 2)), CrossEntropyOnLabels(np.array([0])))
        grads.d_weights[0][0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            optimizer_step(net, grads, state)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = init_network([3, 8, 4], seed=9)
        p = tmp_path / "net.json"
        save_checkpoint(net, p, extra={"label_level": "subclass"})
        back, meta = load_checkpoint(p)
        assert back.layer_dims == net.layer_dims
        assert meta["label_level"] == "subclass"
        for a, b in zip(back.weights, net.weights):
            np.testing.assert_array_equal(a, b)  # repr floats survive exactly

    def test_extra_key_collision(self, tmp_path):
        net = init_network([2, 2], seed=0)
        with pytest.raises(ValueError):
            save_checkpoint(net, tmp_path / "x.json", extra={"weights": []})

    def test_format_tag_checked(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "other", "layer_dims": [2, 2]}))
        with pytest.raises(ValueError, match=CHECKPOINT_FORMAT):
            load_checkpoint(p)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = init_network([2, 3, 2], seed=1)
        p = tmp_path / "net.json"
        save_checkpoint(net, p)
        payload = json.loads(p.read_text())
        payload["layer_dims"] = [2, 4, 2]
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))], ids=["deepcopy", "pickle"]
    )
    def test_copy_stays_trainable(self, clone):
        # the copy's weights and biases must view its own params, which the
        # optimizer updates and forward reads
        rng = np.random.default_rng(8)
        net = init_network([3, 6, 2], seed=2)
        X = rng.standard_normal((5, 3))
        c = clone(net)
        assert all(np.shares_memory(a, c.params) for a in c.weights + c.biases)
        assert not np.shares_memory(c.params, net.params)
        before = forward(c, X)
        np.testing.assert_array_equal(before, forward(net, X))
        _, grads = backward(c, X, CrossEntropyOnLabels(rng.integers(0, 2, size=5)))
        optimizer_step(c, grads, OptimizerState(learning_rate=0.01))
        assert not np.array_equal(forward(c, X), before)
        np.testing.assert_array_equal(forward(net, X), before)


@pytest.mark.parametrize(
    "make",
    [
        lambda: init_network([2, 3, 2], 0),
        lambda: GradientSet(np.zeros(2), (np.zeros((1, 1)),), (np.zeros(1),)),
        OptimizerState,
        lambda: Dataset(np.zeros((2, 2)), [0, 3], build_task_preset("SL22")),
        lambda: TrainResult(init_network([2, 3, 2], 0), [1.0]),
        lambda: Metrics(np.eye(2, dtype=int), np.ones(2), np.ones(2), np.ones(2), 1.0, 1.0),
        lambda: DistillAgainstTeacher(np.zeros((1, 2)), 5.0),
        lambda: bac_channel(0.9, 0.8),
    ],
    ids=["DenseNetwork", "GradientSet", "OptimizerState", "Dataset", "TrainResult", "Metrics",
         "DistillAgainstTeacher", "ChannelSpec"],
)
def test_array_holders_compare_by_identity(make):
    # == on two equal holders compares no arrays, so it neither raises nor
    # builds an array; each holder is hashable
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
