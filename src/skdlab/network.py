"""Minimal dense network with hand-derived gradients.

Fully-connected layers, ReLU hidden activations, linear output layer.
Everything is 64-bit: the finite-difference gradient checks this package
leans on are unreliable in 32-bit.  No framework autodiff anywhere; the
backward pass is the chain rule written out.

A network's parameters live in one flat float64 vector (all weights, then
all biases) that the ``weights`` and ``biases`` tuples view, so a layer can
be written in place but not replaced.  Gradients and the optimizer's moments
are flat vectors of the same layout, so an Adam step is one vectorised update.

Every operation works on the last two axes, so the same code also runs a
stack of k same-shape networks: an optional leading axis on the weights
(k, fan_in, fan_out), the biases (k, fan_out), params (k, P), the features
(k, n, d) and the losses.  Each slice of a stack gets the same bits as that
network alone; a single network stays 2-D.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .hierarchy import whole_number

CHECKPOINT_FORMAT = "skdlab-net-v1"

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(eq=False)
class DenseNetwork:
    """Layer sizes plus parameters; the given arrays are copied into one flat vector.

    The arrays may share a leading stack axis, as in (k, fan_in, fan_out) and
    (k, fan_out): the network is then a stack of k networks and params is (k, P).
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    params: np.ndarray = field(init=False, repr=False)
    _layout: tuple = field(init=False, repr=False)
    _bias_rows: tuple = field(init=False, repr=False)  # each bias as a (..., 1, fan_out) view

    def __post_init__(self):
        dims = self.layer_dims = tuple(whole_number(d, "layer dimension") for d in self.layer_dims)
        shapes = [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:])]
        arrays = list(self.weights) + list(self.biases)
        stack = np.shape(arrays[-1])[:-1] if arrays else ()
        if [np.shape(a) for a in arrays] != [(*stack, *s) for s in shapes]:
            raise ValueError("parameter arrays do not match layer_dims")
        bounds = [0, *itertools.accumulate(math.prod(s) for s in shapes)]
        self._layout = tuple((slice(a, b), s) for a, b, s in zip(bounds, bounds[1:], shapes))
        self.params = np.concatenate([np.reshape(a, (*stack, -1)) for a in arrays], axis=-1, dtype=float)
        self.weights, self.biases = self._views(self.params)
        self._bias_rows = tuple(b[..., None, :] for b in self.biases)

    def __reduce__(self):
        # pickle and deepcopy rebuild the network, so its views share the new params
        return DenseNetwork, (self.layer_dims, self.weights, self.biases)

    def _views(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer weight and bias views of a vector laid out like params."""
        views = tuple(flat[..., piece].reshape(*flat.shape[:-1], *shape) for piece, shape in self._layout)
        return views[: len(self.layer_dims) - 1], views[len(self.layer_dims) - 1 :]

    @property
    def num_outputs(self) -> int:
        return self.layer_dims[-1]


@dataclass(eq=False)
class GradientSet:
    """One flat gradient vector laid out like DenseNetwork.params, and its per-layer views."""

    flat: np.ndarray
    d_weights: tuple[np.ndarray, ...]
    d_biases: tuple[np.ndarray, ...]


def init_network(layer_dims, seed) -> DenseNetwork:
    """Fan-in-scaled uniform init: W ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    seed may be an int or a sequence of ints (a stream key).
    """
    dims = tuple(whole_number(d, "layer dimension") for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dimensions")
    if any(d < 1 for d in dims):
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(dims, weights, biases)


def _forward_pass(net: DenseNetwork, features) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input activations (the checked batch first) and the logits."""
    x = np.asarray(features, dtype=float)
    if x.ndim != net.params.ndim + 1:  # (n, d), or (k, n, d) for a stack
        raise ValueError(f"features must be a {net.params.ndim + 1}-D batch, got {x.ndim} dimension(s)")
    if x.shape[-1] != net.layer_dims[0]:
        raise ValueError(f"feature dim {x.shape[-1]} does not match network input {net.layer_dims[0]}")
    activations = [x]
    for w, b in zip(net.weights[:-1], net._bias_rows[:-1]):
        h = activations[-1] @ w
        h += b
        activations.append(np.maximum(h, 0.0, out=h))
    logits = activations[-1] @ net.weights[-1]
    logits += net._bias_rows[-1]
    return activations, logits


def forward(net: DenseNetwork, features) -> np.ndarray:
    """Logits for a batch (n, d), or (k, n, d) for a stack of k networks."""
    x = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite features")
    return _forward_pass(net, x)[1]


def softmax_and_log_softmax(logits, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Temperature softmax and log-softmax from one max-subtraction, exp and sum pass."""
    if not tau > 0:  # NaN fails this too
        raise ValueError("tau must be positive")
    z = np.asarray(logits, dtype=float)
    if tau != 1:  # dividing by 1 is exact, so it is skipped
        z = z / tau
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    e /= total
    z -= np.log(total)
    return e, z


def softmax_temperature(logits, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax with max-subtraction; tau=1 is the plain softmax."""
    return softmax_and_log_softmax(logits, tau)[0]


def backward(
    net: DenseNetwork, features, loss_spec, out: Optional[GradientSet] = None
) -> tuple[float, GradientSet]:
    """Batch-mean loss and its exact analytic gradients.

    loss_spec supplies the output-layer story: it must expose
    loss_and_logit_grad(logits) -> (loss, dL/dlogits).  The chain
    rule back through the ReLU stack is handled here.  A ReLU output is
    positive exactly where its input is, so the activations double as masks:
    np.sign of one is the 0/1 mask as floats, which multiplies without a cast.
    For a stack of k networks, features are (k, n, d) and the loss has one
    entry per network; a non-finite loss in any of them raises.

    The gradients are written into out, a GradientSet an earlier call
    returned for this network, and out is returned; without it they go into
    a fresh GradientSet.  A training loop passes its last result back in, so
    it allocates one gradient buffer per run.
    """
    activations, logits = _forward_pass(net, features)
    if logits.shape[-2] == 0:
        raise ValueError("empty batch")
    loss, d_logits = loss_spec.loss_and_logit_grad(logits)
    if not math.isfinite(np.add.reduce(loss, axis=None)):
        raise FloatingPointError("non-finite loss")

    if out is None:
        flat = np.empty_like(net.params)
        out = GradientSet(flat, *net._views(flat))
    delta = d_logits
    for li in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[li].swapaxes(-1, -2), delta, out=out.d_weights[li])
        np.add.reduce(delta, axis=-2, out=out.d_biases[li])
        if li > 0:
            delta = delta @ net.weights[li].swapaxes(-1, -2)
            delta *= np.sign(activations[li])
    return loss, out


@dataclass(eq=False)
class OptimizerState:
    """Adaptive-moment optimizer with bias correction and decoupled weight decay.

    The moments m and v (decay rates BETA1, BETA2) are flat vectors in the
    layout of DenseNetwork.params, allocated at the first step together with
    the two work vectors the update is computed in.  The learning rate is
    multiplied by lr_decay at each epoch boundary (call end_epoch once per
    epoch).
    """

    learning_rate: float = 1e-3
    lr_decay: float = 0.91
    weight_decay: float = 5e-4
    step: int = field(default=0, init=False)
    m: Optional[np.ndarray] = field(default=None, init=False)
    v: Optional[np.ndarray] = field(default=None, init=False)
    _work: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, init=False, repr=False)

    def end_epoch(self) -> None:
        self.learning_rate *= self.lr_decay


def optimizer_step(net: DenseNetwork, grads: GradientSet, state: OptimizerState) -> None:
    """One in-place Adam update of the network's flat parameter vector.

    state.m and state.v are updated in place, and grads is only read.  Each
    operation has the operands and order of the textbook expressions
        m = BETA1*m + (1-BETA1)*g;  v = BETA2*v + (1-BETA2)*g**2
        params -= lr*m_hat / (sqrt(v_hat) + EPS) + (lr*wd)*params
    so the result equals theirs to the last bit.
    """
    g = grads.flat
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise FloatingPointError("non-finite gradient")
    params = net.params
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state._work = (np.empty_like(params), np.empty_like(params))
    state.step += 1
    t = state.step
    lr, wd = state.learning_rate, state.weight_decay
    m, v = state.m, state.v
    update, denom = state._work
    m *= BETA1
    m += np.multiply(g, 1 - BETA1, out=update)
    v *= BETA2
    np.square(g, out=update)
    update *= 1 - BETA2
    v += update
    np.divide(m, 1 - BETA1 ** t, out=update)  # m_hat
    update *= lr
    np.divide(v, 1 - BETA2 ** t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    update /= denom
    update += np.multiply(params, lr * wd, out=denom)
    params -= update


# ---------------------------------------------------------------------------
# Checkpoints: JSON with a format tag.  Floats go through repr (shortest
# round-trip decimal), so 64-bit values survive save/load exactly.

def save_checkpoint(net: DenseNetwork, path, extra: dict | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "layer_dims": list(net.layer_dims),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    if extra:
        overlap = set(extra) & set(payload)
        if overlap:
            raise ValueError(f"extra keys collide with checkpoint fields: {sorted(overlap)}")
        payload.update(extra)
    Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(path) -> tuple[DenseNetwork, dict]:
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint")
        for key in ("layer_dims", "weights", "biases"):
            if not isinstance(payload.get(key), list):
                raise ValueError(f"{key} is missing or not a list")
        net = DenseNetwork(
            payload["layer_dims"],
            [np.array(w, dtype=float) for w in payload["weights"]],
            [np.array(b, dtype=float) for b in payload["biases"]],
        )
        if net.params.ndim != 1:  # a checkpoint holds one network, not a stack
            raise ValueError("parameter arrays do not match layer_dims")
        if not np.isfinite(net.params).all():  # json reads NaN and Infinity
            raise ValueError("weights and biases must be finite")
    except (TypeError, ValueError) as exc:  # invalid JSON and non-number entries included
        raise ValueError(f"{path}: {exc}") from exc
    meta = {k: v for k, v in payload.items()
            if k not in {"format", "layer_dims", "weights", "biases"}}
    return net, meta
