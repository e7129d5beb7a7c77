"""Hand-rolled fully connected nets with leaky-rectifier activations.

Forward, exact backprop (parameter and input gradients), and the binary
softmax cross-entropy loss used by every gradient-based attack. The loss is
computed from the logit margin z[+1] - z[-1], which makes it invariant to
adding a constant to both logits by construction. ``forward_cached`` returns
the output together with the cache that ``backward`` consumes, so a gradient
runs the net forward once: callers read their logits from that output and
pass the same cache on. Both passes broadcast over a leading stack axis: a
:func:`stack` of K same-shape nets runs with one batched matmul per layer, and
each net's slice of the result is bit-identical to running that net alone.
Its input is either one (n, d) batch for all K nets or a (K, n, d) array with
one batch per net; its outputs and gradients then carry the leading K axis.
Any further leading axis broadcasts the same way: the attacks put a lane
axis in front, (L, n, d) for a lone net and (L, 1, n, d) for a stack, and
each lane's slice is bit-identical too. The row axis is not: a row's output
can change by a few ulp when its batch of rows is split, because the BLAS
matmul kernel sums a row's products in an order that depends on the batch.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np
from scipy.special import expit

from .fields import at_least, listed, read, real
from .errors import DimensionMismatch, InvalidInput

LEAKY_SLOPE = 0.1
LAYER_SIZES = listed(at_least(1))  # reads the widths of a net's layers, input and output included


@dataclass
class MlpModel:
    """weights[i] has shape (fan_in, fan_out), or (K, fan_in, fan_out) on a
    stack of K nets; scalar or two-logit output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    slope: float = LEAKY_SLOPE

    def __post_init__(self):
        # max(a, slope * a) is the leaky rectifier only for slopes in [0, 1]
        if not 0.0 <= self.slope <= 1.0:
            raise InvalidInput(f"rectifier slope must lie in [0, 1], got {self.slope}")
        if self.out_dim not in (1, 2):
            raise InvalidInput("output dimension must be 1 (scalar g) or 2 (logit pair)")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.in_dim] + [w.shape[-1] for w in self.weights])

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[-1]

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases], self.slope)


def init_mlp(sizes, seed: int, slope: float = LEAKY_SLOPE) -> MlpModel:
    """He-style normal init, deterministic in the seed."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise InvalidInput("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, slope)


def stack(models) -> MlpModel:
    """K nets with equal sizes and slope as one stacked net (weights copied)."""
    sizes, slope = models[0].sizes, models[0].slope
    if any(m.sizes != sizes or m.slope != slope for m in models):
        raise InvalidInput("stacked nets must share layer sizes and slope")
    return MlpModel([np.stack(ws) for ws in zip(*(m.weights for m in models))],
                    [np.stack(bs)[:, None] for bs in zip(*(m.biases for m in models))], slope)


def unstack(model: MlpModel) -> list[MlpModel]:
    """The K lone nets of a stack, as views of its arrays; [model] for a lone net."""
    if model.weights[0].ndim == 2:
        return [model]
    return [MlpModel([w[k] for w in model.weights], [b[k, 0] for b in model.biases], model.slope)
            for k in range(model.weights[0].shape[0])]


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Raw network output, shape (n, out_dim), or (K, n, out_dim) on a stack."""
    return forward_cached(model, X)[0]


def forward_cached(model: MlpModel, X: np.ndarray):
    """Returns (output, preactivations per hidden layer, inputs per layer)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != model.in_dim:
        raise DimensionMismatch(f"input has dim {X.shape[-1]}, model wants {model.in_dim}")
    acts = [X]
    pres = []
    h = X
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = h @ w
        a += b
        if i < len(model.weights) - 1:
            pres.append(a)
            h = model.slope * a
            np.maximum(a, h, out=h)
            acts.append(h)
        else:
            h = a
    return h, pres, acts


def logit_pair_from_output(out: np.ndarray) -> np.ndarray:
    """(..., n, 1) scalar g -> logits (-g, +g); (..., n, 2) passes through."""
    if out.shape[-1] == 1:
        g = out[..., 0]
        return np.stack([-g, g], axis=-1)
    return out


MARGIN_SIGNS = np.array([-1.0, 1.0])  # d margin / d (z_neg, z_pos)


def ce_loss(logits: np.ndarray, y: np.ndarray):
    """Binary softmax cross entropy from the margin; returns (loss, dloss/dlogits).

    y is in {-1, +1}. margin = z_pos - z_neg; loss = log(1 + exp(-y * margin)).
    """
    neg_y = -np.asarray(y, dtype=float)
    z = neg_y * (logits[..., 1] - logits[..., 0])
    return np.logaddexp(0.0, z), (neg_y * expit(z))[..., None] * MARGIN_SIGNS


def backward(model: MlpModel, cache, dout: np.ndarray,
             need_param_grads: bool = True):
    """Backpropagate dL/d(output) through the net.

    cache is the (output, preactivations, inputs) that ``forward_cached``
    returned for the batch; the forward pass is not run again. Returns
    (param_grads, input_grad); param_grads is a list of (dW, db) pairs summed
    over the batch, or None if not requested. On a stack of K nets every array
    has a leading K axis (db is (K, fan_out)), one slice per net; the input
    gradient is (K, n, d) whether the input was (n, d) or (K, n, d).
    """
    out, pres, acts = cache
    if dout.shape != out.shape:
        raise InvalidInput(f"dout shape {dout.shape} != output shape {out.shape}")
    grads = [None] * len(model.weights) if need_param_grads else None
    delta = dout
    for i in reversed(range(len(model.weights))):
        if need_param_grads:
            grads[i] = (acts[i].mT @ delta, delta.sum(axis=-2))
        delta = delta @ model.weights[i].mT
        if i > 0:
            delta = np.where(pres[i - 1] > 0, delta, model.slope * delta)
    return grads, delta


def loss_and_grads(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Cross-entropy loss, parameter and input gradients from one forward pass.

    Returns (per-sample loss, param_grads, input_grad), the gradients as
    :func:`backward` gives them. On a stack, X is (n, d) or (K, n, d) and y
    is (n,) or (K, n).
    """
    cache = forward_cached(model, X)
    out = cache[0]
    loss, dlogits = ce_loss(logit_pair_from_output(out), y)
    dout = dlogits if out.shape[-1] == 2 else (dlogits[..., 1] - dlogits[..., 0])[..., None]
    param_grads, input_grad = backward(model, cache, dout)
    return loss, param_grads, input_grad


# ---------------------------------------------------------------------------
# Serialization: layer sizes + row-major parameter arrays
# ---------------------------------------------------------------------------

def mlp_to_dict(model: MlpModel) -> dict:
    return {
        "sizes": list(model.sizes),
        "slope": model.slope,
        "weights": [w.ravel(order="C").tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


_MLP = {"sizes": (LAYER_SIZES, MISSING), "slope": (real, LEAKY_SLOPE),
        "weights": (listed(listed(real)), MISSING), "biases": (listed(listed(real)), MISSING)}


def mlp_from_dict(d: dict, where: str = "model") -> MlpModel:
    fields = read(d, where, _MLP)
    sizes = fields["sizes"]
    weights = [
        np.array(w, dtype=float).reshape(fan_in, fan_out)
        for w, fan_in, fan_out in zip(fields["weights"], sizes[:-1], sizes[1:])
    ]
    biases = [np.array(b, dtype=float) for b in fields["biases"]]
    return MlpModel(weights, biases, fields["slope"])
