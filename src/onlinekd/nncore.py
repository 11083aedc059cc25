"""Dense neural-network substrate for small multi-layer perceptrons.

Everything here is plain float64 numpy, deterministic under a seed:
row-major batches, exact backprop for the fixed MLP topology, and the
training-stabilization stack used for large models (learning-rate warmup,
symmetric activation clipping after ReLU, and per-layer multiplicative
update clipping layered on Adam).

Each MLP keeps its parameters in one flat buffer that its layers' arrays
view; its gradients and Adam moments share that layout, so an optimizer
step is one fused pass. A buffer with a leading member axis, (S, P), holds
S MLPs of one topology that the forward and backward passes run together
(one batched matmul per layer). A ranker.ModelStack, whose stacked MLPs
view one larger buffer block by block, steps the same way, in one pass
over it.

The forward pass keeps only what backprop reads: each layer's input and
the MLP's output. The backward pass works out each ReLU layer's gradient
mask from that layer's output, which the forward leaves read-only, so a
caller that does not backpropagate drops the whole cache with the call.

Non-finite values are treated as model divergence and raise
:class:`~onlinekd.errors.DivergenceError` instead of propagating silently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

RELU = "relu"
IDENTITY = "identity"

_CLIPPY_EPS = 1e-12


@dataclass
class Layer:
    """One dense layer: y = activation(x @ weights + bias).

    weights has shape (..., fan_in, fan_out), bias shape (..., fan_out);
    the leading axes, if any, index the members of a stacked MLP.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        if self.weights.ndim < 2 or self.bias.ndim != self.weights.ndim - 1:
            raise ValueError("layer weights must be 2-D and bias 1-D (per member)")
        if self.bias.shape != self.weights.shape[:-2] + self.weights.shape[-1:]:
            raise ValueError(f"bias {self.bias.shape} does not match weights {self.weights.shape}")
        if self.activation not in (RELU, IDENTITY):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[-2]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[-1]


@dataclass
class Mlp:
    """A stack of dense layers with chained dimensions over one flat buffer.

    params holds each layer's weights (row-major), then its bias, layer by
    layer, and the layers' arrays are rebound to views of it; a params
    passed in (a block of a larger buffer) receives the layers' values.
    starts and sizes are each layer's offset and length in its last axis,
    and layer_names names each layer in a divergence message.
    """

    layers: list[Layer]
    params: np.ndarray | None = None
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    layer_names: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        lead = self.layers[0].weights.shape[:-2]
        for k in range(1, len(self.layers)):
            if self.layers[k].fan_in != self.layers[k - 1].fan_out:
                raise ValueError(
                    f"layer {k} input dim {self.layers[k].fan_in} does not chain "
                    f"with layer {k - 1} output dim {self.layers[k - 1].fan_out}"
                )
            if self.layers[k].weights.shape[:-2] != lead:
                raise ValueError(f"layer {k} has a different member shape")
        self.sizes = np.array([(l.fan_in + 1) * l.fan_out for l in self.layers])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.layer_names = [f"layer {k}" for k in range(len(self.layers))]
        shape = (*lead, int(self.sizes.sum()))
        if self.params is None:
            self.params = np.empty(shape)
        for layer, (w, b) in zip(self.layers, self.split(self.params)):
            w[...] = layer.weights
            b[...] = layer.bias
            layer.weights, layer.bias = w, b

    @property
    def in_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def out_dim(self) -> int:
        return self.layers[-1].fan_out

    def split(self, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, bias) views of a buffer laid out like params."""
        lead = buf.shape[:-1]
        views = []
        for layer, at in zip(self.layers, self.starts):
            n = layer.fan_in * layer.fan_out
            w = buf[..., at:at + n].reshape(*lead, layer.fan_in, layer.fan_out)
            views.append((w, buf[..., at + n:at + n + layer.fan_out]))
        return views


def make_mlp(
    dims: list[int],
    rng: np.random.Generator,
    *,
    output_activation: str = IDENTITY,
    members: int | None = None,
) -> Mlp:
    """Build an MLP with the given dimension chain, He-uniform initialized.

    dims = [in, h1, ..., out]. Hidden layers use ReLU; the final layer uses
    output_activation (Identity for a logit head, ReLU for a shared trunk
    whose output feeds further layers). members=S stacks S MLPs on a leading
    axis, drawn one member after another, so member i holds exactly what the
    i-th of S separate calls would have drawn.
    """
    if len(dims) < 2:
        raise ValueError("dims must list at least input and output size")
    lead = () if members is None else (members,)
    last = len(dims) - 2
    mlp = Mlp([
        Layer(np.zeros((*lead, fan_in, fan_out)), np.zeros((*lead, fan_out)),
              output_activation if k == last else RELU)
        for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))
    ])
    for member in np.ndindex(lead):
        for layer in mlp.layers:
            limit = np.sqrt(6.0 / layer.fan_in)
            layer.weights[member] = rng.uniform(-limit, limit, size=layer.weights.shape[-2:])
    return mlp


@dataclass
class ForwardCache:
    """The activations mlp_forward keeps, all that exact backprop reads.

    activations[k] is layer k's input and activations[-1] the MLP's output.
    A ReLU layer's gradient mask is worked out from its output: out > 0, and
    also out < clip under an activation clip. The post-ReLU output lies in
    (0, clip) exactly when the pre-activation does, so this is the mask of
    the pre-activation: dead and clip-saturated units get zero gradient.
    ReLU outputs are read-only, so no later write can change a mask.
    """

    activations: list[np.ndarray]
    clip: float | None


def mlp_forward(
    mlp: Mlp, x: np.ndarray, clip: float | None = None, *, job: str | Sequence[str] | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the MLP on a batch, returning output and a backprop cache.

    x is (B, in_dim); a stacked MLP runs each member on it (or member s on
    x[s], broadcasting over the leading axes) and returns (S, B, out_dim).
    clip, when set, clamps every ReLU layer's activations to [-clip, +clip]
    after the nonlinearity (lower bound inert post-ReLU, kept symmetric).
    A non-finite output raises with job, or, when job is a sequence naming
    each index of the output's first axis, with the first index's name
    whose output is non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != mlp.in_dim:
        raise ValueError(f"input shape {x.shape} does not match model input dim {mlp.in_dim}")
    if clip is not None and clip <= 0:
        raise ValueError("activation clip must be positive")
    a = x
    activations = [a]
    for layer in mlp.layers:
        a = a @ layer.weights
        a += layer.bias[..., None, :]
        if layer.activation == RELU:
            np.maximum(a, 0.0, out=a)
            if clip is not None:
                np.minimum(a, clip, out=a)
            a.flags.writeable = False
        activations.append(a)
    if not np.isfinite(a).all():
        if job is not None and not isinstance(job, str):
            bad = ~np.isfinite(a).reshape(len(job), -1).all(axis=1)
            job = job[int(np.argmax(bad))]
        raise DivergenceError("non-finite values in mlp output", job=job)
    return a, ForwardCache(activations, clip)


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, out_grad: np.ndarray, *, input_grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backpropagate out_grad through the MLP.

    Returns the parameter gradient, laid out like mlp.params (mlp.split
    gives its per-layer (dW, db) views; a member's is its row), plus the
    gradient with respect to the input batch, or None with input_grad=False.
    Dead-ReLU and clip-saturated positions receive zero gradient via masks
    worked out from the cached outputs.
    """
    out_grad = np.asarray(out_grad, dtype=np.float64)
    acts = cache.activations
    if len(acts) != len(mlp.layers) + 1:
        raise ValueError("cache does not match this model (layer count)")
    batch = acts[0].shape[-2]
    expected = (*mlp.params.shape[:-1], batch, mlp.out_dim)
    if out_grad.shape != expected:
        raise ValueError(f"out_grad shape {out_grad.shape} does not match {expected}")
    grads = np.empty_like(mlp.params)
    views = mlp.split(grads)
    g = out_grad
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        x_in, out = acts[k], acts[k + 1]
        if x_in.shape[-2:] != (batch, layer.fan_in):
            raise ValueError(f"stale cache at layer {k}: shape mismatch")
        if layer.activation == RELU:
            live = out > 0.0
            if cache.clip is not None:
                live &= out < cache.clip
            if g is out_grad:  # the caller's array
                g = g * live
            else:
                g *= live
        gw, gb = views[k]
        np.matmul(x_in.swapaxes(-1, -2), g, out=gw)
        if layer.fan_out == 1:
            g.sum(axis=-2, out=gb)  # pairwise, along the contiguous batch axis
        else:
            # row by row, as sum adds across the batch, without its per-row loop
            np.einsum("...bn->...n", g, out=gb)
        if k or input_grad:
            # a width-1 layer's input gradient has one product per entry, as
            # the matmul would, without a gemm call per member
            wt = layer.weights.swapaxes(-1, -2)
            g = g * wt if layer.fan_out == 1 else g @ wt
    return grads, g if input_grad else None


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass(frozen=True)
class ClippyConfig:
    """Per-layer multiplicative update clipping.

    The whole layer update u is scaled by
    c = min(1, (sigma_rel * ||w||_inf + sigma_abs) / (||u||_inf + 1e-12)),
    bounding the applied step relative to the layer's current magnitude.
    """

    sigma_rel: float = 0.1
    sigma_abs: float = 1e-3

    def __post_init__(self) -> None:
        if self.sigma_rel < 0 or self.sigma_abs < 0:
            raise ValueError("clippy sigmas must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer stack configuration for one model."""

    base_lr: float = 0.02
    warmup_steps: int = 0
    activation_clip: float | None = None
    clippy: ClippyConfig | None = None
    adam: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.activation_clip is not None and self.activation_clip <= 0:
            raise ValueError("activation_clip must be positive")


def warmup_factor(step: int, warmup_steps: int) -> float:
    """Linear warmup fraction min(1, step / warmup_steps); 1 when disabled."""
    if warmup_steps <= 0:
        return 1.0
    return min(1.0, step / warmup_steps)


@dataclass
class OptState:
    """Adam moments laid out like one flat params buffer (an Mlp's, or a
    whole stack's), plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "OptState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def optimizer_step(
    mlp: Mlp,
    grads: np.ndarray,
    state: OptState,
    cfg: TrainConfig,
    *,
    job: str | Sequence[str] | None = None,
) -> None:
    """Apply one warmup-scaled Adam step with optional per-layer update clipping.

    mlp is one MLP, or a ranker.ModelStack laid out like one (a 1-D params
    buffer with its layers' starts, sizes and layer_names), and grads is
    laid out like its params. Mutates the parameters and state in place in
    one pass over the flat buffer, with Clippy's per-layer norms from one
    reduceat over the layer offsets. A non-finite gradient raises before anything moves,
    naming its layer, and with job, or job[k] for layer k when job is a
    sequence naming each layer's model. The effective learning rate is
    base_lr * min(1, step / warmup_steps) evaluated at the pre-increment
    step counter, so the very first step under warmup applies a zero update.
    """
    if mlp.params.ndim != 1 or grads.shape != mlp.params.shape or state.m.shape != grads.shape:
        raise ValueError("gradient/state layout does not match the model's parameters")
    if not np.isfinite(grads).all():
        first = np.flatnonzero(~np.isfinite(grads))[0]
        k = int(np.searchsorted(mlp.starts, first, side="right")) - 1
        if job is not None and not isinstance(job, str):
            job = job[k]
        raise DivergenceError(f"non-finite gradient in {mlp.layer_names[k]}", job=job)
    t = state.step
    lr = cfg.base_lr * warmup_factor(t, cfg.warmup_steps)
    b1, b2, eps = cfg.adam.beta1, cfg.adam.beta2, cfg.adam.epsilon
    bc1 = 1.0 - b1 ** (t + 1)
    bc2 = 1.0 - b2 ** (t + 1)
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * np.square(grads)
    u = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    if cfg.clippy is not None:
        w_norm = np.maximum.reduceat(np.abs(mlp.params), mlp.starts)
        u_norm = np.maximum.reduceat(np.abs(u), mlp.starts)
        c = (cfg.clippy.sigma_rel * w_norm + cfg.clippy.sigma_abs) / (u_norm + _CLIPPY_EPS)
        u *= np.repeat(np.minimum(1.0, c), mlp.sizes)
    mlp.params -= u
    state.step = t + 1
