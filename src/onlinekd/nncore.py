"""Dense neural-network substrate for small multi-layer perceptrons.

Everything here is plain float64 numpy, deterministic under a seed:
2-D row-major batches, exact backprop for the fixed MLP topology, and the
training-stabilization stack used for large models (learning-rate warmup,
symmetric activation clipping after ReLU, and per-layer multiplicative
update clipping layered on Adam).

Non-finite values are treated as model divergence and raise
:class:`~onlinekd.errors.DivergenceError` instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

RELU = "relu"
IDENTITY = "identity"

_CLIPPY_EPS = 1e-12


def check_finite(name: str, arr: np.ndarray, *, job: str | None = None) -> None:
    """Raise DivergenceError if any entry of arr is NaN or Inf."""
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite values in {name}", job=job, layer=name)


@dataclass
class Layer:
    """One dense layer: y = activation(x @ weights + bias).

    weights has shape (fan_in, fan_out), bias shape (fan_out,).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("layer weights must be 2-D and bias 1-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match "
                f"fan_out {self.weights.shape[1]}"
            )
        if self.activation not in (RELU, IDENTITY):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class Mlp:
    """A stack of dense layers with chained dimensions."""

    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        for k in range(1, len(self.layers)):
            if self.layers[k].fan_in != self.layers[k - 1].fan_out:
                raise ValueError(
                    f"layer {k} input dim {self.layers[k].fan_in} does not chain "
                    f"with layer {k - 1} output dim {self.layers[k - 1].fan_out}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def out_dim(self) -> int:
        return self.layers[-1].fan_out


def make_mlp(
    dims: list[int],
    rng: np.random.Generator,
    *,
    output_activation: str = IDENTITY,
) -> Mlp:
    """Build an MLP with the given dimension chain, He-uniform initialized.

    dims = [in, h1, ..., out]. Hidden layers use ReLU; the final layer uses
    output_activation (Identity for a logit head, ReLU for a shared trunk
    whose output feeds further layers).
    """
    if len(dims) < 2:
        raise ValueError("dims must list at least input and output size")
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        act = output_activation if k == len(dims) - 2 else RELU
        layers.append(Layer(w, b, act))
    return Mlp(layers)


@dataclass
class ForwardCache:
    """Per-layer state captured by mlp_forward, sufficient for exact backprop.

    masks[k] is the ReLU/clip gradient mask for layer k (None for identity
    layers): positions where the unit is dead or the clip saturates get zero
    gradient.
    """

    inputs: list[np.ndarray]
    masks: list[np.ndarray | None]
    batch: int


def mlp_forward(
    mlp: Mlp, x: np.ndarray, clip: float | None = None, *, job: str | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the MLP on a batch, returning output and a backprop cache.

    clip, when set, clamps every ReLU layer's activations to [-clip, +clip]
    after the nonlinearity (lower bound inert post-ReLU, kept symmetric).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not match model input dim {mlp.in_dim}"
        )
    if clip is not None and clip <= 0:
        raise ValueError("activation clip must be positive")
    inputs: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    a = x
    for layer in mlp.layers:
        inputs.append(a)
        z = a @ layer.weights + layer.bias
        if layer.activation == RELU:
            if clip is not None:
                mask = (z > 0.0) & (z < clip)
                a = np.clip(z, 0.0, clip)
            else:
                mask = z > 0.0
                a = np.maximum(z, 0.0)
            masks.append(mask)
        else:
            masks.append(None)
            a = z
    check_finite("mlp output", a, job=job)
    return a, ForwardCache(inputs=inputs, masks=masks, batch=x.shape[0])


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, out_grad: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Backpropagate out_grad through the MLP.

    Returns per-layer (dW, db) in layer order plus the gradient with respect
    to the input batch. Dead-ReLU and clip-saturated positions receive zero
    gradient via the cached masks.
    """
    out_grad = np.asarray(out_grad, dtype=np.float64)
    if len(cache.inputs) != len(mlp.layers):
        raise ValueError("cache does not match this model (layer count)")
    if out_grad.shape != (cache.batch, mlp.out_dim):
        raise ValueError(
            f"out_grad shape {out_grad.shape} does not match "
            f"({cache.batch}, {mlp.out_dim})"
        )
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.layers)  # type: ignore[list-item]
    g = out_grad
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        x_in = cache.inputs[k]
        if x_in.shape != (cache.batch, layer.fan_in):
            raise ValueError(f"stale cache at layer {k}: shape mismatch")
        mask = cache.masks[k]
        dz = g if mask is None else g * mask
        grads[k] = (x_in.T @ dz, dz.sum(axis=0))
        g = dz @ layer.weights.T
    return grads, g


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
    """Adam accumulators shape-matched to one Mlp, plus the step counter."""

    m: list[tuple[np.ndarray, np.ndarray]]
    v: list[tuple[np.ndarray, np.ndarray]]
    step: int = 0

    @classmethod
    def for_mlp(cls, mlp: Mlp) -> "OptState":
        zeros = lambda layer: (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        return cls(
            m=[zeros(layer) for layer in mlp.layers],
            v=[zeros(layer) for layer in mlp.layers],
        )


def optimizer_step(
    mlp: Mlp,
    grads: list[tuple[np.ndarray, np.ndarray]],
    state: OptState,
    cfg: TrainConfig,
    *,
    job: str | None = None,
) -> None:
    """Apply one warmup-scaled Adam step with optional per-layer update clipping.

    Mutates mlp parameters and state in place. The effective learning rate is
    base_lr * min(1, step / warmup_steps) evaluated at the pre-increment step
    counter, so the very first step under warmup applies a zero update.
    """
    if len(grads) != len(mlp.layers) or len(state.m) != len(mlp.layers):
        raise ValueError("gradient/state layer count does not match model")
    for k, (gw, gb) in enumerate(grads):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise DivergenceError(
                f"non-finite gradient in layer {k}", job=job, layer=str(k)
            )
    t = state.step
    lr = cfg.base_lr * warmup_factor(t, cfg.warmup_steps)
    b1, b2, eps = cfg.adam.beta1, cfg.adam.beta2, cfg.adam.epsilon
    bc1 = 1.0 - b1 ** (t + 1)
    bc2 = 1.0 - b2 ** (t + 1)
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(mlp.layers, grads, state.m, state.v):
        mw *= b1
        mw += (1.0 - b1) * gw
        mb *= b1
        mb += (1.0 - b1) * gb
        vw *= b2
        vw += (1.0 - b2) * np.square(gw)
        vb *= b2
        vb += (1.0 - b2) * np.square(gb)
        uw = lr * (mw / bc1) / (np.sqrt(vw / bc2) + eps)
        ub = lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps)
        if cfg.clippy is not None:
            w_norm = max(np.abs(layer.weights).max(), np.abs(layer.bias).max())
            u_norm = max(np.abs(uw).max(), np.abs(ub).max())
            c = min(
                1.0,
                (cfg.clippy.sigma_rel * w_norm + cfg.clippy.sigma_abs)
                / (u_norm + _CLIPPY_EPS),
            )
            uw *= c
            ub *= c
        layer.weights -= uw
        layer.bias -= ub
    state.step = t + 1
