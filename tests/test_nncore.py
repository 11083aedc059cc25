"""MLP substrate: shapes, forward semantics, exact backprop, optimizer stack."""

import numpy as np
import pytest

from onlinekd.errors import DivergenceError
from onlinekd.nncore import (
    IDENTITY,
    RELU,
    AdamConfig,
    ClippyConfig,
    Layer,
    Mlp,
    OptState,
    TrainConfig,
    make_mlp,
    mlp_backward,
    mlp_forward,
    optimizer_step,
    warmup_factor,
)

from oracles import numeric_gradient, relative_error, scalar_adam_trajectory


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((3, 2)), np.zeros(5), RELU)
    with pytest.raises(ValueError):
        Layer(np.zeros((3, 2)), np.zeros(2), "tanh")
    with pytest.raises(ValueError):
        Layer(np.zeros(3), np.zeros(3), RELU)


def test_mlp_chain_validation():
    rng = np.random.default_rng(0)
    good = make_mlp([4, 3, 2], rng)
    assert good.in_dim == 4 and good.out_dim == 2
    bad = [
        Layer(np.zeros((4, 3)), np.zeros(3), RELU),
        Layer(np.zeros((5, 2)), np.zeros(2), IDENTITY),
    ]
    with pytest.raises(ValueError):
        Mlp(bad)
    with pytest.raises(ValueError):
        Mlp([])


def test_make_mlp_init_properties():
    rng = np.random.default_rng(7)
    mlp = make_mlp([10, 8, 3], rng)
    assert [l.activation for l in mlp.layers] == [RELU, IDENTITY]
    for layer in mlp.layers:
        limit = np.sqrt(6.0 / layer.fan_in)
        assert np.all(np.abs(layer.weights) <= limit)
        assert np.all(layer.bias == 0.0)
    shapes = [(l.weights.shape, l.bias.shape) for l in mlp.layers]
    assert shapes == [((10, 8), (8,)), ((8, 3), (3,))]
    # seeded determinism
    again = make_mlp([10, 8, 3], np.random.default_rng(7))
    for a, b in zip(mlp.layers, again.layers):
        assert np.array_equal(a.weights, b.weights)


def test_make_mlp_output_activation_override():
    rng = np.random.default_rng(1)
    trunk = make_mlp([5, 4], rng, output_activation=RELU)
    assert trunk.layers[-1].activation == RELU


def test_forward_identity_layer_is_affine():
    rng = np.random.default_rng(3)
    mlp = make_mlp([4, 2], rng)
    x = rng.standard_normal((6, 4))
    out, _ = mlp_forward(mlp, x)
    expected = x @ mlp.layers[0].weights + mlp.layers[0].bias
    assert np.array_equal(out, expected)


def test_forward_relu_clamps():
    # dead units (z < 0, and z == 0 exactly) get exactly zero gradient
    mlp = Mlp([Layer(np.eye(4), np.zeros(4), RELU)])
    x = np.array([[-1.0, 0.0, 2.5, 0.75]])
    out, cache = mlp_forward(mlp, x)
    assert np.array_equal(out, [[0.0, 0.0, 2.5, 0.75]])
    grads, input_grad = mlp_backward(mlp, cache, np.full((1, 4), 3.0))
    assert np.array_equal(input_grad, [[0.0, 0.0, 3.0, 3.0]])
    (gw, gb), = mlp.split(grads)
    assert np.array_equal(gb, [0.0, 0.0, 3.0, 3.0])
    assert np.array_equal(gw, 3.0 * x.T * [0.0, 0.0, 1.0, 1.0])


def test_forward_activation_clip_and_mask():
    # clip-saturated units (z > clip, and z == clip exactly) and dead units
    # get exactly zero gradient; units strictly inside (0, clip) do not
    mlp = Mlp([Layer(np.eye(6), np.zeros(6), RELU)])
    x = np.array([[0.5, 1.0, 3.0, 0.0, -2.0, 0.999]])
    out, cache = mlp_forward(mlp, x, clip=1.0)
    assert np.array_equal(out, [[0.5, 1.0, 1.0, 0.0, 0.0, 0.999]])
    live = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    grads, input_grad = mlp_backward(mlp, cache, np.full((1, 6), 2.0))
    assert np.array_equal(input_grad, [2.0 * live])
    (gw, gb), = mlp.split(grads)
    assert np.array_equal(gb, 2.0 * live)
    assert np.array_equal(gw, 2.0 * x.T * live)
    with pytest.raises(ValueError):
        mlp_forward(mlp, x, clip=0.0)


def test_forward_cache_holds_layer_inputs_and_read_only_relu_outputs():
    rng = np.random.default_rng(8)
    trunk = make_mlp([3, 4, 5], rng, output_activation=RELU)
    head = make_mlp([5, 2], rng)
    x = rng.standard_normal((6, 3))
    out, cache = mlp_forward(trunk, x, clip=1.0)
    assert len(cache.activations) == 3 and cache.activations[-1] is out
    assert np.array_equal(cache.activations[0], x)
    # a write to a ReLU output would silently change the backward's mask
    for relu_out in cache.activations[1:]:
        with pytest.raises(ValueError):
            relu_out[0, 0] = 0.5
    logits, head_cache = mlp_forward(head, out)
    logits[0, 0] = 0.0  # an identity output masks nothing and stays writable
    assert head_cache.activations[0] is out


def test_forward_shape_and_divergence_errors():
    rng = np.random.default_rng(0)
    mlp = make_mlp([3, 2], rng)
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.zeros((4, 5)))
    mlp.layers[0].weights[0, 0] = np.inf
    with pytest.raises(DivergenceError) as err:
        mlp_forward(mlp, np.ones((1, 3)), job="teacher")
    assert err.value.job == "teacher"


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for dims, clip in [([5, 7, 3], None), ([4, 6, 6, 2], None), ([5, 8, 2], 0.9)]:
        mlp = make_mlp(dims, rng)
        x = rng.standard_normal((9, dims[0]))
        r = rng.standard_normal((9, dims[-1]))  # fixed projection: loss is smooth

        def loss():
            out, _ = mlp_forward(mlp, x, clip=clip)
            return float(np.sum(out * r))

        out, cache = mlp_forward(mlp, x, clip=clip)
        grads, input_grad = mlp_backward(mlp, cache, r)
        arrays = [a for layer in mlp.layers for a in (layer.weights, layer.bias)]
        numeric = numeric_gradient(loss, arrays, eps=1e-6)
        analytic = [g for pair in mlp.split(grads) for g in pair]
        assert relative_error(numeric, analytic) < 1e-7
        # input gradient via FD on x
        numeric_x = numeric_gradient(loss, [x], eps=1e-6)[0]
        assert relative_error([numeric_x], [input_grad]) < 1e-7


def test_backward_rejects_stale_cache():
    rng = np.random.default_rng(2)
    mlp = make_mlp([3, 4, 2], rng)
    other = make_mlp([3, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    _, cache = mlp_forward(mlp, x)
    with pytest.raises(ValueError):
        mlp_backward(other, cache, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        mlp_backward(mlp, cache, np.zeros((4, 3)))


def test_warmup_factor():
    assert warmup_factor(0, 0) == 1.0
    assert warmup_factor(5, 0) == 1.0
    assert warmup_factor(0, 10) == 0.0
    assert warmup_factor(5, 10) == 0.5
    assert warmup_factor(10, 10) == 1.0
    assert warmup_factor(25, 10) == 1.0
    # nondecreasing
    vals = [warmup_factor(t, 7) for t in range(30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(activation_clip=-2.0)
    with pytest.raises(ValueError):
        ClippyConfig(sigma_rel=-0.1)


def test_adam_matches_scalar_reference():
    cfg = TrainConfig(
        base_lr=0.05, warmup_steps=4, adam=AdamConfig(beta1=0.9, beta2=0.999, epsilon=1e-8)
    )
    rng = np.random.default_rng(5)
    grad_seq = rng.standard_normal(12).tolist()
    w0 = 0.3
    layer = Layer(np.array([[w0]]), np.zeros(1), IDENTITY)
    mlp = Mlp([layer])
    state = OptState.for_params(mlp.params)
    expected = scalar_adam_trajectory(
        grad_seq, cfg.base_lr, cfg.warmup_steps, 0.9, 0.999, 1e-8, w0=w0
    )
    got = []
    for g in grad_seq:
        optimizer_step(mlp, np.array([g, 0.0]), state, cfg)
        got.append(float(layer.weights[0, 0]))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    assert state.step == len(grad_seq)


def test_adam_with_clippy_matches_scalar_reference():
    cfg = TrainConfig(
        base_lr=0.5,
        adam=AdamConfig(beta1=0.0, beta2=0.0, epsilon=1e-8),
        clippy=ClippyConfig(sigma_rel=0.1, sigma_abs=1e-3),
    )
    w0 = 1.0
    layer = Layer(np.array([[w0]]), np.zeros(1), IDENTITY)
    mlp = Mlp([layer])
    state = OptState.for_params(mlp.params)
    # with beta1=beta2=0 the raw Adam delta is ~lr*sign(g)
    expected = scalar_adam_trajectory(
        [1.0, 1.0], 0.5, 0, 0.0, 0.0, 1e-8, w0=w0, clippy=(0.1, 1e-3)
    )
    for _ in range(2):
        optimizer_step(mlp, np.array([1.0, 0.0]), state, cfg)
    # first step: u ~= 0.5, c = (0.1*1 + 1e-3)/u -> applied update ~0.101
    assert layer.weights[0, 0] == pytest.approx(expected[-1], abs=1e-12)
    assert expected[0] == pytest.approx(1.0 - 0.101, abs=1e-6)


def test_clippy_is_per_layer_joint_over_weights_and_bias():
    cfg = TrainConfig(
        base_lr=1.0,
        adam=AdamConfig(beta1=0.0, beta2=0.0, epsilon=1e-8),
        clippy=ClippyConfig(sigma_rel=0.1, sigma_abs=0.0),
    )
    layer = Layer(np.array([[0.1]]), np.array([2.0]), IDENTITY)
    mlp = Mlp([layer])
    state = OptState.for_params(mlp.params)
    # raw updates ~1.0 for both params (sign normalization, lr=1); the layer
    # norm is max over weights AND bias = 2.0, so c ~= 0.1*2.0/1.0 = 0.2.
    # W-only grouping would give c = 0.01 and a visibly different weight.
    optimizer_step(mlp, np.array([1.0, 1.0]), state, cfg)
    assert layer.weights[0, 0] == pytest.approx(0.1 - 0.2, abs=1e-6)
    assert layer.bias[0] == pytest.approx(2.0 - 0.2, abs=1e-6)


def test_clippy_inactive_when_update_small():
    cfg = TrainConfig(
        base_lr=1e-4,
        adam=AdamConfig(beta1=0.0, beta2=0.0, epsilon=1e-8),
        clippy=ClippyConfig(sigma_rel=0.5, sigma_abs=1.0),
    )
    layer = Layer(np.array([[1.0]]), np.zeros(1), IDENTITY)
    mlp = Mlp([layer])
    state = OptState.for_params(mlp.params)
    optimizer_step(mlp, np.array([1.0, 0.0]), state, cfg)
    # c = min(1, 1.5/1e-4) = 1: update passes through unchanged
    assert layer.weights[0, 0] == pytest.approx(1.0 - 1e-4, abs=1e-11)


def test_warmup_first_step_applies_zero_update():
    cfg = TrainConfig(base_lr=0.1, warmup_steps=5)
    rng = np.random.default_rng(9)
    mlp = make_mlp([3, 2], rng)
    before = [layer.weights.copy() for layer in mlp.layers]
    state = OptState.for_params(mlp.params)
    grads = np.ones_like(mlp.params)
    optimizer_step(mlp, grads, state, cfg)
    for layer, w0 in zip(mlp.layers, before):
        assert np.array_equal(layer.weights, w0)
    # second step moves
    optimizer_step(mlp, grads, state, cfg)
    assert not np.array_equal(mlp.layers[0].weights, before[0])


def test_optimizer_step_rejects_nonfinite_grads():
    rng = np.random.default_rng(4)
    mlp = make_mlp([3, 2], rng)
    state = OptState.for_params(mlp.params)
    grads = np.zeros_like(mlp.params)
    grads[:6] = np.nan  # layer 0's weights
    with pytest.raises(DivergenceError, match="in layer 0$") as err:
        optimizer_step(mlp, grads, state, TrainConfig(), job="student-a")
    assert err.value.job == "student-a"
    # state untouched on failure
    assert state.step == 0


def test_optimizer_step_layer_count_mismatch():
    rng = np.random.default_rng(4)
    mlp = make_mlp([3, 4, 2], rng)
    state = OptState.for_params(mlp.params)
    with pytest.raises(ValueError):
        optimizer_step(mlp, np.zeros(3 * 4 + 4), state, TrainConfig())


def test_clippy_factor_is_taken_per_layer_in_the_fused_step():
    # layer 0 (2x3 weights + 3 bias) is large, so its update passes whole;
    # layer 1 (3x1 weights + 1 bias) is small, so only its factor is below 1.
    # Each layer's largest entry is its first, so a shifted offset changes a norm.
    cfg = TrainConfig(
        base_lr=0.5,
        adam=AdamConfig(beta1=0.0, beta2=0.0, epsilon=1e-8),
        clippy=ClippyConfig(sigma_rel=0.1, sigma_abs=1e-3),
    )
    mlp = Mlp([
        Layer(np.array([[-10.0, 1.0, 2.0], [3.0, -4.0, 5.0]]), np.full(3, 1.0), RELU),
        Layer(np.array([[0.3], [-0.1], [0.2]]), np.zeros(1), IDENTITY),
    ])
    before = [np.concatenate([l.weights.ravel(), l.bias]) for l in mlp.layers]
    grads = np.linspace(-1.0, 1.5, 13)
    optimizer_step(mlp, grads, OptState.for_params(mlp.params), cfg)
    at = 0
    for layer, p, clipped in zip(mlp.layers, before, (False, True)):
        g = grads[at:at + p.size]
        u = 0.5 * g / (np.abs(g) + 1e-8)
        c = min(1.0, (0.1 * np.abs(p).max() + 1e-3) / (np.abs(u).max() + 1e-12))
        assert (c < 1.0) == clipped
        after = np.concatenate([layer.weights.ravel(), layer.bias])
        np.testing.assert_allclose(after, p - c * u, rtol=0, atol=1e-12)
        at += p.size


def test_optimizer_step_names_the_diverging_layer():
    rng = np.random.default_rng(4)
    mlp = make_mlp([3, 4, 2], rng)
    before = mlp.params.copy()
    state = OptState.for_params(mlp.params)
    grads = np.zeros_like(mlp.params)
    mlp.split(grads)[1][0][0, 0] = np.nan  # the first entry of layer 1
    with pytest.raises(DivergenceError, match="in layer 1$") as err:
        optimizer_step(mlp, grads, state, TrainConfig(), job="student-b")
    assert err.value.job == "student-b"
    assert state.step == 0 and np.array_equal(mlp.params, before)
