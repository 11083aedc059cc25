"""Multi-task ranking model: losses, distillation wiring, exact gradients."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from onlinekd.cli import default_experiment
from onlinekd.errors import ConfigError, DivergenceError
from onlinekd.nncore import IDENTITY, RELU, ClippyConfig, OptState, TrainConfig
from onlinekd.pipeline import FAMILY_CUSTOM, TeacherDef, make_teacher_job
from onlinekd.ranker import (
    AUXILIARY,
    BINARY,
    DIRECT,
    NO_DISTILL,
    PROB_FLOOR,
    REGRESSION,
    ModelConfig,
    TaskSpec,
    _sigmoid,
    apply_gradients,
    build_model,
    compute_loss_and_grads,
    model_forward,
    task_score,
    total_loss,
    validate_tasks,
)

from oracles import (
    distill_order,
    model_blocks,
    numeric_gradient,
    ref_adam_layers,
    ref_binary_ce_from_logit,
    ref_ranker_step,
    ref_sigmoid_array,
    ref_softplus,
    ref_total_loss,
    relative_error,
    tower_order,
)

TASKS = (
    TaskSpec("ctr", BINARY),
    TaskSpec("ltv", REGRESSION),
    TaskSpec("aux_click", BINARY),
)


def small_config(mode, distill=("ctr", "ltv")):
    return ModelConfig(
        feature_dim=4,
        trunk_widths=(5,),
        tower_widths=(3,),
        tasks=TASKS,
        mode=mode,
        distill_tasks=distill if mode != NO_DISTILL else (),
    )


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        TaskSpec("x", "ordinal")
    with pytest.raises(ConfigError):
        TaskSpec("x", BINARY, category="primary")
    with pytest.raises(ConfigError):
        validate_tasks(())
    with pytest.raises(ConfigError):
        validate_tasks([TaskSpec("a", BINARY), TaskSpec("a", REGRESSION)])


def test_model_config_validation():
    with pytest.raises(ConfigError):
        small_config("both")
    with pytest.raises(ConfigError):
        ModelConfig(4, (5,), (3,), TASKS, mode=DIRECT, distill_tasks=("missing",))
    with pytest.raises(ConfigError):
        ModelConfig(4, (5,), (3,), TASKS, mode=NO_DISTILL, distill_tasks=("ctr",))
    with pytest.raises(ConfigError, match="duplicate distill tasks"):
        ModelConfig(4, (5,), (3,), TASKS, mode=DIRECT, distill_tasks=("ctr", "ctr"))
    for trunk, tower in (((5, 0), (3,)), ((5,), (-3,))):
        with pytest.raises(ConfigError, match="widths must be >= 1"):
            ModelConfig(4, trunk, tower, TASKS, NO_DISTILL)


def parameter_count(model):
    stacks = [m for m in (model.trunk, model.tower_stack, model.aux_stack) if m is not None]
    return sum(l.weights.size + l.bias.size for m in stacks for l in m.layers)


@pytest.mark.parametrize("mode", [NO_DISTILL, DIRECT, AUXILIARY])
def test_parameter_count_matches_built_model(mode):
    model = build_model(small_config(mode), np.random.default_rng(0))
    # trunk 4->5, three towers 5->3->1, in auxiliary mode two aux heads 5->1
    aux = 2 * (5 * 1 + 1) if mode == AUXILIARY else 0
    assert parameter_count(model) == (4 * 5 + 5) + 3 * ((5 * 3 + 3) + (3 * 1 + 1)) + aux
    assert model.params.size == parameter_count(model)


def test_parameter_count_by_hand():
    cfg = small_config(AUXILIARY)
    big = dataclasses.replace(cfg, trunk_widths=(20,))
    model = build_model(big, np.random.default_rng(0))
    # trunk 4->20, three towers 20->3->1, two aux heads 20->1
    expected = (4 * 20 + 20) + 3 * ((20 * 3 + 3) + (3 * 1 + 1)) + 2 * (20 * 1 + 1)
    assert parameter_count(model) == expected


def test_scale_config_widens_trunk_only():
    cfg = default_experiment(FAMILY_CUSTOM, (0,))
    assert cfg.teacher_trunk == (48, 24)
    for scale, trunk in ((1, (48, 24)), (4, (192, 96))):
        model = make_teacher_job(cfg, TeacherDef("t", scale, ()), 0).model
        assert model.config.trunk_widths == trunk
        assert model.config.tower_widths == cfg.tower_widths
    with pytest.raises(ConfigError, match="widths must be >= 1"):
        make_teacher_job(cfg, TeacherDef("t", 0, ()), 0)


def test_build_model_structure():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(3))
    assert model.trunk.layers[-1].activation == RELU
    assert len(model.tower_stack.params) == 3  # ctr, ltv, aux_click
    assert model.tower_stack.layers[-1].activation == IDENTITY
    assert model.tower_stack.out_dim == 1
    assert len(model.aux_stack.params) == 2  # ctr, ltv
    assert len(model.aux_stack.layers) == 1
    assert model.aux_stack.layers[0].activation == IDENTITY
    towers = [f"tower {t} layer {k}" for t in ("ctr", "ltv", "aux_click") for k in (0, 1)]
    aux = ["aux ctr layer 0", "aux ltv layer 0"]
    assert model.layer_names == ["trunk layer 0", *towers, *aux]
    direct = build_model(small_config(DIRECT), np.random.default_rng(3))
    assert direct.aux_stack is None
    assert direct.layer_names == ["trunk layer 0", *towers]


def test_init_bit_identical_across_modes():
    models = {
        mode: build_model(small_config(mode), np.random.default_rng(77))
        for mode in (NO_DISTILL, DIRECT, AUXILIARY)
    }
    ref = models[NO_DISTILL]
    for mode in (DIRECT, AUXILIARY):
        other = models[mode]
        for a, b in zip(ref.trunk.layers, other.trunk.layers):
            assert np.array_equal(a.weights, b.weights)
        for a, b in zip(ref.tower_stack.layers, other.tower_stack.layers, strict=True):
            assert np.array_equal(a.weights, b.weights)  # every tower row


def test_task_score_floors_binary_and_passes_regression_through():
    z = np.array([-50.0, 0.0, 50.0])
    p = task_score(z, BINARY)
    assert p[0] == PROB_FLOOR
    assert p[1] == 0.5
    assert p[2] == 1.0 - PROB_FLOOR
    assert np.array_equal(task_score(z, REGRESSION), z)


def test_model_forward_heads_by_mode():
    x = np.random.default_rng(5).standard_normal((6, 4))
    aux_model = build_model(small_config(AUXILIARY), np.random.default_rng(1))
    z, z_aux = model_forward(aux_model, x)
    assert z.shape == (3, 6)  # ctr, ltv, aux_click
    assert z_aux.shape == (2, 6)  # ctr, ltv
    assert aux_model.distill_rows.tolist() == [0, 1]
    direct = build_model(small_config(DIRECT, distill=("ltv", "ctr")), np.random.default_rng(1))
    z, z_aux = model_forward(direct, x)
    assert z.shape == (3, 6) and z_aux is None
    assert direct.distill_rows.tolist() == [1, 0]


@pytest.mark.parametrize("clip", [None, 6.0])
def test_model_forward_drops_each_stack_cache_before_the_next(clip):
    # no backward follows an evaluation forward, so its peak is one MLP's two
    # widest adjacent activations, not the trunk's cache held through the towers
    n, tasks = 20_000, tuple(TaskSpec(f"t{i}", BINARY) for i in range(4))
    cfg = ModelConfig(
        feature_dim=32, trunk_widths=(64, 32), tower_widths=(16,), tasks=tasks, mode=NO_DISTILL
    )
    model = build_model(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((n, 32))
    model_forward(model, x[:8], clip)
    tracemalloc.start()
    try:
        z, z_aux = model_forward(model, x, clip)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    trunk, towers = [32, 64, 32], [32, 4 * 16, 4 * 1]
    widest = max(a + b for dims in (trunk, towers) for a, b in zip(dims, dims[1:]))
    assert peak <= 1.1 * widest * n * 8
    assert z.shape == (4, n) and z_aux is None


@pytest.mark.parametrize("shape", [(4, 128), (3, 128), (2048,), (32000,)])
def test_sigmoid_matches_the_reference_bit_for_bit(shape):
    z = np.random.default_rng(len(shape)).standard_normal(shape) * 30.0
    z.reshape(-1)[:6] = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]
    assert np.array_equal(_sigmoid(z), ref_sigmoid_array(z))


def batch_inputs(n=7, seed=13):
    """x, the hard labels and the teacher values by task, and one present
    mask for every distilled task."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    hard = {
        "ctr": (rng.random(n) < 0.4).astype(float),
        "ltv": rng.gamma(2.0, 1.0, size=n),
        "aux_click": (rng.random(n) < 0.6).astype(float),
    }
    present = rng.random(n) < 0.7
    present[0] = True  # keep at least one covered row
    soft = {
        "ctr": rng.uniform(0.05, 0.95, size=n),
        "ltv": rng.standard_normal(n),
    }
    return x, hard, soft, present


def loss_args(model, hard, soft=None, present=None, alpha=None):
    """The labels, soft, present and alpha arguments of total_loss and
    compute_loss_and_grads, laid out for model from per-task mappings."""
    labels = tower_order(model, hard)
    if soft is None:
        return labels, None, None, None
    return labels, distill_order(model, soft), present, distill_order(model, alpha or {}, 1.0)


def test_total_loss_guards():
    model = build_model(small_config(NO_DISTILL), np.random.default_rng(2))
    x, hard, soft, present = batch_inputs()
    labels = tower_order(model, hard)
    z, z_aux = model_forward(model, x)
    with pytest.raises(ValueError, match="do not fit 0 distilled tasks"):
        total_loss(model, z, z_aux, labels, np.array([soft["ctr"]]), present)
    aux = build_model(small_config(AUXILIARY, distill=("ctr",)), np.random.default_rng(2))
    z, z_aux = model_forward(aux, x)
    ctr = np.array([soft["ctr"]])
    total_loss(aux, z, z_aux, labels, ctr, present, np.array([0.5]))  # fits
    for bad in (
        (np.array([soft["ctr"], soft["ltv"]]), present, None),  # a non-distilled task
        (ctr, present, np.array([0.5, 0.5])),
        (ctr, present[:-1], None),
        (ctr[:, :-1], present, None),
        (ctr, None, None),
    ):
        with pytest.raises(ValueError, match="do not fit 1 distilled tasks"):
            total_loss(aux, z, z_aux, labels, *bad)
    with pytest.raises(ValueError, match="label shape"):
        total_loss(aux, z, z_aux, labels[:, :-1], None)
    with pytest.raises(ValueError, match="label shape"):
        total_loss(aux, z, z_aux, labels[:-1], None)


def test_soft_loss_coverage_normalization():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(4))
    x, hard, soft, present = batch_inputs()
    z, z_aux = model_forward(model, x)
    alpha = {"ctr": 0.7, "ltv": 0.3}
    n = x.shape[0]
    expected_total = ref_total_loss(model, z, z_aux, *loss_args(model, hard))
    for name, kind in [("ctr", BINARY), ("ltv", REGRESSION)]:
        za = z_aux[model.config.distill_tasks.index(name)]
        expected = 0.0
        for i in range(n):
            if not present[i]:
                continue
            if kind == BINARY:
                expected += ref_softplus(za[i]) - soft[name][i] * za[i]
            else:
                expected += (za[i] - soft[name][i]) ** 2
        expected_total += alpha[name] * expected / n
    got = ref_total_loss(model, z, z_aux, *loss_args(model, hard, soft, present, alpha))
    assert got == pytest.approx(expected_total, rel=1e-12)


def test_hard_loss_means_match_reference():
    model = build_model(small_config(NO_DISTILL), np.random.default_rng(4))
    x, hard, _, _ = batch_inputs()
    z, z_aux = model_forward(model, x)
    want = sum(
        np.mean([ref_binary_ce_from_logit(zi, yi) for zi, yi in zip(z[row], hard[name])])
        for row, name in ((0, "ctr"), (2, "aux_click"))
    )
    want += np.mean((z[1] - hard["ltv"]) ** 2)
    got = ref_total_loss(model, z, z_aux, *loss_args(model, hard))
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_coverage_gives_zero_soft_and_control_grads():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(6))
    x, hard, soft, present = batch_inputs()
    present[:] = False
    grads_soft = compute_loss_and_grads(
        model, x, *loss_args(model, hard, soft, present, {"ctr": 1.0, "ltv": 1.0})
    )
    grads_none = compute_loss_and_grads(model, x, *loss_args(model, hard))
    got, want = model_blocks(model, grads_soft), model_blocks(model, grads_none)
    assert_layers_equal(got["trunk", None], want["trunk", None])
    for name in model.config.distill_tasks:
        assert not any(gw.any() or gb.any() for gw, gb in got["aux", name])


def test_alpha_zero_grads_bit_identical_to_no_soft():
    for mode in (DIRECT, AUXILIARY):
        model = build_model(small_config(mode), np.random.default_rng(9))
        x, hard, soft, present = batch_inputs()
        with_soft = compute_loss_and_grads(
            model, x, *loss_args(model, hard, soft, present, {"ctr": 0.0, "ltv": 0.0})
        )
        without = compute_loss_and_grads(model, x, *loss_args(model, hard))
        got, want = model_blocks(model, with_soft), model_blocks(model, without)
        for key in [("trunk", None), *[("towers", t.name) for t in TASKS]]:
            assert_layers_equal(got[key], want[key])


GRAD_CASES = [
    (NO_DISTILL, None, None, None),
    (DIRECT, "soft", {"ctr": 0.7, "ltv": 0.3}, None),
    (DIRECT, "soft", {"ctr": 1.0, "ltv": 1.0}, None),
    (AUXILIARY, "soft", {"ctr": 0.7, "ltv": 0.3}, None),
    (AUXILIARY, "soft", {"ctr": 0.5, "ltv": 0.5}, 0.9),
]


def jitter_biases(model, seed=99):
    """Move zero-initialized biases off the exact ReLU kink (z == 0 when a
    whole trunk row is dead), where the subgradient convention and a central
    difference legitimately disagree."""
    rng = np.random.default_rng(seed)
    for layers in model_blocks(model, model.params).values():
        for _, bias in layers:
            bias += rng.uniform(0.01, 0.05, size=bias.shape)


@pytest.mark.parametrize("mode,use_soft,alpha,clip", GRAD_CASES)
def test_gradients_match_finite_differences(mode, use_soft, alpha, clip):
    model = build_model(small_config(mode), np.random.default_rng(21))
    jitter_biases(model)
    x, hard, soft, present = batch_inputs(seed=31)
    args = loss_args(model, hard, soft if use_soft else None, present, alpha)

    def loss():
        return ref_total_loss(model, *model_forward(model, x, clip), *args)

    grads = compute_loss_and_grads(model, x, *args, clip)
    params, grad_blocks = model_blocks(model, model.params), model_blocks(model, grads)
    arrays, analytic = [], []
    for key in params:
        for (w, b), (gw, gb) in zip(params[key], grad_blocks[key], strict=True):
            arrays.extend([w, b])
            analytic.extend([gw, gb])
    numeric = numeric_gradient(loss, arrays, eps=1e-6)
    assert relative_error(numeric, analytic) < 1e-7


def test_auxiliary_knowledge_reaches_trunk_not_tower():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(14))
    x, hard, soft, present = batch_inputs()
    alpha = {"ctr": 1.0, "ltv": 1.0}
    with_soft = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present, alpha))
    without = compute_loss_and_grads(model, x, *loss_args(model, hard))
    got, want = model_blocks(model, with_soft), model_blocks(model, without)
    # serving towers see hard-label gradients only
    for t in TASKS:
        assert_layers_equal(got["towers", t.name], want["towers", t.name])
    # the trunk gradient changes: teacher signal flows through shared layers
    assert not np.array_equal(got["trunk", None][0][0], want["trunk", None][0][0])
    # and aux heads receive nonzero gradients
    assert any(gw.any() for gw, _ in got["aux", "ctr"])


def test_direct_soft_loss_lands_on_serving_tower():
    model = build_model(small_config(DIRECT), np.random.default_rng(14))
    x, hard, soft, present = batch_inputs()
    alpha = {"ctr": 1.0, "ltv": 1.0}
    with_soft = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present, alpha))
    without = compute_loss_and_grads(model, x, *loss_args(model, hard))
    got, want = model_blocks(model, with_soft), model_blocks(model, without)
    assert not np.array_equal(got["towers", "ctr"][0][0], want["towers", "ctr"][0][0])
    # non-distilled task tower is untouched by soft labels
    assert_layers_equal(got["towers", "aux_click"], want["towers", "aux_click"])


def test_apply_gradients_steps_every_component():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(10))
    opt = OptState.for_params(model.params)
    before = build_model(small_config(AUXILIARY), np.random.default_rng(10))
    alpha = {"ctr": 1.0, "ltv": 1.0}
    for k in (1, 2, 3):
        x, hard, soft, present = batch_inputs(seed=k)
        grads = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present, alpha))
        assert grads.shape == opt.m.shape == model.params.shape
        apply_gradients(model, grads, opt, TrainConfig(base_lr=0.01))
        assert opt.step == k
    moved, start = model_blocks(model, model.params), model_blocks(before, before.params)
    assert len(moved) == 1 + 3 + 2
    for key in moved:
        assert any(not np.array_equal(w, w0) for (w, _), (w0, _) in zip(moved[key], start[key]))


def test_layer_arrays_stay_views_of_the_model_buffer():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(10))
    opt = OptState.for_params(model.params)
    train = TrainConfig(base_lr=0.05, clippy=ClippyConfig())
    for step in range(10):
        x, hard, soft, present = batch_inputs(seed=step)
        alpha = {"ctr": 1.0, "ltv": 0.5}
        grads = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present, alpha))
        apply_gradients(model, grads, opt, train)
    assert opt.step == 10
    for stack in (model.trunk, model.tower_stack, model.aux_stack):
        assert np.shares_memory(stack.params, model.params)
        for layer in stack.layers:
            assert np.shares_memory(layer.weights, model.params)
            assert np.shares_memory(layer.bias, model.params)
    # each block of model.params is its row of the stack's layer arrays, and
    # the layer offsets Clippy clips by are those of the blocks
    rows = {("trunk", None): (model.trunk, ())}
    rows.update({("towers", t.name): (model.tower_stack, i) for i, t in enumerate(TASKS)})
    rows.update({("aux", n): (model.aux_stack, i) for i, n in enumerate(("ctr", "ltv"))})
    blocks = model_blocks(model, model.params)
    assert list(blocks) == list(rows)
    starts, sizes = [], []
    for key, (stack, row) in rows.items():
        for layer, (w, b) in zip(stack.layers, blocks[key], strict=True):
            assert layer.weights[row].ctypes.data == w.ctypes.data
            assert layer.bias[row].ctypes.data == b.ctypes.data
            assert np.array_equal(layer.weights[row], w) and np.array_equal(layer.bias[row], b)
            starts.append((w.ctypes.data - model.params.ctypes.data) // w.itemsize)
            sizes.append(w.size + b.size)
    assert model.starts.tolist() == starts and model.sizes.tolist() == sizes


def test_a_nonfinite_gradient_names_its_block_and_layer():
    model = build_model(small_config(AUXILIARY), np.random.default_rng(10))
    opt = OptState.for_params(model.params)
    train = TrainConfig(base_lr=0.01, clippy=ClippyConfig())
    x, hard, soft, present = batch_inputs()
    alpha = {"ctr": 1.0, "ltv": 1.0}
    grads = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present, alpha))
    apply_gradients(model, grads, opt, train)
    params, m, v = model.params.copy(), opt.m.copy(), opt.v.copy()
    for keys, message in (
        ([("towers", "ltv", 1)], "tower ltv layer 1"),
        ([("aux", "ltv", 0)], "aux ltv layer 0"),
        ([("trunk", None, 0)], "trunk layer 0"),
        # the first non-finite entry in the buffer is named
        ([("aux", "ctr", 0), ("towers", "aux_click", 0)], "tower aux_click layer 0"),
    ):
        bad = grads.copy()
        for group, name, layer in keys:
            model_blocks(model, bad)[group, name][layer][0][-1, 0] = np.nan
        with pytest.raises(DivergenceError, match=f"non-finite gradient in {message}$") as err:
            apply_gradients(model, bad, opt, train, job="s0/student-a")
        assert err.value.job == "s0/student-a"
        assert opt.step == 1 and np.array_equal(model.params, params)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


@pytest.mark.parametrize("mode", [DIRECT, AUXILIARY])
def test_covered_binary_teacher_values_are_checked_on_the_step_path(mode):
    model = build_model(small_config(mode), np.random.default_rng(3))
    x, hard, soft, present = batch_inputs()
    assert present[0] and not present.all()

    def with_ctr_value(row, value):
        values = soft["ctr"].copy()
        values[row] = value
        return loss_args(model, hard, {**soft, "ctr": values}, present)

    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match="teacher probability"):
            compute_loss_and_grads(model, x, *with_ctr_value(0, bad))
    # the same value on an uncovered row is a placeholder, never read
    got = compute_loss_and_grads(model, x, *with_ctr_value(np.flatnonzero(~present)[0], 1.0))
    want = compute_loss_and_grads(model, x, *loss_args(model, hard, soft, present))
    assert got.shape == want.shape == model.params.shape
    assert np.array_equal(got, want)


def by_key(tree, group, name):
    """The entry of a ref_ranker_step params or grads tree at (group, task)."""
    return tree[group] if name is None else tree[group][name]


def reference_params(model):
    """A copy of model's params as a ref_ranker_step params tree."""
    stacks = {"trunk": model.trunk, "towers": model.tower_stack, "aux": model.aux_stack}
    ref = {"towers": {}, "aux": {}}
    for (group, name), block in model_blocks(model, model.params).items():
        layers = [
            [w.copy(), b.copy(), l.activation == RELU]
            for (w, b), l in zip(block, stacks[group].layers, strict=True)
        ]
        if name is None:
            ref[group] = layers
        else:
            ref[group][name] = layers
    return ref


def assert_layers_equal(got, want):
    assert len(got) == len(want)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


STACK_CASES = [(NO_DISTILL, clip, None, None) for clip in (None, 6.0)] + [
    (mode, clip, coverage, a)
    for mode in (DIRECT, AUXILIARY)
    for clip in (None, 6.0)
    for coverage in ("full", "partial", "zero")
    for a in (0.0, 2.0)
]


@pytest.mark.parametrize("mode,clip,coverage,a", STACK_CASES)
def test_stacked_path_matches_per_component_reference(mode, clip, coverage, a):
    # distill order differs from task order, so aux rows and tower rows differ
    model = build_model(small_config(mode, distill=("ltv", "ctr")), np.random.default_rng(5))
    ref = reference_params(model)
    keys = list(model_blocks(model, model.params))
    ref_moments = {
        key: [[np.zeros_like(a) for a in (w, b, w, b)] for w, b, _ in by_key(ref, *key)]
        for key in keys
    }
    opt = OptState.for_params(model.params)
    train = TrainConfig(base_lr=0.05, warmup_steps=2, clippy=ClippyConfig(sigma_rel=0.05))
    tasks = [(t.name, t.kind == BINARY) for t in TASKS]
    for step in range(5):
        x, hard, soft, present = batch_inputs(n=40, seed=100 + step)
        x = x * 4.0  # large enough that the activation clip saturates
        if coverage != "partial":
            present[:] = coverage == "full"
        soft_arg = None if mode == NO_DISTILL else soft
        alpha = None if mode == NO_DISTILL else {"ctr": a, "ltv": a}
        args = loss_args(model, hard, soft_arg, present, alpha)
        z, z_aux = model_forward(model, x, clip)
        grads = compute_loss_and_grads(model, x, *args, clip)
        seeds = total_loss(model, z, z_aux, *args)
        want_soft = {} if soft_arg is None else {k: (v, present) for k, v in soft.items()}
        hard_logits, aux_logits, hard_seeds, aux_seeds, want = ref_ranker_step(
            ref, tasks, mode == DIRECT, x, hard, want_soft, alpha or {}, clip
        )

        assert np.array_equal(z, tower_order(model, hard_logits))
        if mode == AUXILIARY:
            assert list(aux_logits) == list(model.config.distill_tasks)
            assert np.array_equal(z_aux, distill_order(model, aux_logits))
        else:
            assert z_aux is None and aux_logits == {}
        for row, (name, _) in enumerate(tasks):
            assert np.array_equal(seeds.hard[row], hard_seeds[name])
        if mode == AUXILIARY:
            aux_names = list(model.config.distill_tasks)
            assert {aux_names[r] for r in np.flatnonzero(seeds.soft_active)} == set(aux_seeds)
            for name, seed in aux_seeds.items():
                assert np.array_equal(seeds.aux[aux_names.index(name)], seed)

        for group in ("towers", "aux"):
            assert [name for g, name in keys if g == group] == list(want[group])
        got = model_blocks(model, grads)
        for key in keys:
            assert_layers_equal(got[key], by_key(want, *key))

        apply_gradients(model, grads, opt, train)
        adam = (train.base_lr, train.warmup_steps, 0.9, 0.999, 1e-8, (0.05, 1e-3))
        for key in keys:
            ref_adam_layers(by_key(ref, *key), by_key(want, *key), ref_moments[key], step, *adam)
        params = model_blocks(model, model.params)
        for key in keys:
            assert_layers_equal(params[key], [(w, b) for w, b, _ in by_key(ref, *key)])
