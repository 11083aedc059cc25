"""Independent reference implementations used to pin expected test values.

The reference functions are deliberately written from first principles
(python loops, scalar math, brute-force enumeration) and share no code with
the package under test. The test aids at the end do use the package: the
converters from per-task mappings to the package's task-major arrays, the
per-block views of a model's flat buffer, a segment record encoder over
per-task columns, a snapshot comparison, a metric-row lookup, the fleet
audit, which drives run_online and records the soft targets each student
is handed, and the one-shot slate simulation.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from onlinekd import pipeline
from onlinekd.errors import ConfigError
from onlinekd.labelstore import LabelStore, encode_segment
from onlinekd.metrics import draw_slates
from onlinekd.ranker import AUXILIARY, BINARY, model_forward, task_score


def numeric_gradient(loss_fn, arrays, eps=1e-6):
    """Central-difference gradient of loss_fn() w.r.t. each array, in place.

    arrays are mutated during probing and restored afterwards. Returns a
    list of gradient arrays matching shapes.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def relative_error(numeric, analytic):
    """Norm-based relative disagreement between two gradient stacks."""
    worst = 0.0
    for gn, ga in zip(numeric, analytic):
        denom = np.linalg.norm(gn) + np.linalg.norm(ga) + 1e-12
        worst = max(worst, float(np.linalg.norm(gn - ga) / denom))
    return worst


def brute_force_auc(scores, labels) -> float:
    """Pairwise rank statistic: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    diff = pos[:, None] - neg[None, :]
    wins = float(np.count_nonzero(diff > 0))
    ties = float(np.count_nonzero(diff == 0))
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def scalar_adam_trajectory(grad_seq, base_lr, warmup_steps, beta1, beta2, epsilon,
                           w0=0.0, clippy=None):
    """Pure-python scalar Adam with warmup and optional update clipping.

    clippy = (sigma_rel, sigma_abs) applies the per-layer multiplicative
    clip; for a scalar weight the layer norm is |w|. Returns the list of
    parameter values after each step.
    """
    w = float(w0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grad_seq):
        lr = base_lr * (1.0 if warmup_steps <= 0 else min(1.0, t / warmup_steps))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** (t + 1))
        v_hat = v / (1.0 - beta2 ** (t + 1))
        u = lr * m_hat / (math.sqrt(v_hat) + epsilon)
        if clippy is not None:
            sigma_rel, sigma_abs = clippy
            c = min(1.0, (sigma_rel * abs(w) + sigma_abs) / (abs(u) + 1e-12))
            u *= c
        w -= u
        out.append(w)
    return out


def ref_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def ref_softplus(z: float) -> float:
    return math.log1p(math.exp(-abs(z))) + max(z, 0.0)


def ref_binary_ce_from_logit(logit: float, target: float) -> float:
    """-target*log(p) - (1-target)*log(1-p) with p = sigmoid(logit)."""
    p = ref_sigmoid(logit)
    return -target * math.log(p) - (1.0 - target) * math.log(1.0 - p)


def ref_total_loss(model, z, z_aux, labels, soft=None, present=None, alpha=None) -> float:
    """The joint loss of a model's logits, z and z_aux as model_forward
    returns them, from its definition: every task's hard loss averaged over
    the n rows, plus every distilled task's soft loss, summed over the
    covered rows, divided by the full n and weighted by its alpha (1 when
    alpha is None). A binary row's loss is the cross-entropy from the logit,
    a regression row's the squared error. The soft loss reads the serving
    logit in direct mode and the aux logit in auxiliary mode. labels, soft,
    present and alpha are laid out as total_loss takes them."""

    def row_loss(kind, logit, target):
        if kind == BINARY:
            return ref_softplus(logit) - target * logit
        return (logit - target) ** 2

    n = len(labels[0])
    total = 0.0
    for task, zt, yt in zip(model.tasks, z, labels):
        total += sum(row_loss(task.kind, float(a), float(b)) for a, b in zip(zt, yt)) / n
    if soft is None:
        return total
    tasks = {t.name: (row, t.kind) for row, t in enumerate(model.tasks)}
    for d, name in enumerate(model.config.distill_tasks):
        row, kind = tasks[name]
        logits = z_aux[d] if model.config.mode == AUXILIARY else z[row]
        weight = 1.0 if alpha is None else float(alpha[d])
        covered = sum(
            row_loss(kind, float(logits[i]), float(soft[d][i])) for i in range(n) if present[i]
        )
        total += weight * covered / n
    return total


def ref_sigmoid_array(z):
    """Elementwise sigmoid, 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_dense_forward(layers, x, clip):
    """One MLP, one 2-D matmul per layer. layers: [weights, bias, is_relu].
    Returns the output and (layer inputs, ReLU/clip masks) for backprop."""
    inputs, masks = [], []
    a = x
    for w, b, is_relu in layers:
        inputs.append(a)
        z = a @ w + b
        mask = None
        if is_relu:
            mask = (z > 0.0) if clip is None else (z > 0.0) & (z < clip)
            a = np.maximum(z, 0.0) if clip is None else np.clip(z, 0.0, clip)
        else:
            a = z
        masks.append(mask)
    return a, (inputs, masks)


def ref_dense_backward(layers, cache, g):
    """Per-layer (dW, db) and the input gradient of one MLP."""
    inputs, masks = cache
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        dz = g if masks[k] is None else g * masks[k]
        grads[k] = (inputs[k].T @ dz, dz.sum(axis=0))
        g = dz @ layers[k][0].T
    return grads, g


def ref_ranker_step(params, tasks, direct, x, hard, soft, alpha, clip):
    """One training step of a multi-task ranker, tower by tower.

    params: {"trunk": layers, "towers": {task: layers}, "aux": {task: layers}}
    with towers in task order and aux heads in distill order; tasks: (name,
    is_binary) in task order; soft: {task: (values, present)}. The soft loss
    lands on the serving logit when direct, else on the task's aux head.
    The trunk's output gradient starts at zero and adds the towers in task
    order, then the aux heads in distill order; a head without a seed gets
    zero gradients and adds nothing. Returns (hard logits, aux logits, hard
    seeds, aux seeds, grads), grads shaped like params with (dW, db) pairs.
    """
    n = x.shape[0]
    trunk_out, trunk_cache = ref_dense_forward(params["trunk"], x, clip)
    hard_logits, aux_logits, caches = {}, {}, {}
    for group, logits in (("towers", hard_logits), ("aux", aux_logits)):
        for name, layers in params[group].items():
            out, caches[group, name] = ref_dense_forward(layers, trunk_out, clip)
            logits[name] = out[:, 0]
    hard_seeds, aux_seeds = {}, {}
    for name, is_binary in tasks:
        z, y = hard_logits[name], hard[name]
        hard_seeds[name] = (ref_sigmoid_array(z) - y) / n if is_binary else 2.0 * (z - y) / n
    for name, is_binary in tasks:
        if name not in soft:
            continue
        values, present = soft[name]
        a = alpha.get(name, 1.0)
        p = present.astype(np.float64)
        if p.sum() == 0.0 or a == 0.0:
            continue
        z = hard_logits[name] if direct else aux_logits[name]
        v = np.where(present, values, 0.5 if is_binary else 0.0)
        if is_binary:
            seed = a * (ref_sigmoid_array(z) - v) * p / n
        else:
            seed = a * 2.0 * (z - v) * p / n
        if direct:
            hard_seeds[name] = hard_seeds[name] + seed
        else:
            aux_seeds[name] = seed
    grads = {"towers": {}, "aux": {}}
    trunk_out_grad = np.zeros_like(trunk_out)
    for group, seeds in (("towers", hard_seeds), ("aux", aux_seeds)):
        for name, layers in params[group].items():
            if name not in seeds:
                grads[group][name] = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _ in layers]
                continue
            grads[group][name], input_grad = ref_dense_backward(
                layers, caches[group, name], seeds[name][:, None]
            )
            trunk_out_grad += input_grad
    grads["trunk"], _ = ref_dense_backward(params["trunk"], trunk_cache, trunk_out_grad)
    return hard_logits, aux_logits, hard_seeds, aux_seeds, grads


def ref_adam_layers(layers, grads, moments, t, base_lr, warmup_steps, beta1, beta2,
                    epsilon, clippy=None):
    """One Adam step on one MLP, layer by layer, in place.

    moments holds [m_w, m_b, v_w, v_b] per layer; t is the step count before
    this step. clippy = (sigma_rel, sigma_abs) scales each layer's whole
    update by min(1, (sigma_rel * ||w||_inf + sigma_abs) / (||u||_inf + 1e-12)),
    the norms taken jointly over the layer's weights and bias.
    """
    lr = base_lr * (1.0 if warmup_steps <= 0 else min(1.0, t / warmup_steps))
    bc1 = 1.0 - beta1 ** (t + 1)
    bc2 = 1.0 - beta2 ** (t + 1)
    for (w, b, _), (gw, gb), (mw, mb, vw, vb) in zip(layers, grads, moments):
        for m, v, g in ((mw, vw, gw), (mb, vb, gb)):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * np.square(g)
        uw = lr * (mw / bc1) / (np.sqrt(vw / bc2) + epsilon)
        ub = lr * (mb / bc1) / (np.sqrt(vb / bc2) + epsilon)
        if clippy is not None:
            sigma_rel, sigma_abs = clippy
            w_norm = max(np.abs(w).max(), np.abs(b).max())
            u_norm = max(np.abs(uw).max(), np.abs(ub).max())
            c = min(1.0, (sigma_rel * w_norm + sigma_abs) / (u_norm + 1e-12))
            uw *= c
            ub *= c
        w -= uw
        b -= ub


def replay_store_contents(appends):
    """Expected store state from a sequence of appends.

    appends: iterable of (teacher_version, segment_id, {example_id: {task: f32}}).
    Precedence: higher (teacher_version, segment_id) wins per example id.
    Returns {example_id: (key, {task: value})} reduced to values.
    """
    best = {}
    for teacher_version, segment_id, rows in appends:
        key = (teacher_version, segment_id)
        for example_id, values in rows.items():
            if example_id not in best or key > best[example_id][0]:
                best[example_id] = (key, values)
    return {eid: vals for eid, (_, vals) in best.items()}


def segment_ids(seg) -> np.ndarray:
    """A segment's example ids, one uint64 per row, expanded from its id
    runs one run at a time."""
    return np.concatenate(
        [first + np.arange(length, dtype=np.uint64)
         for first, length in zip(seg.run_first, seg.run_len)]
        + [np.zeros(0, np.uint64)]
    )


# the header of a format-4 store log
LOG_HEADER = b"SLL1" + struct.pack("<I", 4)


def log_records(data: bytes) -> list[bytes]:
    """The records of a format-4 log that ends at a record boundary, split
    with struct alone: u32 n | u32 crc | payload[n] | u32 crc each."""
    assert data[:8] == LOG_HEADER
    records, off = [], 8
    while off < len(data):
        (n,) = struct.unpack_from("<I", data, off)
        records.append(data[off : off + 12 + n])
        off += 12 + n
    assert off == len(data)
    return records


def segment_body(record: bytes) -> bytes:
    """The body of a format-4 log record, read with struct and zlib alone:
    the length, the length's crc and the record's crc are checked, and the
    raw deflate stream must inflate to exactly body_len bytes."""
    n, n_crc = struct.unpack_from("<II", record)
    assert len(record) == 12 + n
    assert n_crc == zlib.crc32(record[:4]) & 0xFFFFFFFF
    assert struct.unpack("<I", record[-4:])[0] == zlib.crc32(record[:-4]) & 0xFFFFFFFF
    (body_len,) = struct.unpack_from("<Q", record, 8)
    inflate = zlib.decompressobj(-15)
    body = inflate.decompress(record[16:-4])
    assert inflate.eof and not inflate.unused_data
    assert len(body) == body_len
    return body


def stored_ids(snapshot) -> np.ndarray:
    """Every example id in a snapshot's segments, one entry per stored row
    (an id written twice appears twice). Its length is the snapshot's row
    count; np.isin against it gives which probe ids the snapshot covers."""
    return np.concatenate(
        [segment_ids(seg) for seg in snapshot.segments] + [np.zeros(0, np.uint64)]
    )


def argmax_policy_picks(true_policy, true_sat, score_rows):
    """Per-slate true policy and satisfaction values at the highest-scored
    slot (the first of equal scores), found with explicit python loops."""
    engagement, satisfaction = [], []
    for i in range(len(true_policy)):
        best_j = 0
        for j in range(1, len(true_policy[i])):
            if score_rows[i][j] > score_rows[i][best_j]:
                best_j = j
        engagement.append(float(true_policy[i][best_j]))
        satisfaction.append(float(true_sat[i][best_j]))
    return engagement, satisfaction


def tower_order(model, by_task) -> np.ndarray:
    """{task: row} as one task-major array, a row per task of model in task
    order, the layout of hard labels and hard logits."""
    return np.array([by_task[t.name] for t in model.tasks])


def distill_order(model, by_task, default=None) -> np.ndarray:
    """{task: value} as one array, an entry per distilled task of model in
    distill order (default for tasks by_task lacks), the layout of soft
    targets, aux logits and alpha."""
    return np.array([by_task.get(t, default) for t in model.config.distill_tasks])


def _blocks(model, trunk, towers, aux) -> dict:
    """model's blocks as {(group, task): [(weights, bias) of each layer]},
    keyed as ref_ranker_step keys its params: ("trunk", None), the towers in
    task order, then the aux heads in distill order. trunk holds the trunk's
    (weights, bias) per layer, towers and aux those of its stacked towers
    and aux heads (aux None without aux heads)."""
    blocks = {("trunk", None): trunk}
    for i, task in enumerate(model.tasks):
        blocks["towers", task.name] = [(w[i], b[i]) for w, b in towers]
    for d, name in enumerate(model.config.distill_tasks if aux is not None else ()):
        blocks["aux", name] = [(w[d], b[d]) for w, b in aux]
    return blocks


def member_blocks(model) -> dict:
    """Every trunk, tower and aux block of model, as _blocks gives them,
    viewing the model's own layer arrays."""
    pairs = lambda mlp: None if mlp is None else [(l.weights, l.bias) for l in mlp.layers]
    return _blocks(model, pairs(model.trunk), pairs(model.tower_stack), pairs(model.aux_stack))


def model_blocks(stack, flat) -> list[dict]:
    """Every member's trunk, tower and aux blocks of flat, a buffer laid out
    like stack.params, as one _blocks dict per member. flat holds the
    members' trunks, then their towers, then the aux heads member by member;
    the arrays view flat."""
    views, at = [], 0
    for mlp in (stack.trunk, stack.towers, stack.aux):
        if mlp is None:
            views.append(None)
            continue
        views.append(mlp.split(flat[at:at + mlp.params.size].reshape(mlp.params.shape)))
        at += mlp.params.size
    assert at == flat.size
    trunk, towers, aux = views
    blocks, row = [], 0
    for s, model in enumerate(stack.members):
        heads = None
        if model.aux_stack is not None:
            n = len(model.config.distill_tasks)
            heads = [(w[row:row + n], b[row:row + n]) for w, b in aux]
            row += n
        trunk_s, towers_s = ([(w[s], b[s]) for w, b in layers] for layers in (trunk, towers))
        blocks.append(_blocks(model, trunk_s, towers_s, heads))
    assert row == (0 if stack.aux is None else len(stack.aux.params))
    return blocks


def assert_same_params(a, b) -> None:
    """Models a and b hold equal weights and biases in every block."""
    assert_same_blocks(member_blocks(a), member_blocks(b))


def assert_same_blocks(got, want) -> None:
    """Two {(group, task): layers} dicts hold the same blocks, bit for bit."""
    assert list(got) == list(want)
    for key in got:
        for (gw, gb), (ww, wb) in zip(got[key], want[key], strict=True):
            assert np.array_equal(gw, ww) and np.array_equal(gb, wb), key


def segment_record(segment_id, teacher_version, tasks, example_ids, values) -> bytes:
    """encode_segment over example ids and {task: column}; it sorts and
    checks nothing, so it can write what a writer would refuse."""
    block = np.array([values[name] for name, _ in tasks], dtype=np.float32)
    return encode_segment(
        segment_id, teacher_version, tasks,
        np.asarray(example_ids, dtype=np.uint64), block.reshape(len(tasks), -1),
    )


def assert_same_snapshot(got, want, probe):
    """got and want hold the same segments and answer probe alike."""
    assert got.tasks == want.tasks
    assert len(got.segments) == len(want.segments)
    for a, b in zip(got.segments, want.segments):
        assert (a.segment_id, a.teacher_version, a.tasks) == (
            b.segment_id, b.teacher_version, b.tasks
        )
        for name in ("run_first", "run_len", "run_row", "values"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and not x.flags.writeable and np.array_equal(x, y)
    for x, y in zip(got.lookup_batch(probe), want.lookup_batch(probe)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def metric_value(log, *, job, metric, task=pipeline.JOB_LEVEL_TASK, step=None) -> float:
    """The value of the one row of log matching the given fields; KeyError
    unless exactly one row matches."""
    rows = [
        r for r in log.rows
        if (r.job, r.task, r.metric) == (job, task, metric)
        and (step is None or r.step == step)
    ]
    if len(rows) != 1:
        raise KeyError(
            f"expected one row for job={job} task={task} metric={metric} "
            f"step={step}, found {len(rows)}"
        )
    return rows[0].value


@contextmanager
def soft_target_records(monkeypatch, perturb=None):
    """Record every student's soft targets while the block runs run_online.

    Wraps pipeline.compute_loss_and_grads and LabelStore.open_snapshot and
    yields {step: {student name: (the segment count of the step's snapshot,
    present mask, soft targets)}}, taken from every call handed soft
    targets. One such call steps a whole stack; its soft rows run member by
    member, each member's in its distill order, so a member's soft targets
    are its slice of those rows, a view. A distilling student is handed its
    soft targets once per step, so the step is the count of its earlier
    calls. perturb, when given, is called as perturb(step, student name,
    soft targets) before the stack sees them and may change them in place.
    """
    records: dict[int, dict[str, tuple]] = {}
    calls: dict[str, int] = {}
    segments = []  # of each snapshot opened, in order
    compute, open_snapshot = pipeline.compute_loss_and_grads, LabelStore.open_snapshot

    def opened(store):
        snapshot = open_snapshot(store)
        segments.append(len(snapshot.segments))
        return snapshot

    def recorded(stack, x, labels, soft=None, present=None, *args, **kwargs):
        if soft is not None:
            at = 0
            for model, job in zip(stack.members, stack.jobs, strict=True):
                rows = soft[at:at + len(model.config.distill_tasks)]
                at += len(rows)
                if not len(rows):
                    continue
                step = calls[job] = calls.get(job, -1) + 1
                if perturb is not None:
                    perturb(step, job, rows)
                records.setdefault(step, {})[job] = (segments[-1], present, rows)
            assert at == len(soft)
        return compute(stack, x, labels, soft, present, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(LabelStore, "open_snapshot", opened)
        m.setattr(pipeline, "compute_loss_and_grads", recorded)
        yield records


def soft_digest(segments, present, soft) -> str:
    """sha256 over the snapshot's segment count, the present mask and the
    (tasks, batch) block of soft targets as little-endian float32, with its
    shape."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQQ", segments, *soft.shape))
    h.update(present.astype(np.uint8).tobytes())
    h.update(np.ascontiguousarray(soft, dtype="<f4").tobytes())
    return h.hexdigest()


@dataclass
class FleetAudit:
    ok: bool
    fleet_size: int
    segments_committed: int
    violations: list[str]
    mean_coverage: float


def audit_fleet(monkeypatch, world, teacher, students, sched, store_root,
                perturb=None) -> FleetAudit:
    """Run the loop with k >= 2 students and check that every student
    consumed byte-identical soft labels at every step: same snapshot
    segment count, same present masks, same float32 columns."""
    if len(students) < 2:
        raise ConfigError("consistency audit needs at least 2 students")
    with soft_target_records(monkeypatch, perturb) as records:
        log = pipeline.run_online(world, teacher, students, sched, store_root)
    violations = []
    for t in range(sched.total_steps):
        digests = {name: soft_digest(*rec) for name, rec in records.get(t, {}).items()}
        if len(digests) != len(students):
            violations.append(f"step {t}: {len(digests)} of {len(students)} students reported")
        elif len(set(digests.values())) != 1:
            violations.append(f"step {t}: digests diverge {sorted(digests.items())}")
    coverage = [r.value for r in log.rows if r.metric == "coverage"]
    snapshot = LabelStore(store_root).open_snapshot()
    return FleetAudit(not violations, len(students), len(snapshot.segments), violations,
                      float(np.mean(coverage)) if coverage else 0.0)


def one_shot_policy_metrics(ev, sim, rng, jobs) -> dict[str, tuple[float, float]]:
    """{job name: (engagement, satisfaction)} of the slate simulator run in
    one piece: all n_slates slates drawn at once, one forward per job over
    all of them, one mean per metric. jobs holds (name, model, train)."""
    slates = draw_slates(ev, sim, rng)
    flat = slates.x.reshape(-1, ev.config.feature_dim)
    rows = np.arange(sim.n_slates)
    policy = ev.config.task(sim.policy_task)
    out = {}
    for name, model, train in jobs:
        z, _ = model_forward(model, flat, clip=train.activation_clip)
        scores = task_score(z[model.tasks.index(policy)], policy.kind)
        picks = np.argmax(scores.reshape(rows.size, -1), axis=1)
        out[name] = (
            float(slates.true_policy[rows, picks].mean()),
            float(slates.true_satisfaction[rows, picks].mean()),
        )
    return out
