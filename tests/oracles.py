"""Independent reference implementations used to pin expected test values.

The reference functions are deliberately written from first principles
(python loops, scalar math, brute-force enumeration) and share no code with
the package under test. The test aids at the end do use the package: a
metric-row lookup, and the fleet audit, which drives run_online and records
the soft targets each student is handed.
"""

from __future__ import annotations

import hashlib
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from onlinekd import pipeline
from onlinekd.errors import ConfigError
from onlinekd.labelstore import LabelStore


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


def stored_ids(snapshot) -> np.ndarray:
    """Every example id in a snapshot's segments, one entry per stored row
    (an id written twice appears twice). Its length is the snapshot's row
    count; np.isin against it gives which probe ids the snapshot covers."""
    return np.concatenate(
        [segment_ids(seg) for seg in snapshot.segments] + [np.zeros(0, np.uint64)]
    )


def argmax_policy_metrics(x_slates, true_policy, true_sat, score_rows):
    """Slate policy metrics recomputed with explicit python loops."""
    n, m = true_policy.shape
    e = 0.0
    s = 0.0
    for i in range(n):
        best_j = 0
        for j in range(1, m):
            if score_rows[i][j] > score_rows[i][best_j]:
                best_j = j
        e += true_policy[i][best_j]
        s += true_sat[i][best_j]
    return e / n, s / n


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

    Wraps pipeline._soft_targets_for and yields {step: {student name:
    (manifest_version, soft targets)}}, keyed by batch.t. perturb, when
    given, is called as perturb(step, student name, soft targets) before the
    student sees them and may change them in place.
    """
    records: dict[int, dict[str, tuple]] = {}
    original = pipeline._soft_targets_for

    def recorded(student, snapshot, batch):
        soft, coverage = original(student, snapshot, batch)
        if perturb is not None:
            perturb(batch.t, student.name, soft)
        records.setdefault(batch.t, {})[student.name] = (snapshot.manifest_version, soft)
        return soft, coverage

    with monkeypatch.context() as m:
        m.setattr(pipeline, "_soft_targets_for", recorded)
        yield records


def soft_digest(manifest_version, soft) -> str:
    """sha256 over the manifest version, each task's present mask and its
    values as little-endian float32, tasks in name order."""
    h = hashlib.sha256()
    h.update(struct.pack("<Q", manifest_version))
    for task in sorted(soft):
        h.update(task.encode("utf-8"))
        h.update(soft[task].present.astype(np.uint8).tobytes())
        h.update(np.ascontiguousarray(soft[task].values, dtype="<f4").tobytes())
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
    consumed byte-identical soft labels at every step: same manifest
    version, same present masks, same float32 columns."""
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
