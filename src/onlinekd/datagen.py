"""Seeded non-stationary stream simulator.

Manufactures the three pathologies the training system has to survive:
slow distribution drift (latent task vectors random-walking on the unit
sphere), a noisy heavy-tailed regression target whose multiplicative
lognormal noise is mean-preserving, and engagement/satisfaction conflict
(the angle between the PET and PST latent directions).

Binary task labels are Bernoulli(sigmoid(k * w_task . x)); regression
labels are softplus(k * w_task . x) scaled by exp(sigma*z - sigma^2/2).
Identical (config, seed) pairs yield bit-identical streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ranker import BINARY, OTHER, PET, PST, REGRESSION, TaskSpec, _sigmoid, validate_tasks

DEFAULT_TASKS = (
    TaskSpec("ctr", BINARY, PET),
    TaskSpec("sat", BINARY, PST),
    TaskSpec("ltv", REGRESSION, OTHER),
    TaskSpec("aux_click", BINARY, OTHER),
)


def _domain(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


@dataclass(frozen=True)
class GenConfig:
    feature_dim: int = 32
    drift_rate: float = 0.999
    logit_scale: float = 2.0
    ltv_noise_sigma: float = 0.8
    conflict_angle: float = np.pi / 3
    tasks: tuple[TaskSpec, ...] = DEFAULT_TASKS

    def __post_init__(self) -> None:
        if self.feature_dim < 2:
            raise ConfigError("feature_dim must be >= 2")
        if not 0.0 <= self.drift_rate <= 1.0:
            raise ConfigError("drift_rate must be in [0, 1]")
        if not 0.0 <= self.conflict_angle <= np.pi:
            raise ConfigError("conflict_angle must be in [0, pi]")
        if self.ltv_noise_sigma < 0:
            raise ConfigError("ltv_noise_sigma must be >= 0")
        validate_tasks(self.tasks)

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise ConfigError(f"unknown task {name!r}")


@dataclass
class Batch:
    """Columnar view of n consecutive stream examples."""

    example_ids: np.ndarray  # uint64, strictly increasing
    x: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n_tasks, n) float64, one row per task in stream order


@dataclass
class WorldState:
    """Latent state of the stream at one step, plus its private generator."""

    config: GenConfig
    seed: int
    t: int
    latents: dict[str, np.ndarray]
    rng: np.random.Generator
    next_example_id: int = 0
    drift_frozen: bool = False

    def derive_rng(self, label: str, *salts: int) -> np.random.Generator:
        """Independent generator keyed by (seed, label, salts); reproducible
        regardless of how far the stream has advanced."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, _domain(label), *salts])
        )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def init_world(cfg: GenConfig, seed: int) -> WorldState:
    """Draw latent task vectors on the unit sphere.

    All PET tasks start on one direction and all PST tasks on another, with
    the configured angle between them; other tasks get independent random
    directions. Draw order is fixed so streams are seed-reproducible.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _domain("stream")]))
    d = cfg.feature_dim
    pet_dir = _unit(rng.standard_normal(d))
    raw = rng.standard_normal(d)
    orth = raw - np.dot(raw, pet_dir) * pet_dir
    norm = np.linalg.norm(orth)
    if norm < 1e-12:
        raise ConfigError("degenerate draw while constructing conflict basis")
    orth /= norm
    pst_dir = np.cos(cfg.conflict_angle) * pet_dir + np.sin(cfg.conflict_angle) * orth
    latents: dict[str, np.ndarray] = {}
    for task in cfg.tasks:
        if task.category == PET:
            latents[task.name] = pet_dir.copy()
        elif task.category == PST:
            latents[task.name] = pst_dir.copy()
        else:
            latents[task.name] = _unit(rng.standard_normal(d))
    return WorldState(config=cfg, seed=seed, t=0, latents=latents, rng=rng)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def next_batch(world: WorldState, n: int) -> Batch:
    """Draw n examples at the current latent state, then advance the drift.

    Mutates the world in place (step counter, ids, latents, rng stream).
    """
    if n < 1:
        raise ValueError("batch size must be >= 1")
    cfg = world.config
    rng = world.rng
    x = rng.standard_normal((n, cfg.feature_dim))
    labels = np.empty((len(cfg.tasks), n))
    for row, task in zip(labels, cfg.tasks):
        margin = cfg.logit_scale * (x @ world.latents[task.name])
        if task.kind == BINARY:
            row[:] = rng.random(n) < _sigmoid(margin)
        else:
            row[:] = _softplus(margin)
            sigma = cfg.ltv_noise_sigma
            if sigma > 0.0:
                z = rng.standard_normal(n)
                row *= np.exp(sigma * z - 0.5 * sigma * sigma)
    ids = np.arange(
        world.next_example_id, world.next_example_id + n, dtype=np.uint64
    )
    batch = Batch(example_ids=ids, x=x, labels=labels)
    world.next_example_id += n
    _drift(world)
    world.t += 1
    return batch


def _drift(world: WorldState) -> None:
    rho = world.config.drift_rate
    # rho == 1 keeps latents bit-identical forever (no normalization jitter,
    # no rng draws); frozen forks behave the same way.
    if world.drift_frozen or rho >= 1.0:
        return
    scale = np.sqrt(1.0 - rho * rho)
    for task in world.config.tasks:
        eps = world.rng.standard_normal(world.config.feature_dim)
        world.latents[task.name] = _unit(rho * world.latents[task.name] + scale * eps)


def true_task_value(world: WorldState, x: np.ndarray, task: str) -> np.ndarray:
    """Noise-free expectation of a task's label at the current latent state:
    sigmoid(k w.x) for binary tasks, softplus(k w.x) for regression."""
    spec = world.config.task(task)
    x = np.asarray(x, dtype=np.float64)
    margin = world.config.logit_scale * (x @ world.latents[task])
    return _sigmoid(margin) if spec.kind == BINARY else _softplus(margin)


def fork(world: WorldState, label: str, *salts: int) -> WorldState:
    """Branch a deterministic side-stream at the current latent state.

    The fork shares the parent's latents (copied) and step counter but owns
    an independent generator, so held-out evaluation draws never perturb the
    training stream. Its drift is frozen: it samples the instantaneous
    step-t distribution instead of continuing the random walk.
    """
    return WorldState(
        config=world.config,
        seed=world.seed,
        t=world.t,
        latents={k: v.copy() for k, v in world.latents.items()},
        rng=world.derive_rng(label, *salts, world.t),
        next_example_id=world.next_example_id,
        drift_frozen=True,
    )
