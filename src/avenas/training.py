"""The optimisation step that the search and the from-scratch training of a
derived architecture share (``Loop.step``: batch, forward, gaze re-weighting,
six-term loss plus the early latent term plus an optional penalty, backward,
Adam at ``LoopConfig.lr_at``), and that training itself."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize as serialize_mod
from .objective import (
    GazeState, LossWeights, SyntheticTask, composite_loss, reweight_batch,
    stack_batch,
)
from .supernet import DiscreteEncoder, SampledArch, SupernetSpec, layer_shapes
from .tensor_core import Graph, Tensor, add, backward, mse, scale


@dataclass
class LoopConfig:
    steps: int = 100_000
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_decay_every: int | None = None      # default: every 40% of steps
    reweight_temperature: float = 10.0
    reweight_momentum: float = 0.9
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def lr_at(self, step: int) -> float:
        every = self.lr_decay_every or max(1, round(0.4 * self.steps))
        return self.lr * self.lr_decay ** (step // every)


TrainConfig = LoopConfig     # train_encoder's settings are the shared loop's


class Adam:
    """Standard adaptive-moment optimizer over a fixed list of arrays,
    updated in place."""

    def __init__(self, arrays, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.arrays = list(arrays)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in self.arrays]
        self.v = [np.zeros_like(a) for a in self.arrays]

    def step(self, grads, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for a, m, v, g in zip(self.arrays, self.m, self.v, grads):
            if g is None:
                continue
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * (g * g)
            a -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def objective(out, batch: dict, lw: LossWeights, decoder,
              sample_weights: np.ndarray | None = None):
    """The six-term composite loss plus the early head's latent MSE at the
    latent weight; returns (loss Tensor, per-term values, early MSE Tensor)."""
    loss_t, terms = composite_loss(out, batch, lw, decoder,
                                   sample_weights=sample_weights)
    early_t = mse(out.z_early, Tensor(batch["z"]), sample_weights=sample_weights)
    return add(loss_t, scale(early_t, lw.latent)), terms, early_t


class Loop:
    """Data stream, gaze EMA and Adam state of one optimisation loop over
    ``params``; a non-finite objective raises ``error``."""

    def __init__(self, cfg: LoopConfig, params, task: SyntheticTask, frames,
                 loss_weights: LossWeights | None, seed, error=RuntimeError):
        self.cfg, self.decoder, self.frames = cfg, task.decoder, list(frames)
        self.loss_weights = loss_weights or LossWeights()
        self.params = list(params)
        self.adam = Adam([p.data for p in self.params], lr=cfg.lr)
        self.rng = np.random.default_rng(seed)
        self.gaze: GazeState | None = None
        self.error = error

    def step(self, t: int, forward) -> tuple[float, dict]:
        """Step ``t``; ``forward(inputs)`` returns the encoder output and a
        penalty Tensor (or None) added to the objective. Returns the
        objective's value and the step's log row."""
        cfg = self.cfg
        idx = self.rng.integers(0, len(self.frames), size=cfg.batch_size)
        batch = stack_batch([self.frames[i] for i in idx])
        with Graph() as g:
            out, penalty = forward({v: Tensor(x) for v, x in batch["images"].items()})
            if self.gaze is None:
                self.gaze = GazeState.from_first_batch(
                    out.g.data, momentum=cfg.reweight_momentum,
                    temperature=cfg.reweight_temperature)
            sw = reweight_batch(out.g.data, self.gaze)
            loss_t, terms, early_t = objective(out, batch, self.loss_weights,
                                               self.decoder, sw)
            f_t = loss_t if penalty is None else add(loss_t, penalty)
        f_value = float(f_t.data)
        if not np.isfinite(f_value):
            raise self.error(f"non-finite objective at step {t}: {f_value}")
        backward(g, f_t)
        self.adam.step([g.grad(p) for p in self.params], lr=cfg.lr_at(t))
        return f_value, {"step": t, "loss": float(loss_t.data), "terms": terms,
                         "early": float(early_t.data)}


def train_encoder(spec: SupernetSpec, arch: SampledArch, task: SyntheticTask,
                  frames, cfg: TrainConfig,
                  loss_weights: LossWeights | None = None):
    """Returns (encoder, line log). Zero steps leave the seeded init untouched."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    enc = DiscreteEncoder(spec, arch, seed=int(seeds[0].generate_state(1)[0]))
    loop = Loop(cfg, enc.weights.values(), task, frames, loss_weights, seeds[1])
    log = []
    for t in range(cfg.steps):
        _, row = loop.step(t, lambda inputs: (enc.forward(inputs, with_early=True), None))
        if t % cfg.log_every == 0 or t == cfg.steps - 1:
            log.append(row)
    return enc, log


def evaluate_encoder(enc: DiscreteEncoder, task: SyntheticTask, frames) -> dict:
    """Plain per-head mean-squared errors on a frame set (no re-weighting)."""
    batch = stack_batch(list(frames))
    out = enc.forward({v: Tensor(x) for v, x in batch["images"].items()}, with_early=True)
    _, terms, early_t = objective(out, batch, LossWeights(), task.decoder)
    terms["early"] = float(early_t.data)
    return terms


def save_weights(path, enc: DiscreteEncoder) -> None:
    arrays = {name: t.data for name, t in enc.weights.items()}
    serialize_mod.save_arrays(path, arrays,
                              meta={"arch": enc.arch.to_json_dict()})


def load_weights(path, spec: SupernetSpec) -> DiscreteEncoder:
    arrays, meta = serialize_mod.load_arrays(path)
    try:
        arch = SampledArch.from_json_dict(meta["arch"])
    except KeyError:
        raise ValueError(f"{path}: metadata has no 'arch' entry") from None
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from None
    shapes = layer_shapes(spec, arch)
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"{path}: missing weight {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: weight {name!r} has shape "
                             f"{arrays[name].shape}, expected {shape}")
    return DiscreteEncoder.from_weights(
        spec, arch, {name: Tensor(arrays[name], requires_grad=True) for name in shapes})
