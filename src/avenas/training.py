"""From-scratch training of one derived architecture on the synthetic task,
with the same objective the search uses (six-term loss, rareness re-weighting,
joint early-head supervision)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize as serialize_mod
from .objective import (
    GazeState, LossWeights, SyntheticTask, composite_loss, reweight_batch,
    stack_batch,
)
from .search_engine import Adam
from .supernet import DiscreteEncoder, SampledArch, SupernetSpec, layer_shapes
from .tensor_core import Graph, Tensor, add, backward, mse, scale


@dataclass
class TrainConfig:
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


def train_encoder(spec: SupernetSpec, arch: SampledArch, task: SyntheticTask,
                  frames, cfg: TrainConfig,
                  loss_weights: LossWeights | None = None):
    """Returns (encoder, line log). Zero steps leave the seeded init untouched."""
    lw = loss_weights or LossWeights()
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    enc = DiscreteEncoder(spec, arch, seed=int(seeds[0].generate_state(1)[0]))
    rng = np.random.default_rng(seeds[1])
    params = list(enc.weights.values())
    adam = Adam([p.data for p in params], lr=cfg.lr)
    gaze_state: GazeState | None = None
    frames = list(frames)
    log = []
    for t in range(cfg.steps):
        idx = rng.integers(0, len(frames), size=cfg.batch_size)
        batch = stack_batch([frames[i] for i in idx])
        with Graph() as g:
            out = enc.forward({v: Tensor(batch["images"][v]) for v in spec.views},
                              with_early=True)
            if gaze_state is None:
                gaze_state = GazeState.from_first_batch(
                    out.g.data, momentum=cfg.reweight_momentum,
                    temperature=cfg.reweight_temperature)
            sw = reweight_batch(out.g.data, gaze_state)
            loss_t, terms = composite_loss(out, batch, lw, task.decoder,
                                           sample_weights=sw)
            early_t = mse(out.z_early, Tensor(batch["z"]), sample_weights=sw)
            loss_t = add(loss_t, scale(early_t, lw.latent))
        loss_value = float(loss_t.data)
        if not math.isfinite(loss_value):
            raise RuntimeError(f"non-finite training loss at step {t}")
        backward(g, loss_t)
        adam.step([g.grad(p) for p in params], lr=cfg.lr_at(t))
        if t % cfg.log_every == 0 or t == cfg.steps - 1:
            log.append({"step": t, "loss": loss_value,
                        "terms": terms, "early": float(early_t.data)})
    return enc, log


def evaluate_encoder(enc: DiscreteEncoder, task: SyntheticTask, frames) -> dict:
    """Plain per-head mean-squared errors on a frame set (no re-weighting)."""
    batch = stack_batch(list(frames))
    out = enc.forward({v: Tensor(batch["images"][v]) for v in enc.spec.views},
                      with_early=True)
    _, terms = composite_loss(out, batch, LossWeights(), task.decoder)
    terms["early"] = float(mse(out.z_early, Tensor(batch["z"])).data)
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
