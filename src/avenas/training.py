"""The optimisation step that the search and the from-scratch training of a
derived architecture share (``Loop.step``: batch, forward, gaze re-weighting,
``composite_loss`` plus an optional penalty, backward, Adam at
``LoopConfig.lr_at``), and that training itself.

A loop's small parameters live in one flat float64 buffer, and Adam (Kingma
& Ba 2015) walks every array in cache-sized chunks, with each element's
operations in per-array order, so the results keep their bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize as serialize_mod
from .serialize import InputError
from .ranges import AT_LEAST_1, NONNEGATIVE, check_ranges, ranged
from .objective import (
    GazeState, LossWeights, SyntheticTask, composite_loss, reweight_batch,
    stack_batch,
)
from .supernet import DiscreteEncoder, SampledArch, SupernetSpec, layer_shapes
from .tensor_core import Graph, Tensor, add, backward

LR_DECAY = 0.1                 # learning-rate factor at each decay step
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_CHUNK = 16_384            # elements per in-cache Adam update


@dataclass
class LoopConfig:
    steps: int = ranged(100_000, NONNEGATIVE)
    batch_size: int = ranged(16, AT_LEAST_1)
    lr: float = ranged(1e-3, NONNEGATIVE)   # 0 leaves the weights as initialised
    seed: int = 0
    log_every: int = ranged(50, AT_LEAST_1)

    def __post_init__(self):
        check_ranges(self)

    def lr_at(self, step: int) -> float:
        """``lr``, decayed by ``LR_DECAY`` every 40 % of the steps."""
        return self.lr * LR_DECAY ** (step // max(1, round(0.4 * self.steps)))


TrainConfig = LoopConfig     # train_encoder's settings are the shared loop's


class Adam:
    """Standard adaptive-moment optimizer over a fixed list of arrays,
    updated in place at the rate each step is given, with moment decays
    ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``. An array whose gradient is
    None keeps its values and moments.

    Each array goes through the whole update ``ADAM_CHUNK`` elements at a
    time, so a chunk's operands stay in cache; every element sees the same
    operations in the same order as in a whole-array update.
    """

    def __init__(self, arrays):
        self.arrays = list(arrays)
        self.t = 0
        # np.zeros, not zeros_like: a large array's zeros are the OS's fresh
        # pages, first written by the first step instead of here
        self.m = [np.zeros(a.shape) for a in self.arrays]
        self.v = [np.zeros(a.shape) for a in self.arrays]

    def step(self, grads, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for a, m, v, g in zip(self.arrays, self.m, self.v, grads):
            if g is None:
                continue
            a, m, v, g = a.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)
            for lo in range(0, a.size, ADAM_CHUNK):
                part = slice(lo, lo + ADAM_CHUNK)
                mc, vc, gc = m[part], v[part], g[part]
                mc *= ADAM_B1
                mc += (1 - ADAM_B1) * gc
                vc *= ADAM_B2
                vc += (1 - ADAM_B2) * (gc * gc)
                a[part] -= lr * (mc / bc1) / (np.sqrt(vc / bc2) + ADAM_EPS)


class Loop:
    """Data stream, gaze EMA and Adam state of one optimisation loop over
    ``params``; a non-finite objective raises ``error``.

    Each parameter under ``ADAM_CHUNK`` elements becomes a view into one
    float64 buffer, ``flat``; ``backward`` writes their gradients into views
    of a matching buffer, ``grad``, and Adam updates the two as one array, so
    hundreds of small arrays cost a few numpy calls. A larger parameter
    stays an array of its own, updated with the gradient ``backward``
    returns: Adam already spends a few calls per chunk on it, and a copy
    into the buffers would add set-up time and, held through the sweep,
    peak memory.

    A parameter that no step reads keeps its values and moments: a large one
    gets no update, a small one a zero gradient.
    """

    def __init__(self, cfg: LoopConfig, params, task: SyntheticTask, frames,
                 loss_weights: LossWeights | None, seed, error=RuntimeError):
        self.cfg, self.decoder, self.frames = cfg, task.decoder, list(frames)
        self.loss_weights = loss_weights or LossWeights()
        self.params = list(params)
        small = [p for p in self.params if p.size < ADAM_CHUNK]
        self.large = [p for p in self.params if p.size >= ADAM_CHUNK]
        self.flat = np.empty(sum(p.size for p in small))
        self.grad = np.zeros(self.flat.size)
        self._grads = {}
        lo = 0
        for p in small:
            hi = lo + p.size
            self.flat[lo:hi] = p.data.reshape(-1)
            p.data = self.flat[lo:hi].reshape(p.shape)
            self._grads[p] = self.grad[lo:hi].reshape(p.shape)
            lo = hi
        self.adam = Adam([self.flat, *(p.data for p in self.large)])
        self.rng = np.random.default_rng(seed)
        self.gaze: GazeState | None = None
        self.error = error

    def step(self, t: int, forward) -> tuple[float, dict]:
        """Step ``t``; ``forward(inputs)`` returns the encoder output (with
        ``z_early``) and a penalty Tensor (or None) added to ``composite_loss``.
        Returns the objective's value and the step's log row, which keeps the
        early term's value apart from the six ``terms``."""
        cfg = self.cfg
        idx = self.rng.integers(0, len(self.frames), size=cfg.batch_size)
        batch = stack_batch([self.frames[i] for i in idx])
        with Graph() as g:
            out, penalty = forward({v: Tensor(x) for v, x in batch["images"].items()})
            if self.gaze is None:
                self.gaze = GazeState.from_first_batch(
                    out.g.data, momentum=self.loss_weights.momentum,
                    temperature=self.loss_weights.tau)
            sw = reweight_batch(out.g.data, self.gaze)
            loss_t, terms = composite_loss(out, batch, self.loss_weights,
                                           self.decoder, sample_weights=sw)
            f_t = loss_t if penalty is None else add(loss_t, penalty)
        f_value = float(f_t.data)
        if not np.isfinite(f_value):
            raise self.error(f"non-finite objective at step {t}: {f_value}")
        backward(g, f_t, into=self._grads)
        self.adam.step([self.grad, *(g.grad(p) for p in self.large)], cfg.lr_at(t))
        early = terms.pop("early")
        return f_value, {"step": t, "loss": float(loss_t.data), "terms": terms,
                         "early": early}


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
    return composite_loss(out, batch, LossWeights(), task.decoder)[1]


def save_weights(path, enc: DiscreteEncoder) -> None:
    arrays = {name: t.data for name, t in enc.weights.items()}
    serialize_mod.save_arrays(path, arrays,
                              meta={"arch": enc.arch.to_json_dict()})


def load_weights(path, spec: SupernetSpec) -> DiscreteEncoder:
    arrays, meta = serialize_mod.load_arrays(path)
    try:
        arch = SampledArch.from_json_dict(meta["arch"])
    except KeyError:
        raise InputError(f"{path}: metadata has no 'arch' entry") from None
    except (ValueError, TypeError) as e:
        raise InputError(f"{path}: {e}") from None
    shapes = layer_shapes(spec, arch)
    extra = next((name for name in arrays if name not in shapes), None)
    if extra is not None:
        raise InputError(f"{path}: field {extra!r} is not a weight of the "
                         f"architecture in its metadata")
    for name, shape in shapes.items():
        if name not in arrays:
            raise InputError(f"{path}: missing weight {name!r}")
        if arrays[name].shape != shape:
            raise InputError(f"{path}: weight {name!r} has shape "
                             f"{arrays[name].shape}, expected {shape}")
    return DiscreteEncoder.from_weights(
        spec, arch, {name: Tensor(arrays[name], requires_grad=True) for name in shapes})
