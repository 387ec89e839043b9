"""Hybrid differentiable architecture search.

Operator and channel logits are updated by backpropagating through relaxed
Gumbel-softmax samples; input resolution is non-differentiable through the
objective, so its logits follow a policy gradient instead: a resolution is
sampled once every K steps and the window-averaged objective (minus a running
baseline) weights the score-function update. Supernet weights and architecture
logits train jointly on the same batches with a single Adam optimizer, under an
additive latency penalty read from the lookup table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_models import LatencyTable
from .objective import (
    GazeState, LossWeights, SyntheticTask, composite_loss, reweight_batch,
    stack_batch,
)
from .supernet import (
    ArchKey, SampledArch, SupernetSpec, derive_arch, gumbel_weights,
    init_supernet_weights, supernet_forward,
)
from .tensor_core import Graph, Tensor, add, backward, matmul, mse, reshape, scale


class SearchError(RuntimeError):
    pass


@dataclass
class SearchConfig:
    steps: int = 50_000
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_decay_every: int | None = None      # default: every 40% of steps
    lr_res: float = 0.02
    K: int = 16
    gumbel_temperature: float = 5.0
    gumbel_anneal: float = 0.98
    gumbel_anneal_every: int = 100
    gumbel_min: float = 0.5
    lambda_lat: float = 0.05
    latency_budget_ms: float = float("inf")
    budget_patience: int = 100
    reweight_temperature: float = 10.0
    reweight_momentum: float = 0.9
    seed: int = 0
    log_every: int = 10

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.latency_budget_ms <= 0:
            raise ValueError("latency budget must be positive")

    def lr_at(self, step: int) -> float:
        every = self.lr_decay_every or max(1, round(0.4 * self.steps))
        return self.lr * self.lr_decay ** (step // every)


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


def policy_grad(logits: np.ndarray, chosen: int, f_value: float,
                baseline: float) -> np.ndarray:
    """Score-function gradient of the objective w.r.t. categorical logits:
    (f - b) * d/dtheta log p(chosen | theta) with p = softmax(theta)."""
    p = np.exp(logits - logits.max())
    p /= p.sum()
    onehot = np.zeros_like(logits)
    onehot[chosen] = 1.0
    return (f_value - baseline) * (onehot - p)


class ResolutionSearch:
    """Per-view resolution logits driven by windowed policy-gradient updates."""

    def __init__(self, spec: SupernetSpec, K: int, lr: float):
        self.spec = spec
        self.K = K
        self.logits = {v: np.zeros(len(spec.search_space.resolutions))
                       for v in spec.views}
        self.adam = Adam(list(self.logits.values()), lr=lr)
        self.baseline: float | None = None
        self.current: dict[str, int] = {}
        self.window_fs: list[float] = []

    def begin_window(self, rng: np.random.Generator) -> dict[str, int]:
        """Sample one resolution index per view (Gumbel-max, i.e. softmax law)."""
        self.current = {v: int(np.argmax(lg + rng.gumbel(size=lg.shape)))
                        for v, lg in self.logits.items()}
        self.window_fs = []
        return dict(self.current)

    def resolutions(self) -> dict[str, int]:
        res = self.spec.search_space.resolutions
        return {v: res[i] for v, i in self.current.items()}

    def record(self, f_value: float) -> None:
        self.window_fs.append(float(f_value))

    @property
    def window_complete(self) -> bool:
        return len(self.window_fs) >= self.K

    def end_window(self) -> None:
        """The policy-gradient update from one complete window of rewards."""
        if len(self.window_fs) != self.K:
            raise SearchError(
                f"window flushed with {len(self.window_fs)} of {self.K} rewards")
        f_bar = float(np.mean(self.window_fs))
        if self.baseline is None:
            self.baseline = f_bar
        grads = [policy_grad(self.logits[v], self.current[v], f_bar, self.baseline)
                 for v in self.logits]
        self.adam.step(grads)
        self.baseline = 0.9 * self.baseline + 0.1 * f_bar
        self.window_fs = []


def latency_cost_matrix(spec: SupernetSpec, lut: LatencyTable, view: str,
                        branch: str, block: int, resolution: int) -> np.ndarray:
    space = spec.search_space
    return np.array([[lut.query(view, branch, block, op, sc, resolution)
                      for sc in space.channel_scales]
                     for op in space.operators])


def expected_latency(spec: SupernetSpec, lut: LatencyTable,
                     arch_weights: dict, resolutions: dict[str, int]) -> Tensor:
    """Sum over blocks of the bilinear form w_op^T C w_ch at the window's
    resolution; reduces to the exact chosen-entry sum under one-hot weights."""
    total = None
    for view, branch, i, *_ in spec.blocks():
        c = latency_cost_matrix(spec, lut, view, branch, i, resolutions[view])
        ow, cw = arch_weights[(view, branch, i)]
        row = matmul(reshape(ow, (1, c.shape[0])), Tensor(c))
        val = matmul(row, reshape(cw, (c.shape[1], 1)))
        total = val if total is None else add(total, val)
    return reshape(total, ())


def minimal_latency(spec: SupernetSpec, lut: LatencyTable) -> float:
    """Latency of the cheapest reachable architecture under the table."""
    space = spec.search_space
    total = 0.0
    for view in spec.views:
        best = math.inf
        for res in space.resolutions:
            s = 0.0
            for v, branch, i, *_ in spec.blocks():
                if v != view:
                    continue
                s += min(lut.query(view, branch, i, op, sc, res)
                         for op in space.operators for sc in space.channel_scales)
            best = min(best, s)
        total += best
    return total


@dataclass
class SearchResult:
    arch: SampledArch
    weights: dict[str, Tensor]
    log: list[dict]
    op_logits: dict[ArchKey, np.ndarray]
    ch_logits: dict[ArchKey, np.ndarray]
    res_logits: dict[str, np.ndarray]


class SearchRun:
    """Joint state of one architecture search."""

    def __init__(self, spec: SupernetSpec, cfg: SearchConfig, lut: LatencyTable,
                 task: SyntheticTask, frames, loss_weights: LossWeights | None = None):
        self.spec, self.cfg, self.lut, self.task = spec, cfg, lut, task
        self.frames = list(frames)
        self.loss_weights = loss_weights or LossWeights()
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        self.rng_data = np.random.default_rng(seeds[1])
        self.rng_gumbel = np.random.default_rng(seeds[2])
        self.rng_res = np.random.default_rng(seeds[3])
        self.weights = init_supernet_weights(spec, seed=int(seeds[0].generate_state(1)[0]))
        n_ops = len(spec.search_space.operators)
        n_sc = len(spec.search_space.channel_scales)
        self.op_logits = {}
        self.ch_logits = {}
        for view, branch, i, *_ in spec.blocks():
            self.op_logits[(view, branch, i)] = Tensor(np.zeros(n_ops), requires_grad=True)
            self.ch_logits[(view, branch, i)] = Tensor(np.zeros(n_sc), requires_grad=True)
        self.res = ResolutionSearch(spec, K=cfg.K, lr=cfg.lr_res)
        self._params = (list(self.weights.values())
                        + list(self.op_logits.values())
                        + list(self.ch_logits.values()))
        self.adam = Adam([p.data for p in self._params], lr=cfg.lr)
        self.temperature = cfg.gumbel_temperature
        self.lambda_lat = cfg.lambda_lat
        self.gaze_state: GazeState | None = None
        self._over_budget = 0
        self.step_idx = 0
        self.log: list[dict] = []

    def _sample_arch_weights(self):
        n_ops = len(self.spec.search_space.operators)
        n_sc = len(self.spec.search_space.channel_scales)
        aw = {}
        for key, op_l in self.op_logits.items():
            aw[key] = (
                gumbel_weights(op_l, self.rng_gumbel.gumbel(size=n_ops), self.temperature),
                gumbel_weights(self.ch_logits[key], self.rng_gumbel.gumbel(size=n_sc),
                               self.temperature),
            )
        return aw

    def step(self) -> dict:
        cfg, spec = self.cfg, self.spec
        t = self.step_idx
        if t % cfg.K == 0:
            if self.res.window_complete:
                self.res.end_window()
            self.res.begin_window(self.rng_res)
        resolutions = self.res.resolutions()
        idx = self.rng_data.integers(0, len(self.frames), size=cfg.batch_size)
        frames = [self.frames[i] for i in idx]
        batch = stack_batch(frames)
        with Graph() as g:
            aw = self._sample_arch_weights()
            inputs = {v: Tensor(batch["images"][v]) for v in spec.views}
            out = supernet_forward(spec, self.weights, inputs, aw, resolutions,
                                   with_early=True)
            if self.gaze_state is None:
                self.gaze_state = GazeState.from_first_batch(
                    out.g.data, momentum=cfg.reweight_momentum,
                    temperature=cfg.reweight_temperature)
            sw = reweight_batch(out.g.data, self.gaze_state)
            loss_t, terms = composite_loss(out, batch, self.loss_weights,
                                           self.task.decoder, sample_weights=sw)
            early_t = mse(out.z_early, Tensor(batch["z"]), sample_weights=sw)
            loss_t = add(loss_t, scale(early_t, self.loss_weights.latent))
            lat_t = expected_latency(spec, self.lut, aw, resolutions)
            f_t = add(loss_t, scale(lat_t, self.lambda_lat))
        f_value = float(f_t.data)
        if not math.isfinite(f_value):
            raise SearchError(f"non-finite objective at step {t}: {f_value}")
        backward(g, f_t)
        grads = [g.grad(p) for p in self._params]
        self.adam.step(grads, lr=cfg.lr_at(t))
        self.res.record(f_value)
        lat_value = float(lat_t.data)
        if lat_value > cfg.latency_budget_ms:
            self._over_budget += 1
            if self._over_budget >= cfg.budget_patience:
                self.lambda_lat *= 2.0
                self._over_budget = 0
        else:
            self._over_budget = 0
        if (t + 1) % cfg.gumbel_anneal_every == 0:
            self.temperature = max(cfg.gumbel_min,
                                   self.temperature * cfg.gumbel_anneal)
        metrics = {
            "step": t,
            "f": f_value,
            "loss": float(loss_t.data),
            "latency_ms": lat_value,
            "lambda_lat": self.lambda_lat,
            "temperature": self.temperature,
            "resolution": resolutions,
            "res_dist": {v: _softmax_list(lg) for v, lg in self.res.logits.items()},
            "op_entropy": self._mean_entropy(self.op_logits),
            "ch_entropy": self._mean_entropy(self.ch_logits),
            "terms": terms,
        }
        self.step_idx += 1
        return metrics

    @staticmethod
    def _mean_entropy(logit_map) -> float:
        ent = 0.0
        for t in logit_map.values():
            p = np.exp(t.data - t.data.max())
            p /= p.sum()
            ent -= float((p * np.log(np.maximum(p, 1e-300))).sum())
        return ent / max(len(logit_map), 1)

    def derive(self) -> SampledArch:
        return derive_arch(self.spec,
                           {k: t.data for k, t in self.op_logits.items()},
                           {k: t.data for k, t in self.ch_logits.items()},
                           self.res.logits)

    def run(self) -> SearchResult:
        feasible = minimal_latency(self.spec, self.lut)
        if feasible > self.cfg.latency_budget_ms:
            raise SearchError(
                f"latency budget {self.cfg.latency_budget_ms} ms is infeasible: the "
                f"cheapest architecture already costs {feasible:.4f} ms")
        for _ in range(self.cfg.steps):
            metrics = self.step()
            if metrics["step"] % self.cfg.log_every == 0 \
                    or metrics["step"] == self.cfg.steps - 1:
                self.log.append(metrics)
        if self.res.window_complete:
            self.res.end_window()
        return SearchResult(arch=self.derive(), weights=self.weights, log=self.log,
                            op_logits={k: t.data.copy() for k, t in self.op_logits.items()},
                            ch_logits={k: t.data.copy() for k, t in self.ch_logits.items()},
                            res_logits={v: lg.copy() for v, lg in self.res.logits.items()})


def run_search(spec: SupernetSpec, cfg: SearchConfig, lut: LatencyTable,
               task: SyntheticTask, frames,
               loss_weights: LossWeights | None = None) -> SearchResult:
    return SearchRun(spec, cfg, lut, task, frames, loss_weights).run()


def _softmax_list(logits: np.ndarray) -> list[float]:
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return [float(x) for x in p]
