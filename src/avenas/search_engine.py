"""Hybrid differentiable architecture search.

Operator and channel logits are updated by backpropagating through relaxed
Gumbel-softmax samples; input resolution is non-differentiable through the
objective, so its logits follow a policy gradient instead: a resolution is
sampled once every K steps and the window-averaged objective (minus a running
baseline) weights the score-function update. Supernet weights and architecture
logits train jointly on the same batches with a single Adam optimizer, under an
additive latency penalty read from the lookup table.

The architecture state is two logit matrices, operators (n_blocks, n_ops) and
channel scales (n_blocks, n_scales), one row per block in ``spec.blocks()``
walk order. Each step draws their Gumbel noise in one array and relaxes each
matrix row-wise. The lookup table is read once per run into a cost tensor
(n_resolutions, n_blocks, n_ops, n_scales); the expected latency is then one
bilinear contraction on the tape, sum_b w_op[b] C[b] w_ch[b] (FBNet's form).
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
    SampledArch, SupernetSpec, derive_arch, gumbel_weights, init_supernet_weights,
    supernet_forward,
)
from .tensor_core import Graph, Tensor, add, backward, bilinear_sum, mse, scale


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


def latency_costs(spec: SupernetSpec, lut: LatencyTable) -> np.ndarray:
    """Every table entry the search can read, as one (n_resolutions, n_blocks,
    n_ops, n_scales) array with blocks in walk order. A missing entry raises
    ``LatencyTableError`` naming its key."""
    space = spec.search_space
    return np.array([[[[lut.query(view, branch, i, op, sc, res)
                        for sc in space.channel_scales]
                       for op in space.operators]
                      for view, branch, i, *_ in spec.blocks()]
                     for res in space.resolutions])


def expected_latency(spec: SupernetSpec, costs: np.ndarray,
                     arch_weights: tuple[Tensor, Tensor],
                     resolutions: dict[str, int]) -> Tensor:
    """Sum over blocks of the bilinear form w_op^T C w_ch at the window's
    resolution, in walk order; reduces to the exact chosen-entry sum under
    one-hot weights. ``costs`` is ``latency_costs``."""
    res = spec.search_space.resolutions
    rows = [res.index(resolutions[b.view]) for b in spec.blocks()]
    op_weights, ch_weights = arch_weights
    return bilinear_sum(op_weights, costs[rows, np.arange(len(rows))], ch_weights)


def cheapest_latency(spec: SupernetSpec, costs: np.ndarray) -> float:
    """Latency of the cheapest reachable architecture: per view, the
    resolution whose per-block minima sum lowest. ``costs`` is
    ``latency_costs``."""
    views = [b.view for b in spec.blocks()]
    per_block = costs.min(axis=(2, 3))            # (n_resolutions, n_blocks)
    total = 0.0
    for view in spec.views:
        rows = [j for j, v in enumerate(views) if v == view]
        total += min(np.cumsum(per_block[:, rows], axis=1)[:, -1])
    return float(total)


def minimal_latency(spec: SupernetSpec, lut: LatencyTable) -> float:
    """Latency of the cheapest reachable architecture under the table."""
    return cheapest_latency(spec, latency_costs(spec, lut))


@dataclass
class SearchResult:
    arch: SampledArch
    weights: dict[str, Tensor]
    log: list[dict]
    op_logits: np.ndarray        # (n_blocks, n_ops), rows in spec.blocks() order
    ch_logits: np.ndarray        # (n_blocks, n_scales), rows in the same order
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
        self.costs = latency_costs(spec, lut)
        space = spec.search_space
        self._blocks = list(spec.blocks())
        self.op_logits = Tensor(np.zeros((len(self._blocks), len(space.operators))),
                                requires_grad=True)
        self.ch_logits = Tensor(np.zeros((len(self._blocks), len(space.channel_scales))),
                                requires_grad=True)
        self.res = ResolutionSearch(spec, K=cfg.K, lr=cfg.lr_res)
        self._params = list(self.weights.values()) + [self.op_logits, self.ch_logits]
        self.adam = Adam([p.data for p in self._params], lr=cfg.lr)
        self.temperature = cfg.gumbel_temperature
        self.lambda_lat = cfg.lambda_lat
        self.gaze_state: GazeState | None = None
        self._over_budget = 0
        self.step_idx = 0
        self.log: list[dict] = []

    def _sample_arch_weights(self) -> tuple[Tensor, Tensor]:
        """Relaxed samples of both matrices from one noise draw, laid out as
        block by block, each block's operator noise before its scale noise."""
        n_ops, n_sc = self.op_logits.shape[1], self.ch_logits.shape[1]
        noise = self.rng_gumbel.gumbel(size=(len(self._blocks), n_ops + n_sc))
        return (gumbel_weights(self.op_logits, noise[:, :n_ops], self.temperature),
                gumbel_weights(self.ch_logits, noise[:, n_ops:], self.temperature))

    def _check_logits(self, t: int) -> None:
        for kind, logits in (("operator", self.op_logits), ("channel", self.ch_logits)):
            bad = np.flatnonzero(~np.isfinite(logits.data).all(axis=1))
            if bad.size:
                b = self._blocks[bad[0]]
                raise SearchError(f"non-finite {kind} logits at step {t}, block "
                                  f"{b.view}/{b.branch}/b{b.i}: the search diverged")

    def step(self) -> dict:
        cfg, spec = self.cfg, self.spec
        t = self.step_idx
        self._check_logits(t)
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
            lat_t = expected_latency(spec, self.costs, aw, resolutions)
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
    def _mean_entropy(logits: Tensor) -> float:
        """Mean over rows of the entropy of each row's softmax; rows summed
        in order."""
        p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        per_row = (p * np.log(np.maximum(p, 1e-300))).sum(axis=1)
        return float(0.0 - np.cumsum(per_row)[-1]) / len(per_row)

    def derive(self) -> SampledArch:
        return derive_arch(self.spec, self.op_logits.data, self.ch_logits.data,
                           self.res.logits)

    def run(self) -> SearchResult:
        feasible = cheapest_latency(self.spec, self.costs)
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
                            op_logits=self.op_logits.data.copy(),
                            ch_logits=self.ch_logits.data.copy(),
                            res_logits={v: lg.copy() for v, lg in self.res.logits.items()})


def run_search(spec: SupernetSpec, cfg: SearchConfig, lut: LatencyTable,
               task: SyntheticTask, frames,
               loss_weights: LossWeights | None = None) -> SearchResult:
    return SearchRun(spec, cfg, lut, task, frames, loss_weights).run()


def _softmax_list(logits: np.ndarray) -> list[float]:
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return [float(x) for x in p]
