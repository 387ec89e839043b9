"""Hybrid differentiable architecture search.

Operator and channel logits are updated by backpropagating through relaxed
Gumbel-softmax samples; input resolution is non-differentiable through the
objective, so its logits follow a policy gradient instead: a resolution is
sampled once every K steps and the window-averaged objective (minus a running
baseline) weights the score-function update. Supernet weights and architecture
logits train jointly on the same batches with a single Adam optimizer, under an
additive latency penalty read from the lookup table, in ``training.Loop.step``,
the update the training of a derived encoder runs too.

The architecture state is two logit matrices, operators (n_blocks, n_ops) and
channel scales (n_blocks, n_scales), one row per block in ``spec.blocks()``
walk order. Each step draws their Gumbel noise in one array and relaxes each
matrix row-wise. The lookup table is read once per run into a cost tensor
(n_resolutions, n_blocks, n_ops, n_scales); the expected latency is then one
bilinear contraction on the tape, sum_b w_op[b] C[b] w_ch[b] (FBNet's form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_models import LatencyTable
from .objective import LossWeights, SyntheticTask
from .supernet import (
    SampledArch, SupernetSpec, derive_arch, gumbel_weights, init_supernet_weights,
    supernet_forward,
)
from .tensor_core import Tensor, bilinear_sum, scale
from .training import Adam, Loop, LoopConfig
# called by training.Loop.step; bound here too for perfbench/spans.py's wrappers
from .objective import composite_loss, reweight_batch, stack_batch  # noqa: F401
from .tensor_core import backward  # noqa: F401


class SearchError(RuntimeError):
    pass


@dataclass
class SearchConfig(LoopConfig):
    steps: int = 50_000
    lr_res: float = 0.02
    K: int = 16
    gumbel_temperature: float = 5.0
    gumbel_anneal: float = 0.98
    gumbel_anneal_every: int = 100
    gumbel_min: float = 0.5
    lambda_lat: float = 0.05
    latency_budget_ms: float = float("inf")
    budget_patience: int = 100
    log_every: int = 10

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        super().__post_init__()
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.latency_budget_ms <= 0:
            raise ValueError("latency budget must be positive")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def policy_grad(logits: np.ndarray, chosen: int, f_value: float,
                baseline: float) -> np.ndarray:
    """Score-function gradient of the objective w.r.t. categorical logits:
    (f - b) * d/dtheta log p(chosen | theta) with p = softmax(theta)."""
    p = _softmax(logits)
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
        self.spec, self.cfg = spec, cfg
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
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
        self.loop = Loop(cfg, [*self.weights.values(), self.op_logits, self.ch_logits],
                         task, frames, loss_weights, seeds[1], SearchError)
        self.temperature = cfg.gumbel_temperature
        self.lambda_lat = cfg.lambda_lat
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
        lat_t = None

        def forward(inputs):
            nonlocal lat_t
            aw = self._sample_arch_weights()
            out = supernet_forward(spec, self.weights, inputs, aw, resolutions,
                                   with_early=True)
            lat_t = expected_latency(spec, self.costs, aw, resolutions)
            return out, scale(lat_t, self.lambda_lat)

        f_value, row = self.loop.step(t, forward)
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
            "loss": row["loss"],
            "latency_ms": lat_value,
            "lambda_lat": self.lambda_lat,
            "temperature": self.temperature,
            "resolution": resolutions,
            "res_dist": {v: _softmax(lg).tolist() for v, lg in self.res.logits.items()},
            "op_entropy": self._mean_entropy(self.op_logits),
            "ch_entropy": self._mean_entropy(self.ch_logits),
            "terms": row["terms"],
        }
        self.step_idx += 1
        return metrics

    @staticmethod
    def _mean_entropy(logits: Tensor) -> float:
        """Mean over rows of the entropy of each row's softmax; rows summed
        in order."""
        p = _softmax(logits.data)
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

