import copy
import dataclasses
import itertools

import numpy as np
import pytest

from avenas import search_engine, training
from avenas.cost_models import (
    LatencyTable, LatencyTableError, score_arch, synthetic_latency_table,
)
from avenas.objective import LossWeights, SyntheticTask, composite_loss, generate_sequence, stack_batch
from avenas.search_engine import (
    Adam, ResolutionSearch, SearchConfig, SearchError, SearchRun,
    expected_latency, latency_costs, minimal_latency, policy_grad, run_search,
)
from avenas.supernet import SampledArch, SearchSpace, gumbel_weights, sample_hard, toy_spec
from avenas.tensor_core import Graph, Tensor, backward, mse

from helpers import from_supernet, micro_spec, mul, one_hot_arch_weights, random_arch


def three_res_spec():
    return dataclasses.replace(
        micro_spec(), search_space=SearchSpace(operators=("conv", "skip"),
                                               channel_scales=(0.5, 1.0),
                                               resolutions=(8, 12, 16)))


# ---------------------------------------------------------------------------
# optimizer and gradient estimators
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    x = np.array([3.0, -2.0])
    opt = Adam([x])
    for _ in range(300):
        opt.step([2 * x], 0.1)
    assert np.abs(x).max() < 1e-2


def test_policy_grad_unbiased_3sigma():
    logits = np.array([0.5, 0.0, -0.5])
    f = np.array([1.0, 0.3, 0.6])
    p = np.exp(logits) / np.exp(logits).sum()
    analytic = p * (f - (p * f).sum())
    rng = np.random.default_rng(0)
    n = 10_000
    draws = np.empty((n, 3))
    for k in range(n):
        c = int(np.argmax(logits + rng.gumbel(size=3)))
        draws[k] = policy_grad(logits, c, f[c], baseline=0.0)
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert (np.abs(mean - analytic) <= 3 * sem).all()


def test_reparameterized_estimator_matches_fd():
    # quadratic objective of the relaxed sample; common random numbers
    theta = np.array([0.3, -0.2, 0.5])
    a = np.array([1.0, 2.0, 3.0])
    tau = 1.0
    rng = np.random.default_rng(1)
    noises = rng.gumbel(size=(1000, 3))

    def f_value(th, eps):
        w = np.exp((th + eps) / tau)
        w /= w.sum()
        return float((a * w * w).sum())

    from avenas.tensor_core import scale

    grads = np.zeros(3)
    for eps in noises:
        t = Tensor(theta.copy(), requires_grad=True)
        with Graph() as g:
            w = gumbel_weights(t, eps, tau)
            scaled = mul(w, Tensor(np.sqrt(a)))
            loss = scale(mse(scaled, Tensor(np.zeros(3))), 3.0)  # = sum a_i w_i^2
        backward(g, loss)
        grads += g.grad(t)
    grads /= len(noises)

    h = 1e-4
    fd = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        up = np.mean([f_value(theta + e, eps) for eps in noises])
        dn = np.mean([f_value(theta - e, eps) for eps in noises])
        fd[i] = (up - dn) / (2 * h)
    rel = np.abs(grads - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel < 0.05


# ---------------------------------------------------------------------------
# resolution policy search
# ---------------------------------------------------------------------------

def test_flat_reward_gives_zero_update():
    rs = ResolutionSearch(three_res_spec(), K=4, lr=0.05)
    rng = np.random.default_rng(2)
    for _ in range(20):
        rs.begin_window(rng)
        for _ in range(4):
            rs.record(1.37)
        rs.end_window()
    np.testing.assert_allclose(rs.logits["mouth"], 0.0, atol=1e-12)


def test_incomplete_window_rejected():
    rs = ResolutionSearch(three_res_spec(), K=4, lr=0.05)
    rs.begin_window(np.random.default_rng(0))
    rs.record(1.0)
    with pytest.raises(SearchError, match="window"):
        rs.end_window()


def test_begin_window_draws_with_sample_hard(monkeypatch):
    # the search's resolution draw is the Gumbel-max draw criterion 2 tests
    rs = ResolutionSearch(toy_spec(), K=4, lr=0.05)
    logit_rng = np.random.default_rng(4)
    for lg in rs.logits.values():
        lg[:] = logit_rng.normal(size=lg.shape)
    calls = []
    monkeypatch.setattr(search_engine, "sample_hard",
                        lambda lg, rng: calls.append(lg) or sample_hard(lg, rng))
    rng = np.random.default_rng(5)
    twin = copy.deepcopy(rng)
    for _ in range(20):
        picked = rs.begin_window(rng)
        assert picked == {v: sample_hard(lg, twin) for v, lg in rs.logits.items()}
    assert len(calls) == 20 * len(rs.logits)


@pytest.mark.parametrize("seed", [0, 1])
def test_policy_converges_to_cheapest_resolution(seed):
    f_of_idx = {0: 1.0, 1: 0.2, 2: 0.6}
    rs = ResolutionSearch(three_res_spec(), K=16, lr=0.02)
    rng = np.random.default_rng(seed)
    for window in range(500):
        idx = rs.begin_window(rng)["mouth"]
        for _ in range(16):
            rs.record(f_of_idx[idx])
        rs.end_window()
        p = np.exp(rs.logits["mouth"] - rs.logits["mouth"].max())
        p /= p.sum()
        if p[1] >= 0.9:
            break
    assert p[1] >= 0.9, f"softmax mass on optimum only {p[1]:.3f} after 500 windows"


def test_single_candidate_resolution_unchanged():
    spec = dataclasses.replace(
        micro_spec(), search_space=SearchSpace(operators=("conv", "skip"),
                                               channel_scales=(0.5, 1.0),
                                               resolutions=(8,)))
    rs = ResolutionSearch(spec, K=2, lr=0.05)
    rng = np.random.default_rng(3)
    for _ in range(10):
        rs.begin_window(rng)
        rs.record(1.0)
        rs.record(2.0)
        rs.end_window()
    np.testing.assert_allclose(rs.logits["mouth"], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# expected latency
# ---------------------------------------------------------------------------

def test_expected_latency_zero_table():
    spec = micro_spec()
    lut = LatencyTable(entries={k: 0.0 for k in synthetic_latency_table(spec).entries})
    arch = random_arch(spec, np.random.default_rng(0))
    aw = one_hot_arch_weights(spec, arch)
    lat = expected_latency(spec, latency_costs(spec, lut), aw, arch.resolutions)
    assert float(lat.data) == 0.0


def test_expected_latency_one_hot_equals_score_bitexact():
    spec = toy_spec()
    lut = synthetic_latency_table(spec)
    costs = latency_costs(spec, lut)
    rng = np.random.default_rng(4)
    for _ in range(20):
        arch = random_arch(spec, rng)
        aw = one_hot_arch_weights(spec, arch)
        lat = float(expected_latency(spec, costs, aw, arch.resolutions).data)
        assert lat == score_arch(spec, arch, lut)


def test_expected_latency_uniform_two_ops():
    spec = micro_spec()
    entries = {}
    for k in synthetic_latency_table(spec).entries:
        view, branch, i, op, sc, res = k
        entries[k] = {"conv": 1.0, "skip": 3.0}[op]
    lut = LatencyTable(entries=entries)
    n_blocks = len(list(spec.blocks()))
    aw = (Tensor(np.full((n_blocks, 2), 0.5)), Tensor(np.tile([1.0, 0.0], (n_blocks, 1))))
    lat = expected_latency(spec, latency_costs(spec, lut), aw, {"mouth": 8})
    assert float(lat.data) == pytest.approx(2.0 * n_blocks, rel=1e-12)


def test_expected_latency_differentiable_in_logits():
    spec = micro_spec()
    lut = synthetic_latency_table(spec)
    rng = np.random.default_rng(5)
    n_blocks = len(list(spec.blocks()))
    lo = Tensor(rng.normal(size=(n_blocks, 2)), requires_grad=True)
    lc = Tensor(rng.normal(size=(n_blocks, 2)), requires_grad=True)
    with Graph() as g:
        aw = (gumbel_weights(lo, np.zeros(lo.shape), 1.0),
              gumbel_weights(lc, np.zeros(lc.shape), 1.0))
        lat = expected_latency(spec, latency_costs(spec, lut), aw, {"mouth": 8})
    backward(g, lat)
    for j in range(n_blocks):
        assert np.abs(g.grad(lo)[j]).max() > 0
        assert np.abs(g.grad(lc)[j]).max() > 0


def test_minimal_latency_and_infeasible_budget():
    spec = micro_spec()
    lut = synthetic_latency_table(spec)
    mini = minimal_latency(spec, lut)
    assert mini > 0
    task = SyntheticTask(spec, seed=0)
    frames = generate_sequence(task, seed=1, n_frames=8)
    cfg = SearchConfig(steps=4, batch_size=2, latency_budget_ms=mini / 10, seed=0)
    with pytest.raises(SearchError, match="infeasible"):
        run_search(spec, cfg, lut, task, frames)


def test_minimal_latency_is_the_cheapest_enumerated_arch():
    spec = micro_spec()
    lut = synthetic_latency_table(spec)
    assert minimal_latency(spec, lut) == min(score_arch(spec, a, lut)
                                             for a in enumerate_micro_archs(spec))


class CountingTable(LatencyTable):
    queries = 0

    def query(self, *key):
        self.queries += 1
        return super().query(*key)


def test_cost_tensor_read_once_before_any_step():
    spec, task, frames, lut, cfg = _micro_setup(steps=8)
    counting = CountingTable(entries=dict(lut.entries))
    run = SearchRun(spec, cfg, counting, task, frames)
    space = spec.search_space
    assert counting.queries == (len(list(spec.blocks())) * len(space.operators)
                                * len(space.channel_scales) * len(space.resolutions))
    counting.queries = 0
    for _ in range(2 * cfg.K):              # two resolution windows
        run.step()
    assert counting.queries == 0


def test_missing_table_entry_fails_at_construction():
    spec, task, frames, lut, cfg = _micro_setup()
    entries = dict(lut.entries)
    del entries[("mouth", "latent", 1, "skip", 1.0, 12)]
    with pytest.raises(LatencyTableError, match="'mouth', 'latent', 1, 'skip', 1.0, 12"):
        SearchRun(spec, cfg, LatencyTable(entries=entries), task, frames)


# ---------------------------------------------------------------------------
# search steps
# ---------------------------------------------------------------------------

def _micro_setup(seed=0, n_frames=32, **cfg_kw):
    spec = micro_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=n_frames, keyframe_rate=0.05)
    lut = synthetic_latency_table(spec)
    cfg = SearchConfig(steps=cfg_kw.pop("steps", 40), batch_size=4, K=4,
                       seed=seed, **cfg_kw)
    return spec, task, frames, lut, cfg


def test_search_step_deterministic():
    spec, task, frames, lut, cfg = _micro_setup(seed=11)
    runs = []
    for _ in range(2):
        r = SearchRun(spec, cfg, lut, task, frames)
        for _ in range(3):
            m = r.step()
        runs.append((m["f"], r.op_logits.data.copy(), r.weights["head"].data.copy()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].tobytes() == runs[1][1].tobytes()
    assert runs[0][2].tobytes() == runs[1][2].tobytes()


def _micro_search_state(monkeypatch, chunk, steps=4):
    """A micro search run for ``steps`` steps with Adam chunks of ``chunk``
    elements, checking after set-up and every step that each parameter
    under ``chunk`` elements is a view into the loop's one buffer and each
    larger one an Adam array of its own; returns the final bytes of every
    parameter and of the moments of the never-read ones."""
    monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
    spec, task, frames, lut, cfg = _micro_setup(seed=3)
    run = SearchRun(spec, cfg, lut, task, frames)
    loop = run.loop
    assert loop.params == [*run.weights.values(), run.op_logits, run.ch_logits]
    small = [p for p in loop.params if p.size < chunk]
    assert loop.flat.size == loop.grad.size == sum(p.size for p in small)
    assert loop.large == [p for p in loop.params if p.size >= chunk]
    # the micro space searches conv and skip only: its fuse-mb weights are
    # never read, and no step may move them or their moments
    unread = [t for name, t in run.weights.items()
              if name.rpartition("/")[2].startswith(("expand", "project"))]
    assert len(unread) == 8
    before = [t.data.tobytes() for t in unread]
    for step in range(steps + 1):
        if step:
            run.step()
        for p in small:
            assert np.shares_memory(p.data, loop.flat) and p.data.flags.c_contiguous
        assert len(loop.adam.arrays) == 1 + len(loop.large)
        assert all(a is p.data for a, p in zip(loop.adam.arrays[1:], loop.large))
    assert [t.data.tobytes() for t in unread] == before
    moments = []
    for t in unread:
        (i,) = [i for i, a in enumerate(loop.adam.arrays) if np.shares_memory(a, t.data)]
        lo = (t.data.ctypes.data - loop.adam.arrays[i].ctypes.data) // 8
        for mom in (loop.adam.m[i], loop.adam.v[i]):
            moments.append(mom[lo:lo + t.size].tobytes())
            assert not mom[lo:lo + t.size].any()
    return [p.data.tobytes() for p in loop.params], moments


def test_loop_layout_keeps_bits_at_any_chunk_size(monkeypatch):
    # at chunks of 64 or 5 elements most parameters count as large, each an
    # Adam array of its own with the gradient backward returns; the bits
    # must not change
    want = _micro_search_state(monkeypatch, training.ADAM_CHUNK)
    for chunk in (64, 5):
        assert _micro_search_state(monkeypatch, chunk) == want


def test_degenerate_space_is_plain_training():
    # one operator, one scale, one resolution: the search reduces to
    # supervised training and the loss must drop
    spec = dataclasses.replace(
        micro_spec(), search_space=SearchSpace(operators=("conv",),
                                               channel_scales=(1.0,),
                                               resolutions=(8,)))
    task = SyntheticTask(spec, seed=2)
    frames = generate_sequence(task, seed=3, n_frames=48)
    lut = synthetic_latency_table(spec)
    cfg = SearchConfig(steps=200, batch_size=8, K=4, lambda_lat=0.0, seed=1,
                       lr=3e-3)
    run = SearchRun(spec, cfg, lut, task, frames)
    first = run.step()["loss"]
    last = None
    for _ in range(cfg.steps - 1):
        last = run.step()["loss"]
    assert last < first


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_loss_rejected():
    spec, task, frames, lut, cfg = _micro_setup()
    run = SearchRun(spec, cfg, lut, task, frames)
    run.weights["head_bias"].data[:] = np.inf
    with pytest.raises(SearchError, match="non-finite"):
        run.step()


@pytest.mark.parametrize("kind", ["operator", "channel"])
def test_diverged_logits_are_a_search_error(kind):
    spec, task, frames, lut, cfg = _micro_setup()
    run = SearchRun(spec, cfg, lut, task, frames)
    run.step()
    logits = run.op_logits if kind == "operator" else run.ch_logits
    logits.data[1, 0] = np.nan
    with pytest.raises(SearchError, match=f"non-finite {kind} logits at step 1, "
                                          "block mouth/latent/b1"):
        run.step()


def test_run_search_same_seed_same_arch():
    spec, task, frames, lut, cfg = _micro_setup(steps=24)
    a = run_search(spec, cfg, lut, task, frames)
    b = run_search(spec, cfg, lut, task, frames)
    assert a.arch.to_json_dict() == b.arch.to_json_dict()
    assert [m["f"] for m in a.log] == [m["f"] for m in b.log]


# ---------------------------------------------------------------------------
# brute force on the 32-architecture micro space
# ---------------------------------------------------------------------------

def enumerate_micro_archs(spec):
    space = spec.search_space
    keys = [(v, b, i) for v, b, i, *_ in spec.blocks()]
    per_block = list(itertools.product(space.operators, space.channel_scales))
    for combo in itertools.product(per_block, repeat=len(keys)):
        for res in space.resolutions:
            ops, scales = {}, {}
            for (v, b, i), (op, sc) in zip(keys, combo):
                ops.setdefault((v, b), []).append(op)
                scales.setdefault((v, b), []).append(sc)
            yield SampledArch(operators=ops, channel_scales=scales,
                              resolutions={v: res for v in spec.views})


def true_objective(spec, weights, arch, eval_batch, task, lut, lambda_lat):
    enc = from_supernet(spec, weights, arch)
    pred = enc.forward({v: Tensor(x) for v, x in eval_batch["images"].items()})
    loss, _ = composite_loss(pred, eval_batch, LossWeights(), task.decoder)
    return float(loss.data) + lambda_lat * score_arch(spec, arch, lut)


MICRO_SEARCH_KW = dict(steps=4000, batch_size=8, K=4, lambda_lat=300.0,
                       lr=3e-3, lr_res=0.05, gumbel_temperature=2.0,
                       gumbel_anneal=0.92, gumbel_anneal_every=25, gumbel_min=0.2)


@pytest.mark.parametrize("seed", [0])
def test_brute_force_top3_single_seed(seed):
    # the 3-seed version is acceptance criterion 4; this keeps one seed in the
    # module suite
    spec = micro_spec()
    task = SyntheticTask(spec, seed=21)
    frames = generate_sequence(task, seed=22, n_frames=64, keyframe_rate=0.05)
    lut = synthetic_latency_table(spec)
    cfg = SearchConfig(seed=seed, **MICRO_SEARCH_KW)
    result = run_search(spec, cfg, lut, task, frames)
    eval_batch = stack_batch(frames)  # the pool whose objective the search minimizes
    ranked = sorted(true_objective(spec, result.weights, arch, eval_batch,
                                   task, lut, cfg.lambda_lat)
                    for arch in enumerate_micro_archs(spec))
    derived_score = true_objective(spec, result.weights, result.arch, eval_batch,
                                   task, lut, cfg.lambda_lat)
    assert derived_score <= ranked[2] + 1e-12, (
        f"derived arch scores {derived_score:.4f}, top-3 cut {ranked[:3]}")


def test_huge_lambda_drives_to_cheapest_corner():
    # the latency-dominated limit, checked against exhaustive enumeration
    spec = micro_spec()
    task = SyntheticTask(spec, seed=41)
    frames = generate_sequence(task, seed=42, n_frames=48, keyframe_rate=0.05)
    lut = synthetic_latency_table(spec)
    ranked = sorted(score_arch(spec, a, lut) for a in enumerate_micro_archs(spec))
    cfg = SearchConfig(steps=400, batch_size=8, K=4, lambda_lat=1e6, lr=3e-3,
                       lr_res=0.05, gumbel_temperature=1.5, gumbel_anneal=0.9,
                       gumbel_anneal_every=25, gumbel_min=0.2, seed=2)
    result = run_search(spec, cfg, lut, task, frames)
    assert all(op == "skip" for ops in result.arch.operators.values() for op in ops)
    assert all(s == min(spec.search_space.channel_scales)
               for scs in result.arch.channel_scales.values() for s in scs)
    assert result.arch.resolutions["mouth"] == min(spec.search_space.resolutions)
    # all-skip/min-scale/min-res sits a hair above the true enumeration
    # minimum (an identity skip at scale 1.0 is free while a narrowed skip is
    # a 1x1 conv); the relaxed search cannot see past that discontinuity
    got = score_arch(spec, result.arch, lut)
    assert got <= ranked[0] * 1.02
    assert got <= ranked[4]
    # with no budget configured the constraint is trivially satisfied
    assert got <= cfg.latency_budget_ms


def test_monotone_latency_pressure():
    spec = micro_spec()
    task = SyntheticTask(spec, seed=31)
    frames = generate_sequence(task, seed=32, n_frames=48, keyframe_rate=0.05)
    lut = synthetic_latency_table(spec)
    lats = []
    for lam in (0.0, 2.0, 200.0):
        cfg = SearchConfig(steps=150, batch_size=8, K=4, lambda_lat=lam,
                           lr=3e-3, seed=5)
        result = run_search(spec, cfg, lut, task, frames)
        lats.append(score_arch(spec, result.arch, lut))
    assert lats[0] >= lats[1] >= lats[2]


@pytest.mark.parametrize("key,value", [
    ("steps", 0), ("K", 0), ("log_every", 0), ("gumbel_anneal_every", 0),
    ("gumbel_min", 0.0), ("latency_budget_ms", 0.0),
    ("gumbel_anneal", -1), ("gumbel_anneal", 0)])
def test_search_config_checks_declared_ranges(key, value):
    # the ranges the config loader reads, checked by the dataclass itself
    with pytest.raises(ValueError, match=f"^{key} must be"):
        SearchConfig(**{key: value})
