"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time. Shared session fixtures (the trained toy encoder) are built
outside the timed criterion bodies.
"""

import json
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import avenas
from avenas.cli import EXIT_OK, main as cli_main
from avenas.cost_models import (
    REFERENCE_ARCHS, count_flops, early_head_mflops, load_reference_arch,
    score_arch, synthetic_latency_table,
)
from avenas.latex_runtime import (
    HistoryEntry, TrainedEncoderRuntime, extrapolate, simulate_stream,
)
from avenas.objective import (
    GazeState, SyntheticTask, generate_sequence, rareness_weight, stack_batch,
)
from avenas.search_engine import (
    ResolutionSearch, SearchConfig, expected_latency, latency_costs, run_search,
)
from avenas.supernet import (
    SampledArch, Tensor, gumbel_weights, init_supernet_weights, paper_spec,
    sample_hard, supernet_forward, toy_spec,
)
from avenas.tensor_core import (
    Graph, backward, add, bilinear_sum, concat, conv2d, global_avg_pool, matmul,
    mixture, mse, resize_bilinear, scale, softmax,
)

from helpers import (
    OracleEncoder, check_gradients, exp, l2norm, micro_spec, mul, one_hot_arch_weights,
    rand_tensor, random_arch, relu, reshape, reweight, silu,
)
from test_search_engine import (
    MICRO_SEARCH_KW, enumerate_micro_archs, true_objective,
)

PUBLISHED_TOTALS = {"ave_s": 174.75, "ave_m": 306.93, "ave_l": 605.14}


def report(criterion, elapsed, detail=""):
    print(f"\n[PASS] acceptance criterion {criterion} ({elapsed:.1f}s) {detail}")


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    tol = 1e-4

    def loss_of(x):
        return mse(x, Tensor(np.zeros(x.shape)))

    def fused_relu(r):
        # redraw until every pre-activation is 0.05 or more from relu's kink,
        # so central differences never step across it
        while True:
            ts = [rand_tensor(r, (1, 2, 5, 5)), rand_tensor(r, (2, 2, 3, 3)),
                  rand_tensor(r, (2, 1, 1))]
            pre = conv2d(ts[0], ts[1], bias=ts[2], stride=2, padding=1)
            if np.abs(pre.data).min() >= 0.05:
                return (lambda ts: loss_of(conv2d(ts[0], ts[1], bias=ts[2], stride=2,
                                                  padding=1, act="relu")), ts)

    cases = {
        "matmul": lambda r: (lambda ts: loss_of(matmul(ts[0], ts[1])),
                             [rand_tensor(r, (3, 4)), rand_tensor(r, (4, 2))]),
        "conv2d": lambda r: (lambda ts: loss_of(conv2d(ts[0], ts[1], stride=2,
                                                       padding=1)),
                             [rand_tensor(r, (1, 2, 5, 5)),
                              rand_tensor(r, (2, 2, 3, 3))]),
        "conv2d+bias+relu": fused_relu,
        "conv2d+bias+silu": lambda r: (
            lambda ts: loss_of(conv2d(ts[0], ts[1], bias=ts[2], padding=1, act="silu")),
            [rand_tensor(r, (1, 2, 5, 5)), rand_tensor(r, (2, 2, 3, 3)),
             rand_tensor(r, (2, 1, 1))]),
        "conv2d+bias": lambda r: (lambda ts: loss_of(conv2d(ts[0], ts[1], bias=ts[2])),
                                  [rand_tensor(r, (1, 2, 5, 5)),
                                   rand_tensor(r, (2, 2, 3, 3)),
                                   rand_tensor(r, (2, 1, 1))]),
        "conv2d 1x1": lambda r: (lambda ts: loss_of(conv2d(ts[0], ts[1], stride=2)),
                                 [rand_tensor(r, (1, 2, 5, 5)),
                                  rand_tensor(r, (3, 2, 1, 1))]),
        "relu": lambda r: (lambda ts: loss_of(relu(ts[0])),
                           [rand_tensor(r, (4, 3), avoid_zero=0.05)]),
        "silu": lambda r: (lambda ts: loss_of(silu(ts[0])), [rand_tensor(r, (4, 3))]),
        "add": lambda r: (lambda ts: loss_of(add(ts[0], ts[1])),
                          [rand_tensor(r, (2, 3, 4)), rand_tensor(r, (3, 1))]),
        "mul": lambda r: (lambda ts: loss_of(mul(ts[0], ts[1])),
                          [rand_tensor(r, (2, 3, 4)), rand_tensor(r, (3, 4))]),
        "concat": lambda r: (lambda ts: loss_of(concat([ts[0], ts[1]], axis=1)),
                             [rand_tensor(r, (2, 3)), rand_tensor(r, (2, 4))]),
        "global_avg_pool": lambda r: (lambda ts: loss_of(global_avg_pool(ts[0])),
                                      [rand_tensor(r, (2, 3, 4, 4))]),
        "softmax": lambda r: (lambda ts: loss_of(softmax(ts[0])),
                              [rand_tensor(r, (3, 5))]),
        "scale": lambda r: (lambda ts: loss_of(scale(ts[0], -2.3)),
                            [rand_tensor(r, (3, 5))]),
        "mse": lambda r: ((lambda tgt: lambda ts: mse(ts[0], tgt))(
                              Tensor(r.normal(size=(3, 5)))),
                          [rand_tensor(r, (3, 5))]),
        "exp": lambda r: (lambda ts: loss_of(exp(ts[0])), [rand_tensor(r, (4, 3))]),
        "l2norm": lambda r: (lambda ts: l2norm(ts[0]), [rand_tensor(r, (4, 3))]),
        "resize_bilinear": lambda r: (lambda ts: loss_of(resize_bilinear(ts[0], 5, 7)),
                                      [rand_tensor(r, (1, 2, 6, 6))]),
        "reshape": lambda r: (lambda ts: loss_of(reshape(ts[0], (6, 4))),
                              [rand_tensor(r, (2, 3, 4))]),
        "mixture": lambda r: ((lambda row, masks: lambda ts: loss_of(
                                  mixture(ts[:3], ts[3], ts[4], row, masks)))(
                                  int(r.integers(3)),
                                  (r.uniform(size=(4, 2)) < 0.6).astype(float)),
                              [rand_tensor(r, (2, 2, 3, 3)) for _ in range(3)]
                              + [rand_tensor(r, (3, 3)), rand_tensor(r, (3, 4))]),
        "bilinear_sum": lambda r: ((lambda cost: lambda ts: bilinear_sum(
                                       ts[0], cost, ts[1]))(r.uniform(size=(4, 3, 5))),
                                   [rand_tensor(r, (4, 3)), rand_tensor(r, (4, 5))]),
    }
    for name, build in cases.items():
        for seed in range(20):
            fn, tensors = build(np.random.default_rng(zlib.crc32(name.encode()) + seed))
            check_gradients(fn, tensors, tol=tol)

    # whole toy-supernet loss vs finite differences, on sampled coordinates
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(1)
    frames = {v: Tensor(rng.normal(size=(2, 1, 16, 16))) for v in spec.views}
    task = SyntheticTask(spec, seed=2)
    batch_z = rng.normal(size=(2, spec.z_dim))
    # per block: operator logits, scale logits, operator noise, scale noise
    draws = [(rng.normal(size=3), rng.normal(size=11), rng.gumbel(size=3),
              rng.gumbel(size=11)) for _ in spec.blocks()]
    lo, lc, no, nc = (np.stack(d) for d in zip(*draws))
    lo, lc = Tensor(lo, requires_grad=True), Tensor(lc, requires_grad=True)

    def full_loss():
        aw = (gumbel_weights(lo, no, 2.0), gumbel_weights(lc, nc, 2.0))
        out = supernet_forward(spec, weights, frames, aw, {v: 16 for v in spec.views})
        loss = mse(out.z, Tensor(batch_z))
        loss = add(loss, mse(out.g, Tensor(np.zeros(out.g.shape))))
        return loss

    with Graph() as g:
        loss = full_loss()
    backward(g, loss)
    check_rng = np.random.default_rng(3)
    # candidates: every weight array and every block's row of either logit
    # matrix, as (tensor, first flat index, size)
    params = [(t, 0, t.size) for t in weights.values()]
    params += [(t, j * t.shape[1], t.shape[1])
               for j in range(lo.shape[0]) for t in (lo, lc)]
    picked = check_rng.choice(len(params), size=12, replace=False)
    h = 1e-5
    for pi in picked:
        p, first, size = params[pi]
        flat = p.data.reshape(-1)
        ci = first + int(check_rng.integers(size))
        orig = flat[ci]
        flat[ci] = orig + h
        fp = float(full_loss().data)
        flat[ci] = orig - h
        fm = float(full_loss().data)
        flat[ci] = orig
        want = (fp - fm) / (2 * h)
        got = g.grad(p).reshape(-1)[ci]
        denom = max(abs(want), abs(got), 1e-8)
        assert abs(got - want) / denom < 1e-4, f"param {pi} coord {ci}"

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(1, elapsed, f"{len(cases)} primitives x 20 draws + supernet loss")


# ---------------------------------------------------------------------------
# 2. gumbel sampling law
# ---------------------------------------------------------------------------

def test_criterion_2_gumbel_hard_limit_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    n = 10_000
    for trial in range(5):
        logits = rng.normal(size=7) * 1.5
        counts = np.zeros(len(logits))
        for _ in range(n):
            counts[sample_hard(logits, rng)] += 1
        p = np.exp(logits - logits.max())
        p /= p.sum()
        sigma = np.sqrt(p * (1 - p) / n)
        assert (np.abs(counts / n - p) <= 3 * sigma + 1e-12).all(), \
            f"trial {trial}: freq {counts / n}, softmax {p}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(2, elapsed, "5 logit vectors x 10,000 draws within 3 sigma")


# ---------------------------------------------------------------------------
# 3. policy-gradient convergence
# ---------------------------------------------------------------------------

def test_criterion_3_policy_gradient_convergence():
    import dataclasses
    from avenas.supernet import SearchSpace
    t0 = time.monotonic()
    spec = dataclasses.replace(
        micro_spec(), search_space=SearchSpace(operators=("conv", "skip"),
                                               channel_scales=(0.5, 1.0),
                                               resolutions=(8, 12, 16)))
    f_of_idx = {0: 1.0, 1: 0.2, 2: 0.6}
    for seed in range(5):
        rs = ResolutionSearch(spec, K=16, lr=0.02)
        rng = np.random.default_rng(seed)
        converged_at = None
        for window in range(500):
            idx = rs.begin_window(rng)["mouth"]
            for _ in range(16):
                rs.record(f_of_idx[idx])
            rs.end_window()
            p = np.exp(rs.logits["mouth"] - rs.logits["mouth"].max())
            p /= p.sum()
            if p[1] >= 0.9:
                converged_at = window + 1
                break
        assert converged_at is not None, f"seed {seed}: mass {p[1]:.3f} after 500"
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(3, elapsed, "5 seeds reach 0.9 mass on the optimal resolution")


# ---------------------------------------------------------------------------
# 4. brute-force search equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_brute_force_top3():
    t0 = time.monotonic()
    spec = micro_spec()
    task = SyntheticTask(spec, seed=21)
    from avenas.objective import generate_sequence as gen
    frames = gen(task, seed=22, n_frames=64, keyframe_rate=0.05)
    lut = synthetic_latency_table(spec)
    eval_batch = stack_batch(frames)
    ranks = []
    for seed in (0, 1, 2):
        cfg = SearchConfig(seed=seed, **MICRO_SEARCH_KW)
        result = run_search(spec, cfg, lut, task, frames)
        scores = sorted(true_objective(spec, result.weights, a, eval_batch,
                                       task, lut, cfg.lambda_lat)
                        for a in enumerate_micro_archs(spec))
        mine = true_objective(spec, result.weights, result.arch, eval_batch,
                              task, lut, cfg.lambda_lat)
        rank = sum(s < mine - 1e-12 for s in scores)
        ranks.append(rank)
        assert mine <= scores[2] + 1e-12, f"seed {seed}: rank {rank} of 32"
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(4, elapsed, f"ranks {ranks} of 32 over 3 seeds")


# ---------------------------------------------------------------------------
# 5. re-weighting mechanics
# ---------------------------------------------------------------------------

def test_criterion_5_reweighting_mechanics():
    t0 = time.monotonic()
    state = GazeState(g_bar=np.array([0.4, -0.1, 0.7]), temperature=10.0)
    assert rareness_weight(state.g_bar.copy(), state) == 1.0

    state = GazeState(g_bar=np.zeros(4), temperature=10.0)
    g = np.zeros(4)
    g[1] = state.temperature
    assert abs(rareness_weight(g, state) - np.e) < 1e-12

    state = GazeState(g_bar=np.array([0.0]), momentum=0.9, temperature=10.0)
    _, state = reweight(1.0, np.array([1.0]), state)
    # 1 - 0.9 is one ulp below decimal 0.1 in binary64, so "exactly" means
    # exact up to that representation error
    assert abs(state.g_bar[0] - 0.1) < 1e-15

    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    tgt = Tensor(rng.normal(size=(4, 6)))
    g_pred = rng.normal(size=6) * 4
    w = rareness_weight(g_pred, GazeState(g_bar=np.zeros(6), temperature=10.0))
    with Graph() as gp:
        plain = mse(x, tgt)
    backward(gp, plain)
    with Graph() as gw:
        weighted, _ = reweight(mse(x, tgt), g_pred,
                               GazeState(g_bar=np.zeros(6), temperature=10.0))
    backward(gw, weighted)
    np.testing.assert_allclose(gw.grad(x), w * gp.grad(x), rtol=1e-10)

    elapsed = time.monotonic() - t0
    report(5, elapsed, "unit weight, e^1 point, EMA step, gradient scaling")


# ---------------------------------------------------------------------------
# 6. extrapolation runtime
# ---------------------------------------------------------------------------

def test_criterion_6_latex(toy_task, trained_toy_encoder, standard_trace):
    t0 = time.monotonic()

    # exactness on linear segments
    rng = np.random.default_rng(5)
    z0, v = rng.normal(size=8), rng.normal(size=8)
    hist = [HistoryEntry(z=z0 + t * v, g=z0[:4] + t * v[:4],
                         y={"e": z0[:2] + t * v[:2]}, source="inference")
            for t in range(4)]
    z, g, y = extrapolate(hist, 4)
    assert np.abs(z - (z0 + 4 * v)).max() <= 1e-9
    assert np.abs(g - (z0[:4] + 4 * v[:4])).max() <= 1e-9

    linear = generate_sequence(toy_task, seed=902, n_frames=150,
                               keyframe_rate=0.0, noise_level=0.0)
    rep = simulate_stream(linear, OracleEncoder(), [0.5, float("inf")],
                          toy_task.decoder)
    assert all(r["mean_mse"] <= 1e-9 for r in rep)

    # 10,000-frame simulation: the skip cap and the exact steady state
    long_trace = generate_sequence(toy_task, seed=903, n_frames=10_004,
                                   keyframe_rate=0.05, noise_level=0.01)
    rep = simulate_stream(long_trace, OracleEncoder(),
                          [0.15, float("inf")], toy_task.decoder)
    for r in rep:
        run = 0
        for d in r["decisions"]:
            run = run + 1 if d == "extrapolated" else 0
            assert run <= 3
    steady = rep[-1]["steady_state_skip_ratio"]
    assert abs(steady - 0.75) <= 1e-4

    # monotone skip ratio over a threshold grid (trained encoder)
    rt = TrainedEncoderRuntime(trained_toy_encoder)
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, float("inf")]
    reports = simulate_stream(standard_trace, rt, grid, toy_task.decoder)
    ratios = [r["skip_ratio"] for r in reports]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    # published operating band: some threshold skips 20-30% of frames at
    # comparable quality
    base = reports[0]["mean_mse"]
    band = [r for r in reports
            if 0.2 <= r["skip_ratio"] <= 0.3 and r["mean_mse"] <= 1.15 * base]
    assert band, [(r["threshold"], r["skip_ratio"], r["mean_mse"] / base)
                  for r in reports]

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    sr = band[0]["skip_ratio"]
    report(6, elapsed, f"operating point: threshold {band[0]['threshold']:g} "
                       f"skips {sr:.0%} at {band[0]['mean_mse'] / base:.3f}x mse")


# ---------------------------------------------------------------------------
# 7. cost models
# ---------------------------------------------------------------------------

def test_criterion_7_cost_accounting():
    t0 = time.monotonic()
    spec = paper_spec()
    totals = {}
    for name in REFERENCE_ARCHS:
        arch, _ = load_reference_arch(name)
        totals[name] = count_flops(arch, spec).total_mflops
        published = PUBLISHED_TOTALS[name]
        assert abs(totals[name] - published) / published <= 0.20, \
            f"{name}: {totals[name]:.2f} vs {published}"
    assert totals["ave_s"] < totals["ave_m"] < totals["ave_l"]

    toy = toy_spec()
    lut = synthetic_latency_table(toy)
    costs = latency_costs(toy, lut)
    rng = np.random.default_rng(13)
    for _ in range(100):
        arch = random_arch(toy, rng)
        aw = one_hot_arch_weights(toy, arch)
        assert float(expected_latency(toy, costs, aw, arch.resolutions).data) \
            == score_arch(toy, arch, lut)

    halvable = toy_spec(channel_scales=(0.5, 1.0))
    ops, full_s, half_s = {}, {}, {}
    for view, branch, i, *_ in halvable.blocks():
        ops.setdefault((view, branch), []).append("conv")
        full_s.setdefault((view, branch), []).append(1.0)
        half_s.setdefault((view, branch), []).append(0.5)
    res = {v: 16 for v in halvable.views}
    full = count_flops(SampledArch(ops, full_s, res), halvable)
    half = count_flops(SampledArch(ops, half_s, res), halvable)
    for key in full.branches:
        if key.endswith("/backbone"):
            continue  # the first backbone block reads the fixed-width stem
        assert half.branches[key] == full.branches[key] / 4

    elapsed = time.monotonic() - t0
    detail = ", ".join(f"{n} {totals[n]:.1f}/{PUBLISHED_TOTALS[n]}" for n in totals)
    report(7, elapsed, detail)


# ---------------------------------------------------------------------------
# 8. early-prediction head overhead
# ---------------------------------------------------------------------------

def test_criterion_8_early_head_overhead():
    t0 = time.monotonic()
    spec = paper_spec()
    fractions = {}
    for name in REFERENCE_ARCHS:
        arch, _ = load_reference_arch(name)
        total = count_flops(arch, spec).total_mflops
        frac = early_head_mflops(arch, spec) / total
        fractions[name] = frac
        assert frac < 0.02, f"{name}: early head is {frac:.2%} of the encoder"
    elapsed = time.monotonic() - t0
    report(8, elapsed, ", ".join(f"{n} {f:.2%}" for n, f in fractions.items()))


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------

PIPELINE_COMMANDS = ("gen-data", "search", "train", "simulate")
PIPELINE_ARTIFACTS = ("latency_table.csv", "stream.bin", "arch.json",
                      "search_log.jsonl", "weights.bin", "train_metrics.json",
                      "train_log.jsonl", "simulate.csv")


def pipeline_config(out, **latex) -> dict:
    return {
        "seed": 11,
        "profile": "toy-dims",
        "data": {"n_sequences": 8, "frames_per_sequence": 24,
                 "stream_frames": 100, "synthesize_lut": True},
        "search": {"steps": 60, "batch_size": 8, "K": 4,
                   "gumbel_temperature": 2.0, "lr": 3e-3},
        "train": {"steps": 80, "batch_size": 8, "lr": 3e-3},
        "latex": {"thresholds": [0.0, 2.0], **latex},
        "paths": {"out_dir": str(out)},
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    t0 = time.monotonic()
    digests = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        cfg_path = tmp_path / f"config{run}.json"
        cfg_path.write_text(json.dumps(pipeline_config(out)))
        for command in PIPELINE_COMMANDS:
            assert cli_main(["--config", str(cfg_path), command]) == EXIT_OK
        digests.append({a: (out / a).read_bytes() for a in PIPELINE_ARTIFACTS})
    for a in PIPELINE_ARTIFACTS:
        assert digests[0][a] == digests[1][a], f"artifact {a} differs between runs"
    elapsed = time.monotonic() - t0
    report(9, elapsed, f"{len(PIPELINE_ARTIFACTS)} artifacts byte-identical across runs")


def test_pipeline_artifacts_keep_their_bits_across_blas_thread_counts(tmp_path):
    # criterion 9's pipeline, LAteX trace included, in one process per
    # OpenBLAS thread count: a result whose sums followed the thread count
    # would differ here
    src = str(Path(avenas.__file__).resolve().parents[1])
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        cfg_path = tmp_path / f"config{threads}.json"
        cfg_path.write_text(json.dumps(pipeline_config(out, write_trace=True)))
        script = ("import sys\nfrom avenas.cli import main\n"
                  f"for command in {PIPELINE_COMMANDS!r}:\n"
                  f"    if main(['--config', {str(cfg_path)!r}, command]):\n"
                  "        sys.exit(command)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs[out] = subprocess.Popen([sys.executable, "-c", script], env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    one, two = procs
    for a in PIPELINE_ARTIFACTS + ("simulate_trace.json",):
        assert (one / a).read_bytes() == (two / a).read_bytes(), \
            f"artifact {a} differs between 1 and 2 BLAS threads"
