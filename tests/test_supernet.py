import hashlib
from dataclasses import replace

import numpy as np
import pytest

from avenas import supernet, training
from avenas.cost_models import synthetic_latency_table
from avenas.objective import (
    LossWeights, SyntheticTask, composite_loss, generate_sequence, stack_batch,
)
from avenas.search_engine import SearchConfig, SearchRun
from avenas.supernet import (
    CHANNEL_SCALES, EYE_VIEWS, VIEWS,
    DiscreteEncoder, SampledArch, SearchSpace, SupernetSpec,
    channel_masks, derive_arch, gumbel_weights,
    init_supernet_weights, mixed_block_forward, paper_spec, sample_hard,
    scaled_channels, supernet_forward, toy_spec, validate_arch,
)
from avenas.tensor_core import Graph, ShapeError, Tensor, backward, conv2d, add, mse

from conftest import reference_toy_arch
from helpers import (
    backward_peaks, from_supernet, one_hot_arch_weights, random_arch, relu,
)


def uniform_arch_weights(spec):
    n_blocks = len(list(spec.blocks()))
    n_ops = len(spec.search_space.operators)
    n_sc = len(spec.search_space.channel_scales)
    return (Tensor(np.full((n_blocks, n_ops), 1.0 / n_ops)),
            Tensor(np.full((n_blocks, n_sc), 1.0 / n_sc)))


def toy_frames(spec, rng, batch=2, res=None):
    r = res or spec.search_space.resolutions[-1]
    return {v: Tensor(rng.normal(size=(batch, 1, r, r))) for v in VIEWS}


# ---------------------------------------------------------------------------
# gumbel sampling
# ---------------------------------------------------------------------------

def test_gumbel_equal_logits_zero_noise_uniform():
    w = gumbel_weights(Tensor(np.zeros(4)), np.zeros(4), temperature=2.5)
    np.testing.assert_allclose(w.data, 0.25, atol=1e-12)


def test_gumbel_hand_computed():
    w = gumbel_weights(Tensor(np.log([2.0, 1.0])), np.zeros(2), temperature=1.0)
    np.testing.assert_allclose(w.data, [2 / 3, 1 / 3], atol=1e-12)


def test_gumbel_weights_sum_to_one_and_positive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        logits = rng.normal(size=7) * 3
        noise = rng.gumbel(size=7)
        w = gumbel_weights(Tensor(logits), noise, temperature=0.37)
        assert abs(w.data.sum() - 1.0) < 1e-12
        assert (w.data > 0).all()


def test_gumbel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gumbel_weights(Tensor(np.array([np.inf, 0.0])), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        gumbel_weights(Tensor(np.zeros(2)), np.zeros(2), 0.0)


def test_hard_sampling_matches_softmax_law():
    # small-sample version of the Gumbel-max property; the full 10k-draw
    # version lives in the acceptance suite
    rng = np.random.default_rng(17)
    logits = np.array([1.0, 0.0, -1.0])
    n = 4000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_hard(logits, rng)] += 1
    p = np.exp(logits) / np.exp(logits).sum()
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(counts / n - p) <= 4 * sigma).all()


# ---------------------------------------------------------------------------
# mixed blocks
# ---------------------------------------------------------------------------

def test_mixed_block_one_hot_skip_is_identity():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=1)
    rng = np.random.default_rng(2)
    # latent block 1: 8 -> 8 channels, stride 1, so skip is a true identity
    x = Tensor(rng.normal(size=(2, 8, 6, 6)))
    ow = Tensor(np.array([[0.0, 0.0, 1.0]]))         # one-hot on skip
    cw = np.zeros((1, len(CHANNEL_SCALES)))
    cw[0, -1] = 1.0                                   # scale 1.0: mask is all-ones
    out = mixed_block_forward(x, ow, Tensor(cw), spec, weights,
                              "mouth", "latent", 1, 0, 8, 1)
    np.testing.assert_array_equal(out.data, x.data)


def test_mixed_block_one_hot_conv_equals_plain_conv():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=1)
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 8, 6, 6)))
    ow = Tensor(np.array([[0.0, 1.0, 0.0]]))
    cw = np.zeros((1, len(CHANNEL_SCALES)))
    cw[0, -1] = 1.0
    out = mixed_block_forward(x, ow, Tensor(cw), spec, weights,
                              "mouth", "latent", 1, 0, 8, 1)
    want = relu(add(conv2d(x, weights["mouth/latent/b1/conv"], stride=1, padding=1),
                    weights["mouth/latent/b1/conv_bias"]))
    np.testing.assert_array_equal(out.data, want.data)


def test_channel_mask_scale_half_zeroes_upper_channels():
    spec = SupernetSpec()
    weights = init_supernet_weights(toy_spec(), seed=1)  # unused; mask check is direct
    masks = channel_masks(CHANNEL_SCALES, 64)
    half = masks[0]
    assert scaled_channels(0.5, 64) == 32
    assert (half[:32] == 1).all() and (half[32:] == 0).all()


def test_mask_monotone_in_scale():
    masks = channel_masks(CHANNEL_SCALES, 64)
    for s_small, s_big in zip(masks[:-1], masks[1:]):
        assert (s_small <= s_big).all()


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def test_forward_shapes_toy():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(0)
    frames = toy_frames(spec, rng, batch=2)
    res = {v: 16 for v in VIEWS}
    out = supernet_forward(spec, weights, frames, uniform_arch_weights(spec), res)
    assert out.z.shape == (2, spec.z_dim)
    assert out.g.shape == (2, 6)
    for eye in EYE_VIEWS:
        assert out.keypoints[eye].shape == (2, 2 * spec.n_keypoints)
    assert out.z_early.shape == (2, spec.z_dim)


def test_forward_shapes_paper_dims():
    spec = paper_spec()
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(1)
    frames = {v: Tensor(rng.normal(size=(1, 1, 32, 32))) for v in VIEWS}
    out = supernet_forward(spec, weights, frames, uniform_arch_weights(spec),
                           {v: 32 for v in VIEWS})
    assert out.z.shape == (1, 256)
    assert out.g.shape == (1, 6)
    for eye in EYE_VIEWS:
        assert out.keypoints[eye].shape == (1, 38)


def test_arch_weights_must_match_blocks():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    ow, cw = uniform_arch_weights(spec)
    with pytest.raises(ShapeError, match="no row"):
        supernet_forward(spec, weights, toy_frames(spec, np.random.default_rng(0)),
                         (Tensor(ow.data[1:]), cw), {v: 16 for v in VIEWS})


def test_missing_view_rejected():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    frames = {"mouth": Tensor(np.zeros((1, 1, 16, 16)))}
    with pytest.raises(ShapeError, match="missing views"):
        supernet_forward(spec, weights, frames, uniform_arch_weights(spec),
                         {v: 16 for v in VIEWS})


def test_zero_frames_zero_head_gives_bias():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    weights["head"] = Tensor(np.zeros(weights["head"].shape), requires_grad=True)
    bias = np.arange(spec.z_dim, dtype=float)
    weights["head_bias"] = Tensor(bias.copy(), requires_grad=True)
    frames = {v: Tensor(np.zeros((3, 1, 16, 16))) for v in VIEWS}
    out = supernet_forward(spec, weights, frames, uniform_arch_weights(spec),
                           {v: 16 for v in VIEWS})
    np.testing.assert_array_equal(out.z.data, np.tile(bias, (3, 1)))


def test_view_decoupling_bit_identical():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(9)
    frames = toy_frames(spec, rng)
    res = {v: 16 for v in VIEWS}
    aw = uniform_arch_weights(spec)
    base = supernet_forward(spec, weights, frames, aw, res)
    frames2 = dict(frames)
    frames2["mouth"] = Tensor(frames["mouth"].data + rng.normal(size=frames["mouth"].shape))
    pert = supernet_forward(spec, weights, frames2, aw, res)
    for eye in EYE_VIEWS:
        assert base.view_feats[eye].data.tobytes() == pert.view_feats[eye].data.tobytes()
        assert base.gaze[eye].data.tobytes() == pert.gaze[eye].data.tobytes()
    assert base.view_feats["mouth"].data.tobytes() != pert.view_feats["mouth"].data.tobytes()


def test_gradients_reach_arch_logits():
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(10)
    frames = toy_frames(spec, rng)
    res = {v: 16 for v in VIEWS}
    n_blocks = len(list(spec.blocks()))
    lo = Tensor(rng.normal(size=(n_blocks, 3)), requires_grad=True)
    lc = Tensor(rng.normal(size=(n_blocks, len(CHANNEL_SCALES))), requires_grad=True)
    with Graph() as g:
        aw = (gumbel_weights(lo, rng.gumbel(size=lo.shape), 5.0),
              gumbel_weights(lc, rng.gumbel(size=lc.shape), 5.0))
        out = supernet_forward(spec, weights, frames, aw, res)
        loss = mse(out.z, Tensor(rng.normal(size=out.z.shape)))
        loss = add(loss, mse(out.g, Tensor(rng.normal(size=out.g.shape))))
        for eye in EYE_VIEWS:
            loss = add(loss, mse(out.keypoints[eye],
                                 Tensor(rng.normal(size=out.keypoints[eye].shape))))
    backward(g, loss)
    for j, b in enumerate(spec.blocks()):
        assert np.abs(g.grad(lo)[j]).max() > 0, f"dead op logits at {b[:3]}"
        assert np.abs(g.grad(lc)[j]).max() > 0, f"dead channel logits at {b[:3]}"


# ---------------------------------------------------------------------------
# view groups: the views of one resolution as one batch
# ---------------------------------------------------------------------------

def one_resolution_spec():
    spec = toy_spec()
    return replace(spec, search_space=replace(spec.search_space, resolutions=(16,)))


def test_view_groups_follow_resolution_batch_and_budget(monkeypatch):
    spec = toy_spec()
    frames = {v: np.zeros((4, 1, 24, 24)) for v in VIEWS}
    res = {"left_eye": 16, "right_eye": 24, "mouth": 16}
    assert supernet.view_groups(spec, frames, res) == [("left_eye", "mouth"),
                                                       ("right_eye",)]
    frames["mouth"] = np.zeros((2, 1, 24, 24))
    assert supernet.view_groups(spec, frames, res) == [("left_eye",), ("right_eye",),
                                                       ("mouth",)]
    monkeypatch.setattr(supernet, "GROUP_PIXEL_BUDGET", 2 * 4 * 16 * 16)
    frames = {v: np.zeros((4, 1, 16, 16)) for v in VIEWS}
    assert supernet.view_groups(spec, frames, {v: 16 for v in VIEWS}) == [
        ("left_eye", "right_eye"), ("mouth",)]
    # search-paper's views, 96 px at batch 1, each run alone
    monkeypatch.undo()
    frames = {v: np.zeros((1, 1, 96, 96)) for v in VIEWS}
    assert len(supernet.view_groups(spec, frames, {v: 96 for v in VIEWS})) == 3


def _search_step(spec):
    """One toy search step; returns its log row, the per-parameter
    gradients and the tape's node kinds."""
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=16)
    run = SearchRun(spec, SearchConfig(steps=1, batch_size=4, K=1, seed=2),
                    synthetic_latency_table(spec), task, frames)
    kinds = []
    sweep = training.backward

    def counting(g, loss, into=None):
        kinds.extend(node.kind for node in g.nodes)
        return sweep(g, loss, into)

    training.backward = counting
    try:
        row = run.step()
    finally:
        training.backward = sweep
    assert not run.loop.large
    return row, [run.loop._grads[p] for p in run.loop.params], kinds


def test_grouped_search_step_keeps_the_bits_of_one_group_per_view(monkeypatch):
    # all views at one resolution run as one group; the same step with every
    # view a group of its own gives the loss and all 294 leaf gradients bit
    # for bit
    spec = one_resolution_spec()
    row, grads, kinds = _search_step(spec)
    monkeypatch.setattr(supernet, "view_groups",
                        lambda spec, frames, resolutions: [(v,) for v in spec.views])
    row_ref, grads_ref, kinds_ref = _search_step(spec)
    assert row == row_ref
    assert len(grads) == len(grads_ref) == 294
    for g, g_ref in zip(grads, grads_ref):
        assert np.array_equal(g, g_ref)
    # one node per layer of the group instead of per view
    assert kinds.count("conv2d") == 43 and kinds_ref.count("conv2d") == 108
    assert kinds.count("mixture") == 16 and kinds_ref.count("mixture") == 40


def test_a_search_step_tapes_only_operations_a_gradient_passes_through(monkeypatch):
    # an operation on constants records nothing and gives a constant, and a
    # leaf is no node: every node of a toy search step's tape reads a tensor
    # that needs a gradient and has a VJP until the sweep runs it
    c = Tensor(np.ones(3))
    with Graph() as g:
        out = add(c, c)
    assert g.nodes == [] and not out.requires_grad
    tapes = []
    sweep = training.backward

    def checking(g, loss, into=None):
        tapes.append([(node.kind, node.vjp is not None,
                       node.inputs.count(None) < len(node.inputs)) for node in g.nodes])
        return sweep(g, loss, into)

    monkeypatch.setattr(training, "backward", checking)
    _, _, kinds = _search_step(toy_spec())
    (tape,) = tapes
    assert [kind for kind, _, _ in tape] == kinds and "leaf" not in kinds
    assert all(has_vjp and reads_grad for _, has_vjp, reads_grad in tape)


def test_every_vjp_takes_a_list_of_one_gradient_per_output(monkeypatch, toy_task,
                                                           toy_train_frames):
    # every VJP of a toy search step and of a batch-16 toy-encoder step is
    # handed a list with one entry per output of its node, one-output nodes
    # included, and the checked sweep gives the leaf gradients of an
    # unchecked sweep of the same graph bit for bit
    n_outputs = []
    sweep = training.backward

    def checked(vjp, n):
        def vjp_of_list(gs):
            assert type(gs) is list and len(gs) == n, (type(gs), n)
            n_outputs.append(n)
            return vjp(gs)
        return vjp_of_list

    def checking(g, loss, into=None):
        for node in g.nodes:
            node.vjp = checked(node.vjp, len(node.outputs))
        return sweep(g, loss, into)

    _, grads, _ = _search_step(toy_spec())
    monkeypatch.setattr(training, "backward", checking)
    _, grads_checked, kinds = _search_step(toy_spec())
    assert [g.tobytes() for g in grads_checked] == [g.tobytes() for g in grads]
    assert "split" in kinds and 1 in n_outputs and max(n_outputs) > 1

    spec = toy_task.spec
    enc = DiscreteEncoder(spec, reference_toy_arch(spec), seed=0)
    batch = stack_batch(toy_train_frames[:16])
    enc_grads = []
    for sweep_of in (sweep, checking):
        with Graph() as g:
            out = enc.forward({v: Tensor(x) for v, x in batch["images"].items()},
                              with_early=True)
            loss, _ = composite_loss(out, batch, LossWeights(), toy_task.decoder)
        n_outputs.clear()
        sweep_of(g, loss)
        enc_grads.append([g.grad(p).tobytes() for p in enc.weights.values()])
    assert n_outputs and enc_grads[1] == enc_grads[0]


def test_grouped_backward_frees_each_gradient_once_used():
    # one grouped supernet backward against a reference sweep whose VJPs
    # keep their arriving gradients until they return (see the toy-encoder
    # test in test_training.py): the grouped conv, mixture and split VJPs
    # free each one once used
    spec = toy_spec()
    task = SyntheticTask(spec, seed=7)
    batch = stack_batch(generate_sequence(task, seed=8, n_frames=16))
    weights = init_supernet_weights(spec, seed=0)
    rng = np.random.default_rng(0)
    n_blocks = len(list(spec.blocks()))
    aw = (Tensor(rng.dirichlet(np.ones(3), size=n_blocks), requires_grad=True),
          Tensor(rng.dirichlet(np.ones(len(CHANNEL_SCALES)), size=n_blocks),
                 requires_grad=True))

    def record():
        with Graph() as g:
            out = supernet_forward(spec, weights,
                                   {v: Tensor(x) for v, x in batch["images"].items()},
                                   aw, {v: 16 for v in VIEWS})
            loss, _ = composite_loss(out, batch, LossWeights(), task.decoder)
        assert [n.kind for n in g.nodes].count("split") == 5
        return g, loss

    peak, held = backward_peaks(record)
    assert peak <= 0.96 * held, (peak, held)


# ---------------------------------------------------------------------------
# mixture consistency: one-hot mixed path vs discrete slicing path
# ---------------------------------------------------------------------------

# all-skip architectures as (backbone scale, branch scale); in the toy space
# they reach every skip case: the identity, an eye kernel between unequal
# effective widths, and the sliced 1x1 kernel between unequal nominal widths
# (gaze/b0: 8 -> 16), also where the effective widths happen to be equal
ALL_SKIP = {"skip-half": (0.5, 0.5), "skip-full": (1.0, 1.0),
            "skip-full-backbone": (1.0, 0.5)}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, *ALL_SKIP])
def test_one_hot_mixture_equals_discrete(seed):
    spec = toy_spec()
    weights = init_supernet_weights(spec, seed=11)
    rng = np.random.default_rng(seed if isinstance(seed, int) else 4)
    arch = random_arch(spec, rng)
    if seed in ALL_SKIP:
        for (view, branch), ops in arch.operators.items():
            sc = ALL_SKIP[seed][0 if branch == "backbone" else 1]
            arch.operators[(view, branch)] = ["skip"] * len(ops)
            arch.channel_scales[(view, branch)] = [sc] * len(ops)
    frames = {v: Tensor(rng.normal(size=(2, 1, 24, 24))) for v in VIEWS}
    mixed = supernet_forward(spec, weights, frames, one_hot_arch_weights(spec, arch),
                             arch.resolutions)
    ref = from_supernet(spec, weights, arch).forward(frames, with_early=True)
    np.testing.assert_allclose(mixed.z.data, ref.z.data, atol=1e-9)
    np.testing.assert_allclose(mixed.g.data, ref.g.data, atol=1e-9)
    np.testing.assert_allclose(mixed.z_early.data, ref.z_early.data, atol=1e-9)
    for eye in EYE_VIEWS:
        np.testing.assert_allclose(mixed.keypoints[eye].data, ref.keypoints[eye].data,
                                   atol=1e-9)


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("draw", ["all-conv", 0, 1, 2])
def test_forward_early_equals_forward_z_early(draw, batch):
    # forward_early is a path of its own beside _encode's early head; the
    # runtime's early check and a sweep must read the same bits from either
    spec = toy_spec()
    if draw == "all-conv":
        arch = reference_toy_arch(spec)
    else:
        arch = random_arch(spec, np.random.default_rng(draw))
        assert any("skip" in ops for ops in arch.operators.values())
    enc = DiscreteEncoder(spec, arch, seed=5)
    frames = toy_frames(spec, np.random.default_rng(9), batch=batch)
    want = enc.forward(frames, with_early=True).z_early.data
    got = enc.forward_early(frames).data
    assert got.shape == want.shape == (batch, spec.z_dim)
    assert got.tobytes() == want.tobytes()


def test_forward_early_names_missing_views_as_forward_does():
    spec = toy_spec()
    enc = DiscreteEncoder(spec, reference_toy_arch(spec), seed=5)
    frames = toy_frames(spec, np.random.default_rng(9), batch=1)
    del frames["mouth"]
    for call in (enc.forward, enc.forward_early):
        with pytest.raises(ShapeError, match=r"encoder forward: missing views \['mouth'\]"):
            call(frames)


# the seeded inits: the sha256 of the arrays' bytes in dict order pins both
# the draw order and the init rule
INIT_DIGESTS = {
    "supernet": "d084cced7a6f4f3b797d6258a3d0c79c1d05cbf46a42f418e70cabbca6435d51",
    "encoder": "15e4315b401ff3c10c0267b486af23b7246a10aceac5c51e730f5f264ef41c42",
}


def _values_digest(weights):
    h = hashlib.sha256()
    for t in weights.values():
        h.update(t.data.tobytes())
    return h.hexdigest()


def test_seeded_inits_are_pinned():
    spec = toy_spec()
    arch = random_arch(spec, np.random.default_rng(0))
    assert {o for ops in arch.operators.values() for o in ops} == set(spec.search_space.operators)
    assert any(arch.op_at(b.view, b.branch, b.i) == "skip" and b.c_in != b.c_out
               for b in spec.blocks(scales=arch.channel_scales))
    assert _values_digest(init_supernet_weights(spec, seed=5)) == INIT_DIGESTS["supernet"]
    assert _values_digest(DiscreteEncoder(spec, arch, seed=5).weights) == INIT_DIGESTS["encoder"]


# ---------------------------------------------------------------------------
# derivation and serialization
# ---------------------------------------------------------------------------

def _logit_maps(spec, op_fill, ch_fill, res_fill):
    n_blocks = len(list(spec.blocks()))
    opl = np.tile(np.array(op_fill, dtype=float), (n_blocks, 1))
    chl = np.tile(np.array(ch_fill, dtype=float), (n_blocks, 1))
    resl = {v: np.array(res_fill, dtype=float) for v in VIEWS}
    return opl, chl, resl


def test_derive_arch_dominant_logit():
    spec = toy_spec()
    n_sc = len(spec.search_space.channel_scales)
    opl, chl, resl = _logit_maps(spec, [5.0, 0.0, 0.0],
                                 [0.0] * (n_sc - 1) + [3.0], [0.0, 1.0, 0.0])
    arch = derive_arch(spec, opl, chl, resl)
    for key, ops in arch.operators.items():
        assert all(o == "fuse-mb" for o in ops)
    for key, scs in arch.channel_scales.items():
        assert all(s == 1.0 for s in scs)
    assert all(r == 16 for r in arch.resolutions.values())


def test_derive_arch_reads_rows_in_walk_order():
    spec = toy_spec()
    n_sc = len(spec.search_space.channel_scales)
    opl, chl, resl = _logit_maps(spec, [0.0, 1.0, 0.0], [1.0] + [0.0] * (n_sc - 1),
                                 [0.0, 1.0, 0.0])
    j = [b[:3] for b in spec.blocks()].index(("right_eye", "gaze", 2))
    opl[j], chl[j, -1] = [0.0, 0.0, 1.0], 2.0
    arch = derive_arch(spec, opl, chl, resl)
    assert arch.op_at("right_eye", "gaze", 2) == "skip"
    assert arch.scale_at("right_eye", "gaze", 2) == 1.0
    assert sum(o == "skip" for ops in arch.operators.values() for o in ops) == 1
    with pytest.raises(ValueError, match="blocks"):
        derive_arch(spec, opl[1:], chl[1:], resl)


def test_derive_arch_scale_tie_prefers_smaller():
    spec = toy_spec()
    n_sc = len(spec.search_space.channel_scales)
    opl, chl, resl = _logit_maps(spec, [0.0, 4.0, 0.0], [1.0] * n_sc, [1.0, 0.0, 0.0])
    arch = derive_arch(spec, opl, chl, resl)
    for scs in arch.channel_scales.values():
        assert all(s == 0.5 for s in scs)


def test_derive_arch_op_tie_prefers_cheaper():
    spec = toy_spec()
    n_sc = len(spec.search_space.channel_scales)
    opl, chl, resl = _logit_maps(spec, [2.0, 2.0, 2.0], [3.0] + [0.0] * (n_sc - 1),
                                 [1.0, 0.0, 0.0])
    arch = derive_arch(spec, opl, chl, resl)
    # skip is the cheapest candidate everywhere in this space
    for ops in arch.operators.values():
        assert all(o == "skip" for o in ops)


def test_derive_arch_resolution_index_3_is_80_paper_space():
    spec = paper_spec()
    n_sc = len(spec.search_space.channel_scales)
    res_fill = [0.0] * 7
    res_fill[3] = 2.0
    opl, chl, resl = _logit_maps(spec, [1.0, 0.0, 0.0],
                                 [1.0] + [0.0] * (n_sc - 1), res_fill)
    arch = derive_arch(spec, opl, chl, resl)
    assert all(r == 80 for r in arch.resolutions.values())


def test_arch_json_roundtrip(tmp_path):
    spec = toy_spec()
    arch = random_arch(spec, np.random.default_rng(0), name="sample")
    path = tmp_path / "arch.json"
    arch.save(path)
    back = SampledArch.load(path)
    assert back.operators == arch.operators
    assert back.channel_scales == arch.channel_scales
    assert back.resolutions == arch.resolutions
    assert back.name == "sample"


def test_validate_arch_rejects_foreign_choices():
    spec = toy_spec()
    arch = random_arch(spec, np.random.default_rng(0))
    validate_arch(spec, arch)
    bad = random_arch(spec, np.random.default_rng(0))
    bad.operators[("mouth", "latent")][0] = "attention"
    with pytest.raises(ValueError, match="operator"):
        validate_arch(spec, bad)
    bad2 = random_arch(spec, np.random.default_rng(0))
    bad2.resolutions["mouth"] = 999
    with pytest.raises(ValueError, match="resolution"):
        validate_arch(spec, bad2)


def test_search_space_invariants():
    with pytest.raises(ValueError):
        SearchSpace(channel_scales=(1.0, 0.5))
    with pytest.raises(ValueError):
        SearchSpace(channel_scales=(0.25, 1.0))
    with pytest.raises(ValueError):
        SearchSpace(resolutions=(64, 32))
