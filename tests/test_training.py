import gc
import tracemalloc

import numpy as np
import pytest

from avenas.objective import LossWeights, composite_loss, stack_batch, toy_loss_weights
from avenas.supernet import DiscreteEncoder, toy_spec
from avenas.tensor_core import Graph, Tensor, backward
from avenas.training import (
    ADAM_CHUNK, Adam, TrainConfig, evaluate_encoder, load_weights, save_weights,
    train_encoder,
)

from conftest import reference_toy_arch
from helpers import RefAdam, backward_peaks, random_arch


@pytest.mark.parametrize("shapes", [
    [(ADAM_CHUNK - 1,)], [(ADAM_CHUNK,)], [(ADAM_CHUNK + 1,)],
    [(2, ADAM_CHUNK // 2 + 3)],
    [(3, 1, 2, 2), (1,), (5,), (2, 3), (4, 1, 1)] * 8,     # a run of small arrays
], ids=["chunk-1", "chunk", "chunk+1", "2d", "small-run"])
def test_chunked_flat_adam_bit_identical_to_per_array_reference(shapes):
    # the same arrays, concatenated for the chunked Adam and apart for the
    # whole-array reference
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    opt, ref = Adam([flat]), RefAdam(arrays)
    for lr in (1e-3, 0.5, 3e-3, 0.0, 1e-3):
        # gradients of very different scales, and some exact zeros
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 4) for s in shapes]
        grads[0].reshape(-1)[::7] = 0.0
        opt.step([np.concatenate([g.reshape(-1) for g in grads])], lr)
        ref.step(grads, lr)
        for mine, theirs in ((flat, ref.arrays), (opt.m[0], ref.m), (opt.v[0], ref.v)):
            assert mine.tobytes() == b"".join(a.tobytes() for a in theirs)


def test_none_gradient_leaves_array_and_moments_untouched():
    big = ADAM_CHUNK + 5
    arrays = [np.linspace(-1, 1, big), np.arange(6.0).reshape(2, 3)]
    opt = Adam(arrays)
    rng = np.random.default_rng(2)
    opt.step([rng.normal(size=big), rng.normal(size=(2, 3))], 1e-2)
    before = [(a.copy(), m.copy(), v.copy()) for a, m, v in zip(opt.arrays, opt.m, opt.v)]
    for _ in range(3):
        opt.step([None, rng.normal(size=(2, 3))], 1e-2)
    a, m, v = before[0]
    assert opt.arrays[0].tobytes() == a.tobytes()
    assert opt.m[0].tobytes() == m.tobytes() and opt.v[0].tobytes() == v.tobytes()
    assert np.count_nonzero(m) > 0                 # the moments were live
    assert opt.arrays[1].tobytes() != before[1][0].tobytes()
    assert opt.t == 4


def test_zero_steps_and_zero_lr_are_noops(toy_task, toy_train_frames):
    spec = toy_task.spec
    arch = reference_toy_arch(spec)
    enc, log = train_encoder(spec, arch, toy_task, toy_train_frames,
                             TrainConfig(steps=3, batch_size=4, lr=0.0, seed=9))
    fresh, empty_log = train_encoder(spec, arch, toy_task, toy_train_frames,
                                     TrainConfig(steps=0, batch_size=2, lr=1.0, seed=9))
    assert empty_log == []
    for name in enc.weights:
        assert enc.weights[name].data.tobytes() == fresh.weights[name].data.tobytes()


def test_training_deterministic(toy_task, toy_train_frames):
    spec = toy_task.spec
    arch = reference_toy_arch(spec)
    cfg = TrainConfig(steps=20, batch_size=8, lr=3e-3, seed=4)
    e1, log1 = train_encoder(spec, arch, toy_task, toy_train_frames, cfg)
    e2, log2 = train_encoder(spec, arch, toy_task, toy_train_frames, cfg)
    assert [r["loss"] for r in log1] == [r["loss"] for r in log2]
    assert e1.weights["head"].data.tobytes() == e2.weights["head"].data.tobytes()


def test_latent_mse_improves_10x(toy_task, toy_train_frames, toy_test_frames,
                                 trained_toy_encoder):
    spec = toy_task.spec
    arch = reference_toy_arch(spec)
    init, _ = train_encoder(spec, arch, toy_task, toy_train_frames,
                            TrainConfig(steps=1, batch_size=2, lr=0.0, seed=3),
                            toy_loss_weights())
    before = evaluate_encoder(init, toy_task, toy_test_frames)["latent"]
    after = evaluate_encoder(trained_toy_encoder, toy_task, toy_test_frames)["latent"]
    assert after * 10 < before, f"latent mse {before:.4f} -> {after:.4f}"


def test_evaluate_reports_all_heads(toy_task, toy_test_frames, trained_toy_encoder):
    terms = evaluate_encoder(trained_toy_encoder, toy_task, toy_test_frames)
    assert set(terms) == {"latent", "gaze", "geo", "tex", "keypoint", "render", "early"}
    assert all(np.isfinite(v) for v in terms.values())


def test_save_load_weights_roundtrip(tmp_path):
    spec = toy_spec()
    arch = random_arch(spec, np.random.default_rng(0))
    enc = DiscreteEncoder(spec, arch, seed=2)
    save_weights(tmp_path / "weights.bin", enc)
    back = load_weights(tmp_path / "weights.bin", spec)
    assert back.arch.to_json_dict() == arch.to_json_dict()
    assert list(back.weights) == list(enc.weights)
    for name, t in enc.weights.items():
        assert back.weights[name].data.tobytes() == t.data.tobytes()
    frames = {v: Tensor(np.random.default_rng(1).normal(size=(2, 1, 24, 24)))
              for v in spec.views}
    want = enc.forward(frames, with_early=True)
    got = back.forward(frames, with_early=True)
    assert got.z.data.tobytes() == want.z.data.tobytes()
    assert got.g.data.tobytes() == want.g.data.tobytes()
    assert got.z_early.data.tobytes() == want.z_early.data.tobytes()


def test_encoder_backward_frees_each_gradient_once_used(toy_task, toy_train_frames):
    # one batch-16 toy-encoder backward against a reference sweep whose VJPs
    # keep their arriving gradients until they return: every VJP here frees
    # each one once used, which keeps the sweep's peak 7 % under the
    # reference's; a VJP that held its gradient (a conv's, say) would not
    spec = toy_task.spec
    enc = DiscreteEncoder(spec, reference_toy_arch(spec), seed=0)
    batch = stack_batch(toy_train_frames[:16])

    def record():
        with Graph() as g:
            out = enc.forward({v: Tensor(x) for v, x in batch["images"].items()},
                              with_early=True)
            loss, _ = composite_loss(out, batch, LossWeights(), toy_task.decoder)
        return g, loss

    peak, held = backward_peaks(record)
    assert peak <= 0.96 * held, (peak, held)


def test_backward_into_writes_each_leaf_gradient_once_final(toy_task, toy_train_frames):
    # the same batch-16 toy-encoder graph swept with an array for every
    # parameter under ADAM_CHUNK, as a training loop's flat gradient buffer
    # gives, and without: each leaf's gradient is copied into its array and
    # freed as soon as the sweep has passed the leaf's first reader, so the
    # first sweep's peak is 0.72 of the second's (978 KB against 1,364 KB);
    # one that wrote every array after the sweep holds all the leaf
    # gradients at its end, as the second does, and reads 1.00
    spec = toy_task.spec
    enc = DiscreteEncoder(spec, reference_toy_arch(spec), seed=0)
    batch = stack_batch(toy_train_frames[:16])
    small = [p for p in enc.weights.values() if p.size < ADAM_CHUNK]
    assert len(small) == len(enc.weights)
    dest, peaks, grads = {p: np.empty(p.shape) for p in small}, [], []
    for into in (dest, None):
        with Graph() as g:
            out = enc.forward({v: Tensor(x) for v, x in batch["images"].items()},
                              with_early=True)
            loss, _ = composite_loss(out, batch, LossWeights(), toy_task.decoder)
        gc.collect()
        tracemalloc.start()
        try:
            backward(g, loss, into=into)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        grads.append([g.grad(p) for p in small])
    assert all(a is dest[p] for a, p in zip(grads[0], small))
    assert all(np.array_equal(a, b) for a, b in zip(*grads))
    assert peaks[0] <= 0.85 * peaks[1], peaks
