import numpy as np

from avenas.objective import toy_loss_weights
from avenas.supernet import DiscreteEncoder, toy_spec
from avenas.tensor_core import Tensor
from avenas.training import (
    TrainConfig, evaluate_encoder, load_weights, save_weights, train_encoder,
)

from conftest import reference_toy_arch
from helpers import random_arch


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
