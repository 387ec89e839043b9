from dataclasses import replace

import numpy as np
import pytest

from avenas.objective import (
    GazeState, LossWeights, SyntheticTask, composite_loss, generate_sequence,
    load_sequence, rareness_weight, reweight_batch, save_sequence, stack_batch,
)
from avenas.supernet import EYE_VIEWS, VIEWS, EncoderOutput, toy_spec
from avenas.tensor_core import Tensor, add, mse, scale

from helpers import autodiff_grads, reweight


@pytest.fixture(scope="module")
def task():
    return SyntheticTask(toy_spec(), seed=123)


def pred_from_values(z, g, kpt_left, kpt_right):
    half = g.shape[1] // 2
    gaze = {"left_eye": Tensor(g[:, :half]), "right_eye": Tensor(g[:, half:])}
    return EncoderOutput(z=Tensor(z), gaze=gaze, g=Tensor(g),
                         keypoints={"left_eye": Tensor(kpt_left),
                                    "right_eye": Tensor(kpt_right)},
                         view_feats={})


def targets_matching(pred, task):
    """Targets that agree with the prediction on every head."""
    dec = task.decoder
    geo = dec.geometry(pred.z.data)
    tex = dec.texture(pred.z.data, pred.g.data)
    return {
        "z": pred.z.data.copy(),
        "g": pred.g.data.copy(),
        "keypoints": np.concatenate([pred.keypoints[v].data for v in EYE_VIEWS], axis=1),
        "geometry": geo,
        "texture": tex,
        "rendered": dec.render(geo, tex),
    }


def random_pred(task, rng, batch=3):
    z = rng.normal(size=(batch, task.z_dim))
    g = rng.normal(size=(batch, task.g_dim))
    kl = rng.normal(size=(batch, task.kpt_dim))
    kr = rng.normal(size=(batch, task.kpt_dim))
    return pred_from_values(z, g, kl, kr)


# ---------------------------------------------------------------------------
# composite loss
# ---------------------------------------------------------------------------

def test_loss_zero_when_pred_matches_gt(task):
    rng = np.random.default_rng(0)
    pred = random_pred(task, rng)
    total, terms = composite_loss(pred, targets_matching(pred, task),
                                  LossWeights(), task.decoder)
    assert float(total.data) < 1e-18
    assert all(v < 1e-18 for v in terms.values())


def test_loss_unit_latent_mismatch_is_point_one_over_d(task):
    rng = np.random.default_rng(1)
    pred = random_pred(task, rng, batch=1)
    tgt = targets_matching(pred, task)
    e = np.zeros(task.z_dim)
    e[2] = 1.0
    tgt["z"] = tgt["z"] + e
    total, _ = composite_loss(pred, tgt, LossWeights(), task.decoder)
    assert float(total.data) == pytest.approx(0.1 / task.z_dim, rel=1e-12)


def test_loss_weight_linearity(task):
    rng = np.random.default_rng(2)
    pred = random_pred(task, rng)
    frames = generate_sequence(task, seed=3, n_frames=3)
    w1 = LossWeights()
    w2 = LossWeights(keypoint=2 * w1.keypoint)
    t1, terms = composite_loss(pred, stack_batch(frames), w1, task.decoder)
    t2, _ = composite_loss(pred, stack_batch(frames), w2, task.decoder)
    assert float(t2.data) - float(t1.data) == pytest.approx(
        w1.keypoint * terms["keypoint"], rel=1e-12)


def test_loss_term_coverage(task):
    # zeroing any single term's target mismatch removes exactly that term
    rng = np.random.default_rng(4)
    pred = random_pred(task, rng)
    frames = generate_sequence(task, seed=5, n_frames=3)
    tgt = stack_batch(frames)
    w = LossWeights()
    full, terms = composite_loss(pred, tgt, w, task.decoder)
    lam = {"latent": w.latent, "gaze": w.gaze, "geo": w.geo, "tex": w.tex,
           "keypoint": w.keypoint, "render": w.render}
    match = targets_matching(pred, task)
    key_of = {"latent": "z", "gaze": "g", "geo": "geometry", "tex": "texture",
              "keypoint": "keypoints", "render": "rendered"}
    for name, tkey in key_of.items():
        patched = dict(tgt)
        patched[tkey] = match[tkey]
        reduced, _ = composite_loss(pred, patched, w, task.decoder)
        drop = float(full.data) - float(reduced.data)
        assert drop == pytest.approx(lam[name] * terms[name], rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("weighted", [False, True])
def test_loss_adds_the_early_term_last_at_the_latent_weight(task, weighted):
    # the early head's latent MSE is the seventh term: weighted by
    # ``latent`` and summed after the six, so the total keeps its bits
    rng = np.random.default_rng(7)
    pred = random_pred(task, rng)
    z_early = Tensor(rng.normal(size=pred.z.shape))
    tgt = stack_batch(generate_sequence(task, seed=8, n_frames=3))
    sw = rng.uniform(0.5, 2.0, size=3) if weighted else None
    w = LossWeights()
    six, six_terms = composite_loss(pred, tgt, w, task.decoder, sample_weights=sw)
    assert list(six_terms) == ["latent", "gaze", "geo", "tex", "keypoint", "render"]
    total, terms = composite_loss(replace(pred, z_early=z_early), tgt, w,
                                  task.decoder, sample_weights=sw)
    early = mse(z_early, Tensor(tgt["z"]), sample_weights=sw)
    assert terms == {**six_terms, "early": float(early.data)}
    want = add(six, scale(early, w.latent))
    assert total.data.tobytes() == want.data.tobytes()


def test_loss_shape_mismatch_rejected(task):
    rng = np.random.default_rng(6)
    pred = random_pred(task, rng)
    tgt = targets_matching(pred, task)
    tgt["z"] = tgt["z"][:, :-1]
    with pytest.raises(Exception, match="mse"):
        composite_loss(pred, tgt, LossWeights(), task.decoder)


def test_negative_loss_weight_rejected():
    with pytest.raises(ValueError):
        LossWeights(gaze=-1.0)


@pytest.mark.parametrize("key,value", [("momentum", 1.5), ("tau", 0.0)])
def test_loss_weights_check_declared_ranges(key, value):
    # the re-weighting settings are declared, and range-checked, on the loss
    with pytest.raises(ValueError, match=f"^{key} must be"):
        LossWeights(**{key: value})


# ---------------------------------------------------------------------------
# re-weighting (gaze EMA)
# ---------------------------------------------------------------------------

def test_reweight_identity_when_gaze_matches_ema():
    state = GazeState(g_bar=np.array([0.3, -0.2]), momentum=0.9, temperature=10.0)
    out, state = reweight(2.5, np.array([0.3, -0.2]), state)
    assert out == pytest.approx(2.5, abs=1e-15)


def test_reweight_hand_computed_e1():
    state = GazeState(g_bar=np.zeros(4), momentum=0.9, temperature=10.0)
    g = np.zeros(4)
    g[0] = 10.0
    w = rareness_weight(g, state)
    assert w == pytest.approx(np.e, rel=1e-12)


def test_ema_single_step():
    state = GazeState(g_bar=np.array([0.0]), momentum=0.9, temperature=10.0)
    _, state = reweight(1.0, np.array([1.0]), state)
    assert state.g_bar[0] == pytest.approx(0.1, abs=1e-15)


def test_reweight_rejects_bad_temperature():
    with pytest.raises(ValueError):
        GazeState(g_bar=np.zeros(2), temperature=0.0)
    with pytest.raises(ValueError):
        GazeState(g_bar=np.zeros(2), temperature=-1.0)


@pytest.mark.parametrize("field", ["temperature", "momentum"])
def test_gaze_state_rejects_nan_settings(field):
    # NaN fails no `<=` comparison; it would make every rareness weight NaN
    with pytest.raises(ValueError, match=f"^{field} must be"):
        GazeState(g_bar=np.zeros(3), **{field: float("nan")})


def test_weight_monotone_in_gaze_distance():
    state = GazeState(g_bar=np.zeros(3), temperature=10.0)
    dists = np.linspace(0, 30, 40)
    weights = [rareness_weight(np.array([d, 0, 0]), state) for d in dists]
    assert all(b > a for a, b in zip(weights, weights[1:]))


def test_ema_contracts_geometrically():
    state = GazeState(g_bar=np.array([0.0]), momentum=0.9, temperature=10.0)
    target = np.array([1.0])
    errs = []
    for _ in range(20):
        _, state = reweight(1.0, target, state)
        errs.append(abs(state.g_bar[0] - 1.0))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    np.testing.assert_allclose(ratios, 0.9, atol=1e-10)


def test_reweight_scales_gradients_exactly(task):
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    tgt = Tensor(rng.normal(size=(4, 5)))
    g_pred = rng.normal(size=6) * 5

    def plain(ts):
        return mse(ts[0], tgt)

    def weighted(ts):
        state = GazeState(g_bar=np.zeros(6), temperature=10.0)
        out, _ = reweight(mse(ts[0], tgt), g_pred, state)
        return out

    state = GazeState(g_bar=np.zeros(6), temperature=10.0)
    w = rareness_weight(g_pred, state)
    g_plain = autodiff_grads(plain, [x])[0]
    g_weighted = autodiff_grads(weighted, [x])[0]
    np.testing.assert_allclose(g_weighted, w * g_plain, rtol=1e-10)


def test_reweight_batch_sequential_ema():
    state = GazeState(g_bar=np.array([0.0]), momentum=0.5, temperature=1.0)
    w = reweight_batch(np.array([[1.0], [1.0]]), state)
    # first sample sees g_bar=0, second sees g_bar=0.5
    np.testing.assert_allclose(w, [np.e, np.exp(0.5)], rtol=1e-12)
    assert state.g_bar[0] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------------

def test_sequence_linear_when_no_keyframes(task):
    frames = generate_sequence(task, seed=8, n_frames=50, keyframe_rate=0.0,
                               noise_level=0.0)
    zs = np.stack([f.z for f in frames])
    second = np.diff(zs, n=2, axis=0)
    np.testing.assert_allclose(second, 0.0, atol=1e-12)
    assert not any(f.keyframe for f in frames)


def test_sequence_deterministic(task):
    a = generate_sequence(task, seed=9, n_frames=20, keyframe_rate=0.2,
                          noise_level=0.1, extreme_fraction=0.1)
    b = generate_sequence(task, seed=9, n_frames=20, keyframe_rate=0.2,
                          noise_level=0.1, extreme_fraction=0.1)
    for fa, fb in zip(a, b):
        assert fa.z.tobytes() == fb.z.tobytes()
        for v in VIEWS:
            assert fa.images[v].tobytes() == fb.images[v].tobytes()


def test_keyframe_count_binomial(task):
    frames = generate_sequence(task, seed=10, n_frames=1000, keyframe_rate=0.1)
    count = sum(f.keyframe for f in frames)
    sigma = np.sqrt(1000 * 0.1 * 0.9)
    assert abs(count - 100) <= 3 * sigma


def test_keyframes_break_velocity(task):
    frames = generate_sequence(task, seed=11, n_frames=200, keyframe_rate=0.05)
    zs = np.stack([f.z for f in frames])
    vel = np.diff(zs, axis=0)
    for t in range(1, len(frames) - 1):
        dv = np.abs(vel[t] - vel[t - 1]).max()
        if frames[t + 1].keyframe or frames[t].keyframe:
            continue
        assert dv < 1e-12


def test_decoder_is_affine_in_z(task):
    rng = np.random.default_rng(12)
    dec = task.decoder
    z1, z2 = rng.normal(size=(2, task.z_dim))
    g = rng.normal(size=task.g_dim)
    for alpha in (0.25, 0.5, 0.9):
        mid = alpha * z1 + (1 - alpha) * z2
        np.testing.assert_allclose(
            dec.geometry(mid),
            alpha * dec.geometry(z1) + (1 - alpha) * dec.geometry(z2), atol=1e-12)
        np.testing.assert_allclose(
            dec.texture(mid, g),
            alpha * dec.texture(z1, g) + (1 - alpha) * dec.texture(z2, g), atol=1e-12)


def test_decoder_tensor_path_matches_numpy(task):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(2, task.z_dim))
    g = rng.normal(size=(2, task.g_dim))
    dec = task.decoder
    np.testing.assert_allclose(dec.geometry(Tensor(z)).data, dec.geometry(z), atol=1e-12)
    np.testing.assert_allclose(dec.texture(Tensor(z), Tensor(g)).data,
                               dec.texture(z, g), atol=1e-12)


def test_mouth_image_ignores_gaze(task):
    rng = np.random.default_rng(14)
    z = rng.normal(size=task.z_dim)
    g1 = {v: rng.normal(size=task.gaze_dim) for v in EYE_VIEWS}
    g2 = {v: rng.normal(size=task.gaze_dim) for v in EYE_VIEWS}
    assert np.array_equal(task.images_of(z, g1)["mouth"], task.images_of(z, g2)["mouth"])
    assert not np.array_equal(task.images_of(z, g1)["left_eye"],
                              task.images_of(z, g2)["left_eye"])


def test_sequence_container_roundtrip(task, tmp_path):
    frames = generate_sequence(task, seed=15, n_frames=7, keyframe_rate=0.3,
                               noise_level=0.05)
    path = tmp_path / "seq.bin"
    save_sequence(path, frames)
    back = load_sequence(path)
    assert len(back) == 7
    for fa, fb in zip(frames, back):
        np.testing.assert_array_equal(fa.z, fb.z)
        np.testing.assert_array_equal(fa.g, fb.g)
        np.testing.assert_array_equal(fa.rendered, fb.rendered)
        assert fa.keyframe == fb.keyframe
        for v in VIEWS:
            np.testing.assert_array_equal(fa.images[v], fb.images[v])
