"""Training objective and the synthetic surrogate task.

The composite loss sums six mean-squared-error terms (latent, gaze, geometry,
texture, keypoints, rendered image), each with its own balancing weight, and
the early head's latent term when the prediction carries one. On
top of it, samples are re-weighted by how far their predicted gaze sits from
an exponential moving average of past gazes, which up-weights rare expressions;
the weight multiplies the loss but is never differentiated.

The surrogate world replaces the real avatar decoder: a frozen, seeded affine
decoder (so latent-space linearity holds exactly), and a generator that emits
piecewise-linear latent trajectories rendered into per-view images through
fixed localized-blob bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .serialize import InputError
from .ranges import NONNEGATIVE, POSITIVE, UNIT, check_ranges, ranged
from .supernet import EncoderOutput, SupernetSpec
from .tensor_core import Tensor, add, concat, matmul, mse, scale


@dataclass
class LossWeights:
    # weights both latent terms: the final head's and the early head's
    latent: float = ranged(1e-1, NONNEGATIVE)
    gaze: float = ranged(1.0, NONNEGATIVE)
    geo: float = ranged(1.0, NONNEGATIVE)
    tex: float = ranged(1.0, NONNEGATIVE)
    keypoint: float = ranged(1e3, NONNEGATIVE)
    render: float = ranged(1e-4, NONNEGATIVE)
    # the gaze re-weighting: temperature and EMA momentum (``GazeState``)
    tau: float = ranged(10.0, POSITIVE)
    momentum: float = ranged(0.9, UNIT)

    def __post_init__(self):
        check_ranges(self)


def toy_loss_weights() -> LossWeights:
    """Weights balanced for the synthetic toy task's term magnitudes (the
    defaults mirror the production-scale balance and swamp the latent term
    at toy dimensions)."""
    return LossWeights(latent=1.0, gaze=0.3, geo=0.3, tex=0.3,
                       keypoint=1.0, render=0.03)


@dataclass
class GazeState:
    """EMA of past gazes plus the re-weighting temperature."""

    g_bar: np.ndarray
    momentum: float = ranged(0.9, UNIT)
    temperature: float = ranged(10.0, POSITIVE)

    def __post_init__(self):
        self.g_bar = np.asarray(self.g_bar, dtype=np.float64)
        check_ranges(self)
        if not np.all(np.isfinite(self.g_bar)):
            raise ValueError("g_bar must be finite")

    @classmethod
    def from_first_batch(cls, gazes: np.ndarray, momentum: float,
                         temperature: float) -> "GazeState":
        return cls(g_bar=np.mean(np.asarray(gazes, dtype=np.float64), axis=0),
                   momentum=momentum, temperature=temperature)


def rareness_weight(g: np.ndarray, state: GazeState) -> float:
    return float(np.exp(np.linalg.norm(np.asarray(g) - state.g_bar) / state.temperature))


def reweight_batch(gazes: np.ndarray, state: GazeState) -> np.ndarray:
    """Per-sample weights for a batch, applying the single-sample rule in
    index order (each weight sees the EMA advanced by its predecessors)."""
    out = np.empty(len(gazes))
    for i, g in enumerate(gazes):
        out[i] = rareness_weight(g, state)
        state.g_bar = state.momentum * state.g_bar + (1.0 - state.momentum) * np.asarray(g)
    return out


# ---------------------------------------------------------------------------
# surrogate decoder and ground-truth frames
# ---------------------------------------------------------------------------

class SurrogateDecoder:
    """Frozen affine stand-in for the avatar decoder and renderer.

    geometry(z), texture(z, g) and render(geometry, texture) are all affine
    with seeded fixed coefficients, so straight lines in latent space map to
    straight lines in every decoded quantity.
    """

    def __init__(self, z_dim: int, g_dim: int, geo_dim: int, tex_dim: int,
                 render_dim: int, seed: int):
        self.render_dim = render_dim
        rng = np.random.default_rng(seed)
        self._w_geo = rng.normal(size=(z_dim, geo_dim)) / math.sqrt(z_dim)
        self._b_geo = rng.normal(size=geo_dim) * 0.1
        self._w_tex_z = rng.normal(size=(z_dim, tex_dim)) / math.sqrt(z_dim)
        self._w_tex_g = rng.normal(size=(g_dim, tex_dim)) / math.sqrt(max(g_dim, 1))
        self._b_tex = rng.normal(size=tex_dim) * 0.1
        self._w_ren_geo = rng.normal(size=(geo_dim, render_dim)) / math.sqrt(geo_dim)
        self._w_ren_tex = rng.normal(size=(tex_dim, render_dim)) / math.sqrt(tex_dim)
        self._b_ren = rng.normal(size=render_dim) * 0.1

    def _apply(self, pairs, bias):
        if any(isinstance(x, Tensor) for x, _ in pairs):
            acc = None
            for x, w in pairs:
                x = x if isinstance(x, Tensor) else Tensor(x)
                term = matmul(x, Tensor(w))
                acc = term if acc is None else add(acc, term)
            return add(acc, Tensor(bias))
        return sum(np.asarray(x) @ w for x, w in pairs) + bias

    def geometry(self, z):
        return self._apply([(z, self._w_geo)], self._b_geo)

    def texture(self, z, g):
        return self._apply([(z, self._w_tex_z), (g, self._w_tex_g)], self._b_tex)

    def render(self, geometry, texture):
        return self._apply([(geometry, self._w_ren_geo), (texture, self._w_ren_tex)],
                           self._b_ren)


@dataclass
class GroundTruthFrame:
    images: dict[str, np.ndarray]          # per view, (1, H, W)
    z: np.ndarray
    gaze: dict[str, np.ndarray]            # per eye view
    g: np.ndarray                          # eye gazes concatenated
    keypoints: dict[str, np.ndarray]       # per eye view
    geometry: np.ndarray
    texture: np.ndarray
    rendered: np.ndarray
    keyframe: bool = False


class SyntheticTask:
    """Fixed generative world tying latent state to per-view images.

    image_v = sum_j z_j * blob_vj + sum_k gaze_vk * blob'_vk + noise, with the
    blob bases drawn once from the task seed. Eye views additionally see their
    own 3-d gaze; the mouth view depends on the latent code only. Keypoints are
    a fixed affine readout of the latent code per eye.
    """

    def __init__(self, spec: SupernetSpec, seed: int):
        z = spec.z_dim
        self.spec = spec
        self.seed = seed
        self.views = spec.views
        self.eye_views = spec.eye_views
        self.z_dim = z
        self.gaze_dim = spec.gaze_dim
        self.g_dim = spec.gaze_total_dim()
        self.kpt_dim = 2 * spec.n_keypoints
        self.image_hw = max(spec.search_space.resolutions)
        self.decoder = SurrogateDecoder(
            z_dim=z, g_dim=self.g_dim, geo_dim=max(4, z // 2 * 3),
            tex_dim=max(4, z * 2), render_dim=max(8, z * 3), seed=seed + 1)
        rng = np.random.default_rng(seed)
        self._z_basis = {v: self._blob_basis(rng, z) for v in self.views}
        self._g_basis = {v: self._blob_basis(rng, self.gaze_dim) for v in self.eye_views}
        self._kpt_w = {v: rng.normal(size=(z, self.kpt_dim)) / math.sqrt(z)
                       for v in self.eye_views}
        self._kpt_b = {v: rng.normal(size=self.kpt_dim) * 0.1 for v in self.eye_views}

    def _blob_basis(self, rng, n: int) -> np.ndarray:
        hw = self.image_hw
        yy, xx = np.mgrid[0:hw, 0:hw] / hw
        basis = np.empty((n, hw, hw))
        for j in range(n):
            cx, cy = rng.uniform(0.15, 0.85, size=2)
            sig = rng.uniform(0.06, 0.25)
            amp = rng.normal() or 1.0
            basis[j] = amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig * sig))
        return basis

    def keypoints_of(self, z: np.ndarray) -> dict[str, np.ndarray]:
        return {v: np.asarray(z) @ self._kpt_w[v] + self._kpt_b[v] for v in self.eye_views}

    def images_of(self, z: np.ndarray, gaze: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for v in self.views:
            img = np.tensordot(z, self._z_basis[v], axes=(0, 0))
            if v in self.eye_views:
                img = img + np.tensordot(gaze[v], self._g_basis[v], axes=(0, 0))
            out[v] = img[None]
        return out

    def frame_from_state(self, z, gaze, keyframe: bool, noise) -> GroundTruthFrame:
        images = self.images_of(z, gaze)
        if noise is not None:
            images = {v: img + noise[v] for v, img in images.items()}
        g = (np.concatenate([gaze[v] for v in self.eye_views])
             if self.eye_views else np.zeros(0))
        geometry = self.decoder.geometry(z)
        texture = self.decoder.texture(z, g)
        rendered = self.decoder.render(geometry, texture)
        return GroundTruthFrame(images=images, z=np.asarray(z, dtype=np.float64),
                                gaze={v: np.asarray(a, dtype=np.float64)
                                      for v, a in gaze.items()},
                                g=g, keypoints=self.keypoints_of(z),
                                geometry=geometry, texture=texture, rendered=rendered,
                                keyframe=keyframe)


# the trajectory constants of generate_sequence
VELOCITY_SCALE = 0.05
MEAN_REVERT = 0.03
EXTREME_SCALE = 1.5


def generate_sequence(task: SyntheticTask, seed: int, n_frames: int,
                      keyframe_rate: float = 0.0, noise_level: float = 0.0,
                      extreme_fraction: float = 0.0) -> list[GroundTruthFrame]:
    """Piecewise-linear latent/gaze trajectories sampled at n_frames steps.

    Key frames redraw the velocities (a discontinuity the extrapolation
    runtime must catch); a configurable fraction of frames carries heavy-tailed
    gaze outliers (scaled by ``EXTREME_SCALE``) to exercise the rareness
    re-weighting. Velocities are drawn at ``VELOCITY_SCALE`` and pull back
    toward the origin (``MEAN_REVERT``) so long streams stay stationary;
    between key frames the trajectory is exactly linear either way.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)

    def draw_v(state):
        return rng.normal(size=state.shape) * VELOCITY_SCALE - MEAN_REVERT * state

    z = rng.normal(size=task.z_dim)
    vz = draw_v(z)
    eyes = task.eye_views
    gaze = {v: rng.normal(size=task.gaze_dim) for v in eyes}
    vg = {v: draw_v(gaze[v]) for v in eyes}
    frames = []
    for t in range(n_frames):
        keyframe = False
        if t > 0:
            if keyframe_rate > 0 and rng.random() < keyframe_rate:
                keyframe = True
                vz = draw_v(z)
                vg = {v: draw_v(gaze[v]) for v in eyes}
            z = z + vz
            gaze = {v: gaze[v] + vg[v] for v in eyes}
        frame_gaze = gaze
        if extreme_fraction > 0 and rng.random() < extreme_fraction:
            frame_gaze = {v: gaze[v] + rng.standard_t(df=2, size=task.gaze_dim)
                          * EXTREME_SCALE for v in eyes}
        noise = None
        if noise_level > 0:
            noise = {v: rng.normal(size=(1, task.image_hw, task.image_hw)) * noise_level
                     for v in task.views}
        frames.append(task.frame_from_state(z.copy(), frame_gaze, keyframe, noise))
    return frames


def generate_pool(task: SyntheticTask, seed: int, n_sequences: int,
                  frames_per_sequence: int, **kwargs) -> list[GroundTruthFrame]:
    """Training pool drawn from many short independent sequences; short
    segments keep the state distribution stationary across pools."""
    seqs = np.random.SeedSequence(seed).spawn(n_sequences)
    frames = []
    for s in seqs:
        frames.extend(generate_sequence(task, seed=int(s.generate_state(1)[0]),
                                        n_frames=frames_per_sequence, **kwargs))
    return frames


# ---------------------------------------------------------------------------
# batching and the composite loss
# ---------------------------------------------------------------------------

def stack_batch(frames: list[GroundTruthFrame]) -> dict:
    """Collate frames into arrays keyed like the loss expects."""
    views = list(frames[0].images)
    eyes = list(frames[0].keypoints)
    n = len(frames)
    kpt = (np.concatenate([np.stack([f.keypoints[v] for f in frames]) for v in eyes],
                          axis=1) if eyes else np.zeros((n, 0)))
    return {
        "images": {v: np.stack([f.images[v] for f in frames]) for v in views},
        "z": np.stack([f.z for f in frames]),
        "g": np.stack([f.g for f in frames]),
        "keypoints": kpt,
        "geometry": np.stack([f.geometry for f in frames]),
        "texture": np.stack([f.texture for f in frames]),
        "rendered": np.stack([f.rendered for f in frames]),
    }


def composite_loss(pred: EncoderOutput, tgt: dict, weights: LossWeights,
                   decoder: SurrogateDecoder, sample_weights: np.ndarray | None = None):
    """The whole objective against a ``stack_batch`` batch; returns (scalar
    loss Tensor, per-term values).

    Six terms, then ``early`` (the early head's latent MSE, at the latent
    weight) when ``pred.z_early`` is not None, weighted and summed in order.
    Each term is a plain mean over elements so the default balancing weights
    keep their meaning across dimension profiles. ``sample_weights`` applies
    rareness weights per sample inside every term (detached).
    """
    eyes = list(pred.keypoints)
    pred_kpt = (concat([pred.keypoints[v] for v in eyes], axis=1)
                if eyes else Tensor(np.zeros((pred.z.shape[0], 0))))
    pred_geo = decoder.geometry(pred.z)
    pred_tex = decoder.texture(pred.z, pred.g)
    pred_ren = decoder.render(pred_geo, pred_tex)
    sw = sample_weights
    terms = {
        "latent": (weights.latent, mse(pred.z, Tensor(tgt["z"]), sample_weights=sw)),
        "gaze": (weights.gaze, mse(pred.g, Tensor(tgt["g"]), sample_weights=sw)),
        "geo": (weights.geo, mse(pred_geo, Tensor(tgt["geometry"]), sample_weights=sw)),
        "tex": (weights.tex, mse(pred_tex, Tensor(tgt["texture"]), sample_weights=sw)),
        "keypoint": (weights.keypoint, mse(pred_kpt, Tensor(tgt["keypoints"]),
                                           sample_weights=sw)),
        "render": (weights.render, mse(pred_ren, Tensor(tgt["rendered"]),
                                       sample_weights=sw)),
    }
    if pred.z_early is not None:
        terms["early"] = (weights.latent, mse(pred.z_early, Tensor(tgt["z"]),
                                              sample_weights=sw))
    total = None
    values = {}
    for name, (lam, term) in terms.items():
        values[name] = float(term.data)
        contrib = scale(term, lam)
        total = contrib if total is None else add(total, contrib)
    return total, values


# ---------------------------------------------------------------------------
# sequence container
# ---------------------------------------------------------------------------

def save_sequence(path, frames: list[GroundTruthFrame]) -> None:
    arrays = stack_batch(frames)
    views = list(frames[0].images)
    eyes = list(frames[0].keypoints)
    flat = {f"images/{v}": arrays["images"][v] for v in views}
    for key in ("z", "g", "geometry", "texture", "rendered"):
        flat[key] = arrays[key]
    for v in eyes:
        flat[f"gaze/{v}"] = np.stack([f.gaze[v] for f in frames])
        flat[f"keypoints/{v}"] = np.stack([f.keypoints[v] for f in frames])
    flat["keyframe"] = np.array([float(f.keyframe) for f in frames])
    meta = {"n_frames": len(frames), "views": views, "eye_views": eyes}
    serialize.save_arrays(path, flat, meta)


def load_sequence(path) -> list[GroundTruthFrame]:
    """The frames of a container ``save_sequence`` wrote; a container without
    a sequence entry (metadata or array), or whose metadata does not fit its
    arrays, raises ``InputError`` naming it."""
    arrays, meta = serialize.load_arrays(path)
    try:
        n, views, eyes = meta["n_frames"], meta["views"], meta["eye_views"]
        if type(n) is not int:
            raise TypeError(f"n_frames {n!r} is not an integer")
        for name, a in arrays.items():
            if a.shape[:1] != (n,):
                raise ValueError(f"n_frames {n} but field {name!r} has shape {a.shape}")
        for key, names in (("views", views), ("eye_views", eyes)):
            if type(names) is not list or any(type(v) is not str for v in names):
                raise TypeError(f"{key} {names!r} is not a list of view names")
        frames = []
        for i in range(n):
            frames.append(GroundTruthFrame(
                images={v: arrays[f"images/{v}"][i] for v in views},
                z=arrays["z"][i],
                gaze={v: arrays[f"gaze/{v}"][i] for v in eyes},
                g=arrays["g"][i],
                keypoints={v: arrays[f"keypoints/{v}"][i] for v in eyes},
                geometry=arrays["geometry"][i],
                texture=arrays["texture"][i],
                rendered=arrays["rendered"][i],
                keyframe=bool(arrays["keyframe"][i]),
            ))
    except KeyError as e:
        raise InputError(f"{path}: not a frame sequence, no {e.args[0]!r} entry") from None
    except (IndexError, TypeError, ValueError) as e:
        raise InputError(f"{path}: malformed frame sequence ({e})") from None
    return frames


def check_sequence(frames: list[GroundTruthFrame], task: SyntheticTask, path) -> None:
    """Raise ``InputError`` naming ``path`` and the field where the frames
    ``load_sequence`` read from it do not fit ``task``: an image for every
    view of the spec, ``z`` of the spec's ``z_dim`` and ``rendered`` of the
    decoder's output length."""
    if not frames:
        raise InputError(f"{path}: the sequence holds no frames")
    first = frames[0]
    for v in task.views:
        if v not in first.images:
            raise InputError(f"{path}: no field 'images/{v}' for view {v!r} of the spec")
    for field, want in (("z", task.z_dim), ("rendered", task.decoder.render_dim)):
        got = getattr(first, field).shape
        if got != (want,):
            raise InputError(f"{path}: field {field!r} has shape {got} per frame; "
                             f"the spec's z_dim {task.z_dim} needs ({want},)")
