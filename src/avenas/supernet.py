"""View-decoupled searchable avatar encoder.

Each camera view (left eye, right eye, mouth) owns an independent column: a
fixed convolutional stem, two searchable backbone blocks, and per-task
branches (latent feature for every view; gaze and keypoints for the eyes
only). Per-view 128-d latent features are concatenated and regressed into the
final latent code, so the only cross-view traffic is three small vectors.

Every searchable block mixes three candidate operators under Gumbel-softmax
weights, and realises width search as a weighted sum of binary channel masks
over the widest output. The weights of all blocks are two matrices, operators
(n_blocks, n_ops) and channel scales (n_blocks, n_scales), one row per block
in walk order; one tape node (``tensor_core.mixture``) mixes a block from its
row.

``SupernetSpec.blocks`` is the one walk over the block topology: the supernet,
the deployable encoder, architecture derivation and the cost models all take
every block's widths and spatial sizes from it. ``layer_shapes`` is the one
layer table built on that walk, with each operator's kernels from
``op_kernels``: the supernet (every candidate at nominal widths) and the
deployable encoder (the chosen operators at effective widths) take their
weight names, shapes and seeded init from it, every MAC count is read off it
(``layer_macs``), and ``_run_ops`` is the one body of the conv, fuse-mb and
skip operators that both networks run: the supernet runs a block's every
candidate through it, giving ``conv`` and ``fuse-mb`` one shared first conv
node, and the deployable encoder its one chosen operator.

In the supernet every candidate runs at its nominal width, so views at one
input resolution run layers of one shape, each with its own weights.
``_encode``, the one forward body of both networks, walks groups of views:
the supernet stacks the views of one resolution (``view_groups``) along the
batch axis and records one node per layer for the group, bit for bit the
values and gradients of one node per view; the deployable encoder runs one
view per group, today's nodes exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .serialize import InputError, write_json
from .tensor_core import (
    ShapeError, Tensor,
    add, concat, conv2d, conv2d_heads, global_avg_pool, matmul, mixture, resize_bilinear,
    scale, softmax, split,
)

OPS = ("fuse-mb", "conv", "skip")

CHANNEL_SCALES = (0.5, 0.53125, 0.5625, 0.59375, 0.625,
                  0.6875, 0.75, 0.8125, 0.875, 0.9375, 1.0)

RESOLUTIONS = (32, 48, 64, 80, 96, 128, 192)

EYE_VIEWS = ("left_eye", "right_eye")
VIEWS = ("left_eye", "right_eye", "mouth")


def scaled_channels(scale: float, c_max: int) -> int:
    """Effective width at a channel scale: the leading ceil(scale*max) channels."""
    return int(math.ceil(scale * c_max))


@dataclass(frozen=True)
class SearchSpace:
    operators: tuple[str, ...] = OPS
    channel_scales: tuple[float, ...] = CHANNEL_SCALES
    resolutions: tuple[int, ...] = RESOLUTIONS

    def __post_init__(self):
        if list(self.channel_scales) != sorted(set(self.channel_scales)):
            raise ValueError("channel_scales must be strictly increasing")
        if not (self.channel_scales[0] >= 0.5 - 1e-12 and self.channel_scales[-1] <= 1.0):
            raise ValueError("channel_scales must lie in [0.5, 1.0]")
        if list(self.resolutions) != sorted(set(self.resolutions)):
            raise ValueError("resolutions must be strictly increasing")
        unknown = set(self.operators) - set(OPS)
        if unknown:
            raise ValueError(f"unknown operators {sorted(unknown)}")


class Block(NamedTuple):
    """One searchable block as ``SupernetSpec.blocks`` walks it."""

    view: str
    branch: str
    i: int
    c_in_max: int
    c_out_max: int
    stride: int
    c_in: int              # effective widths
    c_out: int
    h_in: int | None       # spatial sizes (square)
    h_out: int | None


@dataclass(frozen=True)
class SupernetSpec:
    """Structure constants of the searchable encoder plus its dimensional profile.

    A fuse-mb block's hidden width equals its output width.
    """

    search_space: SearchSpace = field(default_factory=SearchSpace)
    views: tuple[str, ...] = VIEWS
    stem_channels: int = 64
    backbone_channels: tuple[int, ...] = (64, 64)
    backbone_strides: tuple[int, ...] = (1, 2)
    latent_channels: tuple[int, ...] = (64, 64, 256, 256, 512, 512)
    latent_strides: tuple[int, ...] = (1, 1, 2, 1, 2, 2)
    gaze_channels: tuple[int, ...] = (256, 256, 128, 128, 32, 32)
    gaze_strides: tuple[int, ...] = (1, 1, 2, 1, 2, 2)
    keypoint_channels: tuple[int, ...] = (128, 64)
    keypoint_strides: tuple[int, ...] = (2, 1)
    latent_feat_dim: int = 128
    z_dim: int = 256
    gaze_dim: int = 3              # per eye
    n_keypoints: int = 19          # per eye, regressed as (x, y) pairs
    early_channels: int = 4

    @property
    def eye_views(self) -> tuple[str, ...]:
        return tuple(v for v in self.views if v in EYE_VIEWS)

    def branches(self, view: str) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        out = {"backbone": (self.backbone_channels, self.backbone_strides),
               "latent": (self.latent_channels, self.latent_strides)}
        if view in EYE_VIEWS:
            out["gaze"] = (self.gaze_channels, self.gaze_strides)
            out["keypoint"] = (self.keypoint_channels, self.keypoint_strides)
        return out

    def blocks(self, resolutions: dict[str, int] | None = None,
               scales: dict[tuple[str, str], list[float]] | None = None) -> Iterator[Block]:
        """Walk every searchable block in a fixed global order: views, then
        the backbone and the task branches that read its output.

        ``scales`` (per (view, branch), as in ``SampledArch.channel_scales``)
        sets the effective widths, which are the nominal ones without it.
        ``resolutions`` (per view) sets the spatial sizes, None without it.
        Sizes never depend on the operator: every candidate maps h to
        (h - 1) // stride + 1.
        """
        for view in self.views:
            h = None if resolutions is None else conv_out_hw(resolutions[view], 2)
            trunk = (self.stem_channels, self.stem_channels, h)   # stem output
            for branch, (chans, strides) in self.branches(view).items():
                c_in_max, c_in, h = trunk
                for i, (c_out_max, s) in enumerate(zip(chans, strides)):
                    c_out = (c_out_max if scales is None
                             else scaled_channels(scales[(view, branch)][i], c_out_max))
                    h_out = None if h is None else conv_out_hw(h, s)
                    yield Block(view, branch, i, c_in_max, c_out_max, s, c_in, c_out, h, h_out)
                    c_in_max, c_in, h = c_out_max, c_out, h_out
                if branch == "backbone":
                    trunk = (c_in_max, c_in, h)

    def head_dim(self, branch: str) -> int:
        return {"latent": self.latent_feat_dim,
                "gaze": self.gaze_dim,
                "keypoint": 2 * self.n_keypoints}[branch]

    def gaze_total_dim(self) -> int:
        return self.gaze_dim * len(self.eye_views)


def paper_spec() -> SupernetSpec:
    """The paper's dimensions: 192 px views at most, 256-d latent code."""
    return SupernetSpec()


def toy_spec(channel_scales: tuple[float, ...] = CHANNEL_SCALES) -> SupernetSpec:
    """Small profile with the full three-view topology, sized for fast tests:
    12/16/24 px views, 8-d latent code."""
    return SupernetSpec(
        search_space=SearchSpace(channel_scales=channel_scales, resolutions=(12, 16, 24)),
        stem_channels=8,
        backbone_channels=(8, 8),
        latent_channels=(8, 8, 16, 16, 16, 16),
        gaze_channels=(16, 16, 8, 8, 8, 8),
        keypoint_channels=(8, 8),
        latent_feat_dim=8,
        z_dim=8,
        n_keypoints=4,
        early_channels=2,
    )


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def op_kernels(op: str, c_in: int, c_out: int, stride: int) -> dict[str, tuple]:
    """Kernel shapes of one candidate operator, by layer name. A fuse-mb
    block's hidden width is its output width; a skip has a 1x1 kernel only
    where the widths or the stride change."""
    if op == "fuse-mb":
        return {"expand": (c_out, c_in, 3, 3), "project": (c_out, c_out, 1, 1)}
    if op == "conv":
        return {"conv": (c_out, c_in, 3, 3)}
    if op != "skip":
        raise ValueError(f"unknown operator {op!r}")
    return {"skip": (c_out, c_in, 1, 1)} if c_in != c_out or stride != 1 else {}


def layer_shapes(spec: SupernetSpec, arch: SampledArch | None = None) -> dict[str, tuple]:
    """Name -> shape of every layer, one naming scheme for both networks.

    Without ``arch``: the supernet, every candidate operator at its nominal
    widths; with it: the deployable encoder, the chosen operators at their
    effective widths. A layer ``<name>`` has a ``<name>_bias``, except a
    skip's 1x1 kernel. Block layers are ``<view>/<branch>/b<i>/<layer>``, one
    per ``op_kernels`` entry. Order: per view the stem, the early conv, the
    blocks and each task branch's head; then the merged latent and early heads.
    """
    if arch is not None:
        validate_arch(spec, arch)
    shapes: dict[str, tuple] = {}

    def conv(name, shape):
        shapes[name], shapes[name + "_bias"] = shape, (shape[0], 1, 1)

    def affine(name, ci, d):
        shapes[name], shapes[name + "_bias"] = (ci, d), (d,)

    walk = spec.blocks(scales=None if arch is None else arch.channel_scales)
    for view, view_blocks in groupby(walk, key=attrgetter("view")):
        conv(f"{view}/stem", (spec.stem_channels, 1, 3, 3))
        conv(f"{view}/early", (spec.early_channels, spec.stem_channels, 3, 3))
        for branch, chain in groupby(view_blocks, key=attrgetter("branch")):
            for b in chain:
                base = f"{view}/{branch}/b{b.i}"
                for op in OPS if arch is None else (arch.op_at(view, branch, b.i),):
                    for layer, shape in op_kernels(op, b.c_in, b.c_out, b.stride).items():
                        if layer == "skip":
                            shapes[f"{base}/skip"] = shape
                        else:
                            conv(f"{base}/{layer}", shape)
            if branch != "backbone":
                affine(f"{view}/{branch}/head", b.c_out, spec.head_dim(branch))
    affine("head", len(spec.views) * spec.latent_feat_dim, spec.z_dim)
    affine("early_head", len(spec.views) * spec.early_channels, spec.z_dim)
    return shapes


def layer_macs(spec: SupernetSpec, arch: SampledArch) -> dict[str, int]:
    """Multiply-accumulates of every layer of ``arch``'s encoder at its input
    resolutions, by ``layer_shapes`` name, biases aside: kernel elements times
    output pixels, with one pixel for an affine layer."""
    shapes = layer_shapes(spec, arch)
    side = {}                       # output side of each conv layer or block
    for view in spec.views:
        side[f"{view}/stem"] = h = conv_out_hw(arch.resolutions[view], 2)
        side[f"{view}/early"] = conv_out_hw(h, 2)
    for b in spec.blocks(arch.resolutions):
        side[f"{b.view}/{b.branch}/b{b.i}"] = b.h_out
    macs = {}
    for name, shape in shapes.items():
        if len(shape) in (2, 4):    # affine weights, conv kernels; not biases
            # one pixel for an affine layer; a block's layers share its output
            h = 1 if len(shape) == 2 else side.get(name) or side[name.rpartition("/")[0]]
            macs[name] = math.prod(shape) * h * h
    return macs


def _init_weights(shapes, seed: int) -> dict[str, Tensor]:
    """The init rule, drawn in the order of ``shapes`` ((name, shape) pairs):
    zero biases, He-normal kernels, affine weights with variance 1/fan-in."""
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in shapes:
        if name.endswith("_bias"):
            data = np.zeros(shape)
        elif len(shape) == 4:
            data = rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), size=shape)
        else:
            data = rng.normal(0.0, math.sqrt(1.0 / shape[0]), size=shape)
        weights[name] = Tensor(data, requires_grad=True)
    return weights


def init_supernet_weights(spec: SupernetSpec, seed: int) -> dict[str, Tensor]:
    """Every candidate's weights, drawn stage by stage: all stems and early
    convs, then the blocks, then the heads."""
    def stage(item):
        name = item[0].removesuffix("_bias")
        return 2 if name.endswith("head") else int(name.count("/") > 1)
    return _init_weights(sorted(layer_shapes(spec).items(), key=stage), seed)


# ---------------------------------------------------------------------------
# gumbel sampling
# ---------------------------------------------------------------------------

def gumbel_weights(logits: Tensor, noise: np.ndarray, temperature: float) -> Tensor:
    """Relaxed categorical sample softmax((logits + noise) / temperature),
    one sample per row of a logit matrix (or of one logit vector).

    ``noise`` is i.i.d. Gumbel(0,1) from the caller's seeded generator, of
    the logits' shape; the result is differentiable w.r.t. ``logits``.
    """
    if temperature <= 0:
        raise ValueError(f"gumbel temperature must be positive, got {temperature}")
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("gumbel_weights: non-finite logits")
    return softmax(scale(add(logits, Tensor(np.asarray(noise))), 1.0 / temperature))


def sample_hard(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Hard categorical draw via the Gumbel-max trick (the temperature->0 limit)."""
    return int(np.argmax(logits + rng.gumbel(size=len(logits))))


# ---------------------------------------------------------------------------
# mixed (supernet) forward
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def channel_masks(scales: tuple[float, ...], c_max: int) -> np.ndarray:
    """Binary mask per scale candidate; mask s keeps the leading ceil(s*c_max).
    Built once per ``(scales, c_max)`` and read-only."""
    m = np.zeros((len(scales), c_max))
    for i, s in enumerate(scales):
        m[i, :scaled_channels(s, c_max)] = 1.0
    m.flags.writeable = False
    return m


# the operators that open with a 3x3, padding-1 conv at the block's stride:
# that layer's name and activation
_FIRST_CONV = {"fuse-mb": ("expand", "silu"), "conv": ("conv", "relu")}

# The supernet runs the views that share a resolution as one batch, in groups
# of at most this many input pixels (frames times height times width, summed
# over the group's views), one node per layer for the group. At toy sizes a
# step is bound by the cost per node, which grouping divides: search-toy's
# three 16 px views at batch 16 (12,288) run as one group, op_ms_p50 -7 %.
# At paper sizes it is bound by arithmetic: search-paper's three 96 px views
# at batch 1 (27,648) as one group measured op_ms_p50 +4.3 % and peak_rss_mb
# +32 MB (+2.5 %) against one group per view, worse in 8 and 10 of 10 pairs,
# so the budget admits the toy group and no two of these views (18,432).
GROUP_PIXEL_BUDGET = 1 << 14


def view_groups(spec: SupernetSpec, frames: dict, resolutions: dict[str, int]
                ) -> list[tuple[str, ...]]:
    """The supernet's view groups: views of one resolution and batch size,
    each group in spec order and within ``GROUP_PIXEL_BUDGET``; a view over
    the budget is a group of its own. Groups are in the order of their first
    views."""
    groups: list[list[str]] = []
    open_groups: dict[tuple[int, int], list[str]] = {}
    for view in spec.views:
        key = (resolutions[view], frames[view].shape[0])
        group = open_groups.get(key)
        if group is None or (len(group) + 1) * key[0] ** 2 * key[1] > GROUP_PIXEL_BUDGET:
            group = open_groups[key] = []
            groups.append(group)
        group.append(view)
    return [tuple(g) for g in groups]


def _layer(weights: dict[str, Tensor], bases, layer: str, bias: bool = True) -> tuple:
    """Kernel and bias (None without) of layer ``layer`` under each of
    ``bases``, one per view, as ``conv2d_heads`` takes a head's: the tensors
    themselves for one view, a list of one per view for more."""
    if len(bases) == 1:
        name = f"{bases[0]}/{layer}"
        return weights[name], weights[name + "_bias"] if bias else None
    return ([weights[f"{base}/{layer}"] for base in bases],
            [weights[f"{base}/{layer}_bias"] for base in bases] if bias else None)


def _conv_layer(x: Tensor, weights: dict[str, Tensor], bases, layer: str,
                act: str | None = None, bias: bool = True, stride: int = 1,
                padding: int = 0) -> Tensor:
    """Conv layer ``layer`` under each of ``bases``, one per view whose input
    ``x`` stacks along its batch axis, as one node: a ``conv2d`` for one."""
    kern, b = _layer(weights, bases, layer, bias)
    if len(bases) == 1:
        return conv2d(x, kern, b, stride, padding, act)
    return conv2d_heads(x, [(kern, b, act)], stride, padding)[0]


def _run_ops(x: Tensor, ops: tuple[str, ...], weights: dict[str, Tensor],
             bases: list[str], stride: int) -> list[Tensor]:
    """The operators ``ops`` of one block on one input, for both networks:
    every candidate in the supernet, the chosen one in the deployable
    encoder. ``bases`` names the block in each view whose input ``x`` stacks
    along its batch axis, one equal slice each, and each layer runs as one
    node for them all. The first convs of ``conv`` and ``fuse-mb`` are one
    ``conv2d_heads`` node (one padded buffer, gather and scatter per slice
    where both run), recorded before fuse-mb's project and the skip: a 1x1
    convolution exactly where ``<base>/skip`` exists, and the identity
    otherwise.
    """
    opening = [op for op in ops if op in _FIRST_CONV]
    heads = [(*_layer(weights, bases, layer), act)
             for layer, act in map(_FIRST_CONV.get, opening)]
    firsts = iter(conv2d_heads(x, heads, stride=stride, padding=1) if heads else ())
    outs = []
    for op in ops:
        y = next(firsts) if op in _FIRST_CONV else x
        if op == "fuse-mb":
            y = _conv_layer(y, weights, bases, "project")
        elif op == "skip" and bases[0] + "/skip" in weights:
            y = _conv_layer(x, weights, bases, "skip", bias=False, stride=stride)
        outs.append(y)
    return outs


def mixed_block_forward(x: Tensor, op_weights: Tensor, ch_weights: Tensor,
                        spec: SupernetSpec, weights: dict[str, Tensor],
                        view: str, branch: str, i: int,
                        row: int, c_out: int, stride: int,
                        others: tuple[tuple[str, int], ...] = ()) -> Tensor:
    """Block ``i`` of ``view/branch``, which is row ``row`` of the
    architecture weight matrices, mixed over every candidate operator.

    ``others`` are the ``(view, row)`` pairs of further views whose inputs
    ``x`` stacks after ``view``'s along its batch axis, one equal slice each;
    the block then runs as one node per layer for all of them.
    """
    space = spec.search_space
    views = (view, *(v for v, _ in others))
    outs = _run_ops(x, space.operators, weights, [f"{v}/{branch}/b{i}" for v in views],
                    stride)
    return mixture(outs, op_weights, ch_weights, [row, *(r for _, r in others)],
                   channel_masks(space.channel_scales, c_out))


@dataclass
class EncoderOutput:
    z: Tensor
    gaze: dict[str, Tensor]
    g: Tensor
    keypoints: dict[str, Tensor]
    view_feats: dict[str, Tensor]
    z_early: Tensor | None = None


def _affine(x: Tensor, weights: dict[str, Tensor], name: str) -> Tensor:
    return add(matmul(x, weights[name]), weights[name + "_bias"])


@lru_cache(maxsize=64)
def _group_walk(spec: SupernetSpec, group: tuple[str, ...]) -> tuple:
    """The walk of the views ``group`` as one: per branch with blocks, in walk
    order, its name, the views of the group it has blocks in, and its blocks
    as one tuple per position, with a ``Block`` per view."""
    chains: dict[str, dict[str, list[Block]]] = {}
    for b in spec.blocks():
        if b.view in group:
            chains.setdefault(b.branch, {}).setdefault(b.view, []).append(b)
    return tuple((branch, tuple(by_view), tuple(zip(*by_view.values())))
                 for branch, by_view in chains.items())


def _stem(frames: dict, views: tuple[str, ...], res: int,
          weights: dict[str, Tensor]) -> Tensor:
    """The frames of ``views`` at ``res`` px, stacked along the batch axis in
    that order, through their stems."""
    xs = []
    for view in views:
        x = frames[view] if isinstance(frames[view], Tensor) else Tensor(frames[view])
        if x.shape[2] != res or x.shape[3] != res:
            x = resize_bilinear(x, res, res)
        xs.append(x)
    x = xs[0] if len(xs) == 1 else concat(xs, axis=0)
    return _conv_layer(x, weights, views, "stem", "relu", True, 2, 1)


def _check_views(views: tuple[str, ...], frames: dict) -> None:
    missing = [v for v in views if v not in frames]
    if missing:
        raise ShapeError(f"encoder forward: missing views {missing}") from None


def _early_feat(s0: Tensor, weights: dict[str, Tensor], views: tuple[str, ...]) -> Tensor:
    return global_avg_pool(_conv_layer(s0, weights, views, "early", "relu", True, 2, 1))


def _encode(spec: SupernetSpec, frames: dict, resolutions: dict[str, int],
            weights: dict[str, Tensor], block: Callable[[Tensor, tuple], Tensor],
            with_early: bool, groups: list[tuple[str, ...]]) -> EncoderOutput:
    """The fixed layers around the searchable blocks, shared by the supernet
    and the deployable encoder: per view a stem, then the blocks in walk
    order, a pooled affine head per task branch and the merged latent head.

    The views run in ``groups``, which the caller has checked ``frames``
    holds: ``view_groups`` for the supernet, one view each for the
    deployable encoder. A group's frames are stacked along the batch axis in
    group order, and each layer runs as one node for the group, recorded in
    one view's order:
    stem, early conv, backbone, then the task branches. The gaze and
    keypoint branches of a group with other views run on one eye subset of
    the backbone's output (a ``split``, then a ``concat``), recorded after
    the latent branch, so the gradients that the backbone's output sums
    arrive in the order one view's graph gives them. Pooled features are
    split per view for the heads. Both networks name their fixed layers
    alike; ``block`` runs one block for a group, given its ``Block`` in each
    view.
    """
    early = {}
    heads: dict[str, dict[str, Tensor]] = {"latent": {}, "gaze": {}, "keypoint": {}}
    for group in groups:
        trunk = _stem(frames, group, resolutions[group[0]], weights)
        if with_early:
            early.update(zip(group, split(_early_feat(trunk, weights, group), len(group))))
        subsets = {}
        for branch, members, positions in _group_walk(spec, group):
            h = trunk
            if members != group:
                if members not in subsets:
                    parts = dict(zip(group, split(trunk, len(group))))
                    subsets[members] = (concat([parts[v] for v in members], axis=0)
                                        if len(members) > 1 else parts[members[0]])
                h = subsets[members]
            for bs in positions:
                h = block(h, bs)
            if branch == "backbone":
                trunk = h
            else:
                pooled = split(global_avg_pool(h), len(members))
                for v, p in zip(members, pooled):
                    heads[branch][v] = _affine(p, weights, f"{v}/{branch}/head")
    # in spec view order, which the loss concatenates them in
    feats, gaze, keypoints = ({v: d[v] for v in spec.views if v in d}
                              for d in heads.values())
    z = _affine(concat([feats[v] for v in spec.views], axis=1), weights, "head")
    if spec.eye_views:
        g = concat([gaze[v] for v in spec.eye_views], axis=1)
    else:
        g = Tensor(np.zeros((z.shape[0], 0)))
    z_early = None
    if with_early:
        z_early = _affine(concat([early[v] for v in spec.views], axis=1),
                          weights, "early_head")
    return EncoderOutput(z=z, gaze=gaze, g=g, keypoints=keypoints,
                         view_feats=feats, z_early=z_early)


def supernet_forward(spec: SupernetSpec, weights: dict[str, Tensor],
                     frames: dict[str, Tensor],
                     arch_weights: tuple[Tensor, Tensor],
                     resolutions: dict[str, int]) -> EncoderOutput:
    """Mixed forward pass of the whole supernet at the sampled resolutions,
    early head included; the views run in ``view_groups``.

    ``arch_weights`` is the pair of operator (n_blocks, n_ops) and channel
    (n_blocks, n_scales) weight matrices, one row per block in walk order.
    """
    op_weights, ch_weights = arch_weights
    rows = {b[:3]: j for j, b in enumerate(spec.blocks())}

    def block(x, bs):
        b = bs[0]
        return mixed_block_forward(x, op_weights, ch_weights, spec, weights, b.view,
                                   b.branch, b.i, rows[b[:3]], b.c_out_max, b.stride,
                                   tuple((o.view, rows[o[:3]]) for o in bs[1:]))

    _check_views(spec.views, frames)
    return _encode(spec, frames, resolutions, weights, block, True,
                   view_groups(spec, frames, resolutions))


# ---------------------------------------------------------------------------
# sampled architectures
# ---------------------------------------------------------------------------

def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"architecture {where} is not an object")
    return value


def _json_list(value, types, where: str, what: str) -> list:
    """``value`` if it is a list of ``types``, where a bool is no number."""
    if not isinstance(value, list) or any(
            isinstance(x, bool) or not isinstance(x, types) for x in value):
        raise InputError(f"architecture {where} is not a list of {what}: {value!r}")
    return value


@dataclass
class SampledArch:
    """One concrete architecture: an operator and channel scale per block plus
    a per-view input resolution."""

    operators: dict[tuple[str, str], list[str]]
    channel_scales: dict[tuple[str, str], list[float]]
    resolutions: dict[str, int]
    name: str | None = None

    def op_at(self, view: str, branch: str, i: int) -> str:
        return self.operators[(view, branch)][i]

    def scale_at(self, view: str, branch: str, i: int) -> float:
        return self.channel_scales[(view, branch)][i]

    def to_json_dict(self) -> dict:
        views: dict[str, dict] = {}
        for (view, branch), ops in sorted(self.operators.items()):
            v = views.setdefault(view, {"input_resolution": self.resolutions[view],
                                        "branches": {}})
            v["branches"][branch] = {
                "operators": list(ops),
                "channel_scales": list(self.channel_scales[(view, branch)]),
            }
        doc = {"views": views}
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampledArch":
        ops, scales, res = {}, {}, {}
        try:
            views = _json_object(_json_object(doc, "document")["views"], "'views'")
            for view, v in views.items():
                v = _json_object(v, f"view {view!r}")
                res[view] = r = v["input_resolution"]
                if isinstance(r, bool) or not isinstance(r, int):
                    raise InputError(f"architecture view {view!r} 'input_resolution' "
                                     f"is not an integer: {r!r}")
                branches = _json_object(v["branches"], f"'branches' of view {view!r}")
                for branch, b in branches.items():
                    where = f"branch {view}/{branch}"
                    b = _json_object(b, where)
                    ops[(view, branch)] = _json_list(
                        b["operators"], str, f"{where} 'operators'", "strings")
                    scales[(view, branch)] = [float(s) for s in _json_list(
                        b["channel_scales"], (int, float), f"{where} 'channel_scales'",
                        "numbers")]
        except KeyError as e:
            raise InputError(f"architecture has no {e.args[0]!r} entry") from None
        return cls(operators=ops, channel_scales=scales, resolutions=res,
                   name=doc.get("name"))

    def save(self, path, extra: dict | None = None) -> None:
        write_json(path, {**self.to_json_dict(), **(extra or {})})

    @classmethod
    def load(cls, path) -> "SampledArch":
        with open(path) as f:
            try:
                return cls.from_json_dict(json.load(f))
            except (ValueError, TypeError) as e:
                raise InputError(f"{path}: {e}") from None


def validate_arch(spec: SupernetSpec, arch: SampledArch) -> None:
    """Raise ``InputError`` naming the first entry of ``arch`` that ``spec``
    lacks, misses or cannot search."""
    space = spec.search_space
    extra = sorted(set(arch.resolutions) - set(spec.views))
    if extra:
        raise InputError(f"architecture view {extra[0]!r} is not in the spec")
    n_blocks = {(b.view, b.branch): b.i + 1 for b in spec.blocks()}
    for key in sorted(arch.operators.keys() | arch.channel_scales.keys()):
        where = "architecture branch " + "/".join(key)
        n_ops, n_sc = len(arch.operators.get(key, ())), len(arch.channel_scales.get(key, ()))
        if key not in n_blocks:
            raise InputError(f"{where} is not in the spec")
        if n_ops != n_sc:
            raise InputError(f"{where} has {n_ops} operators but {n_sc} channel scales")
        if n_ops > n_blocks[key]:
            raise InputError(f"{where} has {n_ops} blocks; the spec has {n_blocks[key]}")
    for view in spec.views:
        if view not in arch.resolutions:
            raise InputError(f"architecture is missing view {view!r}")
        if arch.resolutions[view] not in space.resolutions:
            raise InputError(
                f"resolution {arch.resolutions[view]} of {view} not in {space.resolutions}")
    for view, branch, i, *_ in spec.blocks():
        try:
            op = arch.op_at(view, branch, i)
            sc = arch.scale_at(view, branch, i)
        except (KeyError, IndexError):
            raise InputError(f"architecture is missing block {view}/{branch}/b{i}") from None
        if op not in space.operators:
            raise InputError(f"operator {op!r} at {view}/{branch}/b{i} not searchable")
        if sc not in space.channel_scales:
            raise InputError(f"channel scale {sc} at {view}/{branch}/b{i} not searchable")


# ---------------------------------------------------------------------------
# per-block cost primitive and architecture derivation
# ---------------------------------------------------------------------------

def conv_out_hw(h: int, stride: int) -> int:
    """Output side of a 3x3 conv with padding 1, or of a 1x1 conv without."""
    return (h - 1) // stride + 1


def block_macs(op: str, c_in_eff: int, c_out_eff: int, stride: int,
               h_in: int) -> tuple[int, int]:
    """Multiply-accumulate count of one discrete block outside an
    architecture (``layer_macs`` counts those); returns (macs, h_out).

    A fuse-mb block's hidden width is its effective output width, so block
    cost is exactly quadratic in the (input, output) scale pair.
    """
    h = conv_out_hw(h_in, stride)
    kernels = op_kernels(op, c_in_eff, c_out_eff, stride).values()
    return sum(map(math.prod, kernels)) * h * h, h


def derive_arch(spec: SupernetSpec, op_logits: np.ndarray, ch_logits: np.ndarray,
                res_logits: dict[str, np.ndarray]) -> SampledArch:
    """Discretise search logits by argmax; ties break toward the cheaper
    candidate (fewer MACs), and for scales/resolutions toward the smaller one.

    ``op_logits`` (n_blocks, n_ops) and ``ch_logits`` (n_blocks, n_scales)
    hold one row per block in walk order.
    """
    space = spec.search_space
    n_blocks = sum(1 for _ in spec.blocks())
    if op_logits.shape != (n_blocks, len(space.operators)) \
            or ch_logits.shape != (n_blocks, len(space.channel_scales)):
        raise ValueError(f"logit matrices {op_logits.shape} and {ch_logits.shape} do "
                         f"not match the {n_blocks} blocks")
    # argmax: the first maximum wins, i.e. the smaller resolution or scale
    resolutions = {v: space.resolutions[int(np.argmax(res_logits[v]))] for v in spec.views}
    scales: dict[tuple[str, str], list[float]] = {}
    for j, (view, branch, *_) in enumerate(spec.blocks()):
        scales.setdefault((view, branch), []).append(
            space.channel_scales[int(np.argmax(ch_logits[j]))])
    ops: dict[tuple[str, str], list[str]] = {}
    for ol, b in zip(op_logits, spec.blocks(resolutions, scales)):
        best = np.flatnonzero(ol == ol.max())
        costs = [block_macs(space.operators[j], b.c_in, b.c_out, b.stride, b.h_in)[0]
                 for j in best]
        ops.setdefault((b.view, b.branch), []).append(
            space.operators[best[int(np.argmin(costs))]])
    return SampledArch(operators=ops, channel_scales=scales, resolutions=resolutions)


# ---------------------------------------------------------------------------
# standalone realization of one sampled architecture
# ---------------------------------------------------------------------------

class DiscreteEncoder:
    """A sampled architecture built from scratch at its effective widths.

    This is the deployable network: each block keeps only its chosen operator,
    sized to ceil(scale * max) channels (a skip with mismatched effective
    dimensions or a stride becomes a 1x1 convolution). The FLOPs counter
    describes exactly this computation.
    """

    def __init__(self, spec: SupernetSpec, arch: SampledArch, seed: int):
        self.spec = spec
        self.arch = arch
        self.weights = _init_weights(layer_shapes(spec, arch).items(), seed)

    @classmethod
    def from_weights(cls, spec: SupernetSpec, arch: SampledArch,
                     weights: dict[str, Tensor]) -> "DiscreteEncoder":
        """The encoder of ``arch`` over ``weights``, taken as they are."""
        enc = cls.__new__(cls)
        enc.spec, enc.arch, enc.weights = spec, arch, weights
        return enc

    def _block(self, x: Tensor, bs: tuple[Block]) -> Tensor:
        (b,) = bs
        return _run_ops(x, (self.arch.op_at(b.view, b.branch, b.i),), self.weights,
                        [f"{b.view}/{b.branch}/b{b.i}"], b.stride)[0]

    def forward(self, frames: dict, with_early: bool = False) -> EncoderOutput:
        """The encoder's forward pass, one view per group."""
        _check_views(self.spec.views, frames)
        return _encode(self.spec, frames, self.arch.resolutions, self.weights,
                       self._block, with_early, [(v,) for v in self.spec.views])

    def forward_early(self, frames: dict) -> Tensor:
        """Just the early prediction path: stem, one conv, pool, one affine.

        It equals ``forward(frames, with_early=True).z_early`` bit for bit,
        but stays its own batch-1 fast path rather than a call into
        ``_encode``'s group helpers: built from those, every artifact kept
        its bits, but one early call at batch 1 (latex-toy's median online
        frame) took 135-144 us against 129-132 us.
        """
        w = self.weights
        try:
            feats = [_early_feat(_stem(frames, (v,), self.arch.resolutions[v], w), w, (v,))
                     for v in self.spec.views]
        except KeyError:      # a try costs nothing on the batch-1 path
            _check_views(self.spec.views, frames)
            raise
        return _affine(concat(feats, axis=1), w, "early_head")
