"""Shared test utilities: a central-difference gradient oracle, nested-loop
reference kernels, and the reference implementations and fixtures that only
tests use: tape primitives no program records, a micro search space, random
and one-hot architectures, the supernet-slicing encoder, an oracle encoder and
single-sample gaze re-weighting."""

from __future__ import annotations

import gc
import tracemalloc
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from avenas.objective import GazeState, reweight_batch
from avenas.supernet import (
    DiscreteEncoder, SampledArch, SearchSpace, SupernetSpec, layer_shapes,
)
from avenas.tensor_core import (
    Graph, ShapeError, Tensor, _as_tensor, _broadcastable, _emit, _reduce_broadcast,
    _relu, _silu, backward, scale,
)
from avenas.training import ADAM_B1, ADAM_B2, ADAM_EPS


def numeric_grad(fn, tensors, wrt, h=1e-5):
    """Central-difference gradient of scalar fn w.r.t. one input tensor.

    ``fn`` maps the tensor list to a scalar Tensor; evaluations run without a
    recording graph so they stay independent of the reverse-mode path.
    """
    t = tensors[wrt]
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn(tensors).data)
        flat[i] = orig - h
        fm = float(fn(tensors).data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def autodiff_grads(fn, tensors):
    with Graph() as g:
        loss = fn(tensors)
    backward(g, loss)
    return [g.grad(t) for t in tensors]


def backward_peaks(record) -> tuple[int, int]:
    """Peak bytes that ``backward`` allocates over the graph ``record()``
    returns as ``(graph, loss)``, and the same for a reference sweep of a
    second such graph in which every VJP keeps the gradients it was handed
    alive until it returns. Only what a sweep allocates counts, not what the
    graph held when it began."""
    def holding(vjp):
        def held(gs):
            kept = list(gs)   # noqa: F841
            return vjp(gs)
        return held

    peaks = []
    for hold in (False, True):
        graph, loss = record()
        if hold:
            for node in graph.nodes:
                if node.vjp is not None:
                    node.vjp = holding(node.vjp)
        gc.collect()
        tracemalloc.start()
        try:
            backward(graph, loss)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0], peaks[1]


def rel_error(a, b):
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / denom


def check_gradients(fn, tensors, tol=1e-4, h=1e-5):
    """Compare reverse-mode gradients against central differences."""
    got = autodiff_grads(fn, tensors)
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        want = numeric_grad(fn, tensors, i, h=h)
        err = rel_error(got[i], want)
        assert err < tol, f"gradient mismatch on input {i}: rel err {err:.3e}"


def rand_tensor(rng, shape, requires_grad=True, lo=-1.0, hi=1.0, avoid_zero=None):
    data = rng.uniform(lo, hi, size=shape)
    if avoid_zero is not None:
        # keep activations away from their kink so finite differences are clean
        data = np.where(np.abs(data) < avoid_zero,
                        np.sign(data) * avoid_zero + (data == 0) * avoid_zero, data)
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# nested-loop reference kernels: the convolution and bilinear-resize sums
# written out element by element, independent of the vectorised kernels
# ---------------------------------------------------------------------------

def ref_conv2d_forward(xp, kern, stride):
    b, ci, hp, wp = xp.shape
    co, _, kh, kw = kern.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((b, co, ho, wo))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    acc = 0.0
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += xp[n, i, y * stride + dy, x * stride + dx] \
                                    * kern[o, i, dy, dx]
                    out[n, o, y, x] = acc
    return out


def ref_conv2d_gather(xp, kern, stride):
    """``kernels.conv2d_forward`` built from numpy's window helper: the
    windows come from ``sliding_window_view``, a ``[::stride]`` slice and a
    transpose, then the same GEMM. Pair it with ``ref_pad``."""
    b, ci = xp.shape[:2]
    co, _, kh, kw = kern.shape
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, ci, kh * kw, ho * wo)
    out = kern.reshape(co, -1) @ cols.reshape(b, ci * kh * kw, ho * wo)
    return out.reshape(b, co, ho, wo), cols


def ref_pad(x, padding):
    """Zero padding of the two spatial axes with ``np.pad``."""
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def ref_conv2d_grad_input(gout, kern, stride, hp, wp):
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    gx = np.zeros((b, ci, hp, wp))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    g = gout[n, o, y, x]
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                gx[n, i, y * stride + dy, x * stride + dx] += \
                                    g * kern[o, i, dy, dx]
    return gx


def ref_conv2d_grad_input_scatter(gout, kern, stride, hp, wp):
    """``kernels.conv2d_grad_input`` on a channel-first grid: the same GEMM,
    then each tap's columns added onto a zeroed ``(b, ci, hp, wp)`` grid in
    ``dy``, ``dx`` order. The kernel must match it bit for bit."""
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    cols = (kern.reshape(co, -1).T @ gout.reshape(b, co, ho * wo)).reshape(
        b, ci, kh, kw, ho, wo)
    gx = np.zeros((b, ci, hp, wp))
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += \
                cols[:, :, dy, dx]
    return gx


def ref_conv2d_heads_grad_input(gouts, kerns, stride, hp, wp):
    """Input gradient of several convs of one input with kernels of one size
    (``tensor_core.conv2d_heads``): the column gradients ``k^T g`` summed
    from the last head inward, ``k1^T g1 + (k2^T g2 + ...)``, then scattered
    once as ``ref_conv2d_grad_input_scatter`` scatters one."""
    b, _, ho, wo = gouts[0].shape
    _, ci, kh, kw = kerns[0].shape
    cols = 0.0
    for g, k in zip(gouts[::-1], kerns[::-1]):
        cols = k.reshape(k.shape[0], -1).T @ g.reshape(b, -1, ho * wo) + cols
    cols = cols.reshape(b, ci, kh, kw, ho, wo)
    gx = np.zeros((b, ci, hp, wp))
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += \
                cols[:, :, dy, dx]
    return gx


class RefAdam:
    """``training.Adam`` updating each whole array at once; the chunked
    update must match it bit for bit."""

    def __init__(self, arrays):
        self.arrays = list(arrays)
        self.t = 0
        self.m = [np.zeros_like(a) for a in self.arrays]
        self.v = [np.zeros_like(a) for a in self.arrays]

    def step(self, grads, lr):
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for a, m, v, g in zip(self.arrays, self.m, self.v, grads):
            if g is None:
                continue
            m *= ADAM_B1
            m += (1 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1 - ADAM_B2) * (g * g)
            a -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def ref_conv2d_grad_kernel(xp, gout, stride, kh, kw):
    b, co, ho, wo = gout.shape
    ci = xp.shape[1]
    gk = np.zeros((co, ci, kh, kw))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    g = gout[n, o, y, x]
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                gk[o, i, dy, dx] += \
                                    g * xp[n, i, y * stride + dy, x * stride + dx]
    return gk


def _ref_sample(y, n_out, n_in):
    # half-pixel-centre source coordinate, clamped at the border
    s = min(max((y + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1.0)
    i0 = int(np.floor(s))
    return i0, min(i0 + 1, n_in - 1), s - i0


def ref_resize_bilinear(x, oh, ow):
    b, c, h, w = x.shape
    out = np.zeros((b, c, oh, ow))
    for y in range(oh):
        y0, y1, ty = _ref_sample(y, oh, h)
        for x_ in range(ow):
            x0, x1, tx = _ref_sample(x_, ow, w)
            for n in range(b):
                for ch in range(c):
                    out[n, ch, y, x_] = (x[n, ch, y0, x0] * (1 - ty) * (1 - tx)
                                         + x[n, ch, y0, x1] * (1 - ty) * tx
                                         + x[n, ch, y1, x0] * ty * (1 - tx)
                                         + x[n, ch, y1, x1] * ty * tx)
    return out


def ref_resize_bilinear_grad(gout, h, w):
    b, c, oh, ow = gout.shape
    gx = np.zeros((b, c, h, w))
    for y in range(oh):
        y0, y1, ty = _ref_sample(y, oh, h)
        for x_ in range(ow):
            x0, x1, tx = _ref_sample(x_, ow, w)
            for n in range(b):
                for ch in range(c):
                    g = gout[n, ch, y, x_]
                    gx[n, ch, y0, x0] += g * (1 - ty) * (1 - tx)
                    gx[n, ch, y0, x1] += g * (1 - ty) * tx
                    gx[n, ch, y1, x0] += g * ty * (1 - tx)
                    gx[n, ch, y1, x1] += g * ty * tx
    return gx


# ---------------------------------------------------------------------------
# tape primitives that no program path records, kept as gradcheck subjects;
# each records its own node kind with the numpy operations of the library's
# fused nodes
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out, vjp = _relu(x.data)
    return _emit("relu", (x,), out, lambda gs: (vjp(gs[0]),))


def silu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out, vjp = _silu(x.data)
    return _emit("silu", (x,), out, lambda gs: (vjp(gs[0]),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    out = a.data * b.data
    return _emit("mul", (a, b), out, lambda gs: (_reduce_broadcast(gs[0] * b.data, a.shape),
                                                 _reduce_broadcast(gs[0] * a.data, b.shape)))


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)
    return _emit("exp", (x,), out, lambda gs: (gs[0] * out,))


def l2norm(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(np.sqrt((x.data * x.data).sum()))

    def vjp(gs):
        n = float(out)
        if n == 0.0:
            return (np.zeros(x.shape),)
        return (gs[0] * x.data / n,)

    return _emit("l2norm", (x,), out, vjp)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)
    return _emit("reshape", (x,), out, lambda gs: (gs[0].reshape(x.shape),))


# ---------------------------------------------------------------------------
# search-space fixtures and the supernet's slicing reference
# ---------------------------------------------------------------------------

def micro_spec() -> SupernetSpec:
    """Single-view, two-block profile whose search space has exactly
    2 ops x 2 scales per block and 2 resolutions: 32 architectures in total,
    small enough to enumerate."""
    return SupernetSpec(
        search_space=SearchSpace(operators=("conv", "skip"),
                                 channel_scales=(0.5, 1.0),
                                 resolutions=(8, 12)),
        views=("mouth",),
        stem_channels=4,
        backbone_channels=(), backbone_strides=(),
        latent_channels=(4, 4), latent_strides=(1, 2),
        latent_feat_dim=4, z_dim=4, n_keypoints=1, early_channels=2)


def random_arch(spec: SupernetSpec, rng: np.random.Generator,
                name: str | None = None) -> SampledArch:
    """Uniform draw from the search space (used by enumeration-style checks)."""
    space = spec.search_space
    ops: dict[tuple[str, str], list[str]] = {}
    scales: dict[tuple[str, str], list[float]] = {}
    for view, branch, i, *_ in spec.blocks():
        ops.setdefault((view, branch), []).append(
            space.operators[rng.integers(len(space.operators))])
        scales.setdefault((view, branch), []).append(
            space.channel_scales[rng.integers(len(space.channel_scales))])
    resolutions = {v: int(space.resolutions[rng.integers(len(space.resolutions))])
                   for v in spec.views}
    return SampledArch(operators=ops, channel_scales=scales,
                       resolutions=resolutions, name=name)


def one_hot_arch_weights(spec: SupernetSpec, arch: SampledArch) -> tuple[Tensor, Tensor]:
    """Exact one-hot weight matrices reproducing ``arch`` through the mixed
    path: operators (n_blocks, n_ops) and scales (n_blocks, n_scales)."""
    space = spec.search_space
    blocks = list(spec.blocks())
    ow = np.zeros((len(blocks), len(space.operators)))
    cw = np.zeros((len(blocks), len(space.channel_scales)))
    for j, (view, branch, i, *_) in enumerate(blocks):
        ow[j, space.operators.index(arch.op_at(view, branch, i))] = 1.0
        cw[j, space.channel_scales.index(arch.scale_at(view, branch, i))] = 1.0
    return Tensor(ow), Tensor(cw)


def from_supernet(spec: SupernetSpec, weights: dict[str, Tensor],
                  arch: SampledArch) -> DiscreteEncoder:
    """The sub-network of ``arch`` sliced out of supernet weights.

    It computes what the supernet computes under one-hot architecture
    weights, by slicing instead of masking, so it is the reference that the
    mask-based mixture is cross-checked against. Every layer is the leading
    slice of the supernet layer of the same name, except that a fuse-mb block
    keeps the supernet's full hidden width, and a skip follows the supernet:
    its sliced 1x1 kernel where the supernet has one, else the identity, or a
    1x1 ``eye`` kernel where the effective widths differ.
    """
    shapes = layer_shapes(spec, arch)
    for b in spec.blocks(scales=arch.channel_scales):
        base, op = f"{b.view}/{b.branch}/b{b.i}", arch.op_at(b.view, b.branch, b.i)
        if op == "fuse-mb":
            shapes[base + "/expand"] = (b.c_out_max, b.c_in, 3, 3)
            shapes[base + "/expand_bias"] = (b.c_out_max, 1, 1)
            shapes[base + "/project"] = (b.c_out, b.c_out_max, 1, 1)
        elif op == "skip" and base + "/skip" in weights:
            shapes[base + "/skip"] = (b.c_out, b.c_in, 1, 1)
    sliced = {name: Tensor(weights[name].data[tuple(map(slice, shape))].copy()
                           if name in weights else np.eye(*shape[:2]).reshape(shape))
              for name, shape in shapes.items()}
    return DiscreteEncoder.from_weights(spec, arch, sliced)


# ---------------------------------------------------------------------------
# runtime and objective references
# ---------------------------------------------------------------------------

class OracleEncoder:
    """Encoder stand-in that reads the ground truth off the frames; isolates
    runtime mechanics from model quality in tests."""

    def full(self, frames):
        return (np.stack([f.z for f in frames]), np.stack([f.g for f in frames]),
                {k: np.stack([f.keypoints[k] for f in frames])
                 for k in frames[0].keypoints})

    def early(self, frames):
        return np.stack([f.z for f in frames])


def reweight(loss, g: np.ndarray, state: GazeState):
    """Scale one sample's loss by exp(|g - g_bar| / tau), then advance the EMA.

    The weight is computed from values only (detached), so gradients of the
    scaled loss are exactly weight * gradients of the plain loss.
    """
    w = float(reweight_batch(np.asarray(g)[None], state)[0])
    if isinstance(loss, Tensor):
        return scale(loss, w), state
    return w * float(loss), state
